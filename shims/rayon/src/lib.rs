//! Offline stand-in for the `rayon` crate: a FIFO thread pool with scoped
//! spawning.
//!
//! The build environment for this workspace has no crates.io access, so this
//! shim provides exactly the subset of rayon's API the workspace calls, under
//! the same crate name and with the same signatures:
//!
//! * [`ThreadPoolBuilder`] (`new`, `num_threads`, `build`) and
//!   [`ThreadPoolBuildError`];
//! * [`ThreadPool::scope_fifo`] with [`ScopeFifo::spawn_fifo`] — borrowed
//!   tasks that start in strict submission order; the call returns once every
//!   task has finished;
//! * [`ThreadPool::spawn_fifo`] — detached `'static` tasks for long-lived
//!   daemons, with per-task panic containment.
//!
//! Design:
//!
//! * **One queue.** `N` OS threads drain one FIFO queue guarded by one mutex
//!   and one condvar. Every task, scoped or detached, is pushed to its back
//!   and popped from its front, so tasks start in submission order — the
//!   fairness primitive behind `ecs_model::ThroughputPool`.
//! * **Panics.** A panicking scoped task is caught on its worker; the scope
//!   records the first payload and resumes it on the caller once every task
//!   has drained, so borrowed state is never observed mid-flight and the pool
//!   never loses a worker. Detached tasks have their panics swallowed.
//! * **Nesting.** A worker that spawns into a scope of its *own* pool runs the
//!   task inline: blocking it on the scope while the task waits in the queue
//!   behind other work could deadlock a small pool. A worker of a *different*
//!   pool queues normally, because the target pool's workers are free to
//!   drain the tasks while it blocks.
//!
//! Unlike real rayon, `scope_fifo`'s `op` runs on the calling thread; only
//! spawned tasks move to the workers. A panicking detached task is contained
//! instead of aborting the process.
//!
//! The one `unsafe` block, in `erase_lifetime`, is sound because
//! `scope_fifo` does not return, normally or by unwinding, until its latch
//! counts every spawned task as finished.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A type-erased unit of work queued on the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A caught panic payload.
type Payload = Box<dyn Any + Send>;

thread_local! {
    /// The pool this thread is a worker of, or null. The pointer is only
    /// compared, never dereferenced; it stays valid while the worker runs
    /// because the worker loop holds an `Arc` to its pool.
    static WORKER_POOL: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
}

/// Locks a mutex, recovering the guard if a panicking holder poisoned it
/// (every critical section here leaves its data consistent).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Erases the lifetime of a queued task.
///
/// # Safety
///
/// The caller must not return control to the owner of any borrow captured by
/// `task` until the task has finished running. `ThreadPool::scope_fifo`
/// guarantees this with its latch: it blocks until every spawned task has
/// reported in.
#[allow(unsafe_code)]
unsafe fn erase_lifetime<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> Task {
    unsafe { std::mem::transmute(task) }
}

/// The queue and its shutdown flag, guarded together by one mutex.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on every push and on shutdown.
    wakeup: Condvar,
}

impl Shared {
    /// Queues one task at the back and wakes one idle worker.
    fn push(&self, task: Task) {
        lock(&self.queue).tasks.push_back(task);
        self.wakeup.notify_one();
    }

    /// Runs queued tasks in FIFO order until the pool shuts down and the
    /// queue is empty.
    fn worker_loop(self: Arc<Self>) {
        WORKER_POOL.with(|pool| pool.set(Arc::as_ptr(&self)));
        loop {
            let task = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(task) = queue.tasks.pop_front() {
                        break task;
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = self
                        .wakeup
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            task();
        }
    }

    /// Whether the current thread is one of this pool's workers.
    fn is_current_worker(self: &Arc<Self>) -> bool {
        WORKER_POOL.with(|pool| std::ptr::eq(pool.get(), Arc::as_ptr(self)))
    }
}

/// Error returned by [`ThreadPoolBuilder::build`] when the OS refuses to
/// spawn a worker thread.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    message: String,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool: {}", self.message)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configures and builds a [`ThreadPool`], mirroring rayon's builder.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads; `0` (the default) selects the
    /// machine's available parallelism. Unlike real rayon, no environment
    /// variable is read.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Spawns the workers and returns the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        let shared = Arc::new(Shared::default());
        // Workers spawned before a failure are joined by the pool's `Drop`.
        let mut pool = ThreadPool {
            shared: Arc::clone(&shared),
            handles: Vec::with_capacity(threads),
        };
        for worker in 0..threads {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("ecs-rayon-{worker}"))
                .spawn(move || shared.worker_loop())
                .map_err(|e| ThreadPoolBuildError {
                    message: e.to_string(),
                })?;
            pool.handles.push(handle);
        }
        Ok(pool)
    }
}

/// A pool of OS threads draining one FIFO queue.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a [`ScopeFifo`] whose spawned tasks run on this pool and
    /// blocks until `op` and every spawned task have completed. A panic in
    /// `op` or in any task resumes on the caller after the scope has drained;
    /// `op`'s own panic wins over a task's.
    pub fn scope_fifo<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&ScopeFifo<'scope>) -> R + Send,
        R: Send,
    {
        let scope = ScopeFifo {
            shared: Arc::clone(&self.shared),
            latch: Arc::new(ScopeLatch::default()),
            marker: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // Tasks already spawned must drain even when `op` itself panicked:
        // they borrow from the enclosing frame, which is about to unwind.
        let task_panic = scope.latch.wait();
        match (result, task_panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => panic::resume_unwind(payload),
            (Ok(value), None) => value,
        }
    }

    /// Queues a detached `'static` task; detached tasks start in submission
    /// order, interleaved with scoped ones. A panic in the task is swallowed
    /// so that it cannot kill a worker; long-lived services catch and report
    /// their own job failures before this backstop is reached.
    pub fn spawn_fifo<OP>(&self, op: OP)
    where
        OP: FnOnce() + Send + 'static,
    {
        self.shared.push(Box::new(move || {
            drop(panic::catch_unwind(AssertUnwindSafe(op)));
        }));
    }
}

impl Drop for ThreadPool {
    /// Lets the workers drain the queue, then joins them.
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.wakeup.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A scope for spawning borrowed tasks onto a pool, created by
/// [`ThreadPool::scope_fifo`]. Every task spawned through it has finished
/// before `scope_fifo` returns, which is what makes borrowing from the
/// enclosing stack frame sound.
pub struct ScopeFifo<'scope> {
    shared: Arc<Shared>,
    latch: Arc<ScopeLatch>,
    /// Makes `'scope` invariant, as in rayon: a longer-lived scope must not
    /// coerce into a shorter-lived one, or tasks could smuggle borrows out.
    marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> ScopeFifo<'scope> {
    /// Spawns a task at the back of the pool's queue. The task may itself
    /// spawn onto the same scope. On a worker of the same pool the task runs
    /// inline instead (see the crate docs).
    pub fn spawn_fifo<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&ScopeFifo<'scope>) + Send + 'scope,
    {
        self.latch.increment();
        let scope = ScopeFifo {
            shared: Arc::clone(&self.shared),
            latch: Arc::clone(&self.latch),
            marker: PhantomData,
        };
        let run = move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
            scope.latch.complete(outcome.err());
        };
        if self.shared.is_current_worker() {
            run();
            return;
        }
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(run);
        // SAFETY: `scope_fifo` blocks on the scope latch until every spawned
        // task has completed, so the borrows captured by `body` cannot
        // outlive the enclosing `scope_fifo` call.
        #[allow(unsafe_code)]
        let task = unsafe { erase_lifetime(task) };
        self.shared.push(task);
    }
}

/// Countdown latch for one scope: the pending-task count and the first panic.
#[derive(Default)]
struct ScopeLatch {
    state: Mutex<(usize, Option<Payload>)>,
    done: Condvar,
}

impl ScopeLatch {
    fn increment(&self) {
        lock(&self.state).0 += 1;
    }

    fn complete(&self, panic: Option<Payload>) {
        let mut state = lock(&self.state);
        if let Some(payload) = panic {
            state.1.get_or_insert(payload);
        }
        state.0 -= 1;
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every spawned task has completed, then returns the first
    /// captured panic payload, if any.
    fn wait(&self) -> Option<Payload> {
        let mut state = lock(&self.state);
        while state.0 > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.1.take()
    }
}

#[cfg(test)]
mod tests {
    use super::{ThreadPool, ThreadPoolBuilder};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds")
    }

    #[test]
    fn drop_drains_the_queue_and_joins_the_workers() {
        let p = pool(2);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            p.spawn_fifo(move || {
                std::thread::sleep(Duration::from_millis(1));
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(p); // must not hang
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn scope_runs_every_spawned_task_before_returning() {
        let p = pool(4);
        let mut slots = vec![0usize; 100];
        p.scope_fifo(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn_fifo(move |_| *slot = i + 1);
            }
        });
        assert_eq!(slots, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_fifo_executes_in_submission_order_on_one_worker() {
        // With a single worker the queue's strict FIFO start order is also
        // the completion order, so it is directly observable.
        let p = pool(1);
        let order = Mutex::new(Vec::new());
        p.scope_fifo(|s| {
            for i in 0..50usize {
                let order = &order;
                s.spawn_fifo(move |_| order.lock().unwrap().push(i));
            }
        });
        assert_eq!(order.into_inner().unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn work_runs_on_multiple_os_threads() {
        // Each task registers its thread, then waits until two distinct
        // threads have been seen (with a timeout, so a secretly sequential
        // pool fails the assertion instead of hanging).
        let p = pool(4);
        let ids = Mutex::new(HashSet::new());
        let seen_two = Condvar::new();
        p.scope_fifo(|s| {
            for _ in 0..4 {
                let (ids, seen_two) = (&ids, &seen_two);
                s.spawn_fifo(move |_| {
                    let mut ids = ids.lock().unwrap();
                    ids.insert(std::thread::current().id());
                    seen_two.notify_all();
                    while ids.len() < 2 {
                        let (guard, timeout) =
                            seen_two.wait_timeout(ids, Duration::from_secs(5)).unwrap();
                        ids = guard;
                        if timeout.timed_out() {
                            break;
                        }
                    }
                });
            }
        });
        let distinct = ids.into_inner().unwrap().len();
        assert!(
            distinct >= 2,
            "expected >= 2 worker threads, saw {distinct}"
        );
    }

    #[test]
    fn scope_tasks_can_spawn_more_tasks() {
        let p = pool(3);
        let count = AtomicUsize::new(0);
        p.scope_fifo(|s| {
            for _ in 0..10 {
                let count = &count;
                s.spawn_fifo(move |inner| {
                    count.fetch_add(1, Ordering::Relaxed);
                    inner.spawn_fifo(move |_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn scope_propagates_task_panics_after_draining() {
        let p = pool(4);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.scope_fifo(|s| {
                for i in 0..20usize {
                    let completed = &completed;
                    s.spawn_fifo(move |_| {
                        if i == 7 {
                            panic!("scope task boom");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("task panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("scope task boom"), "payload: {message}");
        // Every non-panicking task still ran: the scope drains before
        // unwinding, so borrowed state is never observed mid-flight.
        assert_eq!(completed.load(Ordering::Relaxed), 19);
        // The pool survives and remains usable.
        let sum = AtomicU64::new(0);
        p.scope_fifo(|s| {
            for i in 1..=10u64 {
                let sum = &sum;
                s.spawn_fifo(move |_| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn scope_from_another_pools_worker_uses_target_pool_threads() {
        // A worker of pool A opening a scope on pool B must queue the tasks
        // to B (whose workers are free to drain them while A's worker blocks
        // on the latch), not degrade to inline serial execution. Observable
        // deterministically: the spawning worker never executes B's tasks,
        // so every task thread id must differ from the spawner's.
        let a = pool(1);
        let b = pool(2);
        let checked = AtomicBool::new(false);
        // One task on A's (only) worker, which then opens a scope on B.
        a.scope_fifo(|outer| {
            let (b, checked) = (&b, &checked);
            outer.spawn_fifo(move |_| {
                let spawner = std::thread::current().id();
                let ids = Mutex::new(Vec::new());
                b.scope_fifo(|s| {
                    for _ in 0..10 {
                        let ids = &ids;
                        s.spawn_fifo(move |_| {
                            ids.lock().unwrap().push(std::thread::current().id())
                        });
                    }
                });
                let ids = ids.into_inner().unwrap();
                assert_eq!(ids.len(), 10);
                assert!(
                    ids.iter().all(|&id| id != spawner),
                    "tasks ran inline on the spawning worker instead of pool B"
                );
                checked.store(true, Ordering::Relaxed);
            });
        });
        assert!(checked.load(Ordering::Relaxed));
    }

    #[test]
    fn scope_on_a_workers_own_pool_runs_inline_without_deadlock() {
        // A worker that opens a scope on its own pool must not block on work
        // that only it could execute; inline execution makes this safe even
        // on a one-worker pool.
        let p = pool(1);
        let mut totals = vec![0u64; 8];
        p.scope_fifo(|outer| {
            for (i, total) in totals.iter_mut().enumerate() {
                let p = &p;
                outer.spawn_fifo(move |_| {
                    let worker = std::thread::current().id();
                    let acc = AtomicU64::new(0);
                    p.scope_fifo(|s| {
                        for j in 0..4u64 {
                            let acc = &acc;
                            s.spawn_fifo(move |_| {
                                assert_eq!(std::thread::current().id(), worker);
                                acc.fetch_add(i as u64 * 10 + j, Ordering::Relaxed);
                            });
                        }
                    });
                    *total = acc.load(Ordering::Relaxed);
                });
            }
        });
        let expected: Vec<u64> = (0..8u64).map(|i| 4 * (i * 10) + 6).collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn detached_spawns_run_and_survive_panics() {
        let p = pool(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..20usize {
            let tx = tx.clone();
            if i % 5 == 0 {
                // A panicking detached task must not kill its worker.
                p.spawn_fifo(move || panic!("detached boom {i}"));
            }
            p.spawn_fifo(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        // Both workers survived every panic and the pool still runs scopes.
        let mut slots = [false; 2];
        p.scope_fifo(|s| {
            for slot in &mut slots {
                s.spawn_fifo(move |_| *slot = true);
            }
        });
        assert_eq!(slots, [true; 2]);
    }

    #[test]
    fn detached_fifo_spawns_start_in_submission_order() {
        let p = pool(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..32usize {
            let order = Arc::clone(&order);
            let tx = tx.clone();
            p.spawn_fifo(move || {
                order.lock().unwrap().push(i);
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        for _ in 0..32 {
            rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        assert_eq!(order.lock().unwrap().clone(), (0..32).collect::<Vec<_>>());
    }
}
