//! The work-stealing thread pool behind the shim's parallel iterators.
//!
//! Architecture:
//!
//! * **Workers.** [`ThreadPoolBuilder::build`] spawns `N` OS threads, each
//!   owning one lock-protected deque. A worker pops its own deque from the
//!   back (LIFO, cache-warm) and, when empty, steals from the other deques
//!   from the front (FIFO, oldest work first).
//! * **Sleeping.** An idle worker re-checks every deque while holding the
//!   pool's sleep mutex and then blocks on a condvar; submitters notify under
//!   the same mutex, so wakeups cannot be lost.
//! * **Batches.** `PoolShared::run_indexed` splits an index space into
//!   chunks (several per worker so stealing can rebalance), submits one task
//!   per chunk round-robin across the deques, and blocks on a completion
//!   latch. Each chunk writes into its own slot, so the final result vector
//!   is assembled **in submission order** — results are bit-identical for
//!   every thread count, including one.
//! * **Panics.** A panic inside a chunk is caught in the worker, carried to
//!   the submitting thread through the latch, and resumed there once the
//!   whole batch has drained, so the pool itself never dies and borrowed
//!   inputs are never observed after `run_indexed` returns.
//!
//! * **Scopes.** [`scope`] / [`ThreadPool::scope`] spawn borrowed `FnOnce`
//!   tasks: [`Scope::spawn`] onto the work-stealing deques, and
//!   [`Scope::spawn_fifo`] onto a pool-wide FIFO injector queue that workers
//!   drain in strict submission order (after their own deque, before
//!   stealing) — the fairness primitive behind the multi-session throughput
//!   layer. The scope call blocks until every spawned task has completed.
//!
//! The one `unsafe` block in this crate lives in `erase_lifetime`: chunk
//! and scope tasks borrow the caller's closure and completion latch, and
//! their lifetime is erased to `'static` so they can sit in the worker
//! deques. This is sound because `run_indexed` and the scope entry points do
//! not return (normally or by panic) until their latch counts every
//! submitted task as finished.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A type-erased unit of work queued on the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// How many chunks `run_indexed` aims to create per worker; more than one so
/// that work stealing can rebalance uneven chunk costs.
const CHUNKS_PER_WORKER: usize = 4;

thread_local! {
    /// Stack of pools entered via [`ThreadPool::install`] on this thread.
    static CURRENT_POOL: std::cell::RefCell<Vec<Arc<PoolShared>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// The pool this thread is a worker of, if any (nested batches run
    /// inline; scopes targeting the *same* pool run spawns inline, scopes
    /// targeting a different pool queue normally — its workers are free to
    /// drain them while this one blocks).
    static WORKER_POOL: std::cell::RefCell<Option<std::sync::Weak<PoolShared>>> =
        const { std::cell::RefCell::new(None) };
}

/// The pool the current thread works for, if it is a worker thread. The
/// upgrade always succeeds while the worker loop runs (the loop itself holds
/// an `Arc` to its pool).
fn current_worker_pool() -> Option<Arc<PoolShared>> {
    WORKER_POOL.with(|w| w.borrow().as_ref().and_then(std::sync::Weak::upgrade))
}

/// Erases the lifetime of a queued task.
///
/// # Safety
///
/// The caller must not return control to the owner of any borrow captured by
/// `task` until the task has finished running (or is known to have been
/// dropped unexecuted). `run_indexed` guarantees this with its completion
/// latch: it blocks until every submitted chunk has reported in.
#[allow(unsafe_code)]
unsafe fn erase_lifetime<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> Task {
    unsafe { std::mem::transmute(task) }
}

/// State shared between the pool handle and its workers.
pub(crate) struct PoolShared {
    /// One deque per worker.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// A pool-wide FIFO injector queue for fairness-sensitive work: tasks
    /// pushed here are executed in strict submission order (no worker ever
    /// takes a newer injector task before an older one), which is what
    /// [`Scope::spawn_fifo`] and the multi-session throughput layer rely on
    /// for round-robin fairness across job sources.
    fifo: Mutex<VecDeque<Task>>,
    /// Tracks `fifo`'s length so the steal path can skip the shared mutex
    /// entirely for workloads that never inject FIFO tasks (pure `par_iter`
    /// batches would otherwise contend on it at every local-deque miss).
    fifo_len: AtomicUsize,
    /// Round-robin cursor for distributing submitted tasks.
    next_queue: AtomicUsize,
    /// Paired with `wakeup`; guards the sleep / notify handshake.
    sleep: Mutex<()>,
    wakeup: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn new(threads: usize) -> Self {
        // A zero-worker pool would have no deques to queue on (submission
        // round-robins modulo the deque count, so zero would divide by
        // zero). Callers clamp degenerate counts with a warning; this guard
        // makes the pool itself safe regardless.
        let threads = threads.max(1);
        Self {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            fifo: Mutex::new(VecDeque::new()),
            fifo_len: AtomicUsize::new(0),
            next_queue: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn num_threads(&self) -> usize {
        self.queues.len()
    }

    fn lock_queue(&self, index: usize) -> std::sync::MutexGuard<'_, VecDeque<Task>> {
        self.queues[index]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_fifo(&self) -> std::sync::MutexGuard<'_, VecDeque<Task>> {
        self.fifo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pops local work (back), then the oldest injected FIFO task, then
    /// steals from another deque (front).
    fn find_task(&self, worker: usize) -> Option<Task> {
        if let Some(task) = self.lock_queue(worker).pop_back() {
            return Some(task);
        }
        // The length counter keeps idle-steal traffic off the shared fifo
        // mutex when no FIFO work exists. A racing push that lands just
        // after the load is not lost: the submitter notifies under the
        // sleep lock, and the worker re-checks `has_work` (which locks)
        // before sleeping.
        if self.fifo_len.load(Ordering::Acquire) > 0 {
            let mut fifo = self.lock_fifo();
            if let Some(task) = fifo.pop_front() {
                self.fifo_len.fetch_sub(1, Ordering::Release);
                return Some(task);
            }
        }
        let k = self.queues.len();
        for offset in 1..k {
            let victim = (worker + offset) % k;
            if let Some(task) = self.lock_queue(victim).pop_front() {
                return Some(task);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        !self.lock_fifo().is_empty()
            || (0..self.queues.len()).any(|i| !self.lock_queue(i).is_empty())
    }

    /// Queues a batch of tasks round-robin across the worker deques and wakes
    /// every sleeper once.
    fn submit_batch(&self, tasks: Vec<Task>) {
        for task in tasks {
            let idx = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
            self.lock_queue(idx).push_back(task);
        }
        let _guard = self
            .sleep
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.wakeup.notify_all();
    }

    /// Queues one task on the pool-wide FIFO injector and wakes the sleepers.
    fn submit_fifo(&self, task: Task) {
        {
            let mut fifo = self.lock_fifo();
            fifo.push_back(task);
            self.fifo_len.fetch_add(1, Ordering::Release);
        }
        let _guard = self
            .sleep
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.wakeup.notify_all();
    }

    fn worker_loop(self: Arc<Self>, worker: usize) {
        WORKER_POOL.with(|w| *w.borrow_mut() = Some(Arc::downgrade(&self)));
        loop {
            if let Some(task) = self.find_task(worker) {
                task();
                continue;
            }
            let guard = self
                .sleep
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if self.has_work() {
                continue;
            }
            // Wakeups are notified under `sleep`, so re-checking the queues
            // under the same lock makes lost wakeups impossible.
            drop(
                self.wakeup
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
    }

    /// Evaluates an index space chunkwise on the pool and returns the results
    /// in index order. See the module docs for the determinism and panic
    /// contracts.
    pub(crate) fn run_indexed<T, F>(&self, len: usize, min_chunk: usize, eval: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>, &mut Vec<T>) + Sync,
    {
        let sequential = |len: usize| {
            let mut out = Vec::with_capacity(len);
            eval(0..len, &mut out);
            out
        };
        if len == 0 {
            return Vec::new();
        }
        let threads = self.num_threads();
        let chunk_len = len
            .div_ceil(threads * CHUNKS_PER_WORKER)
            .max(min_chunk.max(1));
        let num_chunks = len.div_ceil(chunk_len);
        // Nested batches targeting the worker's *own* pool run inline:
        // blocking a worker on a latch that other queued work must clear can
        // deadlock a small pool, and inline evaluation is bit-identical. A
        // worker of a *different* pool dispatches normally — the target
        // pool's workers are free to drain the chunks while it blocks —
        // which is what lets round-sharding backends compose with the
        // throughput pool's job workers.
        let own_pool_worker =
            current_worker_pool().is_some_and(|pool| std::ptr::eq(Arc::as_ptr(&pool), self));
        if threads <= 1 || num_chunks <= 1 || own_pool_worker {
            return sequential(len);
        }

        let latch = BatchLatch::<T>::new(num_chunks);
        let mut tasks: Vec<Task> = Vec::with_capacity(num_chunks);
        for chunk in 0..num_chunks {
            let start = chunk * chunk_len;
            let end = ((chunk + 1) * chunk_len).min(len);
            let latch_ref = &latch;
            let eval_ref = &eval;
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut out = Vec::with_capacity(end - start);
                    eval_ref(start..end, &mut out);
                    out
                }));
                latch_ref.complete(chunk, outcome);
            });
            // SAFETY: `latch.wait_and_collect()` below blocks until every one
            // of these tasks has run, so the borrows of `eval` and `latch`
            // cannot outlive this call.
            #[allow(unsafe_code)]
            let task = unsafe { erase_lifetime(task) };
            tasks.push(task);
        }
        self.submit_batch(tasks);
        latch.wait_and_collect(len)
    }
}

/// A scope for spawning borrowed tasks onto the pool, mirroring rayon's
/// `Scope`. Created by [`scope`] or [`ThreadPool::scope`]; every task spawned
/// through it is guaranteed to have finished before the `scope` call returns,
/// which is what makes borrowing from the enclosing stack frame sound.
pub struct Scope<'scope> {
    shared: Arc<PoolShared>,
    latch: Arc<ScopeLatch>,
    /// Makes `'scope` invariant, as in rayon: a longer-lived scope must not
    /// coerce into a shorter-lived one (or tasks could smuggle borrows out).
    marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task on the pool's work-stealing deques (LIFO for the owning
    /// worker, like rayon's `Scope::spawn`). The task may itself spawn onto
    /// the same scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.spawn_inner(f, false);
    }

    /// Spawns a task on the pool-wide FIFO injector queue: tasks spawned this
    /// way start in strict submission order (rayon's `spawn_fifo`), which
    /// gives round-robin fairness when several job sources interleave their
    /// submissions.
    pub fn spawn_fifo<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.spawn_inner(f, true);
    }

    fn spawn_inner<F>(&self, f: F, fifo: bool)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.latch.increment();
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            latch: Arc::clone(&self.latch),
            marker: std::marker::PhantomData,
        };
        let latch = Arc::clone(&self.latch);
        let run = move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
            latch.complete(outcome.err());
        };
        // On a worker of the *target* pool the task runs inline: blocking
        // that worker on the scope latch while its tasks sit behind other
        // queued work could deadlock a small pool, and inline execution is
        // indistinguishable to the caller (the scope only promises
        // completion, not placement). A worker of a *different* pool queues
        // normally — the target pool's workers are free to drain the tasks
        // while this thread blocks on the latch.
        let same_pool_worker =
            current_worker_pool().is_some_and(|pool| Arc::ptr_eq(&pool, &self.shared));
        if same_pool_worker {
            run();
            return;
        }
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(run);
        // SAFETY: `scope` / `ThreadPool::scope` block on the scope latch
        // until every spawned task has completed, so the borrows captured by
        // `f` cannot outlive the enclosing scope call.
        #[allow(unsafe_code)]
        let task = unsafe { erase_lifetime(task) };
        if fifo {
            self.shared.submit_fifo(task);
        } else {
            self.shared.submit_batch(vec![task]);
        }
    }
}

/// Countdown latch for one scope: pending-task count plus the first panic.
struct ScopeLatch {
    state: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    done: Condvar,
}

impl ScopeLatch {
    fn new() -> Self {
        Self {
            state: Mutex::new((0, None)),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (usize, Option<Box<dyn std::any::Any + Send>>)> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn increment(&self) {
        self.lock().0 += 1;
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.lock();
        if let Some(payload) = panic {
            state.1.get_or_insert(payload);
        }
        state.0 -= 1;
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every spawned task has completed, then returns the first
    /// captured panic payload (if any).
    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut state = self.lock();
        while state.0 > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.1.take()
    }
}

fn scope_on<'scope, OP, R>(shared: Arc<PoolShared>, op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let scope = Scope {
        shared,
        latch: Arc::new(ScopeLatch::new()),
        marker: std::marker::PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| op(&scope)));
    // Tasks already spawned must drain even when `op` itself panicked —
    // they borrow from the enclosing frame, which is about to unwind.
    let task_panic = scope.latch.wait();
    match result {
        Ok(value) => {
            if let Some(payload) = task_panic {
                panic::resume_unwind(payload);
            }
            value
        }
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Creates a [`Scope`] on the current pool — the innermost installed pool,
/// else (on a worker thread) the worker's own pool, else the global pool —
/// and blocks until `op` returns and every task it spawned has completed. A
/// panic in `op` or in any task resumes on the caller after the scope has
/// drained.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let installed = CURRENT_POOL.with(|stack| stack.borrow().last().cloned());
    let shared = installed
        .or_else(current_worker_pool)
        .unwrap_or_else(|| Arc::clone(&global_pool().shared));
    scope_on(shared, op)
}

/// Completion latch for one `run_indexed` batch: per-chunk result slots, a
/// countdown, and the first captured panic.
struct BatchLatch<T> {
    state: Mutex<BatchState<T>>,
    done: Condvar,
}

struct BatchState<T> {
    results: Vec<Option<Vec<T>>>,
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<T: Send> BatchLatch<T> {
    fn new(chunks: usize) -> Self {
        Self {
            state: Mutex::new(BatchState {
                results: (0..chunks).map(|_| None).collect(),
                remaining: chunks,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, chunk: usize, outcome: std::thread::Result<Vec<T>>) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match outcome {
            Ok(values) => state.results[chunk] = Some(values),
            Err(payload) => {
                state.panic.get_or_insert(payload);
            }
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait_and_collect(&self, len: usize) -> Vec<T> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while state.remaining > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            panic::resume_unwind(payload);
        }
        let mut out = Vec::with_capacity(len);
        for slot in state.results.iter_mut() {
            out.append(slot.as_mut().expect("every chunk completed"));
        }
        out
    }
}

/// Error returned by [`ThreadPoolBuilder::build`] when the pool cannot be
/// constructed (e.g. the OS refuses to spawn a worker thread).
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
    /// environment default (`RAYON_NUM_THREADS`, then `ECS_THREADS`, then
    /// the machine's available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Spawns the workers and returns the pool. The worker count is always
    /// at least one: `num_threads(0)` selects the environment default, which
    /// is itself clamped, so a degenerate zero-worker pool (queues nobody
    /// drains) cannot be built.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_num_threads()
        } else {
            self.num_threads
        }
        .max(1);
        let shared = Arc::new(PoolShared::new(threads));
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("ecs-rayon-{worker}"))
                .spawn(move || shared.worker_loop(worker))
                .map_err(|e| ThreadPoolBuildError {
                    message: e.to_string(),
                })?;
            handles.push(handle);
        }
        Ok(ThreadPool { shared, handles })
    }
}

/// A work-stealing pool of OS threads.
///
/// Parallel iterators run on the pool named by the innermost enclosing
/// [`ThreadPool::install`] call, falling back to the lazily-created global
/// pool.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// The number of worker threads in this pool.
    pub fn current_num_threads(&self) -> usize {
        self.shared.num_threads()
    }

    /// Runs `op` with this pool as the current pool: parallel iterators
    /// evaluated inside `op` dispatch their chunks here.
    ///
    /// Unlike real rayon the operation itself executes on the calling thread;
    /// only the iterator chunks move to the workers.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        CURRENT_POOL.with(|stack| stack.borrow_mut().push(Arc::clone(&self.shared)));
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                CURRENT_POOL.with(|stack| {
                    stack.borrow_mut().pop();
                });
            }
        }
        let _guard = PopGuard;
        op()
    }

    /// Creates a [`Scope`] whose spawned tasks run on *this* pool and blocks
    /// until `op` and every spawned task have completed. Unlike real rayon,
    /// `op` itself executes on the calling thread; only spawned tasks move to
    /// the workers.
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R + Send,
        R: Send,
    {
        scope_on(Arc::clone(&self.shared), op)
    }

    /// Spawns a detached `'static` task onto the pool's work-stealing
    /// deques, mirroring rayon's free-standing `spawn`. The task is wrapped
    /// in `catch_unwind` (worker loops run tasks bare), so a panicking
    /// detached task is swallowed instead of killing a worker thread —
    /// long-lived daemons catch and report their own job failures before
    /// this backstop is ever reached.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.submit_batch(vec![Box::new(move || {
            drop(panic::catch_unwind(AssertUnwindSafe(f)))
        })]);
    }

    /// Spawns a detached `'static` task onto the pool-wide FIFO injector
    /// queue: detached tasks submitted this way start in strict submission
    /// order (rayon's free `spawn_fifo`), which is what lets a long-lived
    /// scheduler dispatch jobs with the same fairness discipline as
    /// [`Scope::spawn_fifo`]. Panics are contained as in
    /// [`ThreadPool::spawn`].
    pub fn spawn_fifo<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.submit_fifo(Box::new(move || {
            drop(panic::catch_unwind(AssertUnwindSafe(f)))
        }));
    }

    pub(crate) fn shared(&self) -> &PoolShared {
        &self.shared
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.shared.num_threads())
            .finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self
                .shared
                .sleep
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.wakeup.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The default worker count: `RAYON_NUM_THREADS`, then `ECS_THREADS`, then
/// the machine's available parallelism, clamped to at least one.
fn default_num_threads() -> usize {
    for var in ["RAYON_NUM_THREADS", "ECS_THREADS"] {
        if let Ok(value) = std::env::var(var) {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new()
            .build()
            .expect("cannot spawn the global thread pool")
    })
}

/// Runs an indexed batch on the current (installed) pool, or the global pool
/// when none is installed. Used by the iterator layer's `collect`.
pub(crate) fn run_on_current<T, F>(len: usize, min_chunk: usize, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>, &mut Vec<T>) + Sync,
{
    let installed = CURRENT_POOL.with(|stack| stack.borrow().last().cloned());
    match installed {
        Some(shared) => shared.run_indexed(len, min_chunk, eval),
        None => global_pool().shared().run_indexed(len, min_chunk, eval),
    }
}

/// The number of threads parallel iterators would currently use: the
/// innermost installed pool's size, or the global pool's.
pub fn current_num_threads() -> usize {
    let installed = CURRENT_POOL.with(|stack| stack.borrow().last().cloned());
    match installed {
        Some(shared) => shared.num_threads(),
        None => global_pool().current_num_threads(),
    }
}
