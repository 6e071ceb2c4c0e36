//! Multi-session throughput mode: many independent jobs through one pool.
//!
//! The [`crate::ExecutionBackend`] accelerates a *single*
//! [`crate::ComparisonSession`] by sharding one large round across a pool
//! of OS threads. Experiment grids are the opposite shape: hundreds of
//! small, independent `(instance, algorithm)` trials whose rounds are each
//! far below the parallel threshold. [`ThroughputPool`] submits **every
//! trial of the whole grid as one workload** and lets its workers drain them
//! concurrently; it is the only way the experiment runners parallelise
//! trials, and a one-worker pool is their serial reference.
//!
//! Guarantees:
//!
//! * **Determinism.** Results are returned in job order, and each job runs
//!   exactly the closure the serial loop would have run — for independent
//!   jobs (no shared mutable state), the output is bit-identical to calling
//!   the jobs one after another on the current thread. Jobs that need
//!   randomness should derive it from their own coordinates (e.g.
//!   [`ecs_rng::StreamSplit::stream`] keyed by `(size, trial)`), never from
//!   shared sequential state.
//! * **Fairness.** [`ThroughputPool::run_sessions`] interleaves the jobs of
//!   all sessions round-robin (session 0 job 0, session 1 job 0, …, session
//!   0 job 1, …) and submits them to the pool's one strict-FIFO queue,
//!   so every session makes progress from the start instead of queueing
//!   behind whole earlier sessions.
//! * **Metrics isolation.** Each job owns its session and returns its own
//!   [`crate::Metrics`]; nothing is shared between jobs, so per-trial cost
//!   accounting is exactly what the serial loop would report.
//!
//! A panicking job is not isolated: [`ThroughputPool::run`] resumes the
//! first panic on the caller after the drain. Long-lived services that must
//! survive a failing job run it detached ([`ThroughputPool::spawn`]) under
//! their own `catch_unwind` and classify the payload with
//! [`JobPanic::from_payload`].
//!
//! Jobs may themselves evaluate rounds on a [`crate::ExecutionBackend`]: a
//! nested scope targeting the job worker's *own* pool runs inline (avoiding
//! self-deadlock), while one targeting a different pool dispatches to that
//! pool's workers while the job's worker blocks (see the rayon shim), so a
//! threaded inner backend composes with the pool without changing any
//! result. The no-deadlock guarantee requires the pool-nesting graph to be
//! **acyclic**: jobs on pool A may nest work onto pool B only if nothing
//! running on B (transitively) blocks on A again. One-directional nesting —
//! throughput jobs sharding rounds onto a backend pool, as every shipped
//! binary does — trivially satisfies this; mutually-recursive
//! `ThroughputPool`s with a cycle back to the outer pool could block all
//! workers of both pools on each other's latches.

use crate::backend::shared_pool;
use crate::cancellation::is_cancellation;

/// A boxed unit of independent work submitted to a [`ThroughputPool`].
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Why a job produced no value: it panicked, or it was cooperatively
/// cancelled (its unwind payload was [`crate::cancellation::Cancelled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    message: String,
    cancelled: bool,
}

impl JobPanic {
    /// Classifies a `catch_unwind` payload: a [`crate::Cancelled`] payload
    /// becomes a cancellation, string payloads keep their message. Job
    /// runners that catch their own unwinds (e.g. a service daemon running
    /// detached jobs) report faults through this one classification.
    pub fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let cancelled = is_cancellation(&*payload);
        let message = if cancelled {
            "job cancelled".to_string()
        } else if let Some(text) = payload.downcast_ref::<&str>() {
            (*text).to_string()
        } else if let Some(text) = payload.downcast_ref::<String>() {
            text.clone()
        } else {
            "job panicked".to_string()
        };
        Self { message, cancelled }
    }

    /// The panic message (or `"job cancelled"` for cancellations).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Whether the job unwound because its [`crate::CancellationToken`] was
    /// tripped rather than because of a genuine failure.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Runs many independent jobs through the one shared FIFO pool.
///
/// # Example
///
/// ```
/// use ecs_model::ThroughputPool;
///
/// let pool = ThroughputPool::from_jobs(4);
/// let jobs: Vec<ecs_model::throughput::Job<'_, u64>> = (0..100u64)
///     .map(|i| Box::new(move || i * i) as ecs_model::throughput::Job<'_, u64>)
///     .collect();
/// let squares = pool.run(jobs);
/// assert_eq!(squares, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPool {
    workers: usize,
}

impl ThroughputPool {
    /// A throughput pool with `jobs` concurrent workers — the `--jobs N` CLI
    /// knob. `0` and `1` select the serial reference behaviour: every job
    /// runs in order on the caller.
    pub fn from_jobs(jobs: usize) -> Self {
        Self {
            workers: jobs.max(1),
        }
    }

    /// The number of OS threads draining the job queue.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A short label (`"serial"`, `"pooled(4)"`) for banners and benchmarks.
    pub fn label(&self) -> String {
        if self.workers > 1 {
            format!("pooled({})", self.workers)
        } else {
            "serial".to_string()
        }
    }

    /// Runs independent jobs and returns their results **in job order**,
    /// bit-identical to `jobs.into_iter().map(|job| job()).collect()`.
    pub fn run<'a, T: Send>(&self, jobs: Vec<Job<'a, T>>) -> Vec<T> {
        if self.workers <= 1 || jobs.len() <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let mut slots: Vec<Option<T>> = jobs.iter().map(|_| None).collect();
        shared_pool(self.workers).scope_fifo(|scope| {
            for (slot, job) in slots.iter_mut().zip(jobs) {
                scope.spawn_fifo(move |_| *slot = Some(job()));
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("scope_fifo guarantees every job completed"))
            .collect()
    }

    /// Submits one detached `'static` job to this pool's FIFO queue and
    /// returns immediately — the hook long-lived services use to feed a
    /// stream of jobs into the same strict-FIFO queue that `run_sessions`
    /// dispatches through, so daemon jobs and batch grids share one fairness
    /// discipline. The job always runs asynchronously on the shared pool
    /// (one worker even for a serial pool), so a scheduler may
    /// call this while holding its own locks.
    ///
    /// Delivery of results, panic reporting, and completion tracking are the
    /// caller's responsibility (wrap the job body; see `ecs_service`).
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        shared_pool(self.workers).spawn_fifo(job);
    }

    /// Runs several *sessions* of jobs with round-robin fairness: the `r`-th
    /// job of every session is submitted before the `(r+1)`-th job of any
    /// session, so concurrently-queued sessions all make progress instead of
    /// draining in sequence. Results come back grouped by session, each
    /// group in job order — bit-identical to running every session's jobs
    /// serially.
    pub fn run_sessions<'a, T: Send>(&self, sessions: Vec<Vec<Job<'a, T>>>) -> Vec<Vec<T>> {
        let lengths: Vec<usize> = sessions.iter().map(Vec::len).collect();
        let mut remaining: Vec<std::vec::IntoIter<Job<'a, T>>> =
            sessions.into_iter().map(Vec::into_iter).collect();

        // Interleave round-robin and remember where each job came from.
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(lengths.iter().sum());
        let mut interleaved: Vec<Job<'a, T>> = Vec::with_capacity(order.capacity());
        let rounds = lengths.iter().copied().max().unwrap_or(0);
        for round in 0..rounds {
            for (session, jobs) in remaining.iter_mut().enumerate() {
                if let Some(job) = jobs.next() {
                    order.push((session, round));
                    interleaved.push(job);
                }
            }
        }

        let flat = self.run(interleaved);

        let mut grouped: Vec<Vec<Option<T>>> = lengths
            .iter()
            .map(|&len| (0..len).map(|_| None).collect())
            .collect();
        for ((session, index), value) in order.into_iter().zip(flat) {
            grouped[session][index] = Some(value);
        }
        grouped
            .into_iter()
            .map(|session| {
                session
                    .into_iter()
                    .map(|slot| slot.expect("every submitted job produced a value"))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::oracle::{EquivalenceOracle, InstanceOracle};
    use crate::session::{ComparisonSession, ReadMode};
    use crate::ExecutionBackend;
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    fn pool4() -> ThroughputPool {
        ThroughputPool::from_jobs(4)
    }

    #[test]
    fn serial_backend_runs_in_order_on_the_caller() {
        let pool = ThroughputPool::from_jobs(1);
        assert_eq!(pool.label(), "serial");
        assert_eq!(pool.workers(), 1);
        let caller = std::thread::current().id();
        let jobs: Vec<Job<'_, std::thread::ThreadId>> = (0..4)
            .map(|_| Box::new(|| std::thread::current().id()) as Job<'_, std::thread::ThreadId>)
            .collect();
        let ids = pool.run(jobs);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn from_jobs_maps_low_counts_to_serial() {
        assert_eq!(ThroughputPool::from_jobs(0).label(), "serial");
        assert_eq!(ThroughputPool::from_jobs(1).label(), "serial");
        assert_eq!(ThroughputPool::from_jobs(4).label(), "pooled(4)");
    }

    #[test]
    fn pooled_results_match_serial_in_order() {
        let pool = pool4();
        let jobs: Vec<Job<'_, u64>> = (0..500u64)
            .map(|i| Box::new(move || i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as Job<'_, u64>)
            .collect();
        let pooled = pool.run(jobs);
        let serial: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        assert_eq!(pooled, serial);
    }

    #[test]
    fn jobs_carry_isolated_sessions_and_metrics() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let instance = Instance::balanced(64, 4, &mut rng);
        let oracle = InstanceOracle::new(&instance);
        let pool = pool4();
        let jobs: Vec<Job<'_, (u64, bool)>> = (0..16usize)
            .map(|trial| {
                let oracle = &oracle;
                Box::new(move || {
                    let mut session = ComparisonSession::with_processors_and_backend(
                        oracle,
                        ReadMode::Exclusive,
                        oracle.n(),
                        ExecutionBackend::Sequential,
                    );
                    let a = 2 * (trial % 16);
                    let answer = session.compare(a, a + 1);
                    (session.metrics().comparisons(), answer)
                }) as Job<'_, (u64, bool)>
            })
            .collect();
        let results = pool.run(jobs);
        for (trial, &(comparisons, answer)) in results.iter().enumerate() {
            assert_eq!(comparisons, 1, "job {trial} leaked metrics from a sibling");
            let a = 2 * (trial % 16);
            assert_eq!(answer, instance.same_class(a, a + 1));
        }
    }

    #[test]
    fn sessions_come_back_grouped_and_ordered() {
        let pool = pool4();
        let sessions: Vec<Vec<Job<'_, String>>> = (0..3usize)
            .map(|s| {
                (0..=s + 1)
                    .map(|j| Box::new(move || format!("s{s}j{j}")) as Job<'_, String>)
                    .collect()
            })
            .collect();
        let grouped = pool.run_sessions(sessions);
        assert_eq!(grouped.len(), 3);
        for (s, session) in grouped.iter().enumerate() {
            assert_eq!(session.len(), s + 2);
            for (j, value) in session.iter().enumerate() {
                assert_eq!(value, &format!("s{s}j{j}"));
            }
        }
    }

    #[test]
    fn empty_and_uneven_sessions_are_handled() {
        let pool = pool4();
        let sessions: Vec<Vec<Job<'_, usize>>> = vec![
            vec![],
            vec![Box::new(|| 1usize) as Job<'_, usize>],
            vec![],
            (0..5usize)
                .map(|j| Box::new(move || 10 + j) as Job<'_, usize>)
                .collect(),
        ];
        let grouped = pool.run_sessions(sessions);
        assert_eq!(grouped[0], Vec::<usize>::new());
        assert_eq!(grouped[1], vec![1]);
        assert_eq!(grouped[2], Vec::<usize>::new());
        assert_eq!(grouped[3], vec![10, 11, 12, 13, 14]);
        assert!(pool.run(Vec::<Job<'_, ()>>::new()).is_empty());
    }

    #[test]
    fn cancelled_jobs_report_cancellation_not_failure() {
        use crate::cancellation::{CancellableOracle, CancellationToken};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let instance = Instance::balanced(32, 4, &mut rng);
        let token = CancellationToken::new();
        token.cancel();
        let oracle = CancellableOracle::new(InstanceOracle::new(&instance), token);
        let payload = catch_unwind(AssertUnwindSafe(|| oracle.same(0, 1)))
            .expect_err("tripped token must abort");
        let cancelled = JobPanic::from_payload(payload);
        assert!(cancelled.is_cancelled());
        assert_eq!(cancelled.message(), "job cancelled");

        let payload = catch_unwind(|| panic!("oracle data vanished")).expect_err("job panics");
        let failed = JobPanic::from_payload(payload);
        assert!(!failed.is_cancelled(), "a genuine panic is a failure");
        assert_eq!(failed.message(), "oracle data vanished");
    }

    #[test]
    fn detached_spawn_runs_jobs_asynchronously() {
        let (tx, rx) = std::sync::mpsc::channel();
        let pool = ThroughputPool::from_jobs(2);
        for i in 0..16u64 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut seen: Vec<u64> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_with_threaded_inner_backends_compose() {
        // A job may shard its own large rounds on a threaded backend; the
        // nested scope runs inline (same pool) or dispatches to the backend's
        // own pool (different pool) — results stay identical either way.
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let instance = Instance::balanced(4_000, 5, &mut rng);
        let oracle = InstanceOracle::new(&instance);
        let pairs: Vec<(usize, usize)> = (0..2_000).map(|i| (i, i + 2_000)).collect();
        let run_one = |backend: ExecutionBackend| {
            let pairs = &pairs;
            let oracle = &oracle;
            move || {
                let mut session =
                    ComparisonSession::with_backend(oracle, ReadMode::Exclusive, backend);
                let answers = session.execute_round(pairs);
                (answers, session.into_metrics())
            }
        };
        let reference = run_one(ExecutionBackend::Sequential)();
        let jobs: Vec<Job<'_, _>> = vec![
            Box::new(run_one(ExecutionBackend::Sequential)),
            Box::new(run_one(ExecutionBackend::Threaded {
                threads: 2,
                threshold: 1,
            })),
        ];
        for (answers, metrics) in pool4().run(jobs) {
            assert_eq!(answers, reference.0);
            assert_eq!(metrics, reference.1);
        }
        // Same size: the jobs and their rounds share `shared_pool(2)`, so
        // every inner scope runs inline on the job's worker.
        let threaded = ExecutionBackend::Threaded {
            threads: 2,
            threshold: 1,
        };
        let jobs: Vec<Job<'_, _>> = (0..4)
            .map(|_| Box::new(run_one(threaded)) as Job<'_, _>)
            .collect();
        for (answers, metrics) in ThroughputPool::from_jobs(2).run(jobs) {
            assert_eq!(answers, reference.0);
            assert_eq!(metrics, reference.1);
        }
    }
}
