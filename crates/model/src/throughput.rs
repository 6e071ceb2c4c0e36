//! Multi-session throughput mode: many independent jobs through one pool.
//!
//! The [`crate::ExecutionBackend`] accelerates a *single*
//! [`crate::ComparisonSession`] by sharding one large round across the
//! work-stealing pool. Experiment grids are the opposite shape: hundreds of
//! small, independent `(instance, algorithm, backend)` trials whose rounds
//! are each far below the parallel threshold. Running such a grid as a
//! serial outer loop around a parallel inner loop leaves the pool idle at
//! every barrier; [`ThroughputPool`] instead submits **every trial of the
//! whole grid as one workload** and lets the pool drain them concurrently.
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
//!   0 job 1, …) and submits them to the pool's strict-FIFO injector queue,
//!   so every session makes progress from the start instead of queueing
//!   behind whole earlier sessions.
//! * **Metrics isolation.** Each job owns its session and returns its own
//!   [`crate::Metrics`]; nothing is shared between jobs, so per-trial cost
//!   accounting is exactly what the serial loop would report.
//!
//! Jobs may themselves evaluate rounds on a [`crate::ExecutionBackend`]: a
//! nested batch targeting the job worker's *own* pool runs inline (avoiding
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

use crate::backend::{shared_pool, ExecutionBackend};
use crate::cancellation::is_cancellation;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A boxed unit of independent work submitted to a [`ThroughputPool`].
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Why a job submitted through [`ThroughputPool::try_run`] produced no
/// value: it panicked, or it was cooperatively cancelled (its unwind payload
/// was [`crate::cancellation::Cancelled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    message: String,
    cancelled: bool,
}

impl JobPanic {
    /// Classifies a `catch_unwind` payload: a [`crate::Cancelled`] payload
    /// becomes a cancellation, string payloads keep their message. Public so
    /// job runners outside this module (e.g. a service daemon running
    /// detached jobs) report faults identically to [`ThroughputPool::try_run`].
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

/// The per-job outcome of the fault-isolating run paths.
pub type JobResult<T> = Result<T, JobPanic>;

/// Runs many independent jobs through the one shared work-stealing pool.
///
/// # Example
///
/// ```
/// use ecs_model::{ExecutionBackend, ThroughputPool};
///
/// let pool = ThroughputPool::new(ExecutionBackend::threaded(4));
/// let jobs: Vec<ecs_model::throughput::Job<'_, u64>> = (0..100u64)
///     .map(|i| Box::new(move || i * i) as ecs_model::throughput::Job<'_, u64>)
///     .collect();
/// let squares = pool.run(jobs);
/// assert_eq!(squares, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPool {
    backend: ExecutionBackend,
}

impl ThroughputPool {
    /// A throughput pool running jobs on the given backend's worker threads
    /// (`Sequential` degrades to running the jobs serially in order, which is
    /// also the reference semantics of every other configuration).
    pub fn new(backend: ExecutionBackend) -> Self {
        Self { backend }
    }

    /// A throughput pool with `jobs` concurrent workers (`0`/`1` select the
    /// serial reference behaviour) — the `--jobs N` CLI knob.
    pub fn from_jobs(jobs: usize) -> Self {
        Self::new(ExecutionBackend::from_threads(jobs))
    }

    /// The backend whose shared pool executes the jobs.
    pub fn backend(&self) -> ExecutionBackend {
        self.backend
    }

    /// The number of OS threads draining the job queue.
    pub fn workers(&self) -> usize {
        self.backend.threads()
    }

    /// A short label (`"serial"`, `"pooled(4)"`) for banners and benchmarks.
    pub fn label(&self) -> String {
        if self.backend.is_parallel() {
            format!("pooled({})", self.workers())
        } else {
            "serial".to_string()
        }
    }

    /// Runs independent jobs and returns their results **in job order**,
    /// bit-identical to `jobs.into_iter().map(|job| job()).collect()`.
    pub fn run<'a, T: Send>(&self, jobs: Vec<Job<'a, T>>) -> Vec<T> {
        if !self.backend.is_parallel() || jobs.len() <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        shared_pool(self.workers()).scope(|scope| {
            for (slot, job) in slots.iter().zip(jobs) {
                scope.spawn_fifo(move |_| {
                    let value = job();
                    *slot
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("scope guarantees every job completed")
            })
            .collect()
    }

    /// Runs independent jobs like [`ThroughputPool::run`], but isolates
    /// faults: each job executes under `catch_unwind`, so a panicking or
    /// cancelled job yields an `Err(`[`JobPanic`]`)` in its own slot instead
    /// of tearing down the whole workload after the drain. Results are still
    /// returned **in job order**, and successful jobs are bit-identical to
    /// the serial loop.
    pub fn try_run<'a, T: Send + 'a>(&self, jobs: Vec<Job<'a, T>>) -> Vec<JobResult<T>> {
        let guarded: Vec<Job<'a, JobResult<T>>> = jobs
            .into_iter()
            .map(|job| {
                Box::new(move || {
                    catch_unwind(AssertUnwindSafe(job)).map_err(JobPanic::from_payload)
                }) as Job<'a, JobResult<T>>
            })
            .collect();
        self.run(guarded)
    }

    /// Runs several *sessions* of jobs with the same round-robin fairness as
    /// [`ThroughputPool::run_sessions`], but with per-job fault isolation: a
    /// session whose job panics or is cancelled loses only that job's value
    /// — its remaining jobs keep their fairness slots in the rotation and
    /// every other session completes untouched. (The strict path,
    /// `run_sessions`, resumes the first panic on the caller after the
    /// drain, which forfeits all results.)
    pub fn try_run_sessions<'a, T: Send + 'a>(
        &self,
        sessions: Vec<Vec<Job<'a, T>>>,
    ) -> Vec<Vec<JobResult<T>>> {
        let guarded: Vec<Vec<Job<'a, JobResult<T>>>> = sessions
            .into_iter()
            .map(|session| {
                session
                    .into_iter()
                    .map(|job| {
                        Box::new(move || {
                            catch_unwind(AssertUnwindSafe(job)).map_err(JobPanic::from_payload)
                        }) as Job<'a, JobResult<T>>
                    })
                    .collect()
            })
            .collect();
        self.run_sessions(guarded)
    }

    /// Submits one detached `'static` job to this pool's FIFO injector and
    /// returns immediately — the hook long-lived services use to feed a
    /// stream of jobs into the same strict-FIFO queue that `run_sessions`
    /// dispatches through, so daemon jobs and batch grids share one fairness
    /// discipline. The job always runs asynchronously on the shared pool
    /// (one worker even for a `Sequential`-backend pool), so a scheduler may
    /// call this while holding its own locks.
    ///
    /// Delivery of results, panic reporting, and completion tracking are the
    /// caller's responsibility (wrap the job body; see `ecs_service`).
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        shared_pool(self.workers()).spawn_fifo(job);
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
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    fn pool4() -> ThroughputPool {
        ThroughputPool::new(ExecutionBackend::threaded(4))
    }

    #[test]
    fn serial_backend_runs_in_order_on_the_caller() {
        let pool = ThroughputPool::new(ExecutionBackend::Sequential);
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
    fn a_killed_session_releases_its_fairness_slot_mid_grid() {
        // Three sessions share the rotation; every job of session 1 panics
        // (the "killed" session — e.g. a client whose oracle data vanished
        // or whose jobs were cancelled mid-grid). The other sessions must
        // complete every job with correct values, and the killed session
        // must report a per-job error rather than starving the rotation or
        // tearing the grid down.
        for workers in [1usize, 4] {
            let pool = ThroughputPool::from_jobs(workers);
            let sessions: Vec<Vec<Job<'_, usize>>> = (0..3usize)
                .map(|s| {
                    (0..5usize)
                        .map(|j| {
                            Box::new(move || {
                                if s == 1 {
                                    panic!("session 1 job {j} killed mid-grid");
                                }
                                s * 100 + j
                            }) as Job<'_, usize>
                        })
                        .collect()
                })
                .collect();
            let grouped = pool.try_run_sessions(sessions);
            assert_eq!(grouped.len(), 3);
            for (s, session) in grouped.iter().enumerate() {
                assert_eq!(
                    session.len(),
                    5,
                    "session {s} lost jobs ({workers} workers)"
                );
                for (j, outcome) in session.iter().enumerate() {
                    if s == 1 {
                        let failure = outcome.as_ref().expect_err("killed job must error");
                        assert!(failure.message().contains("killed mid-grid"));
                        assert!(!failure.is_cancelled());
                    } else {
                        assert_eq!(outcome.as_ref().copied(), Ok(s * 100 + j));
                    }
                }
            }
        }
    }

    #[test]
    fn cancelled_jobs_report_cancellation_not_failure() {
        use crate::cancellation::{CancellableOracle, CancellationToken};
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let instance = Instance::balanced(32, 4, &mut rng);
        let token = CancellationToken::new();
        token.cancel();
        let jobs: Vec<Job<'_, bool>> = vec![
            {
                let token = token.clone();
                let instance = &instance;
                Box::new(move || {
                    let oracle =
                        CancellableOracle::new(InstanceOracle::new(instance), token.clone());
                    oracle.same(0, 1)
                })
            },
            Box::new(|| true),
        ];
        let results = ThroughputPool::from_jobs(2).try_run(jobs);
        let cancelled = results[0].as_ref().expect_err("tripped token must abort");
        assert!(cancelled.is_cancelled());
        assert_eq!(cancelled.message(), "job cancelled");
        assert_eq!(results[1], Ok(true), "sibling job is untouched");
    }

    #[test]
    fn try_run_matches_run_when_nothing_panics() {
        let pool = pool4();
        let jobs: Vec<Job<'_, u64>> = (0..64u64)
            .map(|i| Box::new(move || i * 3) as Job<'_, u64>)
            .collect();
        let results = pool.try_run(jobs);
        assert_eq!(results, (0..64u64).map(|i| Ok(i * 3)).collect::<Vec<_>>());
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
        // nested batch runs inline (same pool) or dispatches to the backend's
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
    }
}
