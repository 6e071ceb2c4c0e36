//! Execution backends: how a round's comparisons are physically evaluated.
//!
//! The comparison *model* (rounds, processor budgets, metrics) is charged
//! identically regardless of backend; the backend only decides which OS
//! threads perform the oracle calls. Answers are always collected in
//! submission order, so for pure oracles (anything answering from a fixed
//! partition, like [`crate::InstanceOracle`]) partitions, comparison counts
//! and round counts are **bit-identical** across backends and thread counts.
//!
//! Adaptive oracles whose answers depend on the *temporal order* of queries
//! (e.g. the lower-bound adversaries) participate through the session's
//! round-boundary hooks ([`crate::EquivalenceOracle::round_opened`] /
//! [`crate::EquivalenceOracle::round_closed`]): all queries of one round are
//! answered against the state committed at round start and the deferred
//! effects are applied in one deterministic commit when the round closes, so
//! they too are bit-identical across backends, wave sizes, and thread counts.

use crate::oracle::EquivalenceOracle;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Smallest number of items a single pool task will process when a round is
/// sharded, keeping chunks cache-friendly instead of pair-at-a-time.
const MIN_CHUNK: usize = 1024;

/// Where a [`crate::ComparisonSession`] evaluates each round's comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionBackend {
    /// Evaluate every comparison on the calling thread.
    #[default]
    Sequential,
    /// Evaluate large rounds on a work-stealing pool of OS threads.
    Threaded {
        /// Number of worker threads (values `<= 1` behave sequentially).
        threads: usize,
        /// Minimum round size dispatched to the pool; smaller rounds are
        /// evaluated inline because per-task overhead would dwarf the array
        /// lookups. Defaults to
        /// [`ExecutionBackend::DEFAULT_PARALLEL_THRESHOLD`].
        threshold: usize,
    },
    /// Evaluate each round on the calling thread as one or few
    /// [`EquivalenceOracle::same_batch`] request waves instead of per-pair
    /// `same` calls.
    ///
    /// For in-memory oracles this amortizes batch validation; for oracles
    /// whose `same_batch` override answers a wave in one round trip (service
    /// calls, disk-resident partitions), it turns a round of `m` comparisons
    /// into `⌈m / wave⌉` requests. Waves are submitted in pair order and
    /// answers collected in submission order, so partitions and
    /// [`crate::Metrics`] are bit-identical to [`ExecutionBackend::Sequential`]
    /// (charging happens before evaluation and is backend-independent).
    Batched {
        /// Maximum number of pairs per `same_batch` wave; `0` submits the
        /// whole round as a single wave. Defaults to
        /// [`ExecutionBackend::DEFAULT_BATCH_WAVE`] via
        /// [`ExecutionBackend::batched`].
        wave: usize,
    },
}

impl ExecutionBackend {
    /// The default minimum round size evaluated on the pool. Below this the
    /// fixed cost of queueing and waking workers exceeds the comparison work
    /// itself (each comparison is two array reads).
    pub const DEFAULT_PARALLEL_THRESHOLD: usize = 4096;

    /// The default wave size of [`ExecutionBackend::Batched`]: large enough
    /// to amortize a per-wave fixed cost (validation, a request round trip)
    /// over hundreds of pairs, small enough that a wave of replies stays
    /// cache-resident.
    pub const DEFAULT_BATCH_WAVE: usize = 256;

    /// A threaded backend with the default parallel threshold.
    pub fn threaded(threads: usize) -> Self {
        ExecutionBackend::Threaded {
            threads,
            threshold: Self::DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// A batched backend submitting waves of `wave` pairs (`0` = the whole
    /// round as a single wave).
    pub fn batched(wave: usize) -> Self {
        ExecutionBackend::Batched { wave }
    }

    /// The default backend, which evaluates inline:
    /// [`ExecutionBackend::Sequential`]. Measured on 2 vCPUs, an in-memory
    /// round sharded across threads never beat inline evaluation up to
    /// 65 536 pairs, and a job already running on a
    /// [`crate::ThroughputPool`] worker has no spare core to shard onto.
    pub const fn auto() -> Self {
        ExecutionBackend::Sequential
    }

    /// Maps a thread-count knob (e.g. a `--threads` flag) onto a backend:
    /// `0` and `1` mean sequential, anything larger a threaded pool of that
    /// size with the default threshold.
    pub fn from_threads(threads: usize) -> Self {
        if threads > 1 {
            Self::threaded(threads)
        } else {
            ExecutionBackend::Sequential
        }
    }

    /// Reads the backend from the `ECS_THREADS` environment variable: unset,
    /// unparsable and `1` select [`ExecutionBackend::Sequential`]; `0` is not
    /// a usable worker count and clamps to the machine's available
    /// parallelism with a warning (it used to be possible for a zero count to
    /// reach the pool builder as a degenerate request). This is what
    /// [`crate::ComparisonSession::new`] uses, so exporting `ECS_THREADS=4`
    /// routes every session in the process through the pool.
    ///
    /// The variable is read once and cached: sessions are created per
    /// algorithm run (sometimes from several pool workers at once), and
    /// `std::env::var` takes a process-global lock.
    pub fn from_env() -> Self {
        static FROM_ENV: OnceLock<ExecutionBackend> = OnceLock::new();
        *FROM_ENV.get_or_init(|| match std::env::var("ECS_THREADS") {
            Ok(value) => Self::from_env_value(&value),
            Err(_) => ExecutionBackend::Sequential,
        })
    }

    /// Maps one `ECS_THREADS` value onto a backend (the uncached parsing
    /// behind [`ExecutionBackend::from_env`]).
    fn from_env_value(value: &str) -> Self {
        match value.trim().parse::<usize>() {
            Ok(0) => {
                let available = available_parallelism();
                eprintln!(
                    "warning: ECS_THREADS=0 is not a usable worker count; \
                     clamping to available parallelism ({available})"
                );
                Self::from_threads(available)
            }
            Ok(threads) => Self::from_threads(threads),
            Err(_) => ExecutionBackend::Sequential,
        }
    }

    /// This backend itself. Kept only because the repo benchmark's
    /// `calibrate.preview_us` metric times `auto().worker_decision()`.
    pub fn worker_decision(&self) -> ExecutionBackend {
        *self
    }

    /// The number of OS threads this backend evaluates on.
    pub fn threads(&self) -> usize {
        match *self {
            ExecutionBackend::Sequential | ExecutionBackend::Batched { .. } => 1,
            ExecutionBackend::Threaded { threads, .. } => threads.max(1),
        }
    }

    /// Whether rounds can be evaluated on more than one OS thread.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// A short human-readable label (`"sequential"`, `"threaded(4)"`,
    /// `"batched(256)"`) for benchmark tables and CLI banners.
    pub fn label(&self) -> String {
        match *self {
            ExecutionBackend::Sequential => "sequential".to_string(),
            ExecutionBackend::Threaded { threads, .. } => format!("threaded({threads})"),
            ExecutionBackend::Batched { wave: 0 } => "batched(all)".to_string(),
            ExecutionBackend::Batched { wave } => format!("batched({wave})"),
        }
    }

    /// Runs `op` with this backend's pool installed as the current rayon
    /// pool, so bare `par_iter()` calls inside `op` (e.g. trial-level
    /// parallelism in the analysis crate) use this backend's thread count.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        shared_pool(self.threads()).install(op)
    }

    /// Evaluates one round of comparisons against the oracle, returning one
    /// answer per pair in submission order: as `same_batch` waves cut in
    /// pair order on the batched backend, on the pool when a threaded round
    /// clears its threshold, and inline otherwise.
    pub fn evaluate<O: EquivalenceOracle + ?Sized>(
        &self,
        oracle: &O,
        pairs: &[(usize, usize)],
    ) -> Vec<bool> {
        if pairs.is_empty() {
            return Vec::new();
        }
        match *self {
            ExecutionBackend::Batched { wave } if wave != 0 && wave < pairs.len() => {
                // Waves are cut in pair order, so concatenating their
                // answers reproduces the scalar answer vector exactly.
                let mut answers = Vec::with_capacity(pairs.len());
                for wave_pairs in pairs.chunks(wave) {
                    answers.extend(oracle.same_batch(wave_pairs));
                }
                answers
            }
            ExecutionBackend::Batched { .. } => oracle.same_batch(pairs),
            ExecutionBackend::Threaded { threads, threshold }
                if threads > 1 && pairs.len() >= threshold.max(1) =>
            {
                shared_pool(threads).install(|| {
                    pairs
                        .par_iter()
                        .with_min_len(MIN_CHUNK.min(threshold.max(1)))
                        .map(|&(a, b)| oracle.same(a, b))
                        .collect()
                })
            }
            _ => pairs.iter().map(|&(a, b)| oracle.same(a, b)).collect(),
        }
    }
}

/// The machine's available parallelism, clamped to at least one — the target
/// that degenerate zero worker-count knobs (`--threads 0`, `--jobs 0`,
/// `ECS_THREADS=0`) are corrected to.
///
/// The value is read once per process and cached: the standard library
/// re-reads cgroup files on every call, and the daemon clamps every
/// `threaded:N` job against it.
pub fn available_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Process-wide pool cache, one pool per distinct thread count. Sessions are
/// created per algorithm run, so building (and tearing down) a pool per
/// session would dominate; instead pools are built once and leaked — the
/// number of distinct thread counts in a process is tiny.
pub(crate) fn shared_pool(threads: usize) -> &'static ThreadPool {
    static POOLS: OnceLock<Mutex<HashMap<usize, &'static ThreadPool>>> = OnceLock::new();
    let mut pools = POOLS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    pools.entry(threads).or_insert_with(|| {
        Box::leak(Box::new(
            ThreadPoolBuilder::new()
                .num_threads(threads.max(1))
                .build()
                .expect("cannot spawn execution backend thread pool"),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::LabelOracle;

    #[test]
    fn default_is_sequential() {
        assert_eq!(ExecutionBackend::default(), ExecutionBackend::Sequential);
        assert_eq!(ExecutionBackend::Sequential.threads(), 1);
        assert!(!ExecutionBackend::Sequential.is_parallel());
    }

    #[test]
    fn threaded_constructor_uses_default_threshold() {
        let backend = ExecutionBackend::threaded(4);
        assert_eq!(
            backend,
            ExecutionBackend::Threaded {
                threads: 4,
                threshold: ExecutionBackend::DEFAULT_PARALLEL_THRESHOLD,
            }
        );
        assert_eq!(backend.threads(), 4);
        assert!(backend.is_parallel());
        assert_eq!(backend.label(), "threaded(4)");
    }

    #[test]
    fn from_threads_maps_low_counts_to_sequential() {
        assert_eq!(
            ExecutionBackend::from_threads(0),
            ExecutionBackend::Sequential
        );
        assert_eq!(
            ExecutionBackend::from_threads(1),
            ExecutionBackend::Sequential
        );
        assert_eq!(ExecutionBackend::from_threads(2).threads(), 2);
    }

    #[test]
    fn evaluate_matches_sequential_for_every_backend() {
        let labels: Vec<u32> = (0..10_000u32).map(|i| i % 7).collect();
        let oracle = LabelOracle::new(labels);
        let pairs: Vec<(usize, usize)> = (0..5_000).map(|i| (i, i + 5_000)).collect();
        let reference = ExecutionBackend::Sequential.evaluate(&oracle, &pairs);
        for threads in [2, 4, 8] {
            let backend = ExecutionBackend::Threaded {
                threads,
                threshold: 1,
            };
            assert_eq!(
                backend.evaluate(&oracle, &pairs),
                reference,
                "threaded({threads}) diverged from sequential"
            );
        }
    }

    #[test]
    fn small_rounds_stay_below_threshold() {
        // Below the threshold the threaded backend must still answer
        // correctly (inline), not drop to the pool.
        let oracle = LabelOracle::new(vec![0, 0, 1, 1]);
        let backend = ExecutionBackend::threaded(4);
        assert_eq!(
            backend.evaluate(&oracle, &[(0, 1), (1, 2), (2, 3)]),
            vec![true, false, true]
        );
    }

    #[test]
    fn labels_render() {
        assert_eq!(ExecutionBackend::Sequential.label(), "sequential");
        assert_eq!(ExecutionBackend::threaded(8).label(), "threaded(8)");
        assert_eq!(ExecutionBackend::batched(64).label(), "batched(64)");
        assert_eq!(ExecutionBackend::batched(0).label(), "batched(all)");
    }

    #[test]
    fn batched_backend_is_single_threaded() {
        let backend = ExecutionBackend::batched(64);
        assert_eq!(backend, ExecutionBackend::Batched { wave: 64 });
        assert_eq!(backend.threads(), 1);
        assert!(!backend.is_parallel());
    }

    #[test]
    fn batched_evaluation_matches_sequential_for_every_wave() {
        let labels: Vec<u32> = (0..2_000u32).map(|i| i % 5).collect();
        let oracle = LabelOracle::new(labels);
        let pairs: Vec<(usize, usize)> = (0..1_000).map(|i| (i, i + 1_000)).collect();
        let reference = ExecutionBackend::Sequential.evaluate(&oracle, &pairs);
        // Waves that divide the round, waves that leave a remainder, a wave
        // of one (scalar), a wave larger than the round, and the whole-round
        // wave must all concatenate back to the scalar answers.
        for wave in [0, 1, 7, 64, 1_000, 5_000] {
            assert_eq!(
                ExecutionBackend::batched(wave).evaluate(&oracle, &pairs),
                reference,
                "batched({wave}) diverged from sequential"
            );
        }
        assert!(ExecutionBackend::batched(8)
            .evaluate(&oracle, &[])
            .is_empty());
    }

    #[test]
    fn auto_is_sequential() {
        assert_eq!(ExecutionBackend::auto(), ExecutionBackend::Sequential);
    }

    #[test]
    fn env_value_zero_clamps_to_available_parallelism() {
        // `ECS_THREADS=0` must never select a degenerate zero-worker pool:
        // it clamps to the machine's available parallelism (sequential on a
        // one-core machine, threaded otherwise).
        assert_eq!(
            ExecutionBackend::from_env_value("0"),
            ExecutionBackend::from_threads(available_parallelism())
        );
        assert_eq!(
            ExecutionBackend::from_env_value(" 1 "),
            ExecutionBackend::Sequential
        );
        assert_eq!(
            ExecutionBackend::from_env_value("junk"),
            ExecutionBackend::Sequential
        );
        assert_eq!(
            ExecutionBackend::from_env_value("4"),
            ExecutionBackend::threaded(4)
        );
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn available_parallelism_is_one_value_per_process() {
        let first = available_parallelism();
        assert_eq!(available_parallelism(), first, "repeated calls agree");
        let from_threads: Vec<usize> = (0..4)
            .map(|_| std::thread::spawn(available_parallelism))
            .map(|handle| handle.join().expect("the reader thread does not panic"))
            .collect();
        assert_eq!(from_threads, vec![first; 4], "every thread sees the cache");
        assert_eq!(
            first,
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            "the cache holds what the standard library reports"
        );
    }
}
