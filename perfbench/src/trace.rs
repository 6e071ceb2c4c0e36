//! The timing oracle wrapper behind the traced runs.
//!
//! [`TimingOracle`] sits between an algorithm's [`ComparisonSession`] and the
//! oracle it interrogates (an [`ecs_model::InstanceOracle`] or a lower-bound
//! adversary). It forwards every call unchanged and in order, so wrapped and
//! unwrapped runs give identical partitions, metrics and round traces, and
//! records:
//!
//! * exact call and pair counts for `same` / `same_batch`;
//! * time inside the oracle. A ground-truth `same` costs a few nanoseconds,
//!   about a clock read, so a scalar call is charged a per-call cost: for a
//!   pure oracle, the cost of replaying a sample of the job's own pairs in a
//!   tight loop afterwards ([`TimingOracle::trace`] with `pure`); otherwise
//!   the mean of every [`SCALAR_STRIDE`]-th call, timed, less the cost of a
//!   clock-read pair ([`timer_offset_ns`]). `same_batch` calls are timed
//!   one by one;
//! * every round from `round_opened` to `round_closed`, the time spent in
//!   the two hooks (an adversary's plan/replay and commit), and the part of
//!   the round spent outside the oracle (the backend's own overhead).
//!
//! [`ComparisonSession`]: ecs_model::ComparisonSession

use ecs_model::EquivalenceOracle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One scalar `same` call in this many is timed, and its pair kept for
/// replay.
pub const SCALAR_STRIDE: u64 = 16;

/// At most this many sampled pairs are kept for replay.
const REPLAY_PAIRS: usize = 4096;

/// The cost of reading the clock twice back to back (median of many
/// tries), in nanoseconds: what every timed interval carries on top of the
/// work it brackets.
pub fn timer_offset_ns() -> f64 {
    static OFFSET: OnceLock<f64> = OnceLock::new();
    *OFFSET.get_or_init(|| {
        let mut samples: Vec<f64> = (0..20_001)
            .map(|_| {
                let start = Instant::now();
                start.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    })
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counters of the oracle's query traffic. Relaxed atomics: they publish no
/// other data, and are read only after the session has finished.
#[derive(Debug, Default)]
struct QueryCounters {
    scalar_calls: AtomicU64,
    scalar_timed: AtomicU64,
    scalar_timed_ns: AtomicU64,
    batch_calls: AtomicU64,
    batch_pairs: AtomicU64,
    batch_ns: AtomicU64,
}

/// One closed round.
#[derive(Debug, Clone, Copy)]
struct Round {
    span_ns: u64,
    scalar_calls: u64,
    batch_ns: u64,
    hook_ns: u64,
}

/// The round currently open, every closed round, and the sampled pairs.
#[derive(Debug, Default)]
struct Log {
    open: Option<(Instant, u64, u64, u64)>,
    rounds: Vec<Round>,
    opened_ns: Vec<u64>,
    closed_ns: Vec<u64>,
    sampled_pairs: Vec<(usize, usize)>,
}

/// A transparent, timing [`EquivalenceOracle`] wrapper (see the module
/// docs). One wrapper serves one job.
#[derive(Debug)]
pub struct TimingOracle<'a, O: EquivalenceOracle> {
    inner: &'a O,
    queries: QueryCounters,
    log: Mutex<Log>,
}

/// What one wrapped job did, read off its [`TimingOracle`].
#[derive(Debug, Clone, Default)]
pub struct OracleTrace {
    /// `same` plus `same_batch` calls.
    pub calls: u64,
    /// Pairs answered (one per `same`, the wave length per `same_batch`).
    pub pairs: u64,
    /// Estimated nanoseconds inside `same` / `same_batch`.
    pub query_ns: f64,
    /// Nanoseconds inside `round_opened` plus `round_closed`.
    pub hook_ns: f64,
    /// Duration of every round, `round_opened` entry to `round_closed`
    /// exit, in nanoseconds.
    pub spans_ns: Vec<u64>,
    /// Estimated nanoseconds of those rounds spent outside the oracle.
    pub outside_ns: f64,
    /// Duration of every `round_opened` call, in nanoseconds.
    pub opened_ns: Vec<u64>,
    /// Duration of every `round_closed` call, in nanoseconds.
    pub closed_ns: Vec<u64>,
}

impl OracleTrace {
    /// Estimated nanoseconds inside the oracle, hooks included.
    pub fn oracle_ns(&self) -> f64 {
        self.query_ns + self.hook_ns
    }
}

impl<'a, O: EquivalenceOracle> TimingOracle<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a O) -> Self {
        Self {
            inner,
            queries: QueryCounters::default(),
            log: Mutex::new(Log::default()),
        }
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("a panic while recording leaves no job to trace")
    }

    /// Nanoseconds one scalar `same` costs: from the timed sample, or for a
    /// `pure` oracle (answers depend on the pair only) from replaying the
    /// sampled pairs in a loop, which no clock read disturbs.
    fn scalar_cost_ns(&self, pure: bool) -> f64 {
        let q = &self.queries;
        let timed = q.scalar_timed.load(Ordering::Relaxed) as f64;
        let sampled = if timed > 0.0 {
            (q.scalar_timed_ns.load(Ordering::Relaxed) as f64 / timed - timer_offset_ns()).max(0.0)
        } else {
            0.0
        };
        let pairs = self.log().sampled_pairs.clone();
        if !pure || pairs.is_empty() {
            return sampled;
        }
        let mut replayed = 0usize;
        let started = Instant::now();
        while replayed < 1 << 16 {
            for &(a, b) in &pairs {
                std::hint::black_box(self.inner.same(a, b));
            }
            replayed += pairs.len();
        }
        started.elapsed().as_nanos() as f64 / replayed as f64
    }

    /// Everything recorded so far. `pure` says the wrapped oracle answers
    /// from fixed data, so sampled pairs may be asked again to cost them.
    pub fn trace(&self, pure: bool) -> OracleTrace {
        let cost = self.scalar_cost_ns(pure);
        let q = &self.queries;
        let offset = timer_offset_ns();
        let log = self.log();
        let hook_ns: f64 = log.rounds.iter().map(|r| r.hook_ns as f64).sum();
        let outside_ns = log
            .rounds
            .iter()
            .map(|r| {
                let inside = r.scalar_calls as f64 * cost + (r.batch_ns + r.hook_ns) as f64;
                (r.span_ns as f64 - inside).max(0.0)
            })
            .sum();
        let scalar_calls = q.scalar_calls.load(Ordering::Relaxed);
        let batch_calls = q.batch_calls.load(Ordering::Relaxed);
        let batch_ns = q.batch_ns.load(Ordering::Relaxed) as f64 - batch_calls as f64 * offset;
        OracleTrace {
            calls: scalar_calls + batch_calls,
            pairs: scalar_calls + q.batch_pairs.load(Ordering::Relaxed),
            query_ns: scalar_calls as f64 * cost + batch_ns.max(0.0),
            hook_ns,
            spans_ns: log.rounds.iter().map(|r| r.span_ns).collect(),
            outside_ns,
            opened_ns: log.opened_ns.clone(),
            closed_ns: log.closed_ns.clone(),
        }
    }
}

impl<O: EquivalenceOracle> EquivalenceOracle for TimingOracle<'_, O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        let call = self.queries.scalar_calls.fetch_add(1, Ordering::Relaxed);
        if !call.is_multiple_of(SCALAR_STRIDE) {
            return self.inner.same(a, b);
        }
        let start = Instant::now();
        let answer = self.inner.same(a, b);
        let elapsed = nanos_since(start);
        self.queries.scalar_timed.fetch_add(1, Ordering::Relaxed);
        self.queries
            .scalar_timed_ns
            .fetch_add(elapsed, Ordering::Relaxed);
        let mut log = self.log();
        if log.sampled_pairs.len() < REPLAY_PAIRS {
            log.sampled_pairs.push((a, b));
        }
        answer
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        let start = Instant::now();
        let answers = self.inner.same_batch(pairs);
        let elapsed = nanos_since(start);
        let q = &self.queries;
        q.batch_calls.fetch_add(1, Ordering::Relaxed);
        q.batch_pairs
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        q.batch_ns.fetch_add(elapsed, Ordering::Relaxed);
        answers
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        let start = Instant::now();
        self.inner.round_opened(pairs);
        let elapsed = nanos_since(start);
        let q = &self.queries;
        let mut log = self.log();
        log.opened_ns.push(elapsed);
        log.open = Some((
            start,
            q.scalar_calls.load(Ordering::Relaxed),
            q.batch_ns.load(Ordering::Relaxed),
            elapsed,
        ));
    }

    fn round_closed(&self) {
        let start = Instant::now();
        self.inner.round_closed();
        let elapsed = nanos_since(start);
        let q = &self.queries;
        let mut log = self.log();
        log.closed_ns.push(elapsed);
        if let Some((opened_at, calls_at_open, batch_at_open, open_ns)) = log.open.take() {
            log.rounds.push(Round {
                span_ns: nanos_since(opened_at),
                scalar_calls: q.scalar_calls.load(Ordering::Relaxed) - calls_at_open,
                batch_ns: q.batch_ns.load(Ordering::Relaxed) - batch_at_open,
                hook_ns: open_ns + elapsed,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_adversary::{EqualSizeAdversary, SmallestClassAdversary, SmallestClassSearch};
    use ecs_core::{
        CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
        RepresentativeScan, RoundRobin,
    };
    use ecs_model::{ExecutionBackend, Instance, InstanceOracle};
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    fn sort_all<O: EquivalenceOracle>(
        oracle: &O,
        k: usize,
        backend: ExecutionBackend,
    ) -> Vec<EcsRun> {
        vec![
            NaiveAllPairs::new().sort_with_backend(oracle, backend),
            RoundRobin::new().sort_with_backend(oracle, backend),
            RepresentativeScan::new().sort_with_backend(oracle, backend),
            ErMergeSort::new().sort_with_backend(oracle, backend),
            ErConstantRound::adaptive(9).sort_with_backend(oracle, backend),
            CrCompoundMerge::new(k).sort_with_backend(oracle, backend),
        ]
    }

    fn assert_same_runs(plain: &[EcsRun], wrapped: &[EcsRun], what: &str) {
        assert_eq!(plain.len(), wrapped.len());
        for (p, w) in plain.iter().zip(wrapped) {
            assert_eq!(p.partition, w.partition, "{what}: partition changed");
            assert_eq!(p.metrics, w.metrics, "{what}: metrics changed");
            assert_eq!(
                p.metrics.round_sizes(),
                w.metrics.round_sizes(),
                "{what}: round trace changed"
            );
        }
    }

    #[test]
    fn wrapping_changes_no_sort_on_any_backend() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let instance = Instance::balanced(300, 6, &mut rng);
        let oracle = InstanceOracle::new(&instance);
        type MakeBackend = fn() -> ExecutionBackend;
        let backends: [(&str, MakeBackend); 2] = [
            ("sequential", || ExecutionBackend::Sequential),
            ("auto", ExecutionBackend::auto),
        ];
        for (label, backend) in backends {
            let plain = sort_all(&oracle, 6, backend());
            let timing = TimingOracle::new(&oracle);
            let wrapped = sort_all(&timing, 6, backend());
            assert_same_runs(&plain, &wrapped, label);
            let trace = timing.trace(true);
            let charged: u64 = wrapped.iter().map(|r| r.metrics.comparisons()).sum();
            assert_eq!(
                trace.pairs, charged,
                "{label}: every charged pair is answered once"
            );
            assert!(plain.iter().all(|r| instance.verify(&r.partition)));
        }
    }

    #[test]
    fn wrapping_changes_no_adversary_answer() {
        // The planner's counters are diagnostics of how a round was
        // evaluated; on `auto` they follow the timing-driven lowering, so
        // they are compared on `Sequential` only.
        let backends: [(fn() -> ExecutionBackend, bool); 2] = [
            (|| ExecutionBackend::Sequential, true),
            (ExecutionBackend::auto, false),
        ];
        for (backend, same_plans) in backends {
            for (n, f) in [(96usize, 4usize), (128, 8)] {
                let plain_adv = EqualSizeAdversary::new(n, f);
                let plain = ErMergeSort::new().sort_with_backend(&plain_adv, backend());
                let wrapped_adv = EqualSizeAdversary::new(n, f);
                let timing = TimingOracle::new(&wrapped_adv);
                let wrapped = ErMergeSort::new().sort_with_backend(&timing, backend());
                assert_same_runs(&[plain], &[wrapped], "theorem 5");
                assert_eq!(plain_adv.comparisons(), wrapped_adv.comparisons());
                assert_eq!(plain_adv.partition(), wrapped_adv.partition());
                if same_plans {
                    assert_eq!(plain_adv.plan_stats(), wrapped_adv.plan_stats());
                }
                assert!(
                    !timing.trace(false).spans_ns.is_empty(),
                    "rounds are recorded"
                );
            }
            let plain_adv = SmallestClassAdversary::new(120, 5);
            let plain = RoundRobin::new().sort_with_backend(&plain_adv, backend());
            let wrapped_adv = SmallestClassAdversary::new(120, 5);
            let wrapped =
                RoundRobin::new().sort_with_backend(&TimingOracle::new(&wrapped_adv), backend());
            assert_same_runs(&[plain], &[wrapped], "theorem 6");
            assert_eq!(plain_adv.comparisons(), wrapped_adv.comparisons());
            assert_eq!(plain_adv.partition(), wrapped_adv.partition());

            let plain_adv = SmallestClassAdversary::new(96, 4);
            let plain = SmallestClassSearch::new(8)
                .with_audit()
                .run(&plain_adv, backend());
            let wrapped_adv = SmallestClassAdversary::new(96, 4);
            let wrapped = SmallestClassSearch::new(8)
                .with_audit()
                .run(&TimingOracle::new(&wrapped_adv), backend());
            assert_eq!(plain.partition, wrapped.partition);
            assert_eq!(plain.metrics, wrapped.metrics);
            assert_eq!(plain.metrics.round_sizes(), wrapped.metrics.round_sizes());
            if same_plans {
                assert_eq!(plain_adv.plan_stats(), wrapped_adv.plan_stats());
            }
        }
    }
}
