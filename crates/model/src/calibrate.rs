//! How [`crate::ExecutionBackend::auto`] picks its parameters: a cached
//! micro-probe plus any pinned knobs, lowered once to a fixed backend.
//!
//! The model's determinism story makes this safe: comparison charging
//! happens *before* a round is evaluated and answers are collected in
//! submission order, so partitions, [`crate::Metrics`], and CSVs never depend
//! on the thread count, parallel threshold, or wave size a round runs with.
//! `auto` therefore only has to choose those parameters well; nothing about
//! the choice needs recording.
//!
//! * **Probe.** At first use the process measures two synthetic
//!   micro-benchmarks ([`CalibrationProbe`]): the cost of one in-memory label
//!   comparison (`pair_ns`) and the cost of one cross-thread dispatch
//!   (`dispatch_ns`, a mutex-guarded queue handoff — the same shape as a pool
//!   chunk handoff). The probe never touches an [`crate::EquivalenceOracle`]:
//!   a probe query would bypass the session's round-commit protocol and
//!   corrupt adaptive (adversary) oracles.
//! * **Policy.** `policy` lowers probe + [`PinnedKnobs`] to one
//!   [`TuningDecision`], which [`crate::ExecutionBackend::auto_pinned`] turns
//!   into a plain `Sequential`, `Threaded`, or `Batched` value.

use crate::backend::available_parallelism;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How many pairs' worth of work one chunk dispatch must amortize before
/// sharding a round pays; multiplied by the thread count to get the
/// parallel threshold.
const DISPATCH_AMORTIZATION: usize = 8;

/// Bounds on the probe-derived parallel threshold.
const MIN_AUTO_THRESHOLD: usize = 64;
const MAX_AUTO_THRESHOLD: usize = 1 << 20;

/// The concrete execution parameters an [`crate::ExecutionBackend`] lowers
/// to: what `policy` produces for `auto`, and what
/// [`crate::ExecutionBackend::worker_decision`] reports for any backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningDecision {
    /// OS threads a round may shard across (`1` = inline).
    pub threads: usize,
    /// Minimum round size dispatched to the pool when sharding.
    pub threshold: usize,
    /// `Some(w)`: evaluate as `same_batch` waves of `w` pairs (`0` = one
    /// wave); `None`: per-pair `same` calls (inline or sharded).
    pub wave: Option<usize>,
}

impl TuningDecision {
    /// A decision that evaluates everything inline on the calling thread.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            threshold: usize::MAX,
            wave: None,
        }
    }
}

/// The startup micro-probe: synthetic costs measured once per process (no
/// oracle involvement, see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationProbe {
    /// Nanoseconds per in-memory label comparison.
    pub pair_ns: u64,
    /// Nanoseconds per cross-thread dispatch (mutex-guarded queue handoff).
    pub dispatch_ns: u64,
}

impl CalibrationProbe {
    /// The process-wide probe, measured on first use and cached: every
    /// `auto` backend in a process lowers from the same numbers.
    pub fn measure() -> Self {
        static PROBE: OnceLock<CalibrationProbe> = OnceLock::new();
        *PROBE.get_or_init(Self::measure_uncached)
    }

    fn measure_uncached() -> Self {
        // Pair cost: the InstanceOracle hot path in miniature — two array
        // reads and a compare, over an access pattern the prefetcher cannot
        // trivialize.
        const PROBE_N: usize = 4096;
        const PAIR_ITERS: u32 = 20_000;
        let labels: Vec<u32> = (0..PROBE_N)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) % 7)
            .collect();
        let start = Instant::now();
        let mut acc = 0usize;
        for i in 0..PAIR_ITERS as usize {
            let a = (i * 31) % PROBE_N;
            let b = (i * 17 + 1) % PROBE_N;
            acc += usize::from(labels[a] == labels[b]);
        }
        std::hint::black_box(acc);
        let pair_ns = (start.elapsed().as_nanos() / u128::from(PAIR_ITERS)).max(1) as u64;

        // Dispatch cost: one lock + queue push + pop, the per-chunk handoff
        // shape of the work-stealing pool (without spawning threads — the
        // probe must stay cheap enough to run at every pool startup).
        const DISPATCH_ITERS: u32 = 4_000;
        let queue: Mutex<std::collections::VecDeque<usize>> =
            Mutex::new(std::collections::VecDeque::new());
        let start = Instant::now();
        for i in 0..DISPATCH_ITERS as usize {
            let mut q = queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.push_back(i);
            std::hint::black_box(q.pop_front());
        }
        let dispatch_ns = (start.elapsed().as_nanos() / u128::from(DISPATCH_ITERS)).max(1) as u64;

        Self {
            pair_ns,
            dispatch_ns,
        }
    }
}

/// Knobs the user pinned explicitly (`--threads` / `--batch` next to
/// `--backend auto`): a pinned knob is lowered verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PinnedKnobs {
    /// Pinned worker count, if any.
    pub threads: Option<usize>,
    /// Pinned wave size, if any (forces the batched lowering).
    pub wave: Option<usize>,
}

/// Lowers probe + pins to a decision. Unpinned, the thread count is the
/// machine's available parallelism, no wave is chosen, and the threshold is
/// the round size at which each of the pool's chunk dispatches amortizes
/// over enough pairs that the handoff cost disappears into the comparison
/// work.
pub(crate) fn policy(probe: CalibrationProbe, pins: PinnedKnobs) -> TuningDecision {
    let threads = pins.threads.unwrap_or_else(available_parallelism).max(1);
    let dispatch_pairs =
        probe.dispatch_ns as f64 / probe.pair_ns.max(1) as f64 * DISPATCH_AMORTIZATION as f64;
    let threshold =
        ((threads as f64 * dispatch_pairs) as usize).clamp(MIN_AUTO_THRESHOLD, MAX_AUTO_THRESHOLD);
    TuningDecision {
        threads,
        threshold,
        wave: pins.wave,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_cached_and_nonzero() {
        let first = CalibrationProbe::measure();
        let second = CalibrationProbe::measure();
        assert_eq!(first, second, "the probe must be measured once");
        assert!(first.pair_ns >= 1);
        assert!(first.dispatch_ns >= 1);
    }

    #[test]
    fn policy_lowers_pins_verbatim_and_bounds_the_threshold() {
        let probe = CalibrationProbe {
            pair_ns: 1,
            dispatch_ns: 24,
        };
        let pinned = policy(
            probe,
            PinnedKnobs {
                threads: Some(3),
                wave: Some(64),
            },
        );
        assert_eq!((pinned.threads, pinned.wave), (3, Some(64)));
        assert_eq!(pinned.threshold, 3 * 24 * DISPATCH_AMORTIZATION);
        let unpinned = policy(probe, PinnedKnobs::default());
        assert_eq!(unpinned.threads, available_parallelism());
        assert_eq!(unpinned.wave, None);
        // Cheap dispatch hits the floor, costly dispatch the ceiling.
        let two = PinnedKnobs {
            threads: Some(2),
            wave: None,
        };
        let cheap = CalibrationProbe {
            pair_ns: 1_000,
            dispatch_ns: 1,
        };
        assert_eq!(policy(cheap, two).threshold, MIN_AUTO_THRESHOLD);
        let costly = CalibrationProbe {
            pair_ns: 1,
            dispatch_ns: u64::MAX,
        };
        assert_eq!(policy(costly, two).threshold, MAX_AUTO_THRESHOLD);
    }
}
