//! The Theorem 5 adversary: every equivalence class has the same size `f`.

use crate::core_state::AdversaryCore;
use crate::round_commit::RoundCommit;
use crate::LowerBoundAdversary;
use ecs_model::{EquivalenceOracle, Partition, PlanStats, Transcript};
use parking_lot::Mutex;

/// An adaptive oracle that forces any correct equivalence class sorting
/// algorithm to spend `Ω(n²/f)` comparisons when all classes have size `f`.
///
/// Use it exactly like an [`ecs_model::InstanceOracle`]; after the algorithm
/// finishes, [`EqualSizeAdversary::comparisons`] reports how many tests it was
/// forced to make and [`EqualSizeAdversary::paper_lower_bound`] the
/// `n²/(64f)` value from Lemma 3's accounting.
///
/// The adversary participates in the session's round-boundary hooks (the
/// [`crate::round_commit`] protocol), so it answers bit-identically on every
/// [`ecs_model::ExecutionBackend`] — sequential or threaded — and
/// under [`ecs_model::ThroughputPool`] throughput mode.
#[derive(Debug)]
pub struct EqualSizeAdversary {
    protocol: Mutex<RoundCommit>,
    n: usize,
    f: usize,
}

impl EqualSizeAdversary {
    /// Creates the adversary for `n` elements in classes of exactly `f`
    /// elements each.
    ///
    /// # Panics
    ///
    /// Panics if `f == 0` or `f` does not divide `n`.
    pub fn new(n: usize, f: usize) -> Self {
        assert!(f > 0, "class size must be positive");
        assert!(n.is_multiple_of(f), "f = {f} must divide n = {n}");
        let k = n / f;
        let sizes = vec![f; k];
        let threshold = (n / (4 * f)).max(1);
        Self {
            protocol: Mutex::new(RoundCommit::new(AdversaryCore::new(
                &sizes, threshold, None,
            ))),
            n,
            f,
        }
    }

    /// Enables transcript recording (off by default: a full interrogation
    /// stores Θ(n²) entries), for consistency audits.
    pub fn with_transcript(self) -> Self {
        self.protocol.lock().core_mut().enable_transcript();
        self
    }

    /// The recorded transcript; empty unless
    /// [`EqualSizeAdversary::with_transcript`] was used.
    pub fn transcript(&self) -> Transcript {
        self.protocol
            .lock()
            .core()
            .transcript()
            .cloned()
            .unwrap_or_default()
    }

    /// The uniform class size `f`.
    pub fn class_size(&self) -> usize {
        self.f
    }

    /// Comparisons the algorithm has performed against this adversary.
    pub fn comparisons(&self) -> u64 {
        self.protocol.lock().core().comparisons()
    }

    /// Number of elements the adversary was forced to mark.
    pub fn marked_elements(&self) -> usize {
        self.protocol.lock().core().marked_elements()
    }

    /// Number of colour swaps the adversary used to stay non-committal.
    pub fn swaps(&self) -> u64 {
        self.protocol.lock().core().swaps()
    }

    /// Comparison rounds committed through the round protocol (single
    /// sequential comparisons count as one round each).
    pub fn rounds_committed(&self) -> u64 {
        self.protocol.lock().rounds_committed()
    }

    /// Disables the incremental plan cache: every round eagerly replays all
    /// of its pairs, like the pre-cache protocol. Observationally identical;
    /// only [`EqualSizeAdversary::plan_stats`] can tell the modes apart.
    pub fn with_full_replan(self) -> Self {
        self.protocol.lock().force_full_replan();
        self
    }

    /// The incremental planner's replay-count witness.
    pub fn plan_stats(&self) -> PlanStats {
        self.protocol.lock().plan_stats()
    }

    /// The partition the adversary has committed to.
    pub fn partition(&self) -> Partition {
        self.protocol.lock().core().partition()
    }

    /// The explicit constant of Lemma 3 / Theorem 5: once `n/8` elements are
    /// marked, at least `n²/(64f)` comparisons have happened; a finished sort
    /// marks everything, so this is a valid lower bound for the whole run.
    pub fn paper_lower_bound(&self) -> u64 {
        let n = self.n as u64;
        n * n / (64 * self.f as u64)
    }

    /// The older `Ω(n²/f²)` bound the paper improves upon, for side-by-side
    /// reporting.
    pub fn previous_lower_bound(&self) -> u64 {
        let n = self.n as u64;
        let f = self.f as u64;
        n * n / (64 * f * f)
    }
}

impl EquivalenceOracle for EqualSizeAdversary {
    fn n(&self) -> usize {
        self.n
    }

    fn same(&self, a: usize, b: usize) -> bool {
        self.protocol.lock().query(a, b)
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.protocol.lock().query_batch(pairs)
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        self.protocol.lock().begin_round(pairs);
    }

    fn round_closed(&self) {
        self.protocol.lock().end_round();
    }
}

impl LowerBoundAdversary for EqualSizeAdversary {
    fn parameter(&self) -> usize {
        self.class_size()
    }

    fn comparisons(&self) -> u64 {
        EqualSizeAdversary::comparisons(self)
    }

    fn marked_elements(&self) -> usize {
        EqualSizeAdversary::marked_elements(self)
    }

    fn swaps(&self) -> u64 {
        EqualSizeAdversary::swaps(self)
    }

    fn paper_lower_bound(&self) -> u64 {
        EqualSizeAdversary::paper_lower_bound(self)
    }

    fn previous_lower_bound(&self) -> u64 {
        EqualSizeAdversary::previous_lower_bound(self)
    }

    fn partition(&self) -> Partition {
        EqualSizeAdversary::partition(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_core::{EcsAlgorithm, NaiveAllPairs, RepresentativeScan, RoundRobin};

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_non_dividing_f() {
        let _ = EqualSizeAdversary::new(10, 3);
    }

    #[test]
    fn representative_scan_is_forced_above_the_bound() {
        for &(n, f) in &[(64usize, 4usize), (128, 8), (240, 12), (300, 10)] {
            let adversary = EqualSizeAdversary::new(n, f);
            let run = RepresentativeScan::new().sort(&adversary);
            // The algorithm must produce exactly the adversary's committed
            // partition with classes of size f.
            assert_eq!(run.partition, adversary.partition(), "n={n}, f={f}");
            let mut sizes = run.partition.class_sizes();
            sizes.sort_unstable();
            assert!(
                sizes.iter().all(|&s| s == f),
                "n={n}, f={f}: sizes {sizes:?}"
            );
            assert!(
                adversary.comparisons() >= adversary.paper_lower_bound(),
                "n={n}, f={f}: {} comparisons below the n^2/64f bound {}",
                adversary.comparisons(),
                adversary.paper_lower_bound()
            );
        }
    }

    #[test]
    fn round_robin_is_forced_above_the_bound() {
        for &(n, f) in &[(120usize, 6usize), (200, 10)] {
            let adversary = EqualSizeAdversary::new(n, f);
            let run = RoundRobin::new().sort(&adversary);
            assert_eq!(run.partition, adversary.partition());
            assert!(
                adversary.comparisons() >= adversary.paper_lower_bound(),
                "n={n}, f={f}: {} < {}",
                adversary.comparisons(),
                adversary.paper_lower_bound()
            );
        }
    }

    #[test]
    fn naive_all_pairs_also_completes_against_the_adversary() {
        let adversary = EqualSizeAdversary::new(36, 6);
        let run = NaiveAllPairs::new().sort(&adversary);
        assert_eq!(run.partition, adversary.partition());
        assert_eq!(run.partition.num_classes(), 6);
    }

    #[test]
    fn new_bound_dominates_old_bound() {
        let adversary = EqualSizeAdversary::new(1024, 16);
        assert!(adversary.paper_lower_bound() >= 16 * adversary.previous_lower_bound());
    }

    #[test]
    fn transcript_explains_the_committed_partition() {
        let adversary = EqualSizeAdversary::new(60, 5).with_transcript();
        let run = RepresentativeScan::new().sort(&adversary);
        let transcript = adversary.transcript();
        assert_eq!(transcript.len() as u64, adversary.comparisons());
        assert!(transcript.consistent_with(&adversary.partition()));
        assert!(transcript.certifies(60, &run.partition));
    }

    #[test]
    fn extreme_class_sizes() {
        // f = 1: every element is its own class; bound is n^2/64.
        let singles = EqualSizeAdversary::new(40, 1);
        let run = RepresentativeScan::new().sort(&singles);
        assert_eq!(run.partition.num_classes(), 40);
        assert!(singles.comparisons() >= singles.paper_lower_bound());

        // f = n: a single class; the bound degenerates to n/64.
        let one = EqualSizeAdversary::new(40, 40);
        let run = RepresentativeScan::new().sort(&one);
        assert_eq!(run.partition.num_classes(), 1);
        assert!(one.comparisons() >= one.paper_lower_bound());
    }
}
