//! Equivalence oracles: the only window an algorithm has onto the hidden
//! classes.
//!
//! The ground-truth oracles answer `same_batch` waves **word-parallel** when
//! the class structure is small enough to pack: the partition is lowered once
//! (lazily) into one [`BitRow`] per class, and a wave that scans consecutive
//! partners against a shared left endpoint — the shape emitted by
//! representative-scan and merge-style algorithms — is answered 64 pairs per
//! word fetch instead of one label compare per pair.

use crate::instance::Instance;
use crate::partition::Partition;
use ecs_graph::BitRow;
use std::sync::OnceLock;

/// Answers pairwise equivalence tests.
///
/// `Sync` is required so a [`crate::ComparisonSession`] can fan a round's
/// comparisons out across the worker threads of a
/// [`crate::ExecutionBackend::Threaded`] backend, which calls
/// [`EquivalenceOracle::same`] concurrently from several OS threads.
/// Implementations answering from fixed data (like [`InstanceOracle`]) are
/// naturally order-independent and give bit-identical results on every
/// backend; implementations must in any case be
/// *consistent*: answers must be realizable by some fixed partition (the
/// ground-truth oracle trivially is; the lower-bound adversary in
/// `ecs-adversary` maintains consistency explicitly).
pub trait EquivalenceOracle: Sync {
    /// Number of elements in the instance.
    fn n(&self) -> usize;

    /// Returns `true` if elements `a` and `b` belong to the same equivalence
    /// class.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `a` or `b` is out of range or `a == b`
    /// (self-comparisons are never useful and usually indicate an algorithm
    /// bug).
    fn same(&self, a: usize, b: usize) -> bool;

    /// Answers a whole batch of equivalence tests, one answer per pair **in
    /// pair order** — the request-wave primitive behind
    /// [`crate::ExecutionBackend::Batched`].
    ///
    /// The default implementation is a scalar loop over [`Self::same`], so
    /// every oracle batches correctly out of the box. Implementations backed
    /// by I/O or per-call fixed costs (a service round trip, a disk-resident
    /// partition, batch-wide validation) should override it to answer the
    /// wave in one pass; overrides must agree *pairwise* with `same` on every
    /// batch — `same_batch(pairs)[i] == same(pairs[i].0, pairs[i].1)` — which
    /// is what keeps batched evaluation bit-identical to the scalar path
    /// (enforced by the `oracle_batching` suite).
    ///
    /// Order-adaptive oracles (the lower-bound adversaries) implement the
    /// round-commit protocol on top of this: between [`Self::round_opened`]
    /// and [`Self::round_closed`] every pair is answered against the
    /// committed state at round start, so a batch's answers do not depend on
    /// how the round was cut into waves or which thread asked first.
    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        // One exact allocation up front; the scalar loop fills it.
        let mut answers = Vec::with_capacity(pairs.len());
        answers.extend(pairs.iter().map(|&(a, b)| self.same(a, b)));
        answers
    }

    /// Answers `pairs` as consecutive *sequential* queries, one answer per
    /// pair in pair order — the bulk form of calling [`Self::same`] on each
    /// pair in turn, behind [`crate::ComparisonSession::compare_sequence`].
    /// Every pair is its own single-pair round, exactly as a scalar `same`
    /// outside a round is: no round hooks are involved.
    ///
    /// The default is that scalar loop, so order-adaptive oracles (the
    /// lower-bound adversaries answer each query against the state the
    /// previous one left) and instrumenting wrappers behave exactly as they
    /// would under a `same` loop. Only an oracle whose answers do not depend
    /// on query order may override it — e.g. with its [`Self::same_batch`],
    /// as the ground-truth oracles do. Pass-through wrappers
    /// ([`crate::CancellableOracle`], [`crate::RecordingOracle`]) forward it
    /// to the wrapped oracle so such an override is not defeated.
    fn same_sequence(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        let mut answers = Vec::with_capacity(pairs.len());
        answers.extend(pairs.iter().map(|&(a, b)| self.same(a, b)));
        answers
    }

    /// Round-boundary hook: a [`crate::ComparisonSession`] calls this with
    /// the round's pairs (in submission order) before evaluating them, and
    /// [`Self::round_closed`] after.
    ///
    /// Stateless oracles ignore it (the default is a no-op). Order-adaptive
    /// oracles — the `ecs-adversary` lower-bound adversaries — use the pair
    /// of hooks as their round-commit protocol: at `round_opened` they plan
    /// every pair's answer by replaying the round in its canonical pair
    /// order against the state at round start, queries between the hooks are
    /// served from that plan (in any arrival order, from any thread, in any
    /// wave cut), and `round_closed` publishes the round's merged state
    /// advance — which is what makes their answers bit-identical across
    /// `Sequential`, `Threaded`, and `Batched` execution backends. Scalar
    /// `same` calls *outside* a round (e.g.
    /// [`crate::ComparisonSession::compare`]) are legal and behave as their
    /// own single-pair round.
    ///
    /// An oracle participating in the protocol must not be shared by two
    /// concurrently-evaluating sessions: the rounds would interleave.
    fn round_opened(&self, _pairs: &[(usize, usize)]) {}

    /// Round-boundary hook: the round opened by [`Self::round_opened`] is
    /// complete and deferred effects may be committed. Default: no-op.
    fn round_closed(&self) {}
}

/// Enforces the ground-truth oracles' shared query contract for one pair:
/// indices in range (hard assert with a diagnostic) and no self-comparison
/// (debug assert — never useful, usually an algorithm bug).
#[inline]
fn validate_pair(n: usize, a: usize, b: usize) {
    assert!(
        a < n && b < n,
        "comparison ({a}, {b}) out of range for n = {n}"
    );
    debug_assert_ne!(a, b, "self-comparison requested");
}

/// [`validate_pair`] over a whole wave, so batch answers can be produced in
/// a single unchecked pass afterwards.
fn validate_pairs(n: usize, pairs: &[(usize, usize)]) {
    for &(a, b) in pairs {
        validate_pair(n, a, b);
    }
}

/// Ceiling on `num_classes * n` bits (16 MiB) for the packed class-row view;
/// partitions denser than this answer batches with the scalar label loop.
const CLASS_ROW_MAX_BITS: usize = 1 << 27;

/// The packed class-row view behind the word-parallel batch path: the
/// canonical label of every element plus one [`BitRow`] per class.
#[derive(Debug, Clone)]
struct ClassRows {
    label_of: Vec<u32>,
    rows: Vec<BitRow>,
}

impl ClassRows {
    /// Lowers a partition into the packed view, or `None` when the row
    /// matrix would exceed [`CLASS_ROW_MAX_BITS`].
    fn build(partition: &Partition) -> Option<Self> {
        if partition
            .num_classes()
            .saturating_mul(partition.len())
            .max(partition.len())
            > CLASS_ROW_MAX_BITS
        {
            return None;
        }
        Some(Self {
            label_of: partition.labels().to_vec(),
            rows: partition.class_rows(),
        })
    }

    /// Answers a wave into `out`, validating inline in the same single pass
    /// (the pair list is the dominant memory traffic of a large wave, so it
    /// is walked exactly once). Pairs are grouped into runs that share a
    /// left endpoint; within a run, maximal stretches of consecutive right
    /// endpoints are answered from single 64-bit windows of the left
    /// endpoint's class row — a whole-stretch bounds check stands in for the
    /// per-pair one. Answers are exactly `labels[a] == labels[b]` pair for
    /// pair, and out-of-range pairs panic with the same diagnostic as the
    /// scalar loop.
    fn answer_wave(&self, n: usize, pairs: &[(usize, usize)], out: &mut Vec<bool>) {
        let mut i = 0;
        while i < pairs.len() {
            let a = pairs[i].0;
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == a {
                j += 1;
            }
            // Validate the run's left endpoint against its first partner, so
            // an out-of-range `a` reports the pair the scalar loop would.
            validate_pair(n, a, pairs[i].1);
            let row = &self.rows[self.label_of[a] as usize];
            let mut k = i;
            while k < j {
                let b0 = pairs[k].1;
                // Probe a full 64-wide window branchlessly first: the `&=`
                // fold has no early exit, so the consecutiveness check over
                // the common scan/merge wave shape vectorises instead of
                // comparing pair by pair.
                if j - k >= 64 && b0 < n && 64 <= n - b0 {
                    let window = &pairs[k..k + 64];
                    let mut consecutive = true;
                    for (t, p) in window.iter().enumerate() {
                        consecutive &= p.1 == b0 + t;
                    }
                    let self_free = !(b0 <= a && a < b0 + 64);
                    if consecutive && (self_free || !cfg!(debug_assertions)) {
                        let word = row.extract_word(b0);
                        out.extend((0..64u32).map(|t| (word >> t) & 1 == 1));
                        k += 64;
                        continue;
                    }
                }
                let mut m = k + 1;
                while m < j && m - k < 64 && pairs[m].1 == b0 + (m - k) {
                    m += 1;
                }
                let stretch = m - k;
                let in_bounds = b0 < n && stretch <= n - b0;
                // In debug builds a stretch containing `a` itself takes the
                // scalar path so the self-comparison debug assert fires on
                // the exact offending pair.
                let self_free = !(b0 <= a && a < b0 + stretch);
                if stretch >= 8 && in_bounds && (self_free || !cfg!(debug_assertions)) {
                    // A consecutive in-bounds stretch: one unaligned window
                    // fetch answers up to 64 partners.
                    let word = row.extract_word(b0);
                    out.extend((0..stretch).map(|t| (word >> t) & 1 == 1));
                } else {
                    for &(_, b) in &pairs[k..m] {
                        validate_pair(n, a, b);
                        out.push(row.test(b));
                    }
                }
                k = m;
            }
            i = j;
        }
    }
}

/// The straightforward oracle that answers from an [`Instance`]'s ground
/// truth.
#[derive(Debug, Clone)]
pub struct InstanceOracle<'a> {
    instance: &'a Instance,
    /// Lazily-built packed class rows (`None` inside once built = partition
    /// too large to pack; unset = not attempted yet).
    rows: OnceLock<Option<ClassRows>>,
}

impl<'a> InstanceOracle<'a> {
    /// Wraps an instance.
    pub fn new(instance: &'a Instance) -> Self {
        Self {
            instance,
            rows: OnceLock::new(),
        }
    }

    /// The wrapped instance.
    pub fn instance(&self) -> &'a Instance {
        self.instance
    }

    fn class_rows(&self) -> Option<&ClassRows> {
        self.rows
            .get_or_init(|| ClassRows::build(self.instance.ground_truth()))
            .as_ref()
    }
}

impl EquivalenceOracle for InstanceOracle<'_> {
    fn n(&self) -> usize {
        self.instance.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        validate_pair(self.instance.n(), a, b);
        self.instance.same_class(a, b)
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        // Word-parallel against the packed class rows when the partition
        // fits (validation folded into the single wave pass); otherwise one
        // validation pass plus one scalar pass over the ground truth.
        let n = self.instance.n();
        let mut answers = Vec::with_capacity(pairs.len());
        match self.class_rows() {
            Some(rows) => rows.answer_wave(n, pairs, &mut answers),
            None => {
                validate_pairs(n, pairs);
                answers.extend(pairs.iter().map(|&(a, b)| self.instance.same_class(a, b)));
            }
        }
        answers
    }

    fn same_sequence(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        // Answers from fixed ground truth do not depend on query order.
        self.same_batch(pairs)
    }
}

/// An oracle defined by an explicit label vector — convenient in tests where
/// constructing a full [`Instance`] is overkill. Enforces the same
/// bounds/self-comparison contract as [`InstanceOracle`]: out-of-range
/// indices fail with a diagnostic message, and self-comparisons are rejected
/// in debug builds.
#[derive(Debug, Clone)]
pub struct LabelOracle {
    labels: Vec<u32>,
    /// Lazily-built packed class rows over the canonicalised labels (raw
    /// labels are arbitrary `u32`s, so they are compacted first).
    rows: OnceLock<Option<ClassRows>>,
}

impl LabelOracle {
    /// Builds the oracle from raw labels.
    pub fn new(labels: Vec<u32>) -> Self {
        Self {
            labels,
            rows: OnceLock::new(),
        }
    }

    fn class_rows(&self) -> Option<&ClassRows> {
        self.rows
            .get_or_init(|| ClassRows::build(&Partition::from_labels(&self.labels)))
            .as_ref()
    }
}

impl EquivalenceOracle for LabelOracle {
    fn n(&self) -> usize {
        self.labels.len()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        validate_pair(self.labels.len(), a, b);
        self.labels[a] == self.labels[b]
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        // Word-parallel against the packed class rows when they fit
        // (validation folded into the single wave pass); otherwise one
        // validation pass plus one scalar pass over the labels.
        let n = self.labels.len();
        let mut answers = Vec::with_capacity(pairs.len());
        match self.class_rows() {
            Some(rows) => rows.answer_wave(n, pairs, &mut answers),
            None => {
                validate_pairs(n, pairs);
                answers.extend(pairs.iter().map(|&(a, b)| self.labels[a] == self.labels[b]));
            }
        }
        answers
    }

    fn same_sequence(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        // Answers from fixed labels do not depend on query order.
        self.same_batch(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    #[test]
    fn instance_oracle_answers_from_truth() {
        let inst = Instance::from_labels(&[1, 1, 2, 2, 3]);
        let oracle = InstanceOracle::new(&inst);
        assert_eq!(oracle.n(), 5);
        assert!(oracle.same(0, 1));
        assert!(oracle.same(2, 3));
        assert!(!oracle.same(0, 2));
        assert!(!oracle.same(4, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn instance_oracle_rejects_out_of_range() {
        let inst = Instance::from_labels(&[1, 2]);
        let oracle = InstanceOracle::new(&inst);
        let _ = oracle.same(0, 2);
    }

    #[test]
    fn label_oracle_matches_instance_oracle() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let inst = Instance::balanced(40, 5, &mut rng);
        let labels: Vec<u32> = inst.ground_truth().labels().to_vec();
        let a = InstanceOracle::new(&inst);
        let b = LabelOracle::new(labels);
        for i in 0..40 {
            for j in 0..40 {
                if i != j {
                    assert_eq!(a.same(i, j), b.same(i, j));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_oracle_rejects_out_of_range() {
        let oracle = LabelOracle::new(vec![1, 2]);
        let _ = oracle.same(0, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "self-comparison")]
    fn label_oracle_rejects_self_comparison_in_debug() {
        let oracle = LabelOracle::new(vec![1, 2]);
        let _ = oracle.same(1, 1);
    }

    #[test]
    fn oracles_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<InstanceOracle<'_>>();
        assert_sync::<LabelOracle>();
    }

    #[test]
    fn same_batch_agrees_pairwise_with_same() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let inst = Instance::balanced(60, 7, &mut rng);
        let labels: Vec<u32> = inst.ground_truth().labels().to_vec();
        let instance_oracle = InstanceOracle::new(&inst);
        let label_oracle = LabelOracle::new(labels);
        let pairs: Vec<(usize, usize)> = (0..59).map(|i| (i, i + 1)).collect();
        let scalar: Vec<bool> = pairs
            .iter()
            .map(|&(a, b)| instance_oracle.same(a, b))
            .collect();
        assert_eq!(instance_oracle.same_batch(&pairs), scalar);
        assert_eq!(label_oracle.same_batch(&pairs), scalar);
        assert!(instance_oracle.same_batch(&[]).is_empty());
    }

    #[test]
    fn default_same_batch_is_the_scalar_loop() {
        /// An oracle that only implements `same`, to exercise the trait's
        /// default batch path.
        struct Parity;
        impl EquivalenceOracle for Parity {
            fn n(&self) -> usize {
                10
            }
            fn same(&self, a: usize, b: usize) -> bool {
                a % 2 == b % 2
            }
        }
        assert_eq!(
            Parity.same_batch(&[(0, 2), (0, 1), (3, 5)]),
            vec![true, false, true]
        );
        assert_eq!(
            Parity.same_sequence(&[(0, 2), (0, 1), (3, 5)]),
            vec![true, false, true]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn same_sequence_rejects_out_of_range_pairs() {
        let inst = Instance::from_labels(&[1, 1, 2]);
        let _ = InstanceOracle::new(&inst).same_sequence(&[(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn same_batch_validates_the_whole_wave() {
        let oracle = LabelOracle::new(vec![1, 2]);
        let _ = oracle.same_batch(&[(0, 1), (0, 2)]);
    }

    #[test]
    fn word_parallel_waves_match_the_scalar_loop() {
        // Exercise every shape the run detector distinguishes: long
        // consecutive stretches (word fetches, crossing word boundaries),
        // short stretches (scalar tests), scattered partners, repeated left
        // endpoints, and descending partners.
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        let inst = Instance::balanced(300, 9, &mut rng);
        let labels: Vec<u32> = inst.ground_truth().labels().to_vec();
        let instance_oracle = InstanceOracle::new(&inst);
        let label_oracle = LabelOracle::new(labels);

        let mut pairs: Vec<(usize, usize)> = Vec::new();
        pairs.extend((1..200).map(|b| (0, b))); // long consecutive run
        pairs.extend([(0, 250), (0, 251), (0, 252)]); // short stretch
        pairs.extend([(5, 60), (5, 7), (5, 200), (5, 199), (5, 198)]); // scattered + descending
        pairs.extend((100..170).map(|b| (42, b))); // run crossing word boundaries
        pairs.extend([(7, 8), (9, 10), (7, 8)]); // repeats, changing left endpoint

        let scalar: Vec<bool> = pairs
            .iter()
            .map(|&(a, b)| instance_oracle.same(a, b))
            .collect();
        assert_eq!(instance_oracle.same_batch(&pairs), scalar);
        assert_eq!(label_oracle.same_batch(&pairs), scalar);
    }

    #[test]
    fn word_parallel_path_compacts_arbitrary_labels() {
        // Raw labels are sparse u32s; the packed rows must be built over the
        // canonicalised labels, not indexed by the raw values.
        let labels: Vec<u32> = (0..256).map(|i| 1_000_000 + (i % 5) * 7_919).collect();
        let oracle = LabelOracle::new(labels.clone());
        let pairs: Vec<(usize, usize)> = (0..255).map(|b| (0, b + 1)).collect();
        let expected: Vec<bool> = pairs.iter().map(|&(a, b)| labels[a] == labels[b]).collect();
        assert_eq!(oracle.same_batch(&pairs), expected);
    }

    #[test]
    fn oversized_partitions_fall_back_to_the_scalar_path() {
        // Force the CLASS_ROW_MAX_BITS gate: all-singleton labels make
        // num_classes * n quadratic.
        let n = 20_000usize; // 20k classes * 20k elements = 4e8 bits > 2^27
        let labels: Vec<u32> = (0..n as u32).collect();
        let oracle = LabelOracle::new(labels);
        assert!(oracle.class_rows().is_none());
        let pairs = [(0usize, 1usize), (5, 5000), (19_998, 19_999)];
        assert_eq!(oracle.same_batch(&pairs), vec![false, false, false]);
    }
}
