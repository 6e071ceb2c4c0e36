//! Equivalence oracles: the only window an algorithm has onto the hidden
//! classes.
//!
//! A round reaches the oracle as one [`EquivalenceOracle::same_batch`] call,
//! and a sequential row of queries as one [`EquivalenceOracle::same_row`]
//! call. The ground-truth oracles answer rows **word-parallel** when the class
//! structure is small enough to pack: the partition is lowered once (lazily)
//! into one [`BitRow`] per class, and a row — the shape naive all-pairs asks —
//! is answered 64 pairs per word fetch instead of one label compare per pair.

use crate::instance::Instance;
use crate::partition::Partition;
use ecs_graph::BitRow;
use std::ops::Range;
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

    /// Answers a whole round of equivalence tests, one answer per pair **in
    /// pair order**. Every round a [`crate::ComparisonSession`] evaluates on
    /// the calling thread is exactly one call, and a round sharded onto a
    /// [`crate::ExecutionBackend::Threaded`] pool is one call per shard.
    ///
    /// The default implementation is a scalar loop over [`Self::same`], so
    /// every oracle answers rounds correctly out of the box. Implementations
    /// with a per-request cost (a service round trip, a disk-resident
    /// partition, a lock) should override it to answer the round in one
    /// request; overrides must agree *pairwise* with `same` on every batch —
    /// `same_batch(pairs)[i] == same(pairs[i].0, pairs[i].1)` — which is what
    /// keeps inline and pooled evaluation bit-identical (enforced by the
    /// `oracle_batching` suite).
    ///
    /// Order-adaptive oracles (the lower-bound adversaries) implement the
    /// round-commit protocol on top of this: between [`Self::round_opened`]
    /// and [`Self::round_closed`] every pair is answered against the
    /// committed state at round start, so the answers do not depend on
    /// whether the round arrives as one batch or as shards from pool
    /// threads.
    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        // One exact allocation up front; the scalar loop fills it.
        let mut answers = Vec::with_capacity(pairs.len());
        answers.extend(pairs.iter().map(|&(a, b)| self.same(a, b)));
        answers
    }

    /// Answers the row of consecutive *sequential* queries `(a, b)`, one
    /// for every `b` in `others` in ascending order, as packed words: bit `i`
    /// of the row (bit `i % 64` of `out[i / 64]`) answers
    /// `(a, others.start + i)`. `out` is cleared first and ends with
    /// `⌈others.len() / 64⌉` words; bits past the row's end are zero. This
    /// is the bulk form of calling [`Self::same`] on each pair in turn,
    /// behind [`crate::ComparisonSession::compare_row`]: every pair is its
    /// own single-pair round, exactly as a scalar `same` outside a round is,
    /// and no round hooks are involved.
    ///
    /// The default is that in-order scalar loop, so order-adaptive oracles
    /// (the lower-bound adversaries answer each query against the state the
    /// previous one left) and instrumenting wrappers behave exactly as they
    /// would under a `same` loop. Only an oracle whose answers do not depend
    /// on query order may override it — as the ground-truth oracles do, one
    /// class-row word per 64 pairs. Pass-through wrappers
    /// ([`crate::CancellableOracle`], [`crate::RecordingOracle`]) forward it
    /// to the wrapped oracle so such an override is not defeated.
    fn same_row(&self, a: usize, others: Range<usize>, out: &mut Vec<u64>) {
        pack_row(others, out, |b| self.same(a, b));
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
    /// served from that plan (as one batch, or in any arrival order from any
    /// pool thread), and `round_closed` publishes the round's merged state
    /// advance — which is what makes their answers bit-identical across
    /// `Sequential` and `Threaded` execution backends. Scalar
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

/// Packs `answer(b)` for every `b` in `others`, asked in ascending order,
/// into `out` in the [`EquivalenceOracle::same_row`] layout.
fn pack_row(others: Range<usize>, out: &mut Vec<u64>, mut answer: impl FnMut(usize) -> bool) {
    out.clear();
    out.resize(others.len().div_ceil(64), 0);
    for (i, b) in others.enumerate() {
        out[i / 64] |= u64::from(answer(b)) << (i % 64);
    }
}

/// Ceiling on `num_classes * n` bits (16 MiB) for the packed class-row view;
/// partitions denser than this answer rows with the scalar label loop.
const CLASS_ROW_MAX_BITS: usize = 1 << 27;

/// The packed class-row view behind the word-parallel row path: the
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

    /// Answers the row `(a, b)`, `b` in `others`, into `out` in the
    /// [`EquivalenceOracle::same_row`] layout: one bounds check for the
    /// whole row, then one 64-bit window of `a`'s class row per word.
    fn answer_row(&self, n: usize, a: usize, others: Range<usize>, out: &mut Vec<u64>) {
        out.clear();
        if others.is_empty() {
            return;
        }
        if a >= n || others.end > n {
            // Report the first pair the scalar loop would reject.
            let b = if a < n {
                others.start.max(n)
            } else {
                others.start
            };
            validate_pair(n, a, b);
        }
        debug_assert!(!others.contains(&a), "self-comparison requested");
        let row = &self.rows[self.label_of[a] as usize];
        out.extend(
            others
                .clone()
                .step_by(64)
                .map(|start| row.extract_word(start)),
        );
        let tail = others.len() % 64;
        if tail != 0 {
            // The row runs on past `others.end`; clear the bits beyond it.
            *out.last_mut().expect("a non-empty row has a word") &= (1u64 << tail) - 1;
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

    fn same_row(&self, a: usize, others: Range<usize>, out: &mut Vec<u64>) {
        // Answers from fixed ground truth do not depend on query order.
        match self.class_rows() {
            Some(rows) => rows.answer_row(self.instance.n(), a, others, out),
            None => pack_row(others, out, |b| self.same(a, b)),
        }
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

    fn same_row(&self, a: usize, others: Range<usize>, out: &mut Vec<u64>) {
        // Answers from fixed labels do not depend on query order.
        match self.class_rows() {
            Some(rows) => rows.answer_row(self.labels.len(), a, others, out),
            None => pack_row(others, out, |b| self.same(a, b)),
        }
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
        let mut row = Vec::new();
        Parity.same_row(3, 4..10, &mut row);
        assert_eq!(row, vec![0b10_1010]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn same_row_rejects_out_of_range_rows() {
        let inst = Instance::from_labels(&[1, 1, 2]);
        InstanceOracle::new(&inst).same_row(0, 1..4, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn same_batch_rejects_an_out_of_range_pair() {
        let oracle = LabelOracle::new(vec![1, 2]);
        let _ = oracle.same_batch(&[(0, 1), (0, 2)]);
    }

    #[test]
    fn class_rows_compact_arbitrary_labels() {
        // Raw labels are sparse u32s; the packed rows must be built over the
        // canonicalised labels, not indexed by the raw values.
        let labels: Vec<u32> = (0..256).map(|i| 1_000_000 + (i % 5) * 7_919).collect();
        let oracle = LabelOracle::new(labels.clone());
        assert!(oracle.class_rows().is_some());
        let mut row = Vec::new();
        oracle.same_row(0, 1..256, &mut row);
        let mut expected = vec![0u64; 4];
        for b in 1..256 {
            expected[(b - 1) / 64] |= u64::from(labels[0] == labels[b]) << ((b - 1) % 64);
        }
        assert_eq!(row, expected);
    }

    #[test]
    fn oversized_partitions_fall_back_to_the_scalar_path() {
        // Force the CLASS_ROW_MAX_BITS gate: all-singleton labels make
        // num_classes * n quadratic.
        let n = 20_000usize; // 20k classes * 20k elements = 4e8 bits > 2^27
        let labels: Vec<u32> = (0..n as u32).collect();
        let oracle = LabelOracle::new(labels);
        assert!(oracle.class_rows().is_none());
        let mut row = Vec::new();
        oracle.same_row(19_990, 19_991..n, &mut row);
        assert_eq!(row, vec![0]);
        oracle.same_row(0, 1..66, &mut row);
        assert_eq!(row, vec![0, 0]);
    }
}
