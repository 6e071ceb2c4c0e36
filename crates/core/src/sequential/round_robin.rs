//! The round-robin algorithm of Jayapaul et al., analysed in Sections 4–5.
//!
//! Every element keeps a cyclic cursor over the other elements; the algorithm
//! sweeps over the elements in rounds, and in each sweep every still-active
//! element initiates one equivalence test with the *next element whose
//! relationship to it is still unknown*. Knowledge is shared at the group
//! level: discovered equivalences contract groups, discovered differences
//! are recorded between groups, and a relationship is "known" as soon as it
//! can be inferred from the group structure.
//!
//! The lemma of Jayapaul et al. used by Theorem 7 states that this schedule
//! performs at most `2·min(Y_i, Y_j)` tests between any two classes of sizes
//! `Y_i` and `Y_j`; the property-based tests below check that bound (and the
//! resulting Theorem 7 stochastic dominance is exercised again in the
//! integration tests and the `theorem7_dominance` benchmark binary).

use crate::run::{EcsAlgorithm, EcsRun};
use ecs_graph::BitRow;
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, Partition, ReadMode};

/// The round-robin sequential equivalence class sorter.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

/// The groups one group is known to differ from.
///
/// A short set is a sorted list. Once the list would take as many bytes as a
/// bit row over all `n` group ids (`len ≥ n / 32`), it becomes that row, so
/// an insert never shifts a long list and a lookup is one bit test; it turns
/// back into a list if merges shrink it below half that size. Either way a
/// set costs O(its length) bytes, so all of them take O(n + known pairs).
#[derive(Debug)]
enum KnownSet {
    List(Vec<u32>),
    Row { row: BitRow, len: usize },
}

impl KnownSet {
    fn len(&self) -> usize {
        match self {
            Self::List(list) => list.len(),
            Self::Row { len, .. } => *len,
        }
    }

    fn contains(&self, g: u32) -> bool {
        match self {
            Self::List(list) => list.binary_search(&g).is_ok(),
            Self::Row { row, .. } => row.test(g as usize),
        }
    }

    /// Calls `f` on every member.
    fn for_each(&self, mut f: impl FnMut(u32)) {
        match self {
            Self::List(list) => list.iter().for_each(|&g| f(g)),
            Self::Row { row, .. } => row.for_each_one(|g| f(g as u32)),
        }
    }

    /// A list of `n` possible members, as a row if it is long.
    fn from_list(list: Vec<u32>, n: usize) -> Self {
        if list.len() * 32 < n {
            return Self::List(list);
        }
        let mut row = BitRow::new(n);
        for &g in &list {
            row.set(g as usize);
        }
        Self::Row {
            row,
            len: list.len(),
        }
    }

    /// Adds `g`; `false` if it was already a member.
    fn insert(&mut self, g: u32, n: usize) -> bool {
        match self {
            Self::List(list) => match list.binary_search(&g) {
                Ok(_) => false,
                Err(at) => {
                    list.insert(at, g);
                    if list.len() * 32 >= n {
                        *self = Self::from_list(std::mem::take(list), n);
                    }
                    true
                }
            },
            Self::Row { row, len } => {
                let fresh = row.set(g as usize);
                *len += usize::from(fresh);
                fresh
            }
        }
    }

    /// Removes `g`; `false` if it was not a member.
    fn remove(&mut self, g: u32, n: usize) -> bool {
        match self {
            Self::List(list) => match list.binary_search(&g) {
                Ok(at) => {
                    list.remove(at);
                    true
                }
                Err(_) => false,
            },
            Self::Row { row, len } => {
                if !row.clear(g as usize) {
                    return false;
                }
                *len -= 1;
                if *len * 64 < n {
                    let list = row.iter_ones().map(|g| g as u32).collect();
                    *self = Self::List(list);
                }
                true
            }
        }
    }

    /// The union of two sets.
    fn union(self, other: Self, n: usize) -> Self {
        match (self, other) {
            (Self::List(a), Self::List(b)) => Self::from_list(union_sorted(&a, &b), n),
            (Self::Row { row, len }, other) | (other, Self::Row { row, len }) => {
                let (mut row, mut len) = (row, len);
                other.for_each(|g| len += usize::from(row.set(g as usize)));
                Self::Row { row, len }
            }
        }
    }
}

/// The sorted union of two sorted, duplicate-free lists.
fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Group-level knowledge in flat arrays, with no hashing: O(n + known pairs)
/// memory, and O(1) work per skipped cursor step.
///
/// A group's id is one of its members, so ids live in `0..n` and every
/// per-group array is indexed by element. Contracting two groups relabels
/// the smaller one, so each element is relabelled O(log n) times.
struct Knowledge {
    /// The group of every element.
    group_of: Vec<u32>,
    /// Circular member lists: `next[x]` is the next member of `x`'s group.
    next: Vec<u32>,
    /// Member count of each live group.
    size: Vec<u32>,
    /// For each live group, the groups known to differ from it.
    diff: Vec<KnownSet>,
    /// Number of live groups.
    groups: usize,
    /// Number of unordered known-different group pairs.
    known_pairs: usize,
    /// The group of the element scanning this turn.
    scanner: usize,
    /// Whether this turn's scanner was stamped (its set is a list).
    stamped: bool,
    /// Once stamped, `stamp[g] == turn` marks the scanner's group and the
    /// groups it is known to differ from (see [`Knowledge::knows`]).
    stamp: Vec<u32>,
    turn: u32,
}

impl Knowledge {
    fn new(n: usize) -> Self {
        let ids: Vec<u32> = (0..n as u32).collect();
        Self {
            group_of: ids.clone(),
            next: ids,
            size: vec![1; n],
            diff: (0..n).map(|_| KnownSet::List(Vec::new())).collect(),
            groups: n,
            known_pairs: 0,
            scanner: 0,
            stamped: false,
            stamp: vec![0; n],
            turn: 0,
        }
    }

    fn n(&self) -> usize {
        self.group_of.len()
    }

    fn group(&self, x: usize) -> usize {
        self.group_of[x] as usize
    }

    /// All pairwise relationships among current groups are known.
    fn complete(&self) -> bool {
        self.known_pairs == self.groups * (self.groups - 1) / 2
    }

    /// The group of `x` knows its relationship to every other current group.
    fn fully_informed(&self, x: usize) -> bool {
        self.diff[self.group(x)].len() == self.groups - 1
    }

    /// Opens `x`'s cursor scan. Knowledge does not change until the scan
    /// ends in a comparison, so what the scan sets up here holds for all of
    /// it: a scanner whose set is a list stamps its group and every group in
    /// the list, so each step is one array read; a scanner whose set is a
    /// row answers each step with one bit test instead of stamping its many
    /// groups on every turn.
    fn begin_scan(&mut self, x: usize) {
        self.scanner = self.group(x);
        self.stamped = matches!(self.diff[self.scanner], KnownSet::List(_));
        if self.stamped {
            self.stamp_scanner();
        }
    }

    /// Whether the relationship between `y` and the element scanning this
    /// turn is known.
    #[inline]
    fn knows(&self, y: usize) -> bool {
        let g = self.group(y);
        if self.stamped {
            return self.stamp[g] == self.turn;
        }
        g == self.scanner || self.diff[self.scanner].contains(g as u32)
    }

    /// Stamps the scanner's group and every group it is known to differ
    /// from with a fresh turn.
    fn stamp_scanner(&mut self) {
        self.turn = self.turn.wrapping_add(1);
        if self.turn == 0 {
            self.stamp.fill(0);
            self.turn = 1;
        }
        let Self {
            diff,
            stamp,
            turn,
            scanner,
            ..
        } = self;
        stamp[*scanner] = *turn;
        diff[*scanner].for_each(|h| stamp[h as usize] = *turn);
    }

    /// Records a "different" answer between the groups of `a` and `b`.
    fn record_different(&mut self, a: usize, b: usize) {
        let (ga, gb) = (self.group(a), self.group(b));
        debug_assert_ne!(ga, gb, "consistent oracles never separate equal elements");
        let n = self.n();
        if self.diff[ga].insert(gb as u32, n) {
            self.diff[gb].insert(ga as u32, n);
            self.known_pairs += 1;
        }
    }

    /// Records an "equal" answer: contracts the two groups (relabelling the
    /// smaller) and merges their difference knowledge.
    fn record_equal(&mut self, a: usize, b: usize) {
        let (ga, gb) = (self.group(a), self.group(b));
        if ga == gb {
            return;
        }
        debug_assert!(
            !self.diff[ga].contains(gb as u32),
            "oracle inconsistency: groups known different answered equal"
        );
        let (keep, gone) = if self.size[ga] >= self.size[gb] {
            (ga, gb)
        } else {
            (gb, ga)
        };
        let mut x = gone;
        loop {
            self.group_of[x] = keep as u32;
            x = self.next[x] as usize;
            if x == gone {
                break;
            }
        }
        // Swapping one successor in each circle splices them into one.
        self.next.swap(keep, gone);
        self.size[keep] += self.size[gone];
        self.groups -= 1;
        let n = self.n();
        let gone_diff = std::mem::replace(&mut self.diff[gone], KnownSet::List(Vec::new()));
        let Self {
            diff, known_pairs, ..
        } = self;
        gone_diff.for_each(|z| {
            // Repoint z's knowledge from the vanished group to the survivor.
            let known = &mut diff[z as usize];
            let removed = known.remove(gone as u32, n);
            debug_assert!(removed, "difference knowledge is symmetric");
            if !known.insert(keep as u32, n) {
                // z already knew the survivor: two known pairs collapse.
                *known_pairs -= 1;
            }
        });
        let kept = std::mem::replace(&mut self.diff[keep], KnownSet::List(Vec::new()));
        self.diff[keep] = kept.union(gone_diff, n);
    }
}

impl EcsAlgorithm for RoundRobin {
    fn name(&self) -> String {
        "round-robin".to_string()
    }

    fn read_mode(&self) -> ReadMode {
        ReadMode::Exclusive
    }

    fn sort_with_backend<O: EquivalenceOracle>(
        &self,
        oracle: &O,
        backend: ExecutionBackend,
    ) -> EcsRun {
        let n = oracle.n();
        let mut session = ComparisonSession::with_backend(oracle, ReadMode::Exclusive, backend);
        if n == 0 {
            return EcsRun::new(Partition::from_labels::<u32>(&[]), session.into_metrics());
        }
        let mut knowledge = Knowledge::new(n);
        // cursor[x] is the next *offset* (1-based, cyclic) x will examine.
        let mut cursor: Vec<usize> = vec![1; n];
        let mut active: Vec<bool> = vec![true; n];

        while !knowledge.complete() {
            let mut progressed = false;
            for x in 0..n {
                if knowledge.complete() {
                    break;
                }
                if !active[x] {
                    continue;
                }
                if knowledge.fully_informed(x) {
                    // The group of x already knows every other group; it can
                    // learn nothing more, so x stops initiating tests.
                    active[x] = false;
                    continue;
                }
                // Advance the cursor to the next element with an unknown
                // relationship and test it.
                knowledge.begin_scan(x);
                loop {
                    if cursor[x] >= n {
                        active[x] = false;
                        break;
                    }
                    let y = x + cursor[x];
                    let y = if y >= n { y - n } else { y };
                    cursor[x] += 1;
                    if knowledge.knows(y) {
                        continue;
                    }
                    progressed = true;
                    if session.compare(x, y) {
                        knowledge.record_equal(x, y);
                    } else {
                        knowledge.record_different(x, y);
                    }
                    break;
                }
            }
            assert!(
                progressed || knowledge.complete(),
                "round-robin stalled before completing (inconsistent oracle?)"
            );
        }

        EcsRun::new(
            Partition::from_labels(&knowledge.group_of),
            session.into_metrics(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_model::{Instance, InstanceOracle};
    use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn known_sets_switch_between_list_and_row() {
        let n = 64; // rows from 2 members, lists again below 1
        let mut set = KnownSet::List(vec![9]);
        assert!(set.insert(5, n));
        assert!(matches!(set, KnownSet::Row { len: 2, .. }));
        assert!(!set.insert(9, n));
        assert!(set.contains(5) && set.contains(9) && !set.contains(6));
        assert!(set.remove(9, n) && !set.remove(9, n));
        assert!(matches!(set, KnownSet::Row { len: 1, .. }));
        assert!(set.remove(5, n));
        assert!(matches!(&set, KnownSet::List(list) if list.is_empty()));

        let big = 1000; // lists up to 31 members
        let evens = KnownSet::List((0..20).map(|g| 2 * g).collect());
        let threes = KnownSet::List((0..20).map(|g| 3 * g).collect());
        let union = evens.union(threes, big);
        let mut members = Vec::new();
        union.for_each(|g| members.push(g));
        let mut expected: Vec<u32> = (0..20).flat_map(|g| [2 * g, 3 * g]).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(members, expected);
        assert!(matches!(union, KnownSet::Row { len, .. } if len == expected.len()));
        let list_first = KnownSet::List(vec![3, 7]).union(union, big);
        assert_eq!(list_first.len(), expected.len() + 1, "7 is new, 3 is not");
        assert_eq!(
            union_sorted(&[1, 4, 9], &[0, 4, 5, 12]),
            vec![0, 1, 4, 5, 9, 12]
        );
    }

    #[test]
    fn knowledge_contracts_groups_and_survives_stamp_wrap() {
        let mut k = Knowledge::new(200); // short sets stay lists
        k.record_different(0, 1);
        k.record_different(2, 1);
        k.record_equal(0, 2); // {0, 2} both knew 1: two pairs collapse
        assert_eq!((k.groups, k.known_pairs), (199, 1));
        k.record_equal(3, 0); // the larger group {0, 2} survives
        assert_eq!(k.group(3), k.group(0));
        assert_eq!(k.size[k.group(0)], 3);
        assert_eq!(k.diff[k.group(0)].len(), 1);
        assert!(matches!(k.diff[k.group(0)], KnownSet::List(_)));
        k.turn = u32::MAX; // the next stamp wraps the counter
        k.begin_scan(2);
        assert_eq!(k.turn, 1);
        assert!(k.knows(0) && k.knows(3), "the scanner's own group");
        assert!(k.knows(1));
        assert!(!k.knows(4) && !k.knows(5));
        assert!(!k.fully_informed(2));
        let mut labels: Vec<usize> = (0..200).collect();
        labels[2] = 0;
        labels[3] = 0;
        assert_eq!(
            Partition::from_labels(&k.group_of),
            Partition::from_labels(&labels)
        );
    }

    #[test]
    fn scans_answer_alike_from_lists_and_rows() {
        // Group 0 knows 59 groups: a list at n = 4000, which the scan
        // stamps, and a row at n = 100, which it bit-tests.
        for n in [4000, 100] {
            let mut k = Knowledge::new(n);
            for y in 1..60 {
                k.record_different(0, y);
            }
            k.begin_scan(0);
            assert_eq!(k.stamped, n == 4000);
            assert_eq!(matches!(k.diff[0], KnownSet::List(_)), n == 4000);
            for y in 0..100 {
                assert_eq!(k.knows(y), y < 60, "n = {n}, y = {y}");
            }
        }
    }

    #[test]
    fn classifies_small_and_degenerate_instances() {
        let mut r = rng(1);
        for &(n, k) in &[
            (1usize, 1usize),
            (2, 1),
            (2, 2),
            (3, 2),
            (50, 1),
            (50, 50),
            (60, 7),
        ] {
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            assert!(inst.verify(&run.partition), "failed for n={n}, k={k}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_labels::<u32>(&[]);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(run.partition.is_empty());
        assert_eq!(run.metrics.comparisons(), 0);
    }

    #[test]
    fn two_classes_interleaved() {
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let inst = Instance::from_labels(&labels);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
    }

    #[test]
    fn uses_far_fewer_comparisons_than_all_pairs_on_few_classes() {
        let mut r = rng(2);
        let n = 600;
        let inst = Instance::balanced(n, 5, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        let all_pairs = (n * (n - 1) / 2) as u64;
        assert!(
            run.metrics.comparisons() * 10 < all_pairs,
            "round-robin used {} comparisons, close to the {} of all-pairs",
            run.metrics.comparisons(),
            all_pairs
        );
    }

    /// Counts comparisons between each pair of true classes by re-running the
    /// algorithm against a counting oracle.
    fn per_class_pair_counts(labels: &[usize]) -> (HashMap<(usize, usize), usize>, Vec<usize>) {
        use std::sync::Mutex;

        struct CountingOracle<'a> {
            labels: &'a [usize],
            counts: Mutex<HashMap<(usize, usize), usize>>,
        }
        impl EquivalenceOracle for CountingOracle<'_> {
            fn n(&self) -> usize {
                self.labels.len()
            }
            fn same(&self, a: usize, b: usize) -> bool {
                let (la, lb) = (self.labels[a], self.labels[b]);
                let key = (la.min(lb), la.max(lb));
                *self.counts.lock().unwrap().entry(key).or_insert(0) += 1;
                la == lb
            }
        }

        let oracle = CountingOracle {
            labels,
            counts: Mutex::new(HashMap::new()),
        };
        let run = RoundRobin::new().sort(&oracle);
        let inst = Instance::from_labels(labels);
        assert!(inst.verify(&run.partition));
        let mut sizes = vec![0usize; labels.iter().max().map(|m| m + 1).unwrap_or(0)];
        for &l in labels {
            sizes[l] += 1;
        }
        (oracle.counts.into_inner().unwrap(), sizes)
    }

    #[test]
    fn per_class_pair_tests_respect_jayapaul_lemma() {
        // Lemma (Jayapaul et al., used by Theorem 7): at most 2·min(Y_i, Y_j)
        // tests between any two distinct classes.
        let mut r = rng(3);
        for trial in 0..20 {
            let n = 150 + trial * 10;
            let k = 2 + (trial % 7);
            let inst = Instance::balanced(n, k, &mut r);
            let labels: Vec<usize> = inst
                .ground_truth()
                .labels()
                .iter()
                .map(|&l| l as usize)
                .collect();
            let (counts, sizes) = per_class_pair_counts(&labels);
            for (&(i, j), &c) in &counts {
                if i == j {
                    continue;
                }
                let bound = 2 * sizes[i].min(sizes[j]);
                assert!(
                    c <= bound,
                    "trial {trial}: {c} tests between classes {i} and {j}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn within_class_tests_are_at_most_class_size() {
        // Equal answers always contract groups, so a class of size s needs at
        // most s − 1 "equal" answers... but "unknown" probes inside a class
        // are exactly the equal answers, so within-class tests ≤ s − 1 + 0.
        let mut r = rng(4);
        let inst = Instance::balanced(200, 4, &mut r);
        let labels: Vec<usize> = inst
            .ground_truth()
            .labels()
            .iter()
            .map(|&l| l as usize)
            .collect();
        let (counts, sizes) = per_class_pair_counts(&labels);
        for (&(i, j), &c) in &counts {
            if i == j {
                assert!(
                    c <= sizes[i],
                    "class {i}: {c} internal tests for size {}",
                    sizes[i]
                );
            }
        }
    }

    #[test]
    fn skewed_class_sizes_are_cheap() {
        // One giant class plus a few tiny ones: the paper's distribution
        // analysis predicts close-to-linear total comparisons.
        let mut r = rng(5);
        let mut sizes = vec![900usize];
        sizes.extend(std::iter::repeat_n(10usize, 10));
        let inst = Instance::from_class_sizes(&sizes, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        let n = inst.n() as u64;
        assert!(
            run.metrics.comparisons() < 40 * n,
            "expected near-linear comparisons, got {} for n = {n}",
            run.metrics.comparisons()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_ground_truth_on_random_instances(
            labels in proptest::collection::vec(0u8..6, 1..100)
        ) {
            let inst = Instance::from_labels(&labels);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
        }

        #[test]
        fn comparison_count_never_exceeds_all_pairs(
            seed in 0u64..200,
            n in 2usize..120,
            k in 1usize..10,
        ) {
            let k = k.min(n);
            let mut r = rng(seed);
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
            prop_assert!(run.metrics.comparisons() <= (n * (n - 1) / 2) as u64);
        }
    }

    #[test]
    fn deterministic_given_identical_instances() {
        let mut r1 = rng(9);
        let mut r2 = rng(9);
        let a = Instance::balanced(300, 6, &mut r1);
        let b = Instance::balanced(300, 6, &mut r2);
        let ra = RoundRobin::new().sort(&InstanceOracle::new(&a));
        let rb = RoundRobin::new().sort(&InstanceOracle::new(&b));
        assert_eq!(ra.metrics.comparisons(), rb.metrics.comparisons());
        assert_eq!(ra.partition, rb.partition);
    }

    #[test]
    fn handles_many_singleton_classes() {
        // Stress the knowledge bookkeeping: every element its own class.
        let labels: Vec<usize> = (0..80).collect();
        let inst = Instance::from_labels(&labels);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        assert_eq!(run.metrics.comparisons(), (80 * 79 / 2) as u64);
    }

    #[test]
    fn random_seeded_shuffle_does_not_break_lemma() {
        let mut r = rng(11);
        let mut labels: Vec<usize> = Vec::new();
        for class in 0..6 {
            let size = 5 + r.below(40);
            labels.extend(std::iter::repeat_n(class, size));
        }
        r.shuffle(&mut labels);
        let (counts, sizes) = per_class_pair_counts(&labels);
        for (&(i, j), &c) in &counts {
            if i != j {
                assert!(c <= 2 * sizes[i].min(sizes[j]));
            }
        }
    }
}
