//! Canonical partitions of `0..n` into equivalence classes.

use ecs_graph::BitRow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A partition of the elements `0..n` into equivalence classes, stored as a
/// dense label per element and canonicalised so that labels are numbered by
/// first occurrence (element 0 always has label 0, the first element with a
/// different class has label 1, and so on).
///
/// Canonicalisation makes equality of partitions a plain slice comparison,
/// which is how algorithm outputs are verified against the ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partition {
    labels: Vec<u32>,
    num_classes: usize,
}

impl Partition {
    /// Builds a partition from arbitrary per-element labels (canonicalising).
    ///
    /// The labels are hashed without a key (see `FoldHasher`), so labels an
    /// adversary picks to collide make this quadratic.
    pub fn from_labels<L: Copy + Eq + Hash>(labels: &[L]) -> Self {
        let mut canon: HashMap<L, u32, BuildHasherDefault<FoldHasher>> = HashMap::default();
        let mut out = Vec::with_capacity(labels.len());
        for &l in labels {
            let next = canon.len() as u32;
            let id = *canon.entry(l).or_insert(next);
            out.push(id);
        }
        Self {
            num_classes: canon.len(),
            labels: out,
        }
    }

    /// Builds a partition from explicit groups of element indices.
    ///
    /// # Panics
    ///
    /// Panics if the groups are not a partition of `0..n` (where `n` is the
    /// total number of listed elements).
    pub fn from_groups(groups: &[Vec<usize>]) -> Self {
        let n: usize = groups.iter().map(|g| g.len()).sum();
        let mut labels = vec![u32::MAX; n];
        for (id, group) in groups.iter().enumerate() {
            for &e in group {
                assert!(e < n, "element {e} out of range for {n} elements");
                assert_eq!(labels[e], u32::MAX, "element {e} listed in two groups");
                labels[e] = id as u32;
            }
        }
        assert!(
            labels.iter().all(|&l| l != u32::MAX),
            "groups must cover every element exactly once"
        );
        Self::from_labels(&labels)
    }

    /// The trivial partition where every element is its own class.
    pub fn singletons(n: usize) -> Self {
        Self {
            labels: (0..n as u32).collect(),
            num_classes: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the partition has no elements.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of equivalence classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The canonical label of an element.
    pub fn label_of(&self, element: usize) -> usize {
        self.labels[element] as usize
    }

    /// Whether two elements share a class.
    pub fn same_class(&self, a: usize, b: usize) -> bool {
        self.labels[a] == self.labels[b]
    }

    /// The classes as sorted groups of element indices, ordered by label
    /// (i.e. by first occurrence).
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_classes];
        for (e, &l) in self.labels.iter().enumerate() {
            groups[l as usize].push(e);
        }
        groups
    }

    /// The size of each class, ordered by label.
    pub fn class_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_classes];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// The size of the smallest class (`ℓ` in the paper); 0 for an empty
    /// partition.
    pub fn smallest_class_size(&self) -> usize {
        self.class_sizes().into_iter().min().unwrap_or(0)
    }

    /// The size of the largest class; 0 for an empty partition.
    pub fn largest_class_size(&self) -> usize {
        self.class_sizes().into_iter().max().unwrap_or(0)
    }

    /// The canonical label slice.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The classes as packed bit rows: row `l` has bit `e` set iff element
    /// `e` carries canonical label `l`. This is the view the word-parallel
    /// `same_row` oracle path reads — membership of 64 consecutive elements
    /// in a class is one word fetch.
    pub fn class_rows(&self) -> Vec<BitRow> {
        let mut rows = vec![BitRow::new(self.len()); self.num_classes];
        for (e, &l) in self.labels.iter().enumerate() {
            rows[l as usize].set(e);
        }
        rows
    }
}

/// The hasher `from_labels` canonicalises with: each word is xored into the
/// state, which is then multiplied by an odd constant, and the 128-bit
/// product's high half is folded into its low half. The fold matters: a plain
/// multiply leaves the low bits of keys like `i << 32` all zero, and the
/// table picks buckets by low bits. (The constant is an odd one that spreads
/// 4096 keys `i << s` over at least 2300 low-12-bit values for every shift.)
/// It is unkeyed and far cheaper than SipHash on small keys: fine for labels
/// the process generates itself, not for keys an adversary chooses.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x3a18_90c7_8092_b4d5;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonicalisation_is_order_of_first_occurrence() {
        let p = Partition::from_labels(&[7, 7, 3, 7, 9, 3]);
        assert_eq!(p.labels(), &[0, 0, 1, 0, 2, 1]);
        assert_eq!(p.num_classes(), 3);
    }

    #[test]
    fn equal_partitions_with_different_label_names() {
        let a = Partition::from_labels(&["x", "y", "x", "z"]);
        let b = Partition::from_labels(&[10usize, 20, 10, 30]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_partitions_are_unequal() {
        let a = Partition::from_labels(&[0, 0, 1, 1]);
        let b = Partition::from_labels(&[0, 1, 0, 1]);
        assert_ne!(a, b);
    }

    #[test]
    fn from_groups_round_trips() {
        let p = Partition::from_groups(&[vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(p.groups(), vec![vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(p.class_sizes(), vec![3, 2]);
        assert!(p.same_class(0, 4));
        assert!(!p.same_class(0, 1));
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_rejected() {
        let _ = Partition::from_groups(&[vec![0, 1], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn incomplete_groups_rejected() {
        // Two listed elements but index 2 referenced: not a partition of 0..2.
        let _ = Partition::from_groups(&[vec![0], vec![2]]);
    }

    #[test]
    fn singletons_and_empty() {
        let s = Partition::singletons(4);
        assert_eq!(s.num_classes(), 4);
        assert_eq!(s.smallest_class_size(), 1);
        let e = Partition::from_labels::<u32>(&[]);
        assert!(e.is_empty());
        assert_eq!(e.num_classes(), 0);
        assert_eq!(e.smallest_class_size(), 0);
        assert_eq!(e.largest_class_size(), 0);
    }

    #[test]
    fn sizes_and_extremes() {
        let p = Partition::from_labels(&[0, 0, 0, 1, 1, 2]);
        assert_eq!(p.class_sizes(), vec![3, 2, 1]);
        assert_eq!(p.smallest_class_size(), 1);
        assert_eq!(p.largest_class_size(), 3);
    }

    #[test]
    fn class_rows_mirror_groups() {
        let p = Partition::from_labels(&[0, 0, 1, 0, 2, 1, 2]);
        let rows = p.class_rows();
        assert_eq!(rows.len(), p.num_classes());
        for (row, group) in rows.iter().zip(p.groups()) {
            assert_eq!(row.ones(), group);
        }
        let total: usize = rows.iter().map(|r| r.count_ones()).sum();
        assert_eq!(total, p.len());
    }

    #[test]
    fn fold_hasher_spreads_shifted_keys_over_the_low_bits() {
        // The table picks buckets by low bits; a plain multiply maps every
        // `i << shift` key here to one low-12-bit value.
        for shift in [16, 32, 40, 48] {
            let low: std::collections::HashSet<u64> = (0..4096u64)
                .map(|i| {
                    let mut hasher = FoldHasher::default();
                    (i << shift).hash(&mut hasher);
                    hasher.finish() & 0xfff
                })
                .collect();
            assert!(low.len() >= 2048, "shift {shift}: {} values", low.len());
        }
    }

    /// First-appearance ids, computed without hashing.
    fn reference_ids<L: Copy + Ord>(labels: &[L]) -> Vec<u32> {
        let mut ids = std::collections::BTreeMap::new();
        labels
            .iter()
            .map(|&l| {
                let next = ids.len() as u32;
                *ids.entry(l).or_insert(next)
            })
            .collect()
    }

    #[test]
    fn first_appearance_ids_hold_for_every_label_width() {
        use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
        let mut r = Xoshiro256StarStar::seed_from_u64(17);
        let raw: Vec<u64> = (0..3000).map(|_| r.next_u64()).collect();
        let bytes: Vec<u8> = raw.iter().map(|&x| x as u8).collect();
        let words: Vec<u32> = raw.iter().map(|&x| (x % 500) as u32 * 65_537).collect();
        let shifted: Vec<usize> = raw.iter().map(|&x| ((x % 700) << 32) as usize).collect();
        // Raw zeta class indices for s near 1 reach 10^18 and beyond.
        let zeta: Vec<u64> = raw
            .iter()
            .map(|&x| 1_000_000_000_000_000_000 + x % 900)
            .collect();
        assert_eq!(
            Partition::from_labels(&bytes).labels(),
            reference_ids(&bytes)
        );
        assert_eq!(
            Partition::from_labels(&words).labels(),
            reference_ids(&words)
        );
        assert_eq!(
            Partition::from_labels(&shifted).labels(),
            reference_ids(&shifted)
        );
        assert_eq!(Partition::from_labels(&zeta).labels(), reference_ids(&zeta));
        let classes = Partition::from_labels(&zeta).num_classes();
        assert_eq!(
            classes,
            reference_ids(&zeta).into_iter().max().unwrap() as usize + 1
        );
    }

    proptest! {
        #[test]
        fn canonical_form_is_idempotent(labels in proptest::collection::vec(0u8..10, 0..100)) {
            let once = Partition::from_labels(&labels);
            let twice = Partition::from_labels(once.labels());
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn groups_round_trip(labels in proptest::collection::vec(0u8..6, 1..80)) {
            let p = Partition::from_labels(&labels);
            let q = Partition::from_groups(&p.groups());
            prop_assert_eq!(p, q);
        }

        #[test]
        fn same_class_matches_raw_labels(labels in proptest::collection::vec(0u8..5, 2..60)) {
            let p = Partition::from_labels(&labels);
            for a in 0..labels.len() {
                for b in 0..labels.len() {
                    prop_assert_eq!(p.same_class(a, b), labels[a] == labels[b]);
                }
            }
        }
    }
}
