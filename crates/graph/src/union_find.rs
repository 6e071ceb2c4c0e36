//! Disjoint-set union (union-find) with union by size and path compression.
//!
//! The parent array is packed (`Vec<u32>`), `find` is iterative path halving
//! with no allocation on any path (pinned by the workspace test
//! `tests/union_find_alloc.rs`), and the partition exports
//! ([`UnionFind::groups`], [`UnionFind::labels`],
//! [`UnionFind::classes_as_bitrows`]) run on flat sentinel vectors instead of
//! hash maps.

use crate::bitset::BitRow;

/// A disjoint-set forest over elements `0..n`.
///
/// Supports near-constant-time `find` / `union`, tracks the number and sizes
/// of sets, and can export the partition as explicit groups — which is exactly
/// the bookkeeping an equivalence class sorting algorithm does for free in
/// Valiant's model between comparison rounds.
///
/// # Example
///
/// ```
/// use ecs_graph::UnionFind;
///
/// let mut uf = UnionFind::new(5);
/// uf.union(0, 1);
/// uf.union(3, 4);
/// assert!(uf.same_set(0, 1));
/// assert!(!uf.same_set(1, 2));
/// assert_eq!(uf.num_sets(), 3);
/// assert_eq!(uf.set_size(4), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "UnionFind supports up to u32::MAX elements"
        );
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            num_sets: n,
        }
    }

    /// Number of elements in the universe.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Returns the canonical representative of `x`'s set.
    ///
    /// Uses iterative path halving, so deep chains flatten over time without
    /// recursion.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Read-only find (no path compression); useful when only a shared
    /// reference is available.
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Returns `true` if `a` and `b` are currently in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Merges the sets containing `a` and `b`.
    ///
    /// Returns `true` if a merge happened, `false` if they were already
    /// together.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        if ra == rb {
            return false;
        }
        // Union by size: attach the smaller tree beneath the larger.
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.num_sets -= 1;
        true
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Exports the partition as a list of groups (each a sorted list of
    /// element indices). Groups are ordered by their smallest element.
    ///
    /// Two flat passes over a sentinel label vector — elements arrive in
    /// ascending order, so each group comes out sorted and groups are born
    /// ordered by smallest member; no hashing, no sorting.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let labels = self.labels();
        let mut sizes = vec![0usize; self.num_sets];
        for &l in &labels {
            sizes[l] += 1;
        }
        let mut groups: Vec<Vec<usize>> = sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
        for (x, &l) in labels.iter().enumerate() {
            groups[l].push(x);
        }
        groups
    }

    /// Returns, for every element, a dense group label in `0..num_sets`,
    /// numbered by order of each group's smallest element.
    pub fn labels(&mut self) -> Vec<usize> {
        let n = self.len();
        let mut label_of_root = vec![usize::MAX; n];
        let mut labels = vec![usize::MAX; n];
        let mut next = 0usize;
        for (x, slot) in labels.iter_mut().enumerate() {
            let r = self.find(x);
            if label_of_root[r] == usize::MAX {
                label_of_root[r] = next;
                next += 1;
            }
            *slot = label_of_root[r];
        }
        labels
    }

    /// The partition as one [`BitRow`] per set: row `l` has bit `x` set iff
    /// element `x` carries label `l` (labels as in [`UnionFind::labels`]).
    ///
    /// This is the packed view [`Fragments`](crate::Fragments) reads for
    /// Theorem 4's pivots: a class membership test is a word load, a class
    /// size is a popcount, and a member sweep scans a row 64 elements per
    /// word instead of walking a `Vec<usize>` member list.
    pub fn classes_as_bitrows(&mut self) -> Vec<BitRow> {
        let labels = self.labels();
        let mut rows = vec![BitRow::new(self.len()); self.num_sets];
        for (x, &l) in labels.iter().enumerate() {
            rows[l].set(x);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_at_start() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_sets(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.set_size(i), 1);
        }
    }

    #[test]
    fn empty_universe() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_sets(), 0);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.num_sets(), 4);
        assert_eq!(uf.set_size(2), 3);
        assert!(uf.same_set(0, 2));
        assert!(!uf.same_set(0, 3));
    }

    #[test]
    fn groups_are_sorted_partition() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 3);
        uf.union(3, 5);
        uf.union(1, 6);
        let groups = uf.groups();
        assert_eq!(groups, vec![vec![0, 3, 5], vec![1, 6], vec![2], vec![4]]);
    }

    #[test]
    fn labels_are_dense_and_consistent() {
        let mut uf = UnionFind::new(5);
        uf.union(2, 4);
        uf.union(0, 1);
        let labels = uf.labels();
        assert_eq!(labels.len(), 5);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[4]);
        assert_ne!(labels[0], labels[2]);
        let max = *labels.iter().max().unwrap();
        assert_eq!(max + 1, uf.num_sets());
    }

    #[test]
    fn bitrows_mirror_groups() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 4);
        uf.union(4, 8);
        uf.union(1, 9);
        let rows = uf.classes_as_bitrows();
        let groups = uf.groups();
        assert_eq!(rows.len(), groups.len());
        for (row, group) in rows.iter().zip(&groups) {
            assert_eq!(row.ones(), *group);
            assert_eq!(row.count_ones(), group.len());
        }
        // Rows are disjoint and cover every element.
        let total: usize = rows.iter().map(|r| r.count_ones()).sum();
        assert_eq!(total, 10);
        for (i, a) in rows.iter().enumerate() {
            for b in rows.iter().skip(i + 1) {
                assert!(!a.intersects(b));
            }
        }
    }

    #[test]
    fn find_immutable_agrees_with_find() {
        let mut uf = UnionFind::new(32);
        for i in 0..31 {
            uf.union(i, i + 1);
        }
        let from_immutable: Vec<usize> = (0..32).map(|i| uf.find_immutable(i)).collect();
        let from_mutable: Vec<usize> = (0..32).map(|i| uf.find(i)).collect();
        assert_eq!(from_immutable, from_mutable);
    }

    #[test]
    fn long_chain_flattens() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        assert_eq!(uf.set_size(0), n);
        // After finds, the tree should be shallow: every parent points at the root.
        let root = uf.find(n - 1);
        for i in 0..n {
            let _ = uf.find(i);
        }
        for i in 0..n {
            assert_eq!(uf.parent[uf.parent[i] as usize] as usize, root);
        }
    }

    /// Reference implementation: naive label propagation.
    fn naive_partition(n: usize, unions: &[(usize, usize)]) -> Vec<usize> {
        let mut label: Vec<usize> = (0..n).collect();
        for &(a, b) in unions {
            let (la, lb) = (label[a], label[b]);
            if la != lb {
                for l in label.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        // Canonicalise: renumber by first occurrence.
        let mut canon = std::collections::HashMap::new();
        let mut next = 0usize;
        label
            .iter()
            .map(|&l| {
                *canon.entry(l).or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                })
            })
            .collect()
    }

    proptest! {
        #[test]
        fn matches_naive_partition(
            n in 1usize..60,
            ops in proptest::collection::vec((0usize..60, 0usize..60), 0..120)
        ) {
            let ops: Vec<(usize, usize)> = ops
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .collect();
            let mut uf = UnionFind::new(n);
            for &(a, b) in &ops {
                uf.union(a, b);
            }
            let expected = naive_partition(n, &ops);
            let got = uf.labels();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn sizes_sum_to_n(
            n in 1usize..80,
            ops in proptest::collection::vec((0usize..80, 0usize..80), 0..200)
        ) {
            let mut uf = UnionFind::new(n);
            for (a, b) in ops {
                uf.union(a % n, b % n);
            }
            let groups = uf.groups();
            prop_assert_eq!(groups.len(), uf.num_sets());
            let total: usize = groups.iter().map(|g| g.len()).sum();
            prop_assert_eq!(total, n);
            for g in &groups {
                let mut uf2 = uf.clone();
                prop_assert_eq!(uf2.set_size(g[0]), g.len());
            }
        }
    }
}
