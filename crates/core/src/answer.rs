//! Partial answers: the unit of work of the merge-based parallel algorithms.
//!
//! The paper's Theorem 1/2 algorithms maintain a list of *answers*, each of
//! which is a fully-solved equivalence class sorting of a subset of the
//! elements: the subset is partitioned into classes that are known to be
//! pairwise different. Two answers are merged by comparing one representative
//! of every class of the first with one representative of every class of the
//! second — at most `k²` comparisons — and unioning the classes that match.
//!
//! A merge reads nothing but the representatives, so [`Answers`] keeps one
//! level of the merge tree as a flat buffer of representatives plus answer
//! bounds, and builds the next level into a second buffer. A class that joins
//! another leaves only a `link` from its representative to the one it joined;
//! the per-element labels are resolved once, at the end.

use ecs_model::Partition;
use std::ops::Range;

/// One level of answers over the elements `0..n`, stored flat, plus the
/// forest recording which class joined which.
#[derive(Debug)]
pub(crate) struct Answers {
    /// Every answer's class representatives, answer by answer, in class
    /// order.
    reps: Vec<u32>,
    /// Answer `i` is `reps[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
    /// The level being built by the merges, swapped in by
    /// [`Answers::finish_level`].
    next_reps: Vec<u32>,
    next_bounds: Vec<u32>,
    /// `link[x]` is the representative whose class `x`'s class joined, or
    /// `x` itself while `x` leads its class.
    link: Vec<u32>,
    /// Scratch union-find over the classes of one group, by position.
    parent: Vec<u32>,
}

impl Answers {
    /// One singleton answer per element.
    pub(crate) fn singletons(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "answers hold up to u32::MAX elements"
        );
        Self::over_forest((0..n as u32).collect(), (0..n as u32).collect())
    }

    /// One singleton answer per representative in `reps`, in that order,
    /// over the forest `link`: every representative links to itself, and
    /// every other element's chain already leads to the representative of
    /// its class.
    pub(crate) fn over_forest(link: Vec<u32>, reps: Vec<u32>) -> Self {
        debug_assert!(reps.iter().all(|&r| link[r as usize] == r));
        Self {
            bounds: (0..=reps.len() as u32).collect(),
            next_reps: Vec::with_capacity(reps.len()),
            reps,
            next_bounds: vec![0],
            link,
            parent: Vec::new(),
        }
    }

    /// Number of answers on the current level.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of elements, `n`.
    pub(crate) fn elements(&self) -> usize {
        self.link.len()
    }

    /// The representative that leads `x`'s class.
    pub(crate) fn leader(&mut self, x: u32) -> u32 {
        find(&mut self.link, x)
    }

    /// The representatives of answer `i`, in class order.
    pub(crate) fn reps(&self, i: usize) -> &[u32] {
        &self.reps[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// Merges answers `2m` and `2m + 1` for every `m` into the next level,
    /// reading each merge's results in turn from `results` (laid out as
    /// [`Answers::merge_pair`] reads them), carries an odd answer out up
    /// unchanged, and makes the new level the current one.
    pub(crate) fn merge_pairs(&mut self, results: &[bool]) {
        let mut read = 0;
        for m in 0..self.len() / 2 {
            let len = self.reps(2 * m).len() * self.reps(2 * m + 1).len();
            self.merge_pair(2 * m, &results[read..read + len]);
            read += len;
        }
        if self.len() % 2 == 1 {
            self.carry(self.len() - 1);
        }
        self.finish_level();
    }

    /// Merges answers `i` and `i + 1` into the next level, given the answers
    /// to comparing every representative of `i` with every representative of
    /// `i + 1`, indexed `left * right_len + right`.
    ///
    /// The merged answer keeps the left classes in order, then the right
    /// classes that matched none of them; a right class that matched joins
    /// the left class it matched. Each right class can match at most one
    /// left class, because classes within an answer are pairwise different.
    ///
    /// # Panics
    ///
    /// Panics if `results` claims that one right class matches two left
    /// classes (an inconsistent oracle).
    fn merge_pair(&mut self, i: usize, results: &[bool]) {
        let (lo, mid, hi) = (
            self.bounds[i] as usize,
            self.bounds[i + 1] as usize,
            self.bounds[i + 2] as usize,
        );
        let (left, right) = self.reps[lo..hi].split_at(mid - lo);
        debug_assert_eq!(results.len(), left.len() * right.len());
        self.next_reps.extend_from_slice(left);
        for (b, &right_rep) in right.iter().enumerate() {
            let mut target = None;
            for (a, &left_rep) in left.iter().enumerate() {
                if results[a * right.len() + b] {
                    assert!(
                        target.is_none(),
                        "oracle inconsistency: class matched two distinct classes"
                    );
                    target = Some(left_rep);
                }
            }
            match target {
                Some(left_rep) => self.link[right_rep as usize] = left_rep,
                None => self.next_reps.push(right_rep),
            }
        }
        self.next_bounds.push(self.next_reps.len() as u32);
    }

    /// Merges the answers in `group` into one answer on the next level,
    /// reading the answers to every cross comparison from the front of
    /// `results` — for every `i < j` in `group`, every representative of `i`
    /// against every representative of `j`, in that nested order — and
    /// returns how many it read.
    ///
    /// Matching classes are unioned transitively. Each merged class is led by
    /// the representative of its first member class (in answer, then class
    /// order), and the merged classes are ordered by representative.
    pub(crate) fn merge_group(&mut self, group: Range<usize>, results: &[bool]) -> usize {
        let base = self.bounds[group.start];
        let classes = (self.bounds[group.end] - base) as usize;
        self.parent.clear();
        self.parent.extend(0..classes as u32);
        let mut read = 0;
        for i in group.clone() {
            for j in (i + 1)..group.end {
                let left = (self.bounds[i] - base)..(self.bounds[i + 1] - base);
                let right = (self.bounds[j] - base)..(self.bounds[j + 1] - base);
                for a in left {
                    for b in right.clone() {
                        if results[read] {
                            union_toward_first(&mut self.parent, a, b);
                        }
                        read += 1;
                    }
                }
            }
        }
        let start = self.next_reps.len();
        let reps = &self.reps[base as usize..][..classes];
        for (t, &rep) in reps.iter().enumerate() {
            let root = find(&mut self.parent, t as u32) as usize;
            if root == t {
                self.next_reps.push(rep);
            } else {
                self.link[rep as usize] = reps[root];
            }
        }
        self.next_reps[start..].sort_unstable();
        self.next_bounds.push(self.next_reps.len() as u32);
        read
    }

    /// Carries answer `i` up to the next level unchanged.
    pub(crate) fn carry(&mut self, i: usize) {
        let (lo, hi) = (self.bounds[i] as usize, self.bounds[i + 1] as usize);
        self.next_reps.extend_from_slice(&self.reps[lo..hi]);
        self.next_bounds.push(self.next_reps.len() as u32);
    }

    /// Makes the level built by the merges the current one.
    pub(crate) fn finish_level(&mut self) {
        std::mem::swap(&mut self.reps, &mut self.next_reps);
        std::mem::swap(&mut self.bounds, &mut self.next_bounds);
        self.next_reps.clear();
        self.next_bounds.clear();
        self.next_bounds.push(0);
    }

    /// The partition the merges have built: every element is labelled with
    /// the representative at the root of its `link` chain.
    pub(crate) fn into_partition(mut self) -> Partition {
        for e in 0..self.link.len() as u32 {
            let root = find(&mut self.link, e);
            self.link[e as usize] = root;
        }
        Partition::from_labels(&self.link)
    }

    /// Builds a level from explicit answers, each a list of classes led by
    /// their first element; elements listed nowhere lead their own class.
    #[cfg(test)]
    pub(crate) fn from_classes(n: usize, answers: &[Vec<Vec<u32>>]) -> Self {
        let mut level = Self::singletons(n);
        level.reps.clear();
        level.bounds = vec![0];
        for answer in answers {
            for class in answer {
                level.reps.push(class[0]);
                for &e in &class[1..] {
                    level.link[e as usize] = class[0];
                }
            }
            level.bounds.push(level.reps.len() as u32);
        }
        level
    }
}

/// The root of `x` in the forest `parent`, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grandparent = parent[parent[x as usize] as usize];
        parent[x as usize] = grandparent;
        x = grandparent;
    }
    x
}

/// Unions the sets of `a` and `b` under the smaller root, so every set stays
/// rooted at its first position.
fn union_toward_first(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    parent[ra.max(rb) as usize] = ra.min(rb);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The representatives of every answer on the current level.
    fn level(answers: &Answers) -> Vec<Vec<u32>> {
        (0..answers.len())
            .map(|i| answers.reps(i).to_vec())
            .collect()
    }

    #[test]
    fn singletons_lead_themselves() {
        let answers = Answers::singletons(3);
        assert_eq!(level(&answers), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(answers.into_partition(), Partition::singletons(3));
    }

    #[test]
    fn merge_pair_keeps_left_classes_then_unmatched_right() {
        // Ground truth: {0,1,4,5}, {2,3} and {6}.
        let mut answers = Answers::from_classes(
            7,
            &[
                vec![vec![0, 1], vec![2]],
                vec![vec![3], vec![6], vec![4, 5]],
            ],
        );
        // Results for (0,3), (0,6), (0,4), (2,3), (2,6), (2,4).
        answers.merge_pair(0, &[false, false, true, true, false, false]);
        answers.finish_level();
        assert_eq!(level(&answers), vec![vec![0, 2, 6]]);
        assert_eq!(
            answers.into_partition(),
            Partition::from_labels(&[0, 0, 1, 1, 0, 0, 2])
        );
    }

    #[test]
    fn carry_moves_an_answer_up_unchanged() {
        let mut answers = Answers::from_classes(4, &[vec![vec![0]], vec![vec![2], vec![1, 3]]]);
        answers.carry(1);
        answers.carry(0);
        answers.finish_level();
        assert_eq!(level(&answers), vec![vec![2, 1], vec![0]]);
    }

    #[test]
    fn merge_group_leads_with_the_first_member_and_sorts_by_representative() {
        // Truth labels for elements 0..6.
        let truth = [0u8, 0, 1, 1, 2, 0];
        let mut answers = Answers::from_classes(
            6,
            &[
                vec![vec![0, 1], vec![2]],
                vec![vec![4], vec![3]],
                vec![vec![5]],
            ],
        );
        let mut results = Vec::new();
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            for &a in answers.reps(i) {
                for &b in answers.reps(j) {
                    results.push(truth[a as usize] == truth[b as usize]);
                }
            }
        }
        assert_eq!(answers.merge_group(0..3, &results), results.len());
        answers.finish_level();
        assert_eq!(level(&answers), vec![vec![0, 2, 4]]);
        assert_eq!(answers.into_partition(), Partition::from_labels(&truth));
    }

    #[test]
    fn merge_group_unions_transitively() {
        // 0 ~ 1 and 1 ~ 2 are answered, 0 ~ 2 is not: one class, led by 0.
        let mut answers = Answers::singletons(3);
        // Results for (0,1), (0,2), (1,2).
        assert_eq!(answers.merge_group(0..3, &[true, false, true]), 3);
        answers.finish_level();
        assert_eq!(level(&answers), vec![vec![0]]);
        assert_eq!(answers.into_partition(), Partition::from_labels(&[0, 0, 0]));
    }

    proptest! {
        #[test]
        fn pairwise_merge_matches_truth(
            labels in proptest::collection::vec(0u8..4, 2..40),
            split in 1usize..39,
        ) {
            // Split elements into two halves, build the true per-half answers,
            // merge them with truth-derived results, and check the result is
            // the true partition of the union.
            let n = labels.len();
            let split = split % (n - 1) + 1;
            let build = |range: Range<usize>| {
                let mut by_label: std::collections::BTreeMap<u8, Vec<u32>> = Default::default();
                for e in range {
                    by_label.entry(labels[e]).or_default().push(e as u32);
                }
                by_label.into_values().collect::<Vec<_>>()
            };
            let mut answers = Answers::from_classes(n, &[build(0..split), build(split..n)]);
            let mut results = Vec::new();
            for &a in answers.reps(0) {
                for &b in answers.reps(1) {
                    results.push(labels[a as usize] == labels[b as usize]);
                }
            }
            answers.merge_pair(0, &results);
            answers.finish_level();
            prop_assert_eq!(answers.into_partition(), Partition::from_labels(&labels));
        }
    }
}
