//! Theorem 2: exclusive-read ECS in `O(k log n)` rounds.
//!
//! The algorithm merges answers pairwise along a balanced binary tree
//! (`⌈log₂ n⌉` levels). Merging two answers requires comparing one
//! representative of each of the ≤ `k` classes on one side with one
//! representative of each of the ≤ `k` classes on the other — a complete
//! bipartite comparison pattern — which the exclusive-read discipline forces
//! to be spread over at most `k` rounds (a representative can only shake one
//! hand per round). The bipartite round-robin schedule of
//! [`ecs_model::schedule::bipartite_rounds`] achieves exactly `max(k_a, k_b)`
//! rounds, and merges of *different* answer pairs at the same tree level touch
//! disjoint elements, so they share rounds. Total: `O(k log n)` rounds.

use crate::answer::Answers;
use crate::run::{EcsAlgorithm, EcsRun};
use ecs_model::schedule::bipartite_round;
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, Partition, ReadMode};

/// The exclusive-read pairwise-merge algorithm (Theorem 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ErMergeSort;

impl ErMergeSort {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }

    /// Merges the answers level by level until one is left.
    ///
    /// Er-merge itself passes `None` and asks every pair of its schedule.
    /// With `Some(different)`, a pair is left out of its round if either of
    /// its classes has already matched in the same merge (the classes within
    /// an answer are pairwise different), or if its two classes hold the two
    /// ends of a pair in `different`, pairs of elements known to be
    /// different. A round this leaves empty is not charged.
    pub(crate) fn merge_to_one<O: EquivalenceOracle>(
        answers: &mut Answers,
        session: &mut ComparisonSession<'_, O>,
        different: Option<&[(u32, u32)]>,
    ) {
        while answers.len() > 1 {
            Self::merge_level(answers, session, different);
        }
    }

    /// Merges consecutive pairs of answers at one tree level. The bipartite
    /// schedules of all pairs are interleaved: global round `r` executes round
    /// `r` of every pair's schedule (element-disjoint, hence a legal ER
    /// round). Each answer is written straight into the level's result
    /// buffer, at the position [`Answers::merge_pairs`] reads it from; a
    /// skipped pair's answer stays "different".
    fn merge_level<O: EquivalenceOracle>(
        answers: &mut Answers,
        session: &mut ComparisonSession<'_, O>,
        different: Option<&[(u32, u32)]>,
    ) {
        let merges = answers.len() / 2;
        // Merge `m`'s results are `results[offsets[m]..offsets[m + 1]]`,
        // indexed `left * right_len + right`.
        let mut offsets = Vec::with_capacity(merges + 1);
        offsets.push(0);
        let mut max_rounds = 0;
        for m in 0..merges {
            let (left, right) = (answers.reps(2 * m).len(), answers.reps(2 * m + 1).len());
            offsets.push(offsets[m] + left * right);
            max_rounds = max_rounds.max(left.max(right));
        }
        let mut results = vec![false; offsets[merges]];
        // When skipping: the pairs known to be different before this level,
        // by result slot, and the representatives matched in it.
        let (mut known, mut matched) = (Vec::new(), Vec::new());
        if let Some(different) = different {
            known = vec![false; offsets[merges]];
            matched = vec![false; answers.elements()];
            Self::mark_different(answers, different, &offsets, &mut known);
        }

        let mut round: Vec<(usize, usize)> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        for r in 0..max_rounds {
            round.clear();
            slots.clear();
            for (m, &offset) in offsets[..merges].iter().enumerate() {
                let (left, right) = (answers.reps(2 * m), answers.reps(2 * m + 1));
                for (a, b) in bipartite_round(left.len(), right.len(), r) {
                    let (x, y) = (left[a] as usize, right[b] as usize);
                    let slot = offset + a * right.len() + b;
                    if different.is_some() && (known[slot] || matched[x] || matched[y]) {
                        continue;
                    }
                    round.push((x, y));
                    slots.push(slot);
                }
            }
            let answered = session.execute_round(&round);
            for ((&slot, &(x, y)), same) in slots.iter().zip(&round).zip(answered) {
                results[slot] = same;
                if same && different.is_some() {
                    matched[x] = true;
                    matched[y] = true;
                }
            }
        }

        answers.merge_pairs(&results);
    }

    /// Sets `known[slot]` for every pair of the level's merges whose classes
    /// hold the two ends of a pair in `different`, with the merges' results
    /// laid out by `offsets` as in [`ErMergeSort::merge_level`].
    fn mark_different(
        answers: &mut Answers,
        different: &[(u32, u32)],
        offsets: &[usize],
        known: &mut [bool],
    ) {
        if different.is_empty() {
            return;
        }
        // The answer and class position of every representative.
        let mut place = vec![(u32::MAX, 0); answers.elements()];
        for i in 0..answers.len() {
            for (c, &rep) in answers.reps(i).iter().enumerate() {
                place[rep as usize] = (i as u32, c as u32);
            }
        }
        for &(u, v) in different {
            let (pu, pv) = (
                place[answers.leader(u) as usize],
                place[answers.leader(v) as usize],
            );
            let (left, right) = (pu.min(pv), pu.max(pv));
            if right.0 != u32::MAX && left.0 % 2 == 0 && right.0 == left.0 + 1 {
                let m = left.0 as usize / 2;
                let right_len = answers.reps(right.0 as usize).len();
                known[offsets[m] + left.1 as usize * right_len + right.1 as usize] = true;
            }
        }
    }
}

impl EcsAlgorithm for ErMergeSort {
    fn name(&self) -> String {
        "er-merge".to_string()
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
        let mut answers = Answers::singletons(n);
        Self::merge_to_one(&mut answers, &mut session, None);
        EcsRun::new(answers.into_partition(), session.into_metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_model::{Instance, InstanceOracle};
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn classifies_correctly_across_sizes() {
        let mut r = rng(1);
        for &(n, k) in &[
            (1usize, 1usize),
            (2, 2),
            (3, 2),
            (16, 4),
            (100, 10),
            (101, 7),
            (512, 2),
            (600, 24),
        ] {
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = ErMergeSort::new().sort(&oracle);
            assert!(inst.verify(&run.partition), "failed for n={n}, k={k}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_labels::<u32>(&[]);
        let oracle = InstanceOracle::new(&inst);
        let run = ErMergeSort::new().sort(&oracle);
        assert!(run.partition.is_empty());
    }

    #[test]
    fn round_count_is_o_of_k_log_n() {
        let mut r = rng(2);
        for &(n, k) in &[(256usize, 2usize), (1024, 4), (4096, 8), (10_000, 3)] {
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = ErMergeSort::new().sort(&oracle);
            assert!(inst.verify(&run.partition));
            let levels = (n as f64).log2().ceil();
            let bound = (2.0 * k as f64 * levels + levels + 4.0) as u64;
            assert!(
                run.metrics.rounds() <= bound,
                "n={n}, k={k}: {} rounds exceeds O(k log n) bound {bound}",
                run.metrics.rounds()
            );
        }
    }

    #[test]
    fn er_rounds_scale_linearly_in_k_for_fixed_n() {
        let mut r = rng(3);
        let n = 2048;
        let rounds_for = |k: usize, r: &mut Xoshiro256StarStar| {
            let inst = Instance::balanced(n, k, r);
            ErMergeSort::new()
                .sort(&InstanceOracle::new(&inst))
                .metrics
                .rounds()
        };
        let r2 = rounds_for(2, &mut r);
        let r8 = rounds_for(8, &mut r);
        let r16 = rounds_for(16, &mut r);
        assert!(r8 > r2, "more classes must cost more ER rounds");
        assert!(r16 > r8);
        // And the growth should be roughly linear in k (within a factor ~3).
        assert!(r16 <= 3 * r8, "k=16 rounds {r16} vs k=8 rounds {r8}");
    }

    #[test]
    fn uses_more_rounds_than_cr_but_same_answer() {
        use crate::parallel::cr_compound::CrCompoundMerge;
        let mut r = rng(4);
        let inst = Instance::balanced(4096, 6, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let er = ErMergeSort::new().sort(&oracle);
        let cr = CrCompoundMerge::new(6).sort(&oracle);
        assert_eq!(er.partition, cr.partition);
        assert!(
            er.metrics.rounds() >= cr.metrics.rounds(),
            "ER ({}) should need at least as many rounds as CR ({})",
            er.metrics.rounds(),
            cr.metrics.rounds()
        );
    }

    #[test]
    fn handles_unbalanced_classes() {
        let mut r = rng(5);
        let inst = Instance::from_class_sizes(&[300, 20, 20, 5, 1], &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = ErMergeSort::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
    }

    #[test]
    fn interleaved_rounds_follow_the_bipartite_schedule() {
        // One level over answers with 3, 1, 2, 2 and 4 classes: global round
        // `r` is round `r` of each merge's `bipartite_rounds` schedule, in
        // merge order, and the odd answer is carried up.
        use ecs_model::schedule::bipartite_rounds;
        use ecs_model::{LabelOracle, RecordingOracle};
        let classes = |reps: &[u32]| reps.iter().map(|&r| vec![r]).collect::<Vec<_>>();
        let mut answers = Answers::from_classes(
            12,
            &[
                classes(&[0, 1, 2]),
                classes(&[3]),
                classes(&[4, 5]),
                classes(&[6, 7]),
                classes(&[8, 9, 10, 11]),
            ],
        );
        let oracle = RecordingOracle::new(LabelOracle::new((0..12).collect()));
        let mut session = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        ErMergeSort::merge_level(&mut answers, &mut session, None);
        assert_eq!(answers.len(), 3);
        assert_eq!(answers.reps(0), [0, 1, 2, 3]);
        assert_eq!(answers.reps(1), [4, 5, 6, 7]);
        assert_eq!(
            answers.reps(2),
            [8, 9, 10, 11],
            "the odd answer is carried up"
        );

        let schedules = [
            bipartite_rounds(&[0, 1, 2], &[3]),
            bipartite_rounds(&[4, 5], &[6, 7]),
        ];
        let mut expected = Vec::new();
        for r in 0..3 {
            for schedule in &schedules {
                if let Some(pairs) = schedule.get(r) {
                    expected.extend(pairs.iter().map(|&(a, b)| (a, b, false)));
                }
            }
        }
        let asked: Vec<_> = oracle.transcript().iter().collect();
        assert_eq!(asked, expected);
        assert_eq!(session.metrics().rounds(), 3);
    }

    #[test]
    fn skipping_leaves_out_pairs_settled_by_a_match() {
        // Answers {0, 1} and {2, 3}, where 0 ~ 2: once round 0 matches them,
        // round 1's (0, 3) and (1, 2) are known to be different, and the
        // emptied round is not charged.
        use ecs_model::{LabelOracle, RecordingOracle};
        let level = || Answers::from_classes(4, &[vec![vec![0], vec![1]], vec![vec![2], vec![3]]]);
        let oracle = RecordingOracle::new(LabelOracle::new(vec![0, 1, 0, 2]));
        let mut session = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let mut answers = level();
        ErMergeSort::merge_to_one(&mut answers, &mut session, Some(&[]));
        let asked: Vec<_> = oracle.transcript().iter().collect();
        assert_eq!(asked, [(0, 2, true), (1, 3, false)]);
        assert_eq!(session.metrics().rounds(), 1);
        assert_eq!(
            answers.into_partition(),
            Partition::from_labels(&[0, 1, 0, 2])
        );

        // Er-merge itself asks the whole schedule.
        let oracle = RecordingOracle::new(LabelOracle::new(vec![0, 1, 0, 2]));
        let mut session = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        ErMergeSort::merge_to_one(&mut level(), &mut session, None);
        assert_eq!(oracle.transcript().len(), 4);
        assert_eq!(session.metrics().rounds(), 2);
    }

    #[test]
    fn skipping_leaves_out_pairs_of_classes_known_different() {
        // 1 and 3 are known to differ. After 0 and 1 merge, the class led by
        // 0 holds 1, so (0, 3) is not asked either.
        use ecs_model::{LabelOracle, RecordingOracle};
        let oracle = RecordingOracle::new(LabelOracle::new(vec![0, 0, 1, 2]));
        let mut session = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let mut answers = Answers::singletons(4);
        ErMergeSort::merge_to_one(&mut answers, &mut session, Some(&[(1, 3)]));
        let asked: Vec<_> = oracle.transcript().iter().collect();
        assert_eq!(asked, [(0, 1, true), (2, 3, false), (0, 2, false)]);
        assert_eq!(
            answers.into_partition(),
            Partition::from_labels(&[0, 0, 1, 2])
        );
    }

    #[test]
    #[should_panic(expected = "class matched two distinct classes")]
    fn inconsistent_oracle_panics() {
        /// Says 0 and 1 differ, yet that 2 equals both of them.
        struct Liar;
        impl EquivalenceOracle for Liar {
            fn n(&self) -> usize {
                4
            }
            fn same(&self, a: usize, b: usize) -> bool {
                a.max(b) >= 2
            }
        }
        let _ = ErMergeSort::new().sort(&Liar);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matches_ground_truth_on_random_instances(
            labels in proptest::collection::vec(0u8..5, 1..120)
        ) {
            let inst = Instance::from_labels(&labels);
            let oracle = InstanceOracle::new(&inst);
            let run = ErMergeSort::new().sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
        }
    }
}
