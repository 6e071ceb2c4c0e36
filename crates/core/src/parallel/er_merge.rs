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

use crate::answer::Answer;
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

    /// Merges consecutive pairs of answers at one tree level. The bipartite
    /// schedules of all pairs are interleaved: global round `r` executes round
    /// `r` of every pair's schedule (element-disjoint, hence a legal ER
    /// round). Each answer is written straight into its merge's result
    /// vector, at the position [`Answer::merge_with`] reads it from.
    fn merge_level<O: EquivalenceOracle>(
        answers: Vec<Answer>,
        session: &mut ComparisonSession<'_, O>,
    ) -> Vec<Answer> {
        if answers.len() < 2 {
            return answers;
        }
        /// One merge of the level: the two sides' representatives and the
        /// merge's results, indexed `left * right.len() + right`.
        struct Merge {
            left: Vec<usize>,
            right: Vec<usize>,
            results: Vec<bool>,
        }
        let mut merges: Vec<Merge> = answers
            .chunks_exact(2)
            .map(|pair| {
                let (left, right) = (pair[0].representatives(), pair[1].representatives());
                let results = vec![false; left.len() * right.len()];
                Merge {
                    left,
                    right,
                    results,
                }
            })
            .collect();
        let max_rounds = merges
            .iter()
            .map(|m| m.left.len().max(m.right.len()))
            .max()
            .unwrap_or(0);

        let mut round: Vec<(usize, usize)> = Vec::new();
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for r in 0..max_rounds {
            round.clear();
            slots.clear();
            for (m, merge) in merges.iter().enumerate() {
                let kb = merge.right.len();
                for (a, b) in bipartite_round(merge.left.len(), kb, r) {
                    round.push((merge.left[a], merge.right[b]));
                    slots.push((m, a * kb + b));
                }
            }
            let results = session.execute_round(&round);
            for (&(m, at), same) in slots.iter().zip(results) {
                merges[m].results[at] = same;
            }
        }

        // Apply the merges; an odd answer out is carried up unchanged.
        let pairs = answers.chunks_exact(2);
        let odd = pairs.remainder().iter().cloned();
        let mut merged: Vec<Answer> = pairs
            .zip(&merges)
            .map(|(pair, merge)| pair[0].merge_with(&pair[1], &merge.results))
            .collect();
        merged.extend(odd);
        merged
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
        let mut answers: Vec<Answer> = (0..n).map(Answer::singleton).collect();
        while answers.len() > 1 {
            answers = Self::merge_level(answers, &mut session);
        }
        let labels = Answer::to_labels(&answers, n);
        EcsRun::new(Partition::from_labels(&labels), session.into_metrics())
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
        let answers = vec![
            Answer::from_classes(vec![vec![0], vec![1], vec![2]]),
            Answer::from_classes(vec![vec![3]]),
            Answer::from_classes(vec![vec![4], vec![5]]),
            Answer::from_classes(vec![vec![6], vec![7]]),
            Answer::from_classes(vec![vec![8], vec![9], vec![10], vec![11]]),
        ];
        let oracle = RecordingOracle::new(LabelOracle::new((0..12).collect()));
        let mut session = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let merged = ErMergeSort::merge_level(answers.clone(), &mut session);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[2], answers[4], "the odd answer is carried up");
        assert_eq!(merged[0].num_classes(), 4);

        let schedules = [
            bipartite_rounds(&answers[0].representatives(), &answers[1].representatives()),
            bipartite_rounds(&answers[2].representatives(), &answers[3].representatives()),
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
