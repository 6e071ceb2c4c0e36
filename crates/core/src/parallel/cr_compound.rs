//! Theorem 1: concurrent-read ECS in `O(k + log log n)` rounds.
//!
//! The algorithm maintains a list of *answers* (solved sub-instances, each
//! partitioned into classes known to be pairwise different) and merges them
//! with the paper's two-phased compounding-comparison technique:
//!
//! 1. start with `n` singleton answers;
//! 2. **first phase** — while the number of processors per answer is less
//!    than `4k²`, merge answers in pairs, each merge costing at most `k²`
//!    representative comparisons (Lemma 1: `O(k)` rounds in total);
//! 3. **second phase** — with `ck²` processors per answer, merge groups of
//!    `c` answers at once using `C(c, 2)·k²` comparisons per group, which
//!    squares the reduction factor every iteration (Lemma 2: `O(log log n)`
//!    rounds).
//!
//! The session charges rounds honestly: every iteration submits all of its
//! comparisons as one concurrent-read batch, and a batch of `m` comparisons on
//! `n` processors is charged `⌈m/n⌉` rounds.

use crate::answer::Answers;
use crate::run::{EcsAlgorithm, EcsRun};
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, Partition, ReadMode};

/// The concurrent-read compounding-merge algorithm (Theorem 1).
///
/// `k` is the number of equivalence classes the schedule is tuned for. The
/// algorithm is *correct* for any `k ≥ 1` (the value only controls when the
/// second phase starts), but the `O(k + log log n)` round bound assumes `k`
/// is the true class count.
#[derive(Debug, Clone, Copy)]
pub struct CrCompoundMerge {
    k: usize,
}

impl CrCompoundMerge {
    /// Creates the algorithm tuned for `k` equivalence classes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "the class count k must be at least 1");
        Self { k }
    }

    /// The class count the schedule is tuned for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Merges consecutive pairs of answers (first phase step). All pair
    /// comparisons are submitted as a single concurrent-read batch.
    fn merge_pairs<O: EquivalenceOracle>(
        answers: &mut Answers,
        session: &mut ComparisonSession<'_, O>,
    ) {
        let mut batch: Vec<(usize, usize)> = Vec::new();
        for m in 0..answers.len() / 2 {
            let (left, right) = (answers.reps(2 * m), answers.reps(2 * m + 1));
            for &a in left {
                batch.extend(right.iter().map(|&b| (a as usize, b as usize)));
            }
        }
        answers.merge_pairs(&session.execute_round(&batch));
    }

    /// Merges groups of `group_size` answers at once (second phase step).
    /// All cross comparisons of every group are submitted as a single
    /// concurrent-read batch, and each group reads its answers back in the
    /// order it asked them.
    fn merge_groups<O: EquivalenceOracle>(
        answers: &mut Answers,
        group_size: usize,
        session: &mut ComparisonSession<'_, O>,
    ) {
        debug_assert!(group_size >= 2);
        let count = answers.len();
        let groups = || {
            (0..count)
                .step_by(group_size)
                .map(|first| first..(first + group_size).min(count))
        };
        let mut batch: Vec<(usize, usize)> = Vec::new();
        for group in groups() {
            for i in group.clone() {
                for j in (i + 1)..group.end {
                    for &a in answers.reps(i) {
                        batch.extend(answers.reps(j).iter().map(|&b| (a as usize, b as usize)));
                    }
                }
            }
        }
        let results = session.execute_round(&batch);
        let mut read = 0;
        for group in groups() {
            if group.len() == 1 {
                answers.carry(group.start);
            } else {
                read += answers.merge_group(group, &results[read..]);
            }
        }
        answers.finish_level();
    }
}

impl EcsAlgorithm for CrCompoundMerge {
    fn name(&self) -> String {
        format!("cr-compound(k={})", self.k)
    }

    fn read_mode(&self) -> ReadMode {
        ReadMode::Concurrent
    }

    fn sort_with_backend<O: EquivalenceOracle>(
        &self,
        oracle: &O,
        backend: ExecutionBackend,
    ) -> EcsRun {
        let n = oracle.n();
        let mut session = ComparisonSession::with_backend(oracle, ReadMode::Concurrent, backend);
        if n == 0 {
            return EcsRun::new(Partition::from_labels::<u32>(&[]), session.into_metrics());
        }

        // Step 1: one singleton answer per element.
        let mut answers = Answers::singletons(n);
        let k_sq = self.k.saturating_mul(self.k).max(1);

        // First phase: pairwise merging while processors per answer < 4k².
        while answers.len() > 1 && n / answers.len() < 4 * k_sq {
            Self::merge_pairs(&mut answers, &mut session);
        }

        // Second phase: compound merging with group size c = ⌊p_per_answer / k²⌋.
        while answers.len() > 1 {
            let per_answer = n / answers.len();
            let c = (per_answer / k_sq).max(2).min(answers.len());
            Self::merge_groups(&mut answers, c, &mut session);
        }

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
            (2, 1),
            (2, 2),
            (7, 3),
            (64, 4),
            (100, 1),
            (100, 10),
            (257, 6),
            (1000, 3),
        ] {
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = CrCompoundMerge::new(k).sort(&oracle);
            assert!(inst.verify(&run.partition), "failed for n={n}, k={k}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_labels::<u32>(&[]);
        let oracle = InstanceOracle::new(&inst);
        let run = CrCompoundMerge::new(1).sort(&oracle);
        assert!(run.partition.is_empty());
        assert_eq!(run.metrics.rounds(), 0);
    }

    #[test]
    fn correct_even_with_wrong_k_hint() {
        // k only tunes the schedule; correctness must not depend on it.
        let mut r = rng(2);
        let inst = Instance::balanced(200, 8, &mut r);
        let oracle = InstanceOracle::new(&inst);
        for hint in [1usize, 2, 8, 20] {
            let run = CrCompoundMerge::new(hint).sort(&oracle);
            assert!(inst.verify(&run.partition), "failed with k hint {hint}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        let _ = CrCompoundMerge::new(0);
    }

    #[test]
    fn round_count_is_o_of_k_plus_loglog_n() {
        // Empirical check of Theorem 1: rounds should be bounded by
        // c1·k + c2·log2(log2(n)) + c3 with small constants.
        let mut r = rng(3);
        for &(n, k) in &[(1_000usize, 2usize), (10_000, 5), (10_000, 10), (50_000, 3)] {
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = CrCompoundMerge::new(k).sort(&oracle);
            assert!(inst.verify(&run.partition));
            let loglog = (n as f64).log2().log2();
            let bound = (6.0 * k as f64 + 4.0 * loglog + 8.0).ceil() as u64;
            assert!(
                run.metrics.rounds() <= bound,
                "n={n}, k={k}: {} rounds exceeds bound {bound}",
                run.metrics.rounds()
            );
        }
    }

    #[test]
    fn rounds_grow_slowly_with_n_for_fixed_k() {
        let mut r = rng(4);
        let k = 4;
        let small = {
            let inst = Instance::balanced(1_000, k, &mut r);
            CrCompoundMerge::new(k)
                .sort(&InstanceOracle::new(&inst))
                .metrics
                .rounds()
        };
        let large = {
            let inst = Instance::balanced(64_000, k, &mut r);
            CrCompoundMerge::new(k)
                .sort(&InstanceOracle::new(&inst))
                .metrics
                .rounds()
        };
        // Doubling n six times should cost only a handful of extra rounds.
        assert!(
            large <= small + 8,
            "rounds jumped from {small} to {large} when n grew 64x"
        );
    }

    #[test]
    fn total_work_is_reasonable() {
        // Work is O(n k) up to constants for the merge tree.
        let mut r = rng(5);
        let (n, k) = (4_096usize, 4usize);
        let inst = Instance::balanced(n, k, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = CrCompoundMerge::new(k).sort(&oracle);
        assert!(inst.verify(&run.partition));
        assert!(
            run.metrics.comparisons() <= (8 * n * k) as u64,
            "work {} too large for n={n}, k={k}",
            run.metrics.comparisons()
        );
    }

    #[test]
    fn handles_unbalanced_classes() {
        let mut r = rng(6);
        let inst = Instance::from_class_sizes(&[500, 30, 30, 5, 1, 1], &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = CrCompoundMerge::new(6).sort(&oracle);
        assert!(inst.verify(&run.partition));
    }

    #[test]
    fn threaded_backend_is_bit_identical_to_sequential() {
        let mut r = rng(7);
        let inst = Instance::balanced(3_000, 5, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let alg = CrCompoundMerge::new(5);
        let seq = alg.sort_with_backend(&oracle, ExecutionBackend::Sequential);
        // threshold 1 forces even tiny rounds through the pool.
        let thr = alg.sort_with_backend(
            &oracle,
            ExecutionBackend::Threaded {
                threads: 4,
                threshold: 1,
            },
        );
        assert!(inst.verify(&seq.partition));
        assert_eq!(seq.partition, thr.partition);
        assert_eq!(seq.metrics, thr.metrics);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matches_ground_truth_on_random_instances(
            labels in proptest::collection::vec(0u8..5, 1..150),
            k_hint in 1usize..8,
        ) {
            let inst = Instance::from_labels(&labels);
            let oracle = InstanceOracle::new(&inst);
            let run = CrCompoundMerge::new(k_hint).sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
        }
    }
}
