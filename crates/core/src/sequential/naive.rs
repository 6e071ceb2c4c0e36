//! The brute-force baseline: compare every pair.

use crate::run::{EcsAlgorithm, EcsRun};
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, Partition, ReadMode};

/// Compares all `C(n, 2)` pairs of elements and groups the equal ones.
///
/// This performs `Θ(n²)` comparisons regardless of the class structure, so it
/// is only useful as a correctness oracle for the other algorithms on small
/// instances and as the "no cleverness at all" reference point in benchmark
/// tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveAllPairs;

impl NaiveAllPairs {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl EcsAlgorithm for NaiveAllPairs {
    fn name(&self) -> String {
        "naive-all-pairs".to_string()
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
        // Row `a` asks `(a, a+1), ..., (a, n-1)` as one sequence of single
        // comparisons: the same queries in the same order as a pair loop.
        // Each element takes the label of its first equal partner (labels
        // only point down, so `label[b] == b` means not yet matched); for a
        // consistent oracle that labels the whole class alike.
        let mut label: Vec<usize> = (0..n).collect();
        let mut row: Vec<(usize, usize)> = Vec::with_capacity(n);
        for a in 0..n {
            row.clear();
            row.extend(((a + 1)..n).map(|b| (a, b)));
            let answers = session.compare_sequence(&row);
            for (&(_, b), same) in row.iter().zip(answers) {
                // Test the label first: once most elements are matched it is
                // almost always false, which keeps the branch predictable.
                if label[b] == b && same {
                    label[b] = label[a];
                }
            }
        }
        EcsRun::new(Partition::from_labels(&label), session.into_metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_model::{Instance, InstanceOracle};
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    #[test]
    fn classifies_small_instances_exactly() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for &(n, k) in &[(1usize, 1usize), (2, 1), (2, 2), (10, 3), (25, 5)] {
            let inst = Instance::balanced(n, k, &mut rng);
            let oracle = InstanceOracle::new(&inst);
            let run = NaiveAllPairs::new().sort(&oracle);
            assert!(inst.verify(&run.partition), "failed for n={n}, k={k}");
            assert_eq!(run.metrics.comparisons(), (n * (n - 1) / 2) as u64);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_labels::<u32>(&[]);
        let oracle = InstanceOracle::new(&inst);
        let run = NaiveAllPairs::new().sort(&oracle);
        assert_eq!(run.partition.num_classes(), 0);
        assert_eq!(run.metrics.comparisons(), 0);
    }

    #[test]
    fn name_and_mode() {
        let alg = NaiveAllPairs::new();
        assert_eq!(alg.name(), "naive-all-pairs");
        assert_eq!(alg.read_mode(), ReadMode::Exclusive);
    }
}
