//! The brute-force baseline: compare every pair.

use crate::run::{EcsAlgorithm, EcsRun};
use ecs_graph::BitRow;
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
        // Row `a` asks `(a, a+1), ..., (a, n-1)` as one row of single
        // comparisons: the same queries in the same order as a pair loop,
        // answered 64 partners to a word. Each element takes the label of
        // the first earlier element found equal to it; `unmatched` marks the
        // elements not labelled yet, so a word touches only its equal
        // partners that are still unmatched. For a consistent oracle that
        // labels the whole class alike.
        let mut label: Vec<u32> = (0..n as u32).collect();
        let mut unmatched = BitRow::new(n);
        for b in 0..n {
            unmatched.set(b);
        }
        let mut row = Vec::with_capacity(n.div_ceil(64));
        for a in 0..n {
            session.compare_row(a, (a + 1)..n, &mut row);
            for (w, &same) in row.iter().enumerate() {
                let start = a + 1 + 64 * w;
                let mut hits = same & unmatched.extract_word(start);
                while hits != 0 {
                    let b = start + hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    label[b] = label[a];
                    unmatched.clear(b);
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
