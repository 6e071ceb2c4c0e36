//! The trivial bound: no algorithm charges more comparisons than all-pairs.
//!
//! Naive all-pairs settles any instance with `n(n−1)/2` comparisons, so an
//! algorithm that charges more has asked some pair it could have skipped.
//! Every algorithm is run on instances from the five `DistSpec` families plus
//! the heavy-tailed `zeta:1.5`, on the sequential and pooled backends, and
//! must stay within the bound.

use parallel_ecs::prelude::*;
use parallel_ecs::service::{AlgoSpec, DistSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Every round as one `same_batch` call, and every round on the pool.
const BACKENDS: [ExecutionBackend; 2] = [
    ExecutionBackend::Sequential,
    ExecutionBackend::Threaded {
        threads: 2,
        threshold: 1,
    },
];

/// Family `family` (0–5: uniform, balanced, geometric, poisson, zeta,
/// zeta:1.5), with its parameter drawn from `t ∈ [0, 1)`.
fn distribution(family: u8, t: f64) -> DistSpec {
    match family {
        0 => DistSpec::Uniform(1 + (t * 12.0) as usize),
        1 => DistSpec::Balanced(1 + (t * 12.0) as usize),
        2 => DistSpec::Geometric(0.1 + 0.8 * t),
        3 => DistSpec::Poisson(0.5 + 8.0 * t),
        4 => DistSpec::Zeta(2.0 + t),
        _ => DistSpec::Zeta(1.5),
    }
}

/// Sorts one instance with `algo` on every backend and checks the partition
/// and the bound.
fn check_budget(algo: AlgoSpec, dist: DistSpec, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let instance = dist.instance(n, seed);
    let k = instance.ground_truth().num_classes().max(1);
    let oracle = InstanceOracle::new(&instance);
    let all_pairs = (n * (n - 1) / 2) as u64;
    for backend in BACKENDS {
        let run = algo.sort(seed, k, &oracle, backend);
        prop_assert!(instance.verify(&run.partition), "{algo} on {dist}, n = {n}");
        prop_assert!(
            run.metrics.comparisons() <= all_pairs,
            "{algo} on {dist}, n = {n}, seed {seed}, {}: {} comparisons > n(n-1)/2 = {all_pairs}",
            backend.label(),
            run.metrics.comparisons()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn no_algorithm_charges_more_than_all_pairs(
        seed in 0u64..1_000_000,
        n in 2usize..160,
        family in 0u8..6,
        t in 0.0f64..1.0,
    ) {
        let dist = distribution(family, t);
        for algo in AlgoSpec::ALL {
            if algo == AlgoSpec::ErConstant {
                continue;
            }
            check_budget(algo, dist, n, seed)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn er_constant_charges_no_more_than_all_pairs(
        seed in 0u64..1_000_000,
        n in 2usize..160,
        family in 0u8..6,
        t in 0.0f64..1.0,
    ) {
        check_budget(AlgoSpec::ErConstant, distribution(family, t), n, seed)?;
    }
}
