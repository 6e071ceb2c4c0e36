//! Property: every algorithm is bit-identical across execution backends.
//!
//! The execution backend only decides which OS threads perform the oracle
//! calls — answers are collected in submission order and charging is
//! backend-independent — so all six algorithms must produce the **identical
//! partition and identical [`Metrics`]** (comparisons, rounds, and round
//! sizes) under `Sequential`, `Threaded{2}`, and `Threaded{8}` on any
//! instance. The properties exercise randomized instances from all four of
//! the paper's class-size distributions plus balanced layouts.
//!
//! The threaded backends use `threshold: 1` so that even the small rounds of
//! these test-sized instances are forced through the work-stealing pool.

use ecs_core::{
    CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
    RepresentativeScan, RoundRobin,
};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::{ExecutionBackend, Instance, InstanceOracle};
use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
use proptest::prelude::*;

/// The backends every run must agree across. The `threshold: 64` entry
/// mixes inline and pooled rounds within one run, which the `threshold: 1`
/// entries do not cover.
fn backends() -> [ExecutionBackend; 4] {
    [
        ExecutionBackend::Sequential,
        ExecutionBackend::Threaded {
            threads: 2,
            threshold: 1,
        },
        ExecutionBackend::Threaded {
            threads: 8,
            threshold: 1,
        },
        ExecutionBackend::Threaded {
            threads: 2,
            threshold: 64,
        },
    ]
}

/// Runs one algorithm under every backend and asserts identical partitions
/// and identical metrics.
fn assert_backend_invariant<A: EcsAlgorithm>(alg: &A, instance: &Instance) {
    let oracle = InstanceOracle::new(instance);
    let runs: Vec<EcsRun> = backends()
        .iter()
        .map(|&backend| alg.sort_with_backend(&oracle, backend))
        .collect();
    let reference = &runs[0];
    assert!(
        instance.verify(&reference.partition),
        "{} misclassified under the sequential backend",
        alg.name()
    );
    for (run, backend) in runs.iter().zip(backends()).skip(1) {
        assert_eq!(
            reference.partition,
            run.partition,
            "{} partition differs between sequential and {}",
            alg.name(),
            backend.label()
        );
        assert_eq!(
            reference.metrics,
            run.metrics,
            "{} metrics differ between sequential and {}",
            alg.name(),
            backend.label()
        );
        // `Metrics` equality covers the charged summaries; the exact
        // per-round order is checked explicitly.
        assert_eq!(
            reference.metrics.round_sizes(),
            run.metrics.round_sizes(),
            "{} round trace differs between sequential and {}",
            alg.name(),
            backend.label()
        );
    }
}

/// Checks all six algorithms on one instance.
fn assert_all_algorithms_invariant(instance: &Instance, seed: u64) {
    let k = instance.ground_truth().num_classes().max(1);
    assert_backend_invariant(&NaiveAllPairs::new(), instance);
    assert_backend_invariant(&RoundRobin::new(), instance);
    assert_backend_invariant(&RepresentativeScan::new(), instance);
    assert_backend_invariant(&ErMergeSort::new(), instance);
    assert_backend_invariant(&ErConstantRound::adaptive(seed), instance);
    assert_backend_invariant(&CrCompoundMerge::new(k), instance);
}

fn distribution(choice: u8) -> AnyDistribution {
    match choice % 4 {
        0 => AnyDistribution::uniform(8),
        1 => AnyDistribution::geometric(0.2),
        2 => AnyDistribution::poisson(5.0),
        _ => AnyDistribution::zeta(2.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_algorithms_identical_across_backends_on_distribution_instances(
        seed in 0u64..10_000,
        n in 2usize..200,
        choice in 0u8..4,
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let instance = Instance::from_distribution(&distribution(choice), n, &mut rng);
        assert_all_algorithms_invariant(&instance, seed);
    }

    #[test]
    fn all_algorithms_identical_across_backends_on_balanced_instances(
        seed in 0u64..10_000,
        n in 2usize..250,
        k in 1usize..12,
    ) {
        let k = k.min(n);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let instance = Instance::balanced(n, k, &mut rng);
        assert_all_algorithms_invariant(&instance, seed);
    }
}

#[test]
fn large_rounds_cross_the_default_threshold_identically() {
    // With the *default* threshold, only rounds of >= 4096 comparisons reach
    // the pool; a larger instance makes the CR compound merge emit such
    // rounds, exercising the inline/pool boundary within a single run.
    let mut rng = Xoshiro256StarStar::seed_from_u64(42);
    let instance = Instance::balanced(20_000, 4, &mut rng);
    let oracle = InstanceOracle::new(&instance);
    let alg = CrCompoundMerge::new(4);
    let seq = alg.sort_with_backend(&oracle, ExecutionBackend::Sequential);
    let thr = alg.sort_with_backend(&oracle, ExecutionBackend::threaded(4));
    assert!(instance.verify(&seq.partition));
    assert_eq!(seq.partition, thr.partition);
    assert_eq!(seq.metrics, thr.metrics);
}
