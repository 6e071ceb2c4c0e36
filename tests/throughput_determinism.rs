//! Property: the multi-session throughput pool is bit-identical to the
//! serial trial loop.
//!
//! A [`ThroughputPool`] only decides *where* independent jobs run; each job
//! owns its oracle session, so for every algorithm the pooled grid must
//! produce the **identical partition and identical [`ecs_model::Metrics`]**
//! (comparisons, rounds, histogram, trace) as running the same jobs one
//! after another on the calling thread. The properties exercise all six
//! algorithms on randomized instances from several of the paper's class-size
//! distributions, submitted as one grid with round-robin fairness across
//! per-algorithm sessions.

use ecs_core::{
    CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
    RepresentativeScan, RoundRobin,
};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::throughput::Job;
use ecs_model::{Instance, InstanceOracle, ThroughputPool};
use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
use proptest::prelude::*;

const NUM_ALGORITHMS: usize = 6;

/// Runs one algorithm (addressed by index, so the serial loop and the pooled
/// jobs are guaranteed to construct it identically) on one instance.
fn run_algorithm(which: usize, instance: &Instance, seed: u64) -> EcsRun {
    let oracle = InstanceOracle::new(instance);
    let k = instance.ground_truth().num_classes().max(1);
    match which {
        0 => NaiveAllPairs::new().sort(&oracle),
        1 => RoundRobin::new().sort(&oracle),
        2 => RepresentativeScan::new().sort(&oracle),
        3 => ErMergeSort::new().sort(&oracle),
        4 => ErConstantRound::adaptive(seed).sort(&oracle),
        5 => CrCompoundMerge::new(k).sort(&oracle),
        _ => unreachable!("unknown algorithm index {which}"),
    }
}

/// The serial reference: every algorithm's trials in order, no pool.
fn serial_grid(instances: &[Instance], seed: u64) -> Vec<Vec<EcsRun>> {
    (0..NUM_ALGORITHMS)
        .map(|which| {
            instances
                .iter()
                .map(|instance| run_algorithm(which, instance, seed))
                .collect()
        })
        .collect()
}

/// The same grid through a throughput pool: one fairness session per
/// algorithm, one job per trial instance.
fn pooled_grid(instances: &[Instance], seed: u64, pool: &ThroughputPool) -> Vec<Vec<EcsRun>> {
    let sessions: Vec<Vec<Job<'_, EcsRun>>> = (0..NUM_ALGORITHMS)
        .map(|which| {
            instances
                .iter()
                .map(|instance| {
                    Box::new(move || run_algorithm(which, instance, seed)) as Job<'_, EcsRun>
                })
                .collect()
        })
        .collect();
    pool.run_sessions(sessions)
}

fn assert_pooled_matches_serial(instances: &[Instance], seed: u64, workers: usize) {
    let pool = ThroughputPool::from_jobs(workers);
    let serial = serial_grid(instances, seed);
    let pooled = pooled_grid(instances, seed, &pool);
    assert_eq!(serial.len(), pooled.len());
    for (which, (serial_session, pooled_session)) in serial.iter().zip(&pooled).enumerate() {
        for (trial, (expected, got)) in serial_session.iter().zip(pooled_session).enumerate() {
            assert!(
                instances[trial].verify(&expected.partition),
                "algorithm {which} misclassified trial {trial} in the serial loop"
            );
            assert_eq!(
                expected.partition, got.partition,
                "algorithm {which}, trial {trial}: pooled partition differs from serial"
            );
            assert_eq!(
                expected.metrics, got.metrics,
                "algorithm {which}, trial {trial}: pooled metrics differ from serial"
            );
            // `Metrics` equality covers the charged summaries; the exact
            // per-round order is checked explicitly.
            assert_eq!(
                expected.metrics.round_sizes(),
                got.metrics.round_sizes(),
                "algorithm {which}, trial {trial}: pooled round trace differs from serial"
            );
        }
    }
}

fn distribution(choice: u8) -> AnyDistribution {
    match choice % 3 {
        0 => AnyDistribution::uniform(6),
        1 => AnyDistribution::geometric(0.25),
        _ => AnyDistribution::zeta(2.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pooled_grid_is_bit_identical_to_serial_loop(
        seed in 0u64..10_000,
        n in 2usize..120,
        choice in 0u8..3,
        workers in 2usize..9,
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let trials = 3;
        let instances: Vec<Instance> = (0..trials)
            .map(|_| Instance::from_distribution(&distribution(choice), n, &mut rng))
            .collect();
        assert_pooled_matches_serial(&instances, seed, workers);
    }

    #[test]
    fn pooled_grid_matches_on_balanced_instances(
        seed in 0u64..10_000,
        n in 2usize..150,
        k in 1usize..10,
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let instances: Vec<Instance> = (0..4)
            .map(|_| Instance::balanced(n, k.min(n), &mut rng))
            .collect();
        assert_pooled_matches_serial(&instances, seed, 4);
    }
}

#[test]
fn two_distributions_share_one_pool_deterministically() {
    // The Figure 5 shape in miniature: two distributions × several trials
    // submitted together, repeated — every repetition must reproduce the
    // first bit-for-bit.
    let mut rng = Xoshiro256StarStar::seed_from_u64(77);
    let instances: Vec<Instance> = [
        AnyDistribution::uniform(8),
        AnyDistribution::zeta(2.5),
        AnyDistribution::uniform(8),
        AnyDistribution::zeta(2.5),
    ]
    .iter()
    .map(|d| Instance::from_distribution(d, 80, &mut rng))
    .collect();
    let reference = pooled_grid(&instances, 77, &ThroughputPool::from_jobs(4));
    for workers in [1, 2, 8] {
        let again = pooled_grid(&instances, 77, &ThroughputPool::from_jobs(workers));
        for (a, b) in reference.iter().flatten().zip(again.iter().flatten()) {
            assert_eq!(a.partition, b.partition);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.metrics.round_sizes(), b.metrics.round_sizes());
        }
    }
}
