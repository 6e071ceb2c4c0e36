//! Properties of the batched oracle evaluation path.
//!
//! Three guarantees, each load-bearing for the batching subsystem:
//!
//! 1. **Pairwise agreement.** `same_batch` must agree with `same` pair by
//!    pair — `same_batch(pairs)[i] == same(pairs[i].0, pairs[i].1)` — for
//!    both ground-truth oracle types ([`InstanceOracle`], [`LabelOracle`])
//!    on instances drawn from all four of the paper's class-size
//!    distributions. This is the contract that lets everything downstream
//!    batch freely.
//! 2. **Backend determinism.** Every algorithm run on an
//!    [`ExecutionBackend::Batched`] backend (any wave size, including the
//!    whole-round wave) must produce the **identical partition and identical
//!    [`ecs_model::Metrics`]** as the sequential backend: charging happens
//!    before evaluation and waves are cut in pair order, so batching is
//!    observationally invisible.
//! 3. **Sequence transparency.** `ComparisonSession::compare_sequence` must
//!    ask, answer and charge exactly what a loop of `compare` calls does —
//!    also for the order-adaptive adversaries, which keep the default
//!    `same_sequence` (a `same` loop) and so must force the same answers,
//!    partition and marks.

use ecs_adversary::{EqualSizeAdversary, SmallestClassAdversary};
use ecs_core::{
    CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
    RepresentativeScan, RoundRobin,
};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::{
    ComparisonSession, EquivalenceOracle, ExecutionBackend, Instance, InstanceOracle, LabelOracle,
    Partition, ReadMode,
};
use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
use proptest::prelude::*;

fn distribution(choice: u8) -> AnyDistribution {
    match choice % 4 {
        0 => AnyDistribution::uniform(8),
        1 => AnyDistribution::geometric(0.2),
        2 => AnyDistribution::poisson(5.0),
        _ => AnyDistribution::zeta(2.5),
    }
}

/// Deterministic pseudo-random pair list covering the index range, derived
/// from the proptest-drawn seed.
fn query_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x9E37_79B9);
    (0..count)
        .filter_map(|_| {
            let a = rng.next_u64() as usize % n;
            let b = rng.next_u64() as usize % n;
            (a != b).then_some((a, b))
        })
        .collect()
}

/// The batched backends every run must agree across: a wave smaller than
/// most rounds, a wave that rarely divides a round evenly, and the
/// whole-round wave.
fn batched_backends() -> [ExecutionBackend; 3] {
    [
        ExecutionBackend::batched(7),
        ExecutionBackend::batched(64),
        ExecutionBackend::batched(0),
    ]
}

fn assert_batched_invariant<A: EcsAlgorithm>(alg: &A, instance: &Instance) {
    let oracle = InstanceOracle::new(instance);
    let reference: EcsRun = alg.sort_with_backend(&oracle, ExecutionBackend::Sequential);
    assert!(
        instance.verify(&reference.partition),
        "{} misclassified under the sequential backend",
        alg.name()
    );
    for backend in batched_backends() {
        let run = alg.sort_with_backend(&oracle, backend);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Guarantee 1: pairwise agreement for both oracle types across all four
    /// distributions.
    #[test]
    fn same_batch_agrees_pairwise_with_same(
        seed in 0u64..10_000,
        n in 2usize..300,
        choice in 0u8..4,
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let instance = Instance::from_distribution(&distribution(choice), n, &mut rng);
        let instance_oracle = InstanceOracle::new(&instance);
        let label_oracle = LabelOracle::new(instance.ground_truth().labels().to_vec());
        let pairs = query_pairs(instance.n(), 200, seed);
        let scalar: Vec<bool> = pairs
            .iter()
            .map(|&(a, b)| instance_oracle.same(a, b))
            .collect();
        prop_assert_eq!(&instance_oracle.same_batch(&pairs), &scalar);
        prop_assert_eq!(&label_oracle.same_batch(&pairs), &scalar);
        // Scalar calls through the two oracle types agree too (the label
        // oracle answers from the instance's own ground truth).
        for &(a, b) in &pairs {
            prop_assert_eq!(instance_oracle.same(a, b), label_oracle.same(a, b));
        }
    }

    /// Guarantee 2: every algorithm is bit-identical between the sequential
    /// and batched backends on any instance.
    #[test]
    fn all_algorithms_identical_on_batched_backends(
        seed in 0u64..10_000,
        n in 2usize..180,
        choice in 0u8..4,
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let instance = Instance::from_distribution(&distribution(choice), n, &mut rng);
        let k = instance.ground_truth().num_classes().max(1);
        assert_batched_invariant(&NaiveAllPairs::new(), &instance);
        assert_batched_invariant(&RoundRobin::new(), &instance);
        assert_batched_invariant(&RepresentativeScan::new(), &instance);
        assert_batched_invariant(&ErMergeSort::new(), &instance);
        assert_batched_invariant(&ErConstantRound::adaptive(seed), &instance);
        assert_batched_invariant(&CrCompoundMerge::new(k), &instance);
    }
}

/// Runs `pairs` through one session as a sequence and through another as a
/// `compare` loop, and returns both answer lists after checking the charges
/// agree.
fn sequence_and_loop<O: EquivalenceOracle>(
    bulk: &O,
    looped: &O,
    pairs: &[(usize, usize)],
) -> (Vec<bool>, Vec<bool>) {
    let mut s = ComparisonSession::new(bulk, ReadMode::Exclusive);
    let sequence = s.compare_sequence(pairs);
    let mut t = ComparisonSession::new(looped, ReadMode::Exclusive);
    let compared: Vec<bool> = pairs.iter().map(|&(a, b)| t.compare(a, b)).collect();
    assert_eq!(s.metrics(), t.metrics());
    assert_eq!(s.metrics().round_sizes(), t.metrics().round_sizes());
    (sequence, compared)
}

#[test]
fn adversaries_answer_a_sequence_exactly_as_a_compare_loop() {
    let n = 96;
    // All-pairs rows, the shape naive all-pairs submits, then a few
    // repeated and reversed pairs.
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    pairs.extend([(5, 1), (90, 3), (5, 1)]);

    let (bulk, looped) = (EqualSizeAdversary::new(n, 4), EqualSizeAdversary::new(n, 4));
    let (sequence, compared) = sequence_and_loop(&bulk, &looped, &pairs);
    assert_eq!(sequence, compared);
    assert_eq!(bulk.comparisons(), looped.comparisons());
    assert_eq!(bulk.marked_elements(), looped.marked_elements());
    assert_eq!(bulk.swaps(), looped.swaps());
    assert_eq!(bulk.partition(), looped.partition());

    let (bulk, looped) = (
        SmallestClassAdversary::new(n, 6),
        SmallestClassAdversary::new(n, 6),
    );
    let (sequence, compared) = sequence_and_loop(&bulk, &looped, &pairs);
    assert_eq!(sequence, compared);
    assert_eq!(bulk.comparisons(), looped.comparisons());
    assert_eq!(bulk.marked_elements(), looped.marked_elements());
    assert_eq!(bulk.swaps(), looped.swaps());
    assert_eq!(bulk.partition(), looped.partition());
}

#[test]
fn ground_truth_sequences_match_the_compare_loop_on_every_distribution() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(41);
    for choice in 0..4 {
        let instance = Instance::from_distribution(&distribution(choice), 300, &mut rng);
        let labels = instance.ground_truth().labels().to_vec();
        let pairs = query_pairs(300, 2_000, u64::from(choice));
        let oracle = InstanceOracle::new(&instance);
        let (sequence, compared) = sequence_and_loop(&oracle, &oracle, &pairs);
        assert_eq!(sequence, compared);
        let oracle = LabelOracle::new(labels);
        let (sequence, compared) = sequence_and_loop(&oracle, &oracle, &pairs);
        assert_eq!(sequence, compared);
        // Naive all-pairs, built on sequences, still finds the truth.
        let run = NaiveAllPairs::new().sort(&InstanceOracle::new(&instance));
        assert_eq!(
            run.partition,
            Partition::from_labels(instance.ground_truth().labels())
        );
    }
}
