//! Substrate parity: the packed bitset substrate must be **observationally
//! identical** to the pointer representations it replaced.
//!
//! Three layers are pinned:
//!
//! 1. **Adversary cores.** The packed [`ecs_adversary::AdversaryCore`]
//!    (pair-bitset knowledge graph, bit-row marks and class filters, packed
//!    round plans) against [`ecs_adversary::LegacyAdversary`] — the retained
//!    pre-bitset implementation (hash-set adjacency, `Vec<Option<Mark>>`,
//!    hash-map plans) — running whole algorithms: identical answers forced,
//!    identical comparisons, swaps, marked elements, committed partitions,
//!    and round counts.
//! 2. **Backends over the packed adversary.** `Sequential` and
//!    `Threaded{2}` runs of the packed adversary agree bit-for-bit
//!    (partition, metrics, adversary counters).
//! 3. **Ground-truth oracle paths.** [`InstanceOracle`]'s word-parallel
//!    `same_row` (naive's rows) and its rounds — one `same_batch` call
//!    inline, scalar `same` calls on the pool — give identical partitions
//!    and metrics across all six algorithms, the paper's four class-size
//!    distributions, and both backend shapes.

use ecs_adversary::{EqualSizeAdversary, LegacyAdversary, SmallestClassAdversary};
use ecs_core::{
    CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
    RepresentativeScan, RoundRobin,
};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::{ExecutionBackend, Instance, InstanceOracle};
use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
use proptest::prelude::*;

/// The backend shapes the parity claims cover: each round as one
/// `same_batch` call on the calling thread, and scalar `same` calls on the
/// threaded pool.
fn backends() -> [ExecutionBackend; 2] {
    [
        ExecutionBackend::Sequential,
        ExecutionBackend::Threaded {
            threads: 2,
            threshold: 1,
        },
    ]
}

fn distribution(choice: u8) -> AnyDistribution {
    match choice % 4 {
        0 => AnyDistribution::uniform(8),
        1 => AnyDistribution::geometric(0.2),
        2 => AnyDistribution::poisson(5.0),
        _ => AnyDistribution::zeta(2.5),
    }
}

/// Runs `alg` against a fresh packed and a fresh legacy equal-size adversary
/// and asserts the two substrates were driven through identical histories.
fn assert_equal_size_parity<A: EcsAlgorithm>(alg: &A, n: usize, f: usize) {
    let packed = EqualSizeAdversary::new(n, f);
    let legacy = LegacyAdversary::equal_size(n, f);
    let packed_run = alg.sort(&packed);
    let legacy_run = alg.sort(&legacy);
    let label = format!("{} on equal-size n={n}, f={f}", alg.name());
    assert_eq!(
        packed_run.partition, legacy_run.partition,
        "{label}: algorithm outputs diverged"
    );
    assert_eq!(
        packed.partition(),
        legacy.partition(),
        "{label}: committed partitions diverged"
    );
    assert_eq!(
        packed.comparisons(),
        legacy.comparisons(),
        "{label}: forced comparison counts diverged"
    );
    assert_eq!(
        packed.swaps(),
        legacy.swaps(),
        "{label}: swap counts diverged"
    );
    assert_eq!(
        packed.marked_elements(),
        legacy.marked_elements(),
        "{label}: marked-element counts diverged"
    );
    assert_eq!(
        packed.rounds_committed(),
        legacy.rounds_committed(),
        "{label}: committed round counts diverged"
    );
}

/// Same as [`assert_equal_size_parity`] for the Theorem 6 adversary, which
/// additionally exercises the protected-color swap path.
fn assert_smallest_class_parity<A: EcsAlgorithm>(alg: &A, n: usize, ell: usize) {
    let packed = SmallestClassAdversary::new(n, ell);
    let legacy = LegacyAdversary::smallest_class(n, ell);
    let packed_run = alg.sort(&packed);
    let legacy_run = alg.sort(&legacy);
    let label = format!("{} on smallest-class n={n}, ell={ell}", alg.name());
    assert_eq!(
        packed_run.partition, legacy_run.partition,
        "{label}: algorithm outputs diverged"
    );
    assert_eq!(
        packed.partition(),
        legacy.partition(),
        "{label}: committed partitions diverged"
    );
    assert_eq!(
        packed.comparisons(),
        legacy.comparisons(),
        "{label}: forced comparison counts diverged"
    );
    assert_eq!(
        packed.swaps(),
        legacy.swaps(),
        "{label}: swap counts diverged"
    );
    assert_eq!(
        packed.marked_elements(),
        legacy.marked_elements(),
        "{label}: marked-element counts diverged"
    );
    assert_eq!(
        packed.smallest_class_pinned(),
        legacy.protected_color_touched(),
        "{label}: protected-color state diverged"
    );
}

#[test]
fn packed_adversary_matches_legacy_across_algorithms_theorem5() {
    for &(n, f) in &[(64usize, 4usize), (120, 6), (200, 10)] {
        assert_equal_size_parity(&RepresentativeScan::new(), n, f);
        assert_equal_size_parity(&RoundRobin::new(), n, f);
        assert_equal_size_parity(&ErMergeSort::new(), n, f);
    }
    assert_equal_size_parity(&NaiveAllPairs::new(), 48, 6);
    assert_equal_size_parity(&ErConstantRound::adaptive(7), 96, 8);
    assert_equal_size_parity(&CrCompoundMerge::new(12), 96, 8);
}

#[test]
fn packed_adversary_matches_legacy_across_algorithms_theorem6() {
    for &(n, ell) in &[(100usize, 4usize), (150, 3)] {
        assert_smallest_class_parity(&RepresentativeScan::new(), n, ell);
        assert_smallest_class_parity(&RoundRobin::new(), n, ell);
        assert_smallest_class_parity(&ErMergeSort::new(), n, ell);
    }
    assert_smallest_class_parity(&CrCompoundMerge::new(24), 120, 4);
}

#[test]
fn packed_adversary_is_backend_invariant() {
    // The packed round plan serves Threaded arrival races identically to
    // the Sequential replay's one batch per round.
    for &(n, f) in &[(128usize, 8usize), (240, 12)] {
        let runs: Vec<(EcsRun, u64, u64, usize)> = backends()
            .iter()
            .map(|&backend| {
                let adversary = EqualSizeAdversary::new(n, f);
                let run = ErMergeSort::new().sort_with_backend(&adversary, backend);
                (
                    run,
                    adversary.comparisons(),
                    adversary.swaps(),
                    adversary.marked_elements(),
                )
            })
            .collect();
        let (ref_run, ref_cmp, ref_swaps, ref_marked) = &runs[0];
        for ((run, cmp, swaps, marked), backend) in runs.iter().zip(backends()).skip(1) {
            let label = backend.label();
            assert_eq!(
                ref_run.partition, run.partition,
                "n={n}, f={f}: partition differs under {label}"
            );
            assert_eq!(
                ref_run.metrics, run.metrics,
                "n={n}, f={f}: metrics differ under {label}"
            );
            assert_eq!(
                (ref_cmp, ref_swaps, ref_marked),
                (cmp, swaps, marked),
                "n={n}, f={f}: adversary counters differ under {label}"
            );
        }
    }
}

/// One algorithm against the ground truth on every backend: identical
/// partitions and metrics.
fn assert_ground_truth_invariant<A: EcsAlgorithm>(alg: &A, instance: &Instance) {
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn word_parallel_ground_truth_is_backend_invariant(
        seed in 0u64..10_000,
        n in 2usize..180,
        choice in 0u8..4,
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let instance = Instance::from_distribution(&distribution(choice), n, &mut rng);
        let k = instance.ground_truth().num_classes().max(1);
        assert_ground_truth_invariant(&NaiveAllPairs::new(), &instance);
        assert_ground_truth_invariant(&RoundRobin::new(), &instance);
        assert_ground_truth_invariant(&RepresentativeScan::new(), &instance);
        assert_ground_truth_invariant(&ErMergeSort::new(), &instance);
        assert_ground_truth_invariant(&ErConstantRound::adaptive(seed), &instance);
        assert_ground_truth_invariant(&CrCompoundMerge::new(k), &instance);
    }
}
