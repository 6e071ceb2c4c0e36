//! Property: the lower-bound adversaries are bit-identical across execution
//! backends.
//!
//! The adversaries are order-adaptive oracles, historically the one corner of
//! the workspace pinned to sequential evaluation. The round-commit protocol
//! (`ecs_adversary::round_commit`) plans every round's answers against the
//! round-start state in canonical pair order, so partitions, forced
//! comparison counts, adversary diagnostics, and session [`Metrics`]
//! (including the exact round trace) must now be **identical** under
//! `Sequential`, `Threaded{2}`, `Threaded{8}`, `Batched{0}`, and
//! `Batched{64}` for all six algorithms against both adversaries.
//!
//! The threaded backends use `threshold: 1` so even test-sized adversarial
//! rounds are forced through the work-stealing pool.

use parallel_ecs::prelude::*;
use proptest::prelude::*;

/// The backends every adversarial run must agree across. The `threshold: 64`
/// entry mixes inline and pooled rounds within one run.
fn backends() -> [ExecutionBackend; 6] {
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
        ExecutionBackend::batched(0),
        ExecutionBackend::batched(64),
        ExecutionBackend::Threaded {
            threads: 2,
            threshold: 64,
        },
    ]
}

/// Everything one adversarial run observes: what the algorithm saw (partition
/// and metrics), what the adversary committed to, and how it got there.
#[derive(Debug, PartialEq)]
struct Observation {
    run_partition: Partition,
    committed_partition: Partition,
    metrics: Metrics,
    round_sizes: Option<Vec<usize>>,
    forced_comparisons: u64,
    swaps: u64,
    marked_elements: usize,
}

fn observe<A, O, M>(alg: &A, make: &M, backend: ExecutionBackend) -> Observation
where
    A: EcsAlgorithm,
    O: LowerBoundAdversary,
    M: Fn() -> O,
{
    let adversary = make();
    let run = alg.sort_with_backend(&adversary, backend);
    Observation {
        run_partition: run.partition,
        committed_partition: adversary.partition(),
        round_sizes: run.metrics.round_sizes().map(<[usize]>::to_vec),
        forced_comparisons: adversary.comparisons(),
        swaps: adversary.swaps(),
        marked_elements: adversary.marked_elements(),
        metrics: run.metrics,
    }
}

/// Runs one algorithm against fresh adversaries on every backend and asserts
/// identical observations.
fn assert_backend_invariant<A, O, M>(alg: &A, make: &M, label: &str)
where
    A: EcsAlgorithm,
    O: LowerBoundAdversary,
    M: Fn() -> O,
{
    let reference = observe(alg, make, backends()[0]);
    assert_eq!(
        reference.run_partition,
        reference.committed_partition,
        "{label}: {} did not output the committed partition sequentially",
        alg.name()
    );
    for backend in backends().into_iter().skip(1) {
        let observation = observe(alg, make, backend);
        assert_eq!(
            reference,
            observation,
            "{label}: {} diverged between sequential and {}",
            alg.name(),
            backend.label()
        );
    }
}

/// Checks all six algorithms against one adversary constructor.
fn assert_all_algorithms_invariant<O, M>(make: &M, k: usize, seed: u64, label: &str)
where
    O: LowerBoundAdversary,
    M: Fn() -> O,
{
    assert_backend_invariant(&NaiveAllPairs::new(), make, label);
    assert_backend_invariant(&RoundRobin::new(), make, label);
    assert_backend_invariant(&RepresentativeScan::new(), make, label);
    assert_backend_invariant(&ErMergeSort::new(), make, label);
    assert_backend_invariant(&ErConstantRound::adaptive(seed), make, label);
    assert_backend_invariant(&CrCompoundMerge::new(k), make, label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn equal_size_adversary_identical_across_backends(
        f_choice in 0usize..3,
        classes in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let f = [2usize, 4, 8][f_choice];
        let n = f * classes;
        let make = move || EqualSizeAdversary::new(n, f);
        assert_all_algorithms_invariant(&make, classes, seed, &format!("equal-size n={n} f={f}"));
    }

    #[test]
    fn smallest_class_adversary_identical_across_backends(
        ell in 1usize..4,
        big_groups in 2usize..5,
        extra in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let n = ell + big_groups * (ell + 1) + extra;
        // The construction: one protected class of ℓ plus ⌊(n−ℓ)/(ℓ+1)⌋
        // larger classes.
        let k = 1 + ((n - ell) / (ell + 1)).max(1);
        let make = move || SmallestClassAdversary::new(n, ell);
        assert_all_algorithms_invariant(&make, k, seed, &format!("smallest-class n={n} ell={ell}"));
    }
}

#[test]
fn forced_counts_survive_the_default_parallel_threshold() {
    // With the *default* threshold, adversarial rounds stay below the pool
    // boundary and evaluate inline — the protocol must give the same numbers
    // as the explicitly-forced pool path.
    let make = || EqualSizeAdversary::new(96, 8);
    let alg = ErMergeSort::new();
    let inline = observe(&alg, &make, ExecutionBackend::threaded(4));
    let pooled = observe(
        &alg,
        &make,
        ExecutionBackend::Threaded {
            threads: 4,
            threshold: 1,
        },
    );
    let sequential = observe(&alg, &make, ExecutionBackend::Sequential);
    assert_eq!(inline, sequential);
    assert_eq!(pooled, sequential);
}
