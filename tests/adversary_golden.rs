//! Golden-transcript regression tests for the lower-bound adversaries.
//!
//! The adversaries' swap/mark heuristic is part of the reproduction's
//! deterministic contract: a refactor that changes which partner the swap
//! search picks, the order the commit applies a round's intents, or the
//! degree-marking discipline silently changes every lower-bound figure. The
//! constants below were captured from the round-commit implementation
//! (mirroring `tests/rng_golden.rs` for the RNG substrate); if a change here
//! is *intentional*, regenerate every pinned value in this file together.
//!
//! Each golden is additionally replayed on a threaded backend, so the pins
//! double as an end-to-end determinism check of the protocol.

use parallel_ecs::prelude::*;

/// The backends every golden must reproduce on (the protocol's contract).
fn replay_backends() -> [ExecutionBackend; 2] {
    [
        ExecutionBackend::Sequential,
        ExecutionBackend::Threaded {
            threads: 2,
            threshold: 1,
        },
    ]
}

struct Golden {
    comparisons: u64,
    swaps: u64,
    marked: usize,
    labels: &'static [u32],
}

/// Replays one `(algorithm, adversary)` golden on every backend of the
/// protocol's contract and asserts the pinned values.
fn check_golden<A, O, M>(alg: &A, make: M, label: &str, golden: &Golden)
where
    A: EcsAlgorithm,
    O: LowerBoundAdversary,
    M: Fn() -> O,
{
    for backend in replay_backends() {
        let adversary = make();
        let run = alg.sort_with_backend(&adversary, backend);
        let context = format!("{} vs {label} on {}", alg.name(), backend.label());
        assert_eq!(
            adversary.comparisons(),
            golden.comparisons,
            "{context}: comparisons"
        );
        assert_eq!(adversary.swaps(), golden.swaps, "{context}: swaps");
        assert_eq!(
            adversary.marked_elements(),
            golden.marked,
            "{context}: marked"
        );
        assert_eq!(
            run.partition.labels(),
            golden.labels,
            "{context}: partition"
        );
        assert_eq!(
            run.partition,
            adversary.partition(),
            "{context}: commitment"
        );
    }
}

fn check_equal_size<A: EcsAlgorithm>(alg: &A, n: usize, f: usize, golden: &Golden) {
    check_golden(
        alg,
        || EqualSizeAdversary::new(n, f),
        &format!("EqualSize(n={n}, f={f})"),
        golden,
    );
}

fn check_smallest_class<A: EcsAlgorithm>(alg: &A, n: usize, ell: usize, golden: &Golden) {
    check_golden(
        alg,
        || SmallestClassAdversary::new(n, ell),
        &format!("SmallestClass(n={n}, ℓ={ell})"),
        golden,
    );
}

#[test]
fn equal_size_representative_scan_goldens() {
    check_equal_size(
        &RepresentativeScan::new(),
        48,
        4,
        &Golden {
            comparisons: 300,
            swaps: 99,
            marked: 48,
            labels: &[
                0, 1, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8, 9,
                9, 9, 9, 10, 10, 10, 10, 11, 11, 11, 11, 2, 1, 2, 0, 0, 1, 1, 2, 0,
            ],
        },
    );
    check_equal_size(
        &RepresentativeScan::new(),
        64,
        8,
        &Golden {
            comparisons: 280,
            swaps: 80,
            marked: 64,
            labels: &[
                0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5,
                5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7, 1, 0, 0, 0, 0, 1,
                1, 0, 1, 0, 1, 1, 1, 0,
            ],
        },
    );
}

#[test]
fn equal_size_er_merge_goldens() {
    // ER merge issues genuine multi-pair rounds, so these pins cover the
    // round-plan path (not just single-pair auto-rounds).
    check_equal_size(
        &ErMergeSort::new(),
        48,
        4,
        &Golden {
            comparisons: 395,
            swaps: 43,
            marked: 48,
            labels: &[
                0, 1, 2, 3, 1, 2, 0, 3, 4, 3, 2, 5, 6, 4, 5, 0, 7, 6, 4, 5, 8, 7, 6, 4, 9, 8, 7, 6,
                10, 9, 8, 7, 11, 10, 9, 8, 11, 3, 10, 9, 1, 0, 11, 10, 2, 1, 5, 11,
            ],
        },
    );
    check_equal_size(
        &ErMergeSort::new(),
        64,
        8,
        &Golden {
            comparisons: 331,
            swaps: 53,
            marked: 64,
            labels: &[
                0, 1, 2, 3, 1, 4, 2, 1, 1, 4, 0, 1, 1, 2, 2, 4, 5, 0, 0, 1, 5, 1, 0, 2, 6, 5, 5, 0,
                6, 5, 5, 0, 7, 6, 6, 5, 7, 6, 6, 5, 3, 7, 7, 6, 3, 7, 7, 6, 4, 3, 3, 7, 4, 2, 3, 7,
                2, 4, 4, 3, 4, 2, 0, 3,
            ],
        },
    );
}

#[test]
fn smallest_class_representative_scan_goldens() {
    check_smallest_class(
        &RepresentativeScan::new(),
        48,
        3,
        &Golden {
            comparisons: 290,
            swaps: 154,
            marked: 48,
            labels: &[
                0, 1, 2, 3, 4, 5, 6, 4, 7, 8, 9, 10, 11, 11, 11, 4, 4, 6, 7, 5, 7, 5, 5, 6, 8, 6,
                7, 8, 8, 9, 9, 9, 10, 10, 10, 3, 2, 1, 0, 1, 1, 0, 1, 2, 2, 0, 3, 3,
            ],
        },
    );
    check_smallest_class(
        &RepresentativeScan::new(),
        60,
        4,
        &Golden {
            comparisons: 368,
            swaps: 183,
            marked: 60,
            labels: &[
                0, 1, 2, 3, 4, 3, 5, 6, 7, 4, 8, 9, 10, 11, 11, 11, 6, 7, 3, 11, 3, 3, 4, 4, 4, 8,
                6, 7, 5, 5, 8, 5, 5, 6, 6, 9, 7, 7, 8, 8, 9, 9, 9, 10, 10, 10, 10, 2, 1, 2, 2, 0,
                1, 1, 0, 0, 0, 1, 2, 1,
            ],
        },
    );
}

#[test]
fn smallest_class_er_merge_goldens() {
    check_smallest_class(
        &ErMergeSort::new(),
        48,
        3,
        &Golden {
            comparisons: 440,
            swaps: 63,
            marked: 48,
            labels: &[
                0, 1, 2, 3, 2, 4, 3, 0, 5, 3, 2, 0, 6, 4, 5, 2, 7, 8, 4, 9, 10, 7, 6, 4, 8, 9, 7,
                6, 11, 8, 10, 7, 0, 11, 5, 10, 1, 3, 11, 8, 6, 9, 1, 11, 0, 10, 5, 1,
            ],
        },
    );
    check_smallest_class(
        &ErMergeSort::new(),
        60,
        4,
        &Golden {
            comparisons: 579,
            swaps: 81,
            marked: 60,
            labels: &[
                0, 1, 2, 3, 4, 3, 0, 2, 5, 2, 0, 3, 0, 1, 6, 3, 7, 5, 1, 0, 6, 8, 7, 1, 4, 9, 8, 7,
                10, 7, 5, 8, 11, 4, 8, 5, 9, 2, 6, 5, 11, 10, 9, 6, 6, 3, 10, 9, 2, 9, 11, 10, 4,
                2, 10, 11, 1, 8, 7, 11,
            ],
        },
    );
}
