//! Adversary correctness invariants: answers are mutually consistent, the
//! final partition explains (and is certified by) every recorded answer, and
//! the forced comparison counts pin Theorems 5 and 6 as executable
//! assertions across a seeded `(n, f)` / `(n, ℓ)` grid.

use parallel_ecs::prelude::*;

/// One named algorithm runner against an oracle of type `O`.
type Runner<O> = (&'static str, Box<dyn Fn(&O) -> EcsRun>);

/// The algorithms the invariants are checked under: sequential
/// single-comparison probers and round-based algorithms alike. Generic over
/// the oracle so the same roster drives both adversaries.
fn roster<O: EquivalenceOracle>() -> Vec<Runner<O>> {
    vec![
        (
            "representative-scan",
            Box::new(|o| RepresentativeScan::new().sort(o)),
        ),
        ("round-robin", Box::new(|o| RoundRobin::new().sort(o))),
        ("er-merge", Box::new(|o| ErMergeSort::new().sort(o))),
        (
            "naive-all-pairs",
            Box::new(|o| NaiveAllPairs::new().sort(o)),
        ),
    ]
}

#[test]
fn theorem5_forced_comparisons_meet_the_paper_bound_across_the_grid() {
    // Theorem 5 as an executable assertion: against the equal-class-size
    // adversary, every correct algorithm performs at least n²/(64f)
    // comparisons (Lemma 3's explicit constant), for every grid point.
    for &(n, f) in &[
        (64usize, 4usize),
        (64, 8),
        (120, 6),
        (128, 8),
        (144, 12),
        (192, 8),
        (240, 12),
    ] {
        for (name, run_alg) in roster() {
            let adversary = EqualSizeAdversary::new(n, f);
            let run = run_alg(&adversary);
            assert_eq!(
                run.partition,
                adversary.partition(),
                "{name} (n={n}, f={f}): wrong partition"
            );
            let mut sizes = run.partition.class_sizes();
            sizes.sort_unstable();
            assert!(
                sizes.iter().all(|&s| s == f),
                "{name} (n={n}, f={f}): classes are not equitable: {sizes:?}"
            );
            assert!(
                adversary.comparisons() >= adversary.paper_lower_bound(),
                "{name} (n={n}, f={f}): {} forced comparisons below the n²/(64f) bound {}",
                adversary.comparisons(),
                adversary.paper_lower_bound()
            );
        }
    }
}

#[test]
fn theorem6_forced_comparisons_meet_the_paper_bound_across_the_grid() {
    // Theorem 6: pinning down the smallest class (which completing the sort
    // necessarily does) costs at least n²/(64ℓ) comparisons.
    for &(n, ell) in &[
        (48usize, 3usize),
        (64, 4),
        (100, 4),
        (120, 5),
        (150, 3),
        (200, 8),
    ] {
        for (name, run_alg) in roster() {
            let adversary = SmallestClassAdversary::new(n, ell);
            let run = run_alg(&adversary);
            assert_eq!(
                run.partition,
                adversary.partition(),
                "{name} (n={n}, ℓ={ell}): wrong partition"
            );
            assert!(
                adversary.comparisons() >= adversary.paper_lower_bound(),
                "{name} (n={n}, ℓ={ell}): {} forced comparisons below the n²/(64ℓ) bound {}",
                adversary.comparisons(),
                adversary.paper_lower_bound()
            );
            assert!(
                adversary.smallest_class_pinned(),
                "{name} (n={n}, ℓ={ell}): finished without pinning the smallest class"
            );
            // The committed structure keeps a unique smallest class of size ℓ.
            let sizes = adversary.partition().class_sizes();
            let min = *sizes.iter().min().unwrap();
            assert_eq!(min, ell);
            assert_eq!(sizes.iter().filter(|&&s| s == min).count(), 1);
        }
    }
}

#[test]
fn equal_size_transcripts_are_consistent_and_certify_the_partition() {
    // Mutual consistency: the committed partition explains every recorded
    // answer, the "equal" answers form a transitive relation reaching the
    // claimed classes, and every class pair is separated — i.e. the
    // transcript *certifies* the output (no algorithm guessed).
    for &(n, f) in &[(60usize, 5usize), (96, 8), (120, 6)] {
        for (name, run_alg) in roster() {
            let adversary = EqualSizeAdversary::new(n, f).with_transcript();
            let run = run_alg(&adversary);
            let transcript = adversary.transcript();
            assert_eq!(
                transcript.len() as u64,
                adversary.comparisons(),
                "{name} (n={n}, f={f}): transcript length mismatch"
            );
            assert!(
                transcript.consistent_with(&adversary.partition()),
                "{name} (n={n}, f={f}): an answer contradicts the committed partition"
            );
            assert!(
                transcript.certifies(n, &run.partition),
                "{name} (n={n}, f={f}): transcript does not certify the output"
            );
        }
    }
}

#[test]
fn smallest_class_transcripts_are_consistent_and_certify_the_partition() {
    for &(n, ell) in &[(60usize, 4usize), (90, 5)] {
        for (name, run_alg) in roster() {
            let adversary = SmallestClassAdversary::new(n, ell).with_transcript();
            let run = run_alg(&adversary);
            let transcript = adversary.transcript();
            assert!(
                transcript.consistent_with(&adversary.partition()),
                "{name} (n={n}, ℓ={ell}): an answer contradicts the committed partition"
            );
            assert!(
                transcript.certifies(n, &run.partition),
                "{name} (n={n}, ℓ={ell}): transcript does not certify the output"
            );
        }
    }
}

#[test]
fn transcripts_stay_consistent_on_the_pooled_backend() {
    // The consistency invariants hold on the pool too, not just on the
    // sequential paths exercised above: every round is sharded.
    let backend = ExecutionBackend::Threaded {
        threads: 4,
        threshold: 1,
    };
    let adversary = EqualSizeAdversary::new(96, 8).with_transcript();
    let run = ErMergeSort::new().sort_with_backend(&adversary, backend);
    let transcript = adversary.transcript();
    assert!(
        transcript.consistent_with(&adversary.partition()),
        "inconsistent answer on the pool"
    );
    assert!(
        transcript.certifies(96, &run.partition),
        "on the pool, the transcript does not certify the output"
    );
    assert!(adversary.comparisons() >= adversary.paper_lower_bound());
}

#[test]
fn improved_bounds_dominate_the_previous_bounds_on_measured_runs() {
    // The paper's improvement is visible in the measurements: forced
    // comparisons exceed the old n²/(64f²) bound by about a factor f.
    for &(n, f) in &[(128usize, 8usize), (192, 8), (240, 12)] {
        let adversary = EqualSizeAdversary::new(n, f);
        let _ = RepresentativeScan::new().sort(&adversary);
        assert!(
            adversary.comparisons() >= adversary.previous_lower_bound() * (f as u64 / 2),
            "n={n}, f={f}: forced {} vs old bound {}",
            adversary.comparisons(),
            adversary.previous_lower_bound()
        );
    }
}
