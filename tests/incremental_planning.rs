//! Property: the incremental plan cache is observationally invisible.
//!
//! The round-commit planner (`ecs_adversary::round_commit`) keeps a
//! persistent plan cache across rounds, invalidated by per-element commit
//! epochs and replayed lazily in canonical order. Because settled adversary
//! answers are *eternal*, a cache hit and a fresh replay return the same
//! bit — so every observable of an adversarial run (committed partition,
//! forced comparison count, full answer transcript, and session [`Metrics`])
//! must be identical between the default incremental planner and the
//! `with_full_replan` baseline, for all six algorithms, on every backend,
//! against both adversaries. Only the [`PlanStats`] replay-count witness may
//! differ, and on repeat-heavy query sequences it must *drop*: repeats stop
//! replaying once their entries survive a commit.

use parallel_ecs::prelude::*;
use proptest::prelude::*;

/// The backends both plan modes must agree across. `threshold: 1` forces
/// even test-sized rounds through the work-stealing pool; `threshold: 64`
/// mixes inline and pooled rounds within one run.
fn backends() -> [ExecutionBackend; 4] {
    [
        ExecutionBackend::Sequential,
        ExecutionBackend::Threaded {
            threads: 2,
            threshold: 1,
        },
        ExecutionBackend::batched(64),
        ExecutionBackend::Threaded {
            threads: 2,
            threshold: 64,
        },
    ]
}

/// Everything one adversarial run observes, plus the planner's witness.
#[derive(Debug)]
struct Observation {
    partition: Partition,
    forced_comparisons: u64,
    transcript: Vec<(usize, usize, bool)>,
    metrics: Metrics,
    plan_stats: PlanStats,
}

fn observe<A, O, M>(alg: &A, make: &M, backend: ExecutionBackend) -> Observation
where
    A: EcsAlgorithm,
    O: PlannedAdversary,
    M: Fn() -> O,
{
    let adversary = make();
    let run = alg.sort_with_backend(&adversary, backend);
    assert_eq!(
        run.partition,
        adversary.partition(),
        "{} did not output the committed partition",
        alg.name()
    );
    Observation {
        partition: run.partition,
        forced_comparisons: adversary.comparisons(),
        transcript: adversary.transcript_entries(),
        metrics: run.metrics,
        plan_stats: adversary.plan_stats(),
    }
}

/// The adversary surface this test needs beyond [`LowerBoundAdversary`]:
/// both concrete adversaries expose the planner controls and transcripts,
/// but the shared trait deliberately does not.
trait PlannedAdversary: LowerBoundAdversary {
    fn with_full_replan(self) -> Self;
    fn plan_stats(&self) -> PlanStats;
    fn transcript_entries(&self) -> Vec<(usize, usize, bool)>;
}

impl PlannedAdversary for EqualSizeAdversary {
    fn with_full_replan(self) -> Self {
        EqualSizeAdversary::with_full_replan(self)
    }
    fn plan_stats(&self) -> PlanStats {
        EqualSizeAdversary::plan_stats(self)
    }
    fn transcript_entries(&self) -> Vec<(usize, usize, bool)> {
        self.transcript().iter().collect()
    }
}

impl PlannedAdversary for SmallestClassAdversary {
    fn with_full_replan(self) -> Self {
        SmallestClassAdversary::with_full_replan(self)
    }
    fn plan_stats(&self) -> PlanStats {
        SmallestClassAdversary::plan_stats(self)
    }
    fn transcript_entries(&self) -> Vec<(usize, usize, bool)> {
        self.transcript().iter().collect()
    }
}

/// Runs one algorithm in both plan modes on every backend and asserts the
/// incremental planner is invisible in everything but the witness.
fn assert_plan_modes_agree<A, O, M>(alg: &A, make: &M, label: &str)
where
    A: EcsAlgorithm,
    O: PlannedAdversary,
    M: Fn() -> O,
{
    for backend in backends() {
        let incremental = observe(alg, make, backend);
        let full = observe(alg, &|| make().with_full_replan(), backend);
        let context = format!("{label}: {} on {}", alg.name(), backend.label());
        assert_eq!(
            incremental.partition, full.partition,
            "{context}: partition"
        );
        assert_eq!(
            incremental.forced_comparisons, full.forced_comparisons,
            "{context}: forced comparisons"
        );
        // Transcripts record *serve* order. The work-stealing backend serves
        // a round's pairs in whatever interleaving its threads race to (two
        // full-replan runs differ the same way), so only the multiset is
        // comparable there; the deterministic backends must match exactly.
        if matches!(backend, ExecutionBackend::Threaded { .. }) {
            let mut a = incremental.transcript.clone();
            let mut b = full.transcript.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{context}: transcript (as a multiset)");
        } else {
            assert_eq!(
                incremental.transcript, full.transcript,
                "{context}: transcript"
            );
        }
        assert_eq!(incremental.metrics, full.metrics, "{context}: metrics");
        // The full-replan baseline plans every noted pair of every round; the
        // incremental planner can only ever do less.
        assert!(
            incremental.plan_stats.replayed <= full.plan_stats.replayed,
            "{context}: incremental replayed more than the baseline ({:?} vs {:?})",
            incremental.plan_stats,
            full.plan_stats
        );
        assert_eq!(
            full.plan_stats.cached, 0,
            "{context}: the baseline must never report cache reuse"
        );
    }
}

fn assert_all_algorithms_agree<O, M>(make: &M, k: usize, seed: u64, label: &str)
where
    O: PlannedAdversary,
    M: Fn() -> O,
{
    assert_plan_modes_agree(&NaiveAllPairs::new(), make, label);
    assert_plan_modes_agree(&RoundRobin::new(), make, label);
    assert_plan_modes_agree(&RepresentativeScan::new(), make, label);
    assert_plan_modes_agree(&ErMergeSort::new(), make, label);
    assert_plan_modes_agree(&ErConstantRound::adaptive(seed), make, label);
    assert_plan_modes_agree(&CrCompoundMerge::new(k), make, label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn equal_size_plan_modes_agree(
        f_choice in 0usize..3,
        classes in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let f = [2usize, 4, 8][f_choice];
        let n = f * classes;
        let make = move || EqualSizeAdversary::new(n, f).with_transcript();
        assert_all_algorithms_agree(&make, classes, seed, &format!("equal-size n={n} f={f}"));
    }

    #[test]
    fn smallest_class_plan_modes_agree(
        ell in 1usize..4,
        big_groups in 2usize..5,
        extra in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let n = ell + big_groups * (ell + 1) + extra;
        let k = 1 + ((n - ell) / (ell + 1)).max(1);
        let make = move || SmallestClassAdversary::new(n, ell).with_transcript();
        assert_all_algorithms_agree(&make, k, seed, &format!("smallest-class n={n} ell={ell}"));
    }
}

/// The witness on a repeat-heavy sequence: serving the *same* round
/// repeatedly replays it at most twice (once to plan, once to revalidate
/// entries whose endpoints the fresh facts dirtied), then never again —
/// while the full-replan twin replays every round from scratch. Driven
/// through a [`ComparisonSession`] so the round structure is explicit.
#[test]
fn repeated_rounds_stop_replaying() {
    let n = 24;
    let pairs: Vec<(usize, usize)> = (1..n).map(|b| (0, b)).chain([(3, 7), (9, 15)]).collect();
    let run = |full_replan: bool| {
        let adversary = SmallestClassAdversary::new(n, 2);
        let adversary = if full_replan {
            adversary.with_full_replan()
        } else {
            adversary
        };
        let mut session = ComparisonSession::with_processors_and_backend(
            &adversary,
            ReadMode::Concurrent,
            n,
            ExecutionBackend::Sequential,
        );
        let mut answers = Vec::new();
        let mut replayed_per_round = Vec::new();
        let mut before = adversary.plan_stats();
        for _ in 0..4 {
            answers.push(session.execute_round(&pairs));
            let after = adversary.plan_stats();
            replayed_per_round.push(after.since(&before).replayed);
            before = after;
        }
        (answers, replayed_per_round)
    };

    let (answers, replays) = run(false);
    let (baseline_answers, baseline_replays) = run(true);
    assert_eq!(answers, baseline_answers, "plan modes diverged");
    assert_eq!(
        baseline_replays,
        vec![pairs.len() as u64; 4],
        "the baseline replays every round in full"
    );
    assert_eq!(
        replays[0],
        pairs.len() as u64,
        "round 1 plans every pair fresh"
    );
    assert_eq!(
        &replays[2..],
        &[0, 0],
        "from round 3 on, the repeated round is served entirely from cache: {replays:?}"
    );
    assert!(
        replays.iter().sum::<u64>() < baseline_replays.iter().sum::<u64>(),
        "the incremental planner must replay strictly less overall"
    );
}
