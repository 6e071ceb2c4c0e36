//! Measures adversarial lower-bound rounds under the round-commit protocol:
//! sequential vs pooled evaluation of the same run, plus the whole
//! Theorem 5 grid drained serially vs through the throughput pool.
//!
//! Every group first asserts bit-identity (forced comparisons and committed
//! partition) across the configurations it times, so a regression in the
//! protocol's determinism fails the bench before any number is reported.
//! Set `ECS_BENCH_SMOKE=1` to shrink the workload (used by CI on every
//! push).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecs_adversary::{
    EqualSizeAdversary, LegacyAdversary, SmallestClassAdversary, SmallestClassSearch,
};
use ecs_bench::runners::{theorem5_table, AdversaryAlgorithm};
use ecs_bench::smoke;
use ecs_core::{EcsAlgorithm, ErMergeSort};
use ecs_model::{ExecutionBackend, ThroughputPool};
use std::hint::black_box;

/// The backends one adversarial run is timed on. The threaded backend uses
/// `threshold: 1` so even test-sized rounds cross the pool.
fn backends() -> [ExecutionBackend; 2] {
    [
        ExecutionBackend::Sequential,
        ExecutionBackend::Threaded {
            threads: 2,
            threshold: 1,
        },
    ]
}

/// One full ER merge sort against the Theorem 5 adversary on `backend`.
fn forced_run(n: usize, f: usize, backend: ExecutionBackend) -> (u64, ecs_model::Partition) {
    let adversary = EqualSizeAdversary::new(n, f);
    let run = ErMergeSort::new().sort_with_backend(&adversary, backend);
    assert_eq!(run.partition, adversary.partition());
    (adversary.comparisons(), run.partition)
}

fn round_protocol(c: &mut Criterion) {
    let (n, f) = if smoke() { (128, 8) } else { (512, 16) };

    // Determinism gate: identical forced counts and partitions everywhere.
    // backends()[0] is Sequential — the reference itself — so skip it.
    let reference = forced_run(n, f, ExecutionBackend::Sequential);
    for backend in backends().into_iter().skip(1) {
        assert_eq!(
            forced_run(n, f, backend),
            reference,
            "adversarial run diverged on {}",
            backend.label()
        );
    }

    let mut group = c.benchmark_group("adversary_round_protocol");
    group.sample_size(if smoke() { 3 } else { 10 });
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(if smoke() { 1 } else { 2 }));
    for backend in backends() {
        group.bench_with_input(
            BenchmarkId::new("er_merge_vs_equal_size", backend.label()),
            &backend,
            |b, &backend| {
                b.iter(|| black_box(forced_run(n, f, backend).0));
            },
        );
    }
    group.finish();
}

/// Packed bitset substrate vs the retained pointer substrate: the same ER
/// merge sort forced through the Theorem 5 adversary on both
/// representations, gated on bit-identical histories before timing.
fn substrates(c: &mut Criterion) {
    let (n, f) = if smoke() { (128, 8) } else { (512, 16) };

    // Identity gate: the pointer reference must be driven through the exact
    // same history (forced count and committed partition) as the packed
    // production core.
    let packed_reference = {
        let adversary = EqualSizeAdversary::new(n, f);
        let run = ErMergeSort::new().sort(&adversary);
        assert_eq!(run.partition, adversary.partition());
        (adversary.comparisons(), adversary.partition())
    };
    let legacy_reference = {
        let adversary = LegacyAdversary::equal_size(n, f);
        let run = ErMergeSort::new().sort(&adversary);
        assert_eq!(run.partition, adversary.partition());
        (adversary.comparisons(), adversary.partition())
    };
    assert_eq!(
        packed_reference, legacy_reference,
        "packed and pointer substrates diverged at n={n}, f={f}"
    );

    let mut group = c.benchmark_group("adversary_substrates");
    group.sample_size(if smoke() { 3 } else { 10 });
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(if smoke() { 1 } else { 2 }));
    group.bench_with_input(BenchmarkId::new("er_merge", "packed"), &(), |b, _| {
        b.iter(|| {
            let adversary = EqualSizeAdversary::new(n, f);
            let _ = ErMergeSort::new().sort(&adversary);
            black_box(adversary.comparisons())
        });
    });
    group.bench_with_input(BenchmarkId::new("er_merge", "pointer"), &(), |b, _| {
        b.iter(|| {
            let adversary = LegacyAdversary::equal_size(n, f);
            let _ = ErMergeSort::new().sort(&adversary);
            black_box(adversary.comparisons())
        });
    });
    group.finish();
}

fn grid_throughput(c: &mut Criterion) {
    let grid: Vec<(usize, usize)> = if smoke() {
        vec![(128, 4), (128, 8)]
    } else {
        vec![(256, 4), (256, 8), (512, 16)]
    };
    let algorithms = AdversaryAlgorithm::all();
    let pools = [
        ThroughputPool::from_jobs(1),
        ThroughputPool::from_jobs(2),
        ThroughputPool::from_jobs(4),
    ];

    // Determinism gate: the rendered table is byte-identical for every pool
    // (pools[0] is the serial reference itself, so it is not re-run).
    let reference =
        theorem5_table(&grid, &algorithms, &pools[0], ExecutionBackend::Sequential).to_markdown();
    for pool in &pools[1..] {
        assert_eq!(
            theorem5_table(&grid, &algorithms, pool, ExecutionBackend::Sequential).to_markdown(),
            reference,
            "lower-bound grid diverged under pool {}",
            pool.label()
        );
    }

    let mut group = c.benchmark_group("adversary_grid_throughput");
    group.sample_size(if smoke() { 3 } else { 10 });
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(if smoke() { 1 } else { 3 }));
    for pool in pools {
        group.bench_with_input(
            BenchmarkId::new("theorem5_grid", pool.label()),
            &pool,
            |b, pool| {
                b.iter(|| {
                    let table =
                        theorem5_table(&grid, &algorithms, pool, ExecutionBackend::Sequential);
                    black_box(table.num_rows())
                });
            },
        );
    }
    group.finish();
}

/// Incremental plan cache vs the full-replan baseline on the repeat-heavy
/// Theorem 6 adaptive-search workload (audit mode re-asks every earlier
/// block's intra-block pairs each phase), gated on bit-identical histories —
/// partition, forced comparisons, and session metrics — before timing.
fn incremental_planning(c: &mut Criterion) {
    let (n, ell, wave) = if smoke() { (96, 4, 16) } else { (384, 8, 32) };

    let run = |full_replan: bool| {
        let adversary = SmallestClassAdversary::new(n, ell);
        let adversary = if full_replan {
            adversary.with_full_replan()
        } else {
            adversary
        };
        let report = SmallestClassSearch::new(wave)
            .with_audit()
            .run(&adversary, ExecutionBackend::Sequential);
        assert_eq!(report.partition, adversary.partition());
        (
            report.partition,
            adversary.comparisons(),
            report.metrics,
            adversary.plan_stats(),
        )
    };

    // Bit-identity gate: the two plan modes must produce the same history;
    // only the replay-count witness may differ — and the incremental planner
    // must actually replay fewer entries on this repeat-heavy workload.
    let incremental = run(false);
    let full = run(true);
    assert_eq!(
        (&incremental.0, incremental.1, &incremental.2),
        (&full.0, full.1, &full.2),
        "plan modes diverged at n={n}, ell={ell}, wave={wave}"
    );
    assert!(
        incremental.3.replayed < full.3.replayed,
        "incremental planning did not reduce replays: {:?} vs {:?}",
        incremental.3,
        full.3
    );

    let mut group = c.benchmark_group("incremental_planning");
    group.sample_size(if smoke() { 3 } else { 10 });
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(if smoke() { 1 } else { 2 }));
    group.bench_with_input(BenchmarkId::new("search_audit", "cached"), &(), |b, _| {
        b.iter(|| black_box(run(false).1));
    });
    group.bench_with_input(
        BenchmarkId::new("search_audit", "full_replan"),
        &(),
        |b, _| {
            b.iter(|| black_box(run(true).1));
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    round_protocol,
    substrates,
    grid_throughput,
    incremental_planning
);
criterion_main!(benches);
