//! Self-tuning vs. best-fixed execution: does `ExecutionBackend::auto` earn
//! its keep?
//!
//! Three groups on a large balanced instance:
//!
//! * **round** — one maximal ER round (a perfect matching of `n / 2` pairs)
//!   under `auto`, the sequential backend, and fixed threaded pools. Every
//!   contender is gated on bit-identical answers before timing starts.
//! * **sort** — the full Theorem 1 compound-merge sort under `auto` vs. the
//!   fixed backends, the end-to-end view of the same question.
//! * **probe** — the calibration micro-probe itself (uncached path cost is
//!   amortized by a process-wide `OnceLock`; this times the cached read),
//!   plus building an `auto` backend — the per-job cost `auto` pays on top
//!   of the backend it lowers to.
//!
//! `auto` lowers to a fixed backend, so its label can equal a fixed
//! contender's (`threaded(2)` on two cores); it runs under its own id.
//!
//! Set `ECS_BENCH_SMOKE=1` to shrink the instances (used by CI to exercise
//! the harness on every push without paying the full measurement cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecs_bench::smoke;
use ecs_core::{CrCompoundMerge, EcsAlgorithm};
use ecs_model::{
    CalibrationProbe, ComparisonSession, ExecutionBackend, Instance, InstanceOracle, ReadMode,
};
use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
use std::hint::black_box;

/// `auto` and the fixed backends it chooses between, by benchmark id.
fn contenders() -> Vec<(String, ExecutionBackend)> {
    [
        ExecutionBackend::Sequential,
        ExecutionBackend::threaded(2),
        ExecutionBackend::threaded(4),
    ]
    .into_iter()
    .map(|backend| (backend.label(), backend))
    .chain([("auto".to_string(), ExecutionBackend::auto())])
    .collect()
}

/// A maximal ER round: the perfect matching (0,1), (2,3), ...
fn matching_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect()
}

fn auto_round(c: &mut Criterion) {
    let n = if smoke() { 20_000 } else { 200_000 };
    let mut rng = Xoshiro256StarStar::seed_from_u64(2016);
    let instance = Instance::balanced(n, 8, &mut rng);
    let oracle = InstanceOracle::new(&instance);
    let pairs = matching_pairs(n);

    let reference = {
        let mut session = ComparisonSession::with_backend(
            &oracle,
            ReadMode::Concurrent,
            ExecutionBackend::Sequential,
        );
        session.execute_round(&pairs)
    };

    let mut group = c.benchmark_group(format!("calibration_round_n{n}"));
    group.sample_size(if smoke() { 3 } else { 10 });
    for (name, backend) in contenders() {
        let mut check = ComparisonSession::with_backend(&oracle, ReadMode::Concurrent, backend);
        assert_eq!(
            check.execute_round(&pairs),
            reference,
            "{name} diverged from sequential answers"
        );
        group.bench_with_input(
            BenchmarkId::new("execute_round", name),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    let mut session =
                        ComparisonSession::with_backend(&oracle, ReadMode::Concurrent, backend);
                    black_box(session.execute_round(pairs).len())
                });
            },
        );
    }
    group.finish();
}

fn auto_sort(c: &mut Criterion) {
    let n = if smoke() { 10_000 } else { 100_000 };
    let k = 8;
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let instance = Instance::balanced(n, k, &mut rng);
    let oracle = InstanceOracle::new(&instance);

    let mut group = c.benchmark_group(format!("calibration_sort_n{n}"));
    group.sample_size(if smoke() { 3 } else { 10 });
    for (name, backend) in contenders() {
        group.bench_with_input(BenchmarkId::new("sort", name), &instance, |b, instance| {
            b.iter(|| {
                let run = CrCompoundMerge::new(k).sort_with_backend(&oracle, backend);
                debug_assert!(instance.verify(&run.partition));
                black_box(run.metrics.comparisons())
            });
        });
    }
    group.finish();
}

fn calibration_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration_overhead");
    group.sample_size(if smoke() { 3 } else { 10 });
    group.bench_function("probe_cached", |b| {
        b.iter(|| black_box(CalibrationProbe::measure().pair_ns));
    });
    group.bench_function("auto_per_job", |b| {
        b.iter(|| black_box(ExecutionBackend::auto().worker_decision().threads));
    });
    group.finish();
}

criterion_group!(benches, auto_round, auto_sort, calibration_overhead);
criterion_main!(benches);
