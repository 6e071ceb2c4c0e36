//! Sequential vs. threaded round evaluation: wall-clock scaling of the
//! execution backend on large instances.
//!
//! Two workloads, both with `n >= 100_000` elements by default:
//!
//! * **balanced** — a single maximal ER round (a perfect matching of
//!   `n / 2` comparison pairs) on a balanced 8-class instance;
//! * **zeta** — the same round shape on a heavy-tailed zeta(2.5) instance,
//!   the paper's adversarial distribution regime.
//!
//! Each workload is evaluated under the sequential backend and 2-, 4- and
//! 8-thread work-stealing pools; answers are asserted bit-identical across
//! backends before timing starts. An algorithm-level group times the full
//! Theorem 1 compound-merge sort under each backend.
//!
//! Set `ECS_BENCH_SMOKE=1` to shrink the instances (used by CI to exercise
//! the harness on every push without paying the full measurement cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecs_bench::smoke;
use ecs_core::{CrCompoundMerge, EcsAlgorithm};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::{ComparisonSession, ExecutionBackend, Instance, InstanceOracle, ReadMode};
use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
use std::hint::black_box;

fn backends() -> Vec<ExecutionBackend> {
    vec![
        ExecutionBackend::Sequential,
        ExecutionBackend::threaded(2),
        ExecutionBackend::threaded(4),
        ExecutionBackend::threaded(8),
    ]
}

/// A maximal ER round: the perfect matching (0,1), (2,3), ...
fn matching_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect()
}

fn bench_round_evaluation(
    c: &mut Criterion,
    group_name: &str,
    instance: &Instance,
    pairs: &[(usize, usize)],
) {
    // Concurrent-read mode so the timed path is the backend's evaluation
    // alone: exclusive-read validation (a stamp per endpoint) is the
    // session's work, not the backend's (the pairs are a matching either
    // way).
    let oracle = InstanceOracle::new(instance);
    let reference = {
        let mut session = ComparisonSession::with_backend(
            &oracle,
            ReadMode::Concurrent,
            ExecutionBackend::Sequential,
        );
        session.execute_round(pairs)
    };

    let mut group = c.benchmark_group(group_name);
    group.sample_size(if smoke() { 3 } else { 10 });
    for backend in backends() {
        // Determinism gate: every backend must reproduce the sequential
        // answers bit-for-bit before its timing is worth reporting.
        let mut check = ComparisonSession::with_backend(&oracle, ReadMode::Concurrent, backend);
        assert_eq!(
            check.execute_round(pairs),
            reference,
            "{} diverged from sequential answers",
            backend.label()
        );

        group.bench_with_input(
            BenchmarkId::new("execute_round", backend.label()),
            pairs,
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

fn balanced_round(c: &mut Criterion) {
    let n = if smoke() { 20_000 } else { 200_000 };
    let mut rng = Xoshiro256StarStar::seed_from_u64(2016);
    let instance = Instance::balanced(n, 8, &mut rng);
    let pairs = matching_pairs(n);
    bench_round_evaluation(c, &format!("backend_balanced_n{n}"), &instance, &pairs);
}

fn zeta_round(c: &mut Criterion) {
    let n = if smoke() { 10_000 } else { 100_000 };
    let mut rng = Xoshiro256StarStar::seed_from_u64(2016);
    let instance = Instance::from_distribution(&AnyDistribution::zeta(2.5), n, &mut rng);
    let pairs = matching_pairs(n);
    bench_round_evaluation(c, &format!("backend_zeta_n{n}"), &instance, &pairs);
}

fn cr_compound_sort(c: &mut Criterion) {
    let n = if smoke() { 10_000 } else { 100_000 };
    let k = 8;
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let instance = Instance::balanced(n, k, &mut rng);
    let oracle = InstanceOracle::new(&instance);

    let mut group = c.benchmark_group(format!("backend_cr_compound_n{n}"));
    group.sample_size(if smoke() { 3 } else { 10 });
    for backend in backends() {
        group.bench_with_input(
            BenchmarkId::new("sort", backend.label()),
            &instance,
            |b, instance| {
                b.iter(|| {
                    let run = CrCompoundMerge::new(k).sort_with_backend(&oracle, backend);
                    debug_assert!(instance.verify(&run.partition));
                    black_box(run.metrics.comparisons())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, balanced_round, zeta_round, cr_compound_sort);
criterion_main!(benches);
