//! Whole sorts (L2): every algorithm on every `sort-large` distribution.
//!
//! Each of the six algorithms sorts an n = 2000 instance drawn from each of
//! the five distributions of the `sort-large` benchmark slates (uniform:5,
//! geometric:0.3, poisson:4, zeta:2.5, balanced:7), through the same
//! [`AlgoSpec::sort`] dispatch the service's `run_job` uses. As in those
//! slates, `er-constant` is left out on the three skewed distributions,
//! where its λ-halving restarts cost millions of comparisons.
//!
//! Before anything is timed, every run is gated on a correct partition
//! ([`Instance::verify`]) and on the same partition, [`ecs_model::Metrics`]
//! and round trace on `Sequential` as on a pooled (`Threaded { threads: 2,
//! threshold: 1 }`) and a whole-round batched (`batched(0)`) backend: the
//! timings are only comparable if every backend asks for, and is charged,
//! the same work. The timed runs use `Sequential`, which is what the slates'
//! `auto` evaluates on.
//!
//! Set `ECS_BENCH_SMOKE=1` to shrink the instances to n = 300 (used by CI to
//! exercise the harness and the gates on every push).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecs_bench::smoke;
use ecs_model::{ExecutionBackend, InstanceOracle};
use ecs_service::{AlgoSpec, DistSpec};
use std::hint::black_box;

/// The five distributions of the `sort-large` slates.
const DISTS: [DistSpec; 5] = [
    DistSpec::Uniform(5),
    DistSpec::Geometric(0.3),
    DistSpec::Poisson(4.0),
    DistSpec::Zeta(2.5),
    DistSpec::Balanced(7),
];

/// The backends every timed run is gated against: every round on the pool,
/// and every round as one `same_batch` wave.
const GATED: [ExecutionBackend; 2] = [
    ExecutionBackend::Threaded {
        threads: 2,
        threshold: 1,
    },
    ExecutionBackend::Batched { wave: 0 },
];

fn sort_engines(c: &mut Criterion) {
    let n = if smoke() { 300 } else { 2000 };
    let mut group = c.benchmark_group(format!("sort_engines_n{n}"));
    group.sample_size(if smoke() { 3 } else { 10 });
    for (d, dist) in DISTS.into_iter().enumerate() {
        let seed = 2016 + d as u64;
        let instance = dist.instance(n, seed);
        let k = instance.ground_truth().num_classes().max(1);
        let oracle = InstanceOracle::new(&instance);
        let skewed = matches!(
            dist,
            DistSpec::Geometric(_) | DistSpec::Poisson(_) | DistSpec::Zeta(_)
        );
        for algo in AlgoSpec::ALL {
            if skewed && algo == AlgoSpec::ErConstant {
                continue;
            }
            let sequential = algo.sort(seed, k, &oracle, ExecutionBackend::Sequential);
            assert!(
                instance.verify(&sequential.partition),
                "{algo} on {dist}: wrong partition"
            );
            for backend in GATED {
                let run = algo.sort(seed, k, &oracle, backend);
                let label = backend.label();
                assert_eq!(
                    run.partition, sequential.partition,
                    "{algo} on {dist}: {label}"
                );
                assert_eq!(run.metrics, sequential.metrics, "{algo} on {dist}: {label}");
                assert_eq!(
                    run.metrics.round_sizes(),
                    sequential.metrics.round_sizes(),
                    "{algo} on {dist}: {label} round trace"
                );
            }
            group.bench_function(BenchmarkId::new(algo, dist), |b| {
                b.iter(|| {
                    let run = algo.sort(seed, k, &oracle, ExecutionBackend::Sequential);
                    black_box(run.metrics.comparisons())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, sort_engines);
criterion_main!(benches);
