//! Serial-trials vs pooled-trials throughput on the full Figure 5 grid.
//!
//! An execution backend accelerates one session's large rounds; this bench
//! measures the opposite regime — the Figure 5 grid's hundreds of *small*
//! independent trials, where the win comes from running many sessions
//! concurrently:
//!
//! * **serial** — the reference serial loop (`ThroughputPool` with one
//!   worker): every `(distribution, size, trial)` job in order on the caller;
//! * **pooled(2/4/8)** — the throughput pool: the whole grid submitted up
//!   front to one shared FIFO pool with round-robin fairness across
//!   distributions.
//!
//! Every mode is asserted bit-identical to the serial reference before any
//! timing starts. Set `ECS_BENCH_SMOKE=1` to shrink the grid (used by CI to
//! exercise the harness on every push without paying the measurement cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecs_analysis::{figure5_grid, Figure5Config, Figure5Series};
use ecs_bench::{paper, smoke};
use ecs_model::ThroughputPool;
use std::hint::black_box;

/// The full Figure 5 grid: every distribution of every panel. `scale`
/// divides the paper's sizes so the bench finishes in sensible time; sizes
/// clamped to the same value by `scaled_down`'s n >= 100 floor are deduped
/// (under aggressive smoke scaling the zeta panels would otherwise repeat
/// one n = 100 point twenty times).
fn grid(scale: usize, trials: usize, seed: u64) -> Vec<Figure5Config> {
    paper::panel_names()
        .into_iter()
        .flat_map(|panel| paper::figure5_configs(panel, scale, trials, seed))
        .map(|mut config| {
            config.sizes.dedup();
            config
        })
        .collect()
}

/// Flattened per-trial measurements, for bit-identity assertions.
fn measurements(series: &[Figure5Series]) -> Vec<u64> {
    series
        .iter()
        .flat_map(|s| s.points.iter().flat_map(|p| p.comparisons.clone()))
        .collect()
}

fn throughput_grid(c: &mut Criterion) {
    let (scale, trials) = if smoke() { (200, 2) } else { (20, 3) };
    let configs = grid(scale, trials, 2016);
    let total_jobs: usize = configs.iter().map(|c| c.sizes.len() * c.trials).sum();

    let serial_pool = ThroughputPool::from_jobs(1);
    let reference = measurements(&figure5_grid(&configs, &serial_pool));

    // Determinism gates: every timed mode must reproduce the serial
    // measurements bit-for-bit.
    for workers in [2, 4, 8] {
        let pool = ThroughputPool::from_jobs(workers);
        assert_eq!(
            measurements(&figure5_grid(&configs, &pool)),
            reference,
            "{} diverged from the serial trial loop",
            pool.label()
        );
    }

    let mut group = c.benchmark_group(format!("throughput_figure5_grid_{total_jobs}_jobs"));
    group.sample_size(if smoke() { 3 } else { 10 });

    group.bench_with_input(
        BenchmarkId::new("trials", "serial"),
        &configs,
        |b, configs| {
            b.iter(|| black_box(measurements(&figure5_grid(configs, &serial_pool)).len()));
        },
    );

    for workers in [2, 4, 8] {
        let pool = ThroughputPool::from_jobs(workers);
        group.bench_with_input(
            BenchmarkId::new("trials", pool.label()),
            &configs,
            |b, configs| {
                b.iter(|| black_box(measurements(&figure5_grid(configs, &pool)).len()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, throughput_grid);
criterion_main!(benches);
