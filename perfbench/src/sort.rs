//! `sort-large`: large sorts through `run_job` on a `ThroughputPool`, in
//! process, no socket.
//!
//! Load model: slates of 27 jobs (n = 2000, five distributions × six
//! algorithms, except `er-constant` on the three skewed distributions, fresh
//! seeds per slate), each slate run as one batch on a pool of `nproc`
//! workers — how `--jobs` runs reproductions. Jobs use the default `auto`
//! backend.

use crate::jobs::{
    build_instance, calibrate_preview_us, report_sort_layers, run_traced, sort_slate, Fingerprint,
    TracedJob,
};
use crate::report::Report;
use crate::stats::{blocked, mean, ratio, Block};
use crate::{adversary, child_setup_seconds, Config, WARM_UP};
use ecs_model::backend::available_parallelism;
use ecs_model::batching::DEFAULT_LINGER;
use ecs_model::throughput::Job;
use ecs_model::ThroughputPool;
use ecs_service::protocol::run_job;
use std::time::{Duration, Instant};

/// Slates every run completes whatever the deadline. The count metrics
/// are taken over exactly these slates, and the traced pass replays them.
const FIXED_SLATES: u64 = 20;

/// Slates per measurement block (see [`blocked`]).
const BLOCK_SLATES: usize = 10;

/// The pool the workload runs on: one worker per available core.
fn pool() -> ThroughputPool {
    ThroughputPool::from_jobs(available_parallelism())
}

/// Set-up, as measured in a fresh process: build the pool and run one
/// warm-up job on each worker (which also takes the calibration probe).
pub fn set_up() {
    let pool = pool();
    let warm = sort_slate(0, u64::MAX);
    let jobs: Vec<Job<'_, u64>> = warm
        .iter()
        .filter(|spec| spec.algo == ecs_service::AlgoSpec::ErMerge)
        .cycle()
        .take(pool.workers())
        .map(|spec| {
            Box::new(move || run_job(spec, DEFAULT_LINGER, None).metrics.comparisons())
                as Job<'_, u64>
        })
        .collect();
    std::hint::black_box(pool.run(jobs));
}

/// One slate's untraced results: per-job fingerprint and `run_job` time.
struct SlateRun {
    results: Vec<(Fingerprint, f64)>,
    wall: f64,
}

/// Runs one slate untraced and verifies every partition against its
/// instance (outside the timed window).
fn run_slate(pool: &ThroughputPool, seed: u64, slate: u64, report: &mut Report) -> SlateRun {
    let specs = sort_slate(seed, slate);
    let jobs: Vec<Job<'_, _>> = specs
        .iter()
        .map(|spec| {
            Box::new(move || {
                let started = Instant::now();
                let run = run_job(spec, DEFAULT_LINGER, None);
                (run, started.elapsed().as_secs_f64())
            }) as Job<'_, _>
        })
        .collect();
    let started = Instant::now();
    let runs: Vec<(ecs_core::EcsRun, f64)> = pool.run(jobs);
    let wall = started.elapsed().as_secs_f64();
    report.attempted += runs.len() as u64;
    let results = specs
        .iter()
        .zip(runs)
        .map(|(spec, (run, seconds))| {
            if !build_instance(spec).verify(&run.partition) {
                report.fail(format!("{}: wrong partition", spec.id));
            }
            (Fingerprint::of(&run), seconds)
        })
        .collect();
    SlateRun { results, wall }
}

/// Runs `sort-large`.
pub fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    report.set("setup_s", child_setup_seconds("sort-large")?);
    let pool = pool();
    let warm_until = Instant::now() + WARM_UP;
    for slate in 0.. {
        if Instant::now() >= warm_until {
            break;
        }
        run_slate(&pool, config.seed, u64::MAX - slate, report);
    }

    let mut slates = Vec::new();
    let mut wall = 0.0;
    while slates.len() < FIXED_SLATES as usize || wall < config.seconds.as_secs_f64() {
        let slate = run_slate(&pool, config.seed, slates.len() as u64, report);
        wall += slate.wall;
        slates.push(slate);
    }
    let latencies: Vec<f64> = slates
        .iter()
        .flat_map(|s| s.results.iter().map(|r| r.1 * 1e3))
        .collect();
    let fixed: Vec<Fingerprint> = slates[..FIXED_SLATES as usize]
        .iter()
        .flat_map(|s| s.results.iter().map(|r| r.0))
        .collect();
    let blocks: Vec<Block> = slates
        .chunks_exact(BLOCK_SLATES)
        .map(|block| {
            let jobs = block
                .iter()
                .flat_map(|s| s.results.iter().map(|r| r.1 * 1e3))
                .collect();
            (jobs, block.iter().map(|s| s.wall).sum())
        })
        .collect();
    let summary = blocked(&blocks);
    report.set("jobs_per_s", summary.jobs_per_s);
    report.set("latency_p50_ms", summary.p50);
    report.set("latency_p99_ms", summary.p99);
    println!(
        "latency samples: {} in {} blocks of {BLOCK_SLATES} slates",
        latencies.len(),
        blocks.len()
    );
    let untraced_jps = ratio(latencies.len() as f64, wall);
    let counts =
        |f: fn(&Fingerprint) -> u64| -> Vec<f64> { fixed.iter().map(|r| f(r) as f64).collect() };
    report.set("comparisons_per_job", mean(&counts(|r| r.comparisons)));
    report.set("rounds_per_job", mean(&counts(|r| r.rounds)));
    if !config.traced {
        return Ok(());
    }

    let busy: f64 = latencies.iter().sum::<f64>() / 1e3;
    report.set("pool.busy_share", ratio(busy, pool.workers() as f64 * wall));

    // The traced pass: the fixed slates again, through the timing oracle.
    let mut traced: Vec<TracedJob> = Vec::with_capacity(fixed.len());
    let mut traced_wall = Duration::ZERO;
    for slate in 0..FIXED_SLATES {
        let specs = sort_slate(config.seed, slate);
        let jobs: Vec<Job<'_, TracedJob>> = specs
            .iter()
            .map(|spec| Box::new(move || run_traced(spec)) as Job<'_, TracedJob>)
            .collect();
        let started = Instant::now();
        traced.extend(pool.run(jobs));
        traced_wall += started.elapsed();
    }
    report.attempted += traced.len() as u64;
    for (job, (expected, spec)) in traced.iter().zip(
        fixed
            .iter()
            .zip((0..FIXED_SLATES).flat_map(|s| sort_slate(config.seed, s))),
    ) {
        if job.result != *expected {
            report.fail(format!("{}: the traced run changed the result", spec.id));
        }
    }
    report_sort_layers(&traced, report);
    report.set("calibrate.preview_us", calibrate_preview_us());
    let traced_jps = ratio(traced.len() as f64, traced_wall.as_secs_f64());
    report.set(
        "trace.overhead_share",
        1.0 - ratio(traced_jps, untraced_jps),
    );
    adversary::report_layers(&pool, config.seed, report);
    Ok(())
}
