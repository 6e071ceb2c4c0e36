//! Job slates, and the traced replica of `ecs_service::protocol::run_job`.
//!
//! Slates depend only on the benchmark seed and a job's coordinates, so a
//! daemon run, an in-process run and a traced replay build identical jobs.

use crate::report::{Report, CORE_ALGOS, DIST_NAMES};
use crate::stats::{median, ratio};
use crate::trace::{OracleTrace, TimingOracle};
use ecs_core::{
    CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
    RepresentativeScan, RoundRobin,
};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::{EquivalenceOracle, ExecutionBackend, Instance, InstanceOracle};
use ecs_rng::{SeedableEcsRng, StreamSplit, Xoshiro256StarStar};
use ecs_service::{AlgoSpec, BackendSpec, DistSpec, JobSpec};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The five job distributions, in the order of [`DIST_NAMES`].
pub const DISTS: [DistSpec; 5] = [
    DistSpec::Uniform(5),
    DistSpec::Geometric(0.3),
    DistSpec::Poisson(4.0),
    DistSpec::Zeta(2.5),
    DistSpec::Balanced(7),
];

/// Index of `dist` in [`DISTS`].
pub fn dist_index(dist: DistSpec) -> usize {
    DISTS
        .iter()
        .position(|d| *d == dist)
        .expect("jobs only use the five slate distributions")
}

/// Index of `algo` in [`AlgoSpec::ALL`] (and [`CORE_ALGOS`]).
pub fn algo_index(algo: AlgoSpec) -> usize {
    AlgoSpec::ALL
        .iter()
        .position(|a| *a == algo)
        .expect("every algorithm is in the roster")
}

/// Job `j` of service connection `conn`: the `ecs_load` rotation over six
/// algorithms × five distributions, at n = 48, on the daemon's default
/// backend. The seed depends on `(conn, j)` only, never on `id`.
pub fn service_spec(seed: u64, conn: usize, tenant: &str, id: String, j: usize) -> JobSpec {
    JobSpec {
        id,
        tenant: tenant.to_string(),
        weight: 1,
        dist: DISTS[(conn + 2 * j) % DISTS.len()],
        n: 48,
        seed: StreamSplit::new(seed).seed_for(&[0, conn as u64, j as u64]),
        algo: AlgoSpec::ALL[(conn + j) % AlgoSpec::ALL.len()],
        backend: BackendSpec::Auto,
    }
}

/// Slate `slate` of the large-sort workload: n = 2000, five distributions ×
/// six algorithms on the `auto` backend, except `er-constant` on the three
/// skewed distributions (27 jobs), each with a fresh seed.
pub fn sort_slate(seed: u64, slate: u64) -> Vec<JobSpec> {
    let split = StreamSplit::new(seed);
    let mut jobs = Vec::with_capacity(27);
    for dist in DISTS {
        let skewed = matches!(
            dist,
            DistSpec::Geometric(_) | DistSpec::Poisson(_) | DistSpec::Zeta(_)
        );
        for algo in AlgoSpec::ALL {
            if skewed && algo == AlgoSpec::ErConstant {
                continue;
            }
            let index = jobs.len() as u64;
            jobs.push(JobSpec {
                id: format!("s{slate}-{index}"),
                tenant: "bench".to_string(),
                weight: 1,
                dist,
                n: 2000,
                seed: split.seed_for(&[1, slate, index]),
                algo,
                backend: BackendSpec::Auto,
            });
        }
    }
    jobs
}

/// Builds a job's instance exactly as `run_job` does (same generator, same
/// draws), including the distribution's own construction.
pub fn build_instance(spec: &JobSpec) -> Instance {
    let mut rng = Xoshiro256StarStar::seed_from_u64(spec.seed);
    let n = spec.n.max(1);
    match spec.dist {
        DistSpec::Uniform(k) => {
            Instance::from_distribution(&AnyDistribution::uniform(k.max(1)), n, &mut rng)
        }
        DistSpec::Geometric(p) => {
            Instance::from_distribution(&AnyDistribution::geometric(p), n, &mut rng)
        }
        DistSpec::Poisson(lambda) => {
            Instance::from_distribution(&AnyDistribution::poisson(lambda), n, &mut rng)
        }
        DistSpec::Zeta(s) => Instance::from_distribution(&AnyDistribution::zeta(s), n, &mut rng),
        DistSpec::Balanced(k) => Instance::balanced(n, k.clamp(1, n), &mut rng),
    }
}

/// Sorts with the job's algorithm exactly as `run_job` does.
pub fn execute<O: EquivalenceOracle>(
    spec: &JobSpec,
    k: usize,
    oracle: &O,
    backend: ExecutionBackend,
) -> EcsRun {
    match spec.algo {
        AlgoSpec::Naive => NaiveAllPairs::new().sort_with_backend(oracle, backend),
        AlgoSpec::RoundRobin => RoundRobin::new().sort_with_backend(oracle, backend),
        AlgoSpec::RepresentativeScan => {
            RepresentativeScan::new().sort_with_backend(oracle, backend)
        }
        AlgoSpec::ErMerge => ErMergeSort::new().sort_with_backend(oracle, backend),
        AlgoSpec::ErConstant => {
            ErConstantRound::adaptive(spec.seed).sort_with_backend(oracle, backend)
        }
        AlgoSpec::CrCompound => CrCompoundMerge::new(k).sort_with_backend(oracle, backend),
    }
}

/// What a run charged and produced, in a form cheap to keep and compare:
/// equal fingerprints mean equal partitions, metrics and round traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Comparisons charged.
    pub comparisons: u64,
    /// Rounds charged.
    pub rounds: u64,
    digest: u64,
}

impl Fingerprint {
    /// Fingerprints a run.
    pub fn of(run: &EcsRun) -> Self {
        let mut hasher = DefaultHasher::new();
        run.partition.labels().hash(&mut hasher);
        run.metrics.max_round_size().hash(&mut hasher);
        run.metrics.histogram().nonzero_buckets().hash(&mut hasher);
        run.metrics.round_sizes().hash(&mut hasher);
        Self {
            comparisons: run.metrics.comparisons(),
            rounds: run.metrics.rounds(),
            digest: hasher.finish(),
        }
    }
}

/// One job of a traced run: its replica evaluated through a
/// [`TimingOracle`], with the calls into each layer timed.
#[derive(Debug, Clone)]
pub struct TracedJob {
    /// The job's distribution, as an index into [`DISTS`].
    pub dist: usize,
    /// The job's algorithm, as an index into [`AlgoSpec::ALL`].
    pub algo: usize,
    /// Elements sorted.
    pub n: usize,
    /// Time of the instance construction, in nanoseconds.
    pub build_ns: f64,
    /// Time of the `sort_with_backend` call, in nanoseconds.
    pub sort_ns: f64,
    /// What the sort produced.
    pub result: Fingerprint,
    /// What the oracle saw.
    pub trace: OracleTrace,
}

/// Evaluates `spec` like `run_job` does, timing the instance construction
/// and the sort, with the ground-truth oracle wrapped in a
/// [`TimingOracle`].
pub fn run_traced(spec: &JobSpec) -> TracedJob {
    let started = Instant::now();
    let instance = build_instance(spec);
    let build_ns = started.elapsed().as_nanos() as f64;
    let k = instance.ground_truth().num_classes().max(1);
    let oracle = InstanceOracle::new(&instance);
    let timing = TimingOracle::new(&oracle);
    let backend = match spec.backend {
        BackendSpec::Auto => ExecutionBackend::auto(),
        _ => ExecutionBackend::Sequential,
    };
    let started = Instant::now();
    let run = execute(spec, k, &timing, backend);
    let sort_ns = started.elapsed().as_nanos() as f64;
    TracedJob {
        dist: dist_index(spec.dist),
        algo: algo_index(spec.algo),
        n: spec.n,
        build_ns,
        sort_ns,
        result: Fingerprint::of(&run),
        trace: timing.trace(true),
    }
}

/// Reports the instance, core, round and oracle layers of a traced run
/// over ground-truth instances.
pub fn report_sort_layers(jobs: &[TracedJob], report: &mut Report) {
    for (d, name) in DIST_NAMES.iter().enumerate() {
        let builds: Vec<f64> = jobs
            .iter()
            .filter(|job| job.dist == d)
            .map(|job| job.build_ns / 1e3)
            .collect();
        report.set(format!("instance.build_us.{name}"), median(&builds));
    }
    for (a, name) in CORE_ALGOS.iter().enumerate() {
        let mine: Vec<&TracedJob> = jobs.iter().filter(|job| job.algo == a).collect();
        if mine.is_empty() {
            continue;
        }
        let count = mine.len() as f64;
        let sorts: Vec<f64> = mine.iter().map(|job| job.sort_ns / 1e6).collect();
        report.set(format!("core.sort_ms_p50.{name}"), median(&sorts));
        let comparisons: u64 = mine.iter().map(|job| job.result.comparisons).sum();
        report.set(
            format!("core.comparisons.{name}"),
            comparisons as f64 / count,
        );
        let rounds: u64 = mine.iter().map(|job| job.result.rounds).sum();
        report.set(format!("core.rounds.{name}"), rounds as f64 / count);
        let worst = mine
            .iter()
            .map(|job| {
                let all_pairs = (job.n * job.n.saturating_sub(1) / 2) as f64;
                ratio(job.result.comparisons as f64, all_pairs)
            })
            .fold(0.0, f64::max);
        report.set(format!("core.comparisons_over_allpairs_max.{name}"), worst);
    }
    let count = jobs.len().max(1) as f64;
    let sum = |f: fn(&TracedJob) -> f64| jobs.iter().map(f).sum::<f64>();
    let spans: Vec<f64> = jobs
        .iter()
        .flat_map(|job| job.trace.spans_ns.iter().map(|&ns| ns as f64))
        .collect();
    report.set("round.count", spans.len() as f64 / count);
    report.set("round.us_p50", median(&spans) / 1e3);
    report.set(
        "round.overhead_share",
        ratio(sum(|job| job.trace.outside_ns), spans.iter().sum()),
    );
    let calls = sum(|job| job.trace.calls as f64);
    report.set("oracle.calls", calls / count);
    report.set(
        "oracle.pairs_per_call",
        ratio(sum(|job| job.trace.pairs as f64), calls),
    );
    report.set(
        "oracle.busy_share",
        ratio(sum(|job| job.trace.oracle_ns()), sum(|job| job.sort_ns)),
    );
}

/// Median time of `ExecutionBackend::auto().worker_decision()`, the
/// calibration layer's per-job entry point, in microseconds.
pub fn calibrate_preview_us() -> f64 {
    let samples: Vec<f64> = (0..501)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(ExecutionBackend::auto().worker_decision());
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_service::protocol::{render_result, run_job};
    use std::time::Duration;

    #[test]
    fn the_service_rotation_covers_every_pairing_once_per_thirty_jobs() {
        for conn in 0..2 {
            let mut seen: Vec<(usize, usize)> = (0..30)
                .map(|j| {
                    let spec = service_spec(7, conn, "t", format!("j{j}"), j);
                    (dist_index(spec.dist), algo_index(spec.algo))
                })
                .collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 30);
        }
    }

    #[test]
    fn sort_slates_hold_27_jobs_with_fresh_seeds() {
        let a = sort_slate(3, 0);
        let b = sort_slate(3, 1);
        assert_eq!(a.len(), 27);
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
        assert_eq!(sort_slate(3, 0), a, "slates repeat for a seed");
    }

    #[test]
    fn the_replica_matches_run_job() {
        for j in 0..30 {
            let spec = service_spec(11, 1, "t", format!("j{j}"), j);
            let run = run_job(&spec, Duration::ZERO, None);
            let traced = run_traced(&spec);
            assert_eq!(
                traced.result,
                Fingerprint::of(&run),
                "{}",
                render_result(&spec, &run)
            );
            assert_eq!(traced.trace.pairs, run.metrics.comparisons());
        }
    }
}
