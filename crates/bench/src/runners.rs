//! Measurement runners shared by the reproduction binaries.

use crate::paper;
use ecs_adversary::{
    EqualSizeAdversary, LowerBoundAdversary, SmallestClassAdversary, SmallestClassSearch,
};
use ecs_analysis::report::fmt_float;
use ecs_analysis::{
    dominance_grid, figure5_grid, DominanceConfig, DominanceResult, Figure5Config, Figure5Series,
    Table,
};
use ecs_core::{
    CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, RepresentativeScan,
    RoundRobin,
};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::throughput::Job;
use ecs_model::{EquivalenceOracle, ExecutionBackend, Instance, InstanceOracle, ThroughputPool};
use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

/// Runs every Figure 5 configuration of one panel through the throughput
/// pool — all `(distribution, size, trial)` jobs of the panel are queued as
/// one workload, one fairness session per distribution — and returns
/// `(config, series)` pairs in the panel's order, bit-identical to the
/// serial per-config loop for every worker count.
pub fn figure5_panel_series(
    panel: &str,
    scale: usize,
    trials: usize,
    seed: u64,
    pool: &ThroughputPool,
) -> Vec<(Figure5Config, Figure5Series)> {
    let configs = paper::figure5_configs(panel, scale, trials, seed);
    let series = figure5_grid(&configs, pool);
    configs.into_iter().zip(series).collect()
}

/// Runs a Theorem 7 dominance sweep over several distributions through the
/// throughput pool (one fairness session per distribution), bit-identical to
/// running [`ecs_analysis::dominance_experiment`] per distribution.
pub fn dominance_sweep(
    distributions: Vec<AnyDistribution>,
    n: usize,
    trials: usize,
    seed: u64,
    pool: &ThroughputPool,
) -> Vec<DominanceResult> {
    let configs: Vec<DominanceConfig> = distributions
        .into_iter()
        .map(|distribution| DominanceConfig {
            distribution,
            n,
            trials,
            seed,
        })
        .collect();
    dominance_grid(&configs, pool)
}

/// Renders one Figure 5 series as a table with per-size statistics and the
/// best-fit line (when the paper predicts one).
pub fn figure5_table(series: &Figure5Series) -> Table {
    let fit_label = match &series.fit {
        Some(fit) => format!(
            "fit: comparisons ≈ {}·n + {} (R² = {:.5})",
            fmt_float(fit.slope),
            fmt_float(fit.intercept),
            fit.r_squared
        ),
        None => "no linear fit (paper proves no linear bound for this parameter)".to_string(),
    };
    let mut table = Table::new(
        format!("Figure 5 — {} — {}", series.label, fit_label),
        &[
            "n",
            "mean comparisons",
            "std dev",
            "min",
            "max",
            "comparisons/n",
        ],
    );
    for point in &series.points {
        table.push_row(vec![
            point.n.to_string(),
            fmt_float(point.summary.mean()),
            fmt_float(point.summary.std_dev()),
            fmt_float(point.summary.min()),
            fmt_float(point.summary.max()),
            fmt_float(point.summary.mean() / point.n as f64),
        ]);
    }
    table
}

/// Runs the Theorem 1 (CR compound merge) round-count experiment over a grid
/// of `(n, k)` pairs.
pub fn theorem1_table(grid: &[(usize, usize)], seed: u64, backend: ExecutionBackend) -> Table {
    let mut table = Table::new(
        "Theorem 1 — CR rounds, O(k + log log n) expected",
        &[
            "n",
            "k",
            "rounds",
            "comparisons",
            "k + lglg n",
            "rounds / (k + lglg n)",
        ],
    );
    for (i, &(n, k)) in grid.iter().enumerate() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed + i as u64);
        let instance = Instance::balanced(n, k, &mut rng);
        let oracle = InstanceOracle::new(&instance);
        let run = CrCompoundMerge::new(k).sort_with_backend(&oracle, backend);
        assert!(
            instance.verify(&run.partition),
            "Theorem 1 run produced a wrong partition"
        );
        let reference = k as f64 + (n as f64).log2().log2();
        table.push_row(vec![
            n.to_string(),
            k.to_string(),
            run.metrics.rounds().to_string(),
            run.metrics.comparisons().to_string(),
            fmt_float(reference),
            fmt_float(run.metrics.rounds() as f64 / reference),
        ]);
    }
    table
}

/// Runs the Theorem 2 (ER merge) round-count experiment.
pub fn theorem2_table(grid: &[(usize, usize)], seed: u64, backend: ExecutionBackend) -> Table {
    let mut table = Table::new(
        "Theorem 2 — ER rounds, O(k log n) expected",
        &[
            "n",
            "k",
            "rounds",
            "comparisons",
            "k · log2 n",
            "rounds / (k log n)",
        ],
    );
    for (i, &(n, k)) in grid.iter().enumerate() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed + 100 + i as u64);
        let instance = Instance::balanced(n, k, &mut rng);
        let oracle = InstanceOracle::new(&instance);
        let run = ErMergeSort::new().sort_with_backend(&oracle, backend);
        assert!(
            instance.verify(&run.partition),
            "Theorem 2 run produced a wrong partition"
        );
        let reference = k as f64 * (n as f64).log2();
        table.push_row(vec![
            n.to_string(),
            k.to_string(),
            run.metrics.rounds().to_string(),
            run.metrics.comparisons().to_string(),
            fmt_float(reference),
            fmt_float(run.metrics.rounds() as f64 / reference),
        ]);
    }
    table
}

/// Runs the Theorem 4 (constant rounds for large classes) experiment: for each
/// `λ`, a sweep over `n` showing that rounds stay flat while `n` grows.
pub fn theorem4_table(
    lambdas: &[f64],
    sizes: &[usize],
    seed: u64,
    backend: ExecutionBackend,
) -> Table {
    let mut table = Table::new(
        "Theorem 4 — ER rounds for smallest class ≥ λn, O(1) expected",
        &[
            "lambda",
            "n",
            "k",
            "cycles d",
            "rounds",
            "comparisons",
            "comparisons/n",
        ],
    );
    for (i, &lambda) in lambdas.iter().enumerate() {
        // Use k = ⌊1/λ⌋ balanced classes so the smallest class has ≥ λn elements.
        let k = ((1.0 / lambda).floor() as usize).max(2);
        for (j, &n) in sizes.iter().enumerate() {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed + (i * 100 + j) as u64);
            let instance = Instance::balanced(n, k, &mut rng);
            let oracle = InstanceOracle::new(&instance);
            let algorithm = ErConstantRound::with_lambda(lambda, seed + j as u64);
            let run = algorithm.sort_with_backend(&oracle, backend);
            assert!(
                instance.verify(&run.partition),
                "Theorem 4 run produced a wrong partition"
            );
            table.push_row(vec![
                format!("{lambda}"),
                n.to_string(),
                k.to_string(),
                algorithm.cycles_for(lambda, n).to_string(),
                run.metrics.rounds().to_string(),
                run.metrics.comparisons().to_string(),
                fmt_float(run.metrics.comparisons() as f64 / n as f64),
            ]);
        }
    }
    table
}

/// The algorithm roster driven against the lower-bound adversaries: two
/// sequential baselines (single-comparison rounds) and one genuinely
/// round-based ER algorithm, so the tables exercise both the scalar path and
/// the round-commit protocol on whatever backend is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryAlgorithm {
    /// [`RepresentativeScan`]: one comparison at a time against class
    /// representatives.
    RepresentativeScan,
    /// [`RoundRobin`]: the Theorem 7/8 sequential algorithm.
    RoundRobin,
    /// [`ErMergeSort`]: exclusive-read rounds, evaluated on the selected
    /// backend (inline, or sharded on the pool).
    ErMergeSort,
}

impl AdversaryAlgorithm {
    /// Every roster entry, in table order.
    pub fn all() -> [AdversaryAlgorithm; 3] {
        [
            AdversaryAlgorithm::RepresentativeScan,
            AdversaryAlgorithm::RoundRobin,
            AdversaryAlgorithm::ErMergeSort,
        ]
    }

    /// The algorithm's report name.
    pub fn name(self) -> String {
        match self {
            AdversaryAlgorithm::RepresentativeScan => RepresentativeScan::new().name(),
            AdversaryAlgorithm::RoundRobin => RoundRobin::new().name(),
            AdversaryAlgorithm::ErMergeSort => ErMergeSort::new().name(),
        }
    }

    /// Runs the algorithm against `oracle` on `backend`.
    pub fn run<O: EquivalenceOracle>(self, oracle: &O, backend: ExecutionBackend) -> EcsRun {
        match self {
            AdversaryAlgorithm::RepresentativeScan => {
                RepresentativeScan::new().sort_with_backend(oracle, backend)
            }
            AdversaryAlgorithm::RoundRobin => RoundRobin::new().sort_with_backend(oracle, backend),
            AdversaryAlgorithm::ErMergeSort => {
                ErMergeSort::new().sort_with_backend(oracle, backend)
            }
        }
    }
}

/// The shared body of the Theorem 5 / Theorem 6 lower-bound tables: every
/// `(grid point, algorithm)` cell runs as one independent job through the
/// throughput pool (a fresh adversary per cell, sessions evaluating on
/// `backend`), and the rows report the forced comparison count next to the
/// paper's bound. Results are collected in job order, so the table is
/// byte-identical for every `--jobs` / `--threads` selection.
pub fn lower_bound_table<A, F>(
    title: &str,
    param: &str,
    grid: &[(usize, usize)],
    algorithms: &[AdversaryAlgorithm],
    pool: &ThroughputPool,
    backend: ExecutionBackend,
    make: F,
) -> Table
where
    A: LowerBoundAdversary,
    F: Fn(usize, usize) -> A + Sync,
{
    let mut table = Table::new(
        title,
        &[
            "algorithm",
            "n",
            param,
            "forced comparisons",
            &format!("n²/(64{param}) (paper bound)"),
            &format!("n²/{param}"),
            &format!("n²/(64{param}²) (old bound)"),
            &format!("forced / (n²/{param})"),
        ],
    );
    let make = &make;
    let jobs: Vec<Job<'_, Vec<String>>> = grid
        .iter()
        .flat_map(|&(n, p)| {
            algorithms.iter().map(move |&algorithm| {
                Box::new(move || {
                    let adversary = make(n, p);
                    let run = algorithm.run(&adversary, backend);
                    assert_eq!(
                        run.partition,
                        adversary.partition(),
                        "{} (n = {n}, {param} = {p}) did not output the adversary's \
                         committed partition",
                        algorithm.name()
                    );
                    let forced = adversary.comparisons();
                    let n2_over_p = (n as u64 * n as u64) / p as u64;
                    vec![
                        algorithm.name(),
                        n.to_string(),
                        p.to_string(),
                        forced.to_string(),
                        adversary.paper_lower_bound().to_string(),
                        n2_over_p.to_string(),
                        adversary.previous_lower_bound().to_string(),
                        fmt_float(forced as f64 / n2_over_p as f64),
                    ]
                }) as Job<'_, Vec<String>>
            })
        })
        .collect();
    for row in pool.run(jobs) {
        table.push_row(row);
    }
    table
}

/// Runs the Theorem 5 lower-bound experiment: comparisons forced by the
/// equal-class-size adversary per algorithm, next to the paper's `n²/(64f)`
/// bound, the asymptotic `n²/f`, and the older `n²/(64f²)` bound it improves.
pub fn theorem5_table(
    grid: &[(usize, usize)],
    algorithms: &[AdversaryAlgorithm],
    pool: &ThroughputPool,
    backend: ExecutionBackend,
) -> Table {
    lower_bound_table(
        "Theorem 5 — equal class sizes: forced comparisons vs Ω(n²/f)",
        "f",
        grid,
        algorithms,
        pool,
        backend,
        EqualSizeAdversary::new,
    )
}

/// Runs the Theorem 6 lower-bound experiment (smallest class of size `ℓ`).
pub fn theorem6_table(
    grid: &[(usize, usize)],
    algorithms: &[AdversaryAlgorithm],
    pool: &ThroughputPool,
    backend: ExecutionBackend,
) -> Table {
    lower_bound_table(
        "Theorem 6 — smallest class: forced comparisons vs Ω(n²/ℓ)",
        "ℓ",
        grid,
        algorithms,
        pool,
        backend,
        SmallestClassAdversary::new,
    )
}

/// One entry of the Theorem 6 adaptive-search roster: the wave-parallel
/// [`SmallestClassSearch`] at a given block width, optionally with audit
/// repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchVariant {
    /// The variant's report name.
    pub name: &'static str,
    /// Block width handed to [`SmallestClassSearch::new`].
    pub wave: usize,
    /// Whether audit repeats ([`SmallestClassSearch::with_audit`]) are on.
    pub audit: bool,
}

/// The search roster driven by [`search_bounds_table`]: two wave widths of
/// the plain block scan, plus the audit variant whose repeat-heavy rounds
/// exercise the adversaries' incremental plan cache.
pub fn search_variants() -> [SearchVariant; 3] {
    [
        SearchVariant {
            name: "block-16",
            wave: 16,
            audit: false,
        },
        SearchVariant {
            name: "block-64",
            wave: 64,
            audit: false,
        },
        SearchVariant {
            name: "block-64-audit",
            wave: 64,
            audit: true,
        },
    ]
}

/// The Theorem 6 *adaptive search* table: every `(grid point, variant)` cell
/// runs a [`SmallestClassSearch`] against a fresh [`SmallestClassAdversary`]
/// as one independent throughput-pool job, reporting the forced comparisons
/// next to the paper bound and the planner's replay-count witness. Rows are
/// collected in job order, so the table is byte-identical for every `--jobs`
/// selection.
pub fn search_bounds_table(
    grid: &[(usize, usize)],
    variants: &[SearchVariant],
    pool: &ThroughputPool,
    backend: ExecutionBackend,
) -> Table {
    let mut table = Table::new(
        "Theorem 6 — adaptive smallest-class search: forced comparisons vs Ω(n²/ℓ)",
        &[
            "search",
            "n",
            "ℓ",
            "forced comparisons",
            "n²/(64ℓ) (paper bound)",
            "phases",
            "found size",
            "replayed",
            "replayed / forced",
        ],
    );
    let jobs: Vec<Job<'_, Vec<String>>> = grid
        .iter()
        .flat_map(|&(n, ell)| {
            variants.iter().map(move |&variant| {
                Box::new(move || {
                    let adversary = SmallestClassAdversary::new(n, ell);
                    let mut search = SmallestClassSearch::new(variant.wave);
                    if variant.audit {
                        search = search.with_audit();
                    }
                    let report = search.run(&adversary, backend);
                    assert_eq!(
                        report.partition,
                        adversary.partition(),
                        "{} (n = {n}, ℓ = {ell}) did not derive the adversary's \
                         committed partition",
                        variant.name
                    );
                    assert!(
                        adversary.smallest_class_pinned(),
                        "{} (n = {n}, ℓ = {ell}) finished without pinning the class",
                        variant.name
                    );
                    let forced = adversary.comparisons();
                    assert!(
                        forced >= adversary.paper_lower_bound(),
                        "{} (n = {n}, ℓ = {ell}): {forced} comparisons below the bound {}",
                        variant.name,
                        adversary.paper_lower_bound()
                    );
                    let stats = adversary.plan_stats();
                    vec![
                        variant.name.to_string(),
                        n.to_string(),
                        ell.to_string(),
                        forced.to_string(),
                        adversary.paper_lower_bound().to_string(),
                        report.phases.to_string(),
                        report.class_size.to_string(),
                        stats.replayed.to_string(),
                        fmt_float(stats.replayed as f64 / forced as f64),
                    ]
                }) as Job<'_, Vec<String>>
            })
        })
        .collect();
    for row in pool.run(jobs) {
        table.push_row(row);
    }
    table
}

/// Renders a Theorem 7 dominance experiment result.
///
/// The bound of Theorem 7 covers the cross-class tests (the `2·min(Y_i,Y_j)`
/// lemma sums over distinct class pairs); within-class contractions add at
/// most `n` more, which is how Theorem 8 concludes `O(n)` total work. Both
/// checks are shown.
pub fn dominance_table(results: &[DominanceResult], n: usize) -> Table {
    let mut table = Table::new(
        format!("Theorem 7 — round-robin comparisons vs 2·Σ D_N(n) bound (n = {n})"),
        &[
            "distribution",
            "cross-class mean",
            "bound mean (2nE[D_N(n)])",
            "cross ≤ bound",
            "total mean",
            "total ≤ bound + n",
        ],
    );
    for result in results {
        table.push_row(vec![
            result.label.clone(),
            fmt_float(result.measured_cross_mean()),
            fmt_float(result.bound_mean),
            format!("{:.0}%", 100.0 * result.fraction_cross_below_bound()),
            fmt_float(result.measured_mean()),
            format!("{:.0}%", 100.0 * result.fraction_total_below_bound_plus_n()),
        ]);
    }
    table
}

/// Compares all algorithms (parallel and sequential) on one instance; used by
/// the `reproduce_all` summary and the quickstart-style reporting.
pub fn algorithm_comparison_table(
    n: usize,
    k: usize,
    seed: u64,
    backend: ExecutionBackend,
) -> Table {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let instance = Instance::balanced(n, k, &mut rng);
    let oracle = InstanceOracle::new(&instance);
    let mut table = Table::new(
        format!("Algorithm comparison on n = {n}, k = {k} (balanced classes)"),
        &["algorithm", "mode", "rounds", "comparisons", "correct"],
    );
    let lambda = (1.0 / k as f64).min(0.4);

    let mut push = |name: String, mode: &str, run: ecs_core::EcsRun| {
        table.push_row(vec![
            name,
            mode.to_string(),
            run.metrics.rounds().to_string(),
            run.metrics.comparisons().to_string(),
            instance.verify(&run.partition).to_string(),
        ]);
    };

    let alg = CrCompoundMerge::new(k);
    push(alg.name(), "CR", alg.sort_with_backend(&oracle, backend));
    let alg = ErMergeSort::new();
    push(alg.name(), "ER", alg.sort_with_backend(&oracle, backend));
    let alg = ErConstantRound::with_lambda(lambda, seed);
    push(alg.name(), "ER", alg.sort_with_backend(&oracle, backend));
    let alg = RoundRobin::new();
    push(
        alg.name(),
        "sequential",
        alg.sort_with_backend(&oracle, backend),
    );
    let alg = RepresentativeScan::new();
    push(
        alg.name(),
        "sequential",
        alg.sort_with_backend(&oracle, backend),
    );

    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_analysis::{figure5_series, Figure5Config};
    use ecs_distributions::class_distribution::AnyDistribution;

    #[test]
    fn figure5_table_has_one_row_per_size() {
        let series = figure5_series(&Figure5Config {
            distribution: AnyDistribution::uniform(10),
            sizes: vec![200, 400],
            trials: 2,
            seed: 1,
        });
        let table = figure5_table(&series);
        assert_eq!(table.num_rows(), 2);
        assert!(table.title().contains("uniform"));
        assert!(table.title().contains("fit"));
    }

    #[test]
    fn theorem1_and_2_tables_run_small_grids() {
        let grid = [(500usize, 2usize), (1_000, 4)];
        let t1 = theorem1_table(&grid, 3, ExecutionBackend::Sequential);
        let t2 = theorem2_table(&grid, 3, ExecutionBackend::Sequential);
        assert_eq!(t1.num_rows(), 2);
        assert_eq!(t2.num_rows(), 2);
    }

    #[test]
    fn theorem4_table_runs() {
        let table = theorem4_table(&[0.4, 0.3], &[500, 1_000], 5, ExecutionBackend::Sequential);
        assert_eq!(table.num_rows(), 4);
    }

    #[test]
    fn theorem4_rows_at_n_1000_are_pinned() {
        // Every λ of the paper grid runs its single Theorem 4 attempt and
        // succeeds: `d·n` cycle edges plus one pivot sweep per class.
        let table = theorem4_table(
            &crate::paper::theorem4_lambdas(),
            &[1_000],
            4,
            ExecutionBackend::Sequential,
        );
        assert_eq!(
            table.to_csv(),
            "lambda,n,k,cycles d,rounds,comparisons,comparisons/n\n\
             0.4,1000,2,22,45,22500,22.50\n\
             0.3,1000,3,38,79,38999,39.00\n\
             0.25,1000,4,53,112,54500,54.50\n\
             0.2,1000,5,81,172,83000,83.00\n"
        );
    }

    #[test]
    fn lower_bound_tables_run_one_row_per_grid_point_and_algorithm() {
        let pool = ThroughputPool::from_jobs(1);
        let algorithms = AdversaryAlgorithm::all();
        let t5 = theorem5_table(
            &[(128, 4), (128, 8)],
            &algorithms,
            &pool,
            ExecutionBackend::Sequential,
        );
        assert_eq!(t5.num_rows(), 2 * algorithms.len());
        let md = t5.to_markdown();
        assert!(md.contains("representative-scan"));
        assert!(md.contains("round-robin"));
        assert!(md.contains("er-merge"));
        let t6 = theorem6_table(
            &[(128, 4)],
            &[AdversaryAlgorithm::RepresentativeScan],
            &pool,
            ExecutionBackend::Sequential,
        );
        assert_eq!(t6.num_rows(), 1);
    }

    #[test]
    fn lower_bound_tables_are_identical_across_pools_and_backends() {
        // The round-commit protocol makes the adversaries deterministic on
        // every backend, and the throughput pool collects results in job
        // order — so the rendered table must be byte-identical however the
        // work is executed.
        let grid = [(96usize, 4usize), (96, 8)];
        let algorithms = AdversaryAlgorithm::all();
        let reference = theorem5_table(
            &grid,
            &algorithms,
            &ThroughputPool::from_jobs(1),
            ExecutionBackend::Sequential,
        )
        .to_markdown();
        for (pool, backend) in [
            (ThroughputPool::from_jobs(4), ExecutionBackend::Sequential),
            (
                ThroughputPool::from_jobs(2),
                ExecutionBackend::Threaded {
                    threads: 2,
                    threshold: 1,
                },
            ),
        ] {
            assert_eq!(
                theorem5_table(&grid, &algorithms, &pool, backend).to_markdown(),
                reference,
                "lower-bound table diverged under pool {} / backend {}",
                pool.label(),
                backend.label()
            );
        }
    }

    #[test]
    fn search_table_runs_and_is_identical_across_pools() {
        let grid = [(96usize, 4usize), (120, 5)];
        let variants = [
            SearchVariant {
                name: "block-8",
                wave: 8,
                audit: false,
            },
            SearchVariant {
                name: "block-8-audit",
                wave: 8,
                audit: true,
            },
        ];
        let reference = search_bounds_table(
            &grid,
            &variants,
            &ThroughputPool::from_jobs(1),
            ExecutionBackend::Sequential,
        );
        assert_eq!(reference.num_rows(), grid.len() * variants.len());
        let md = reference.to_markdown();
        assert!(md.contains("block-8-audit"));
        let pooled = search_bounds_table(
            &grid,
            &variants,
            &ThroughputPool::from_jobs(3),
            ExecutionBackend::Sequential,
        );
        assert_eq!(
            pooled.to_markdown(),
            md,
            "search table diverged under the throughput pool"
        );
    }

    #[test]
    fn audit_variant_reuses_the_plan_cache_in_the_table() {
        // The audit rows must show strictly fewer replays than served
        // comparisons — the incremental-planning witness, straight from the
        // rendered table. (The grid point must give the block-64 scan at
        // least three phases: phase 1 plans an intra-block pair fresh, phase
        // 2's audit revalidates it with a pure replay, and only from phase 3
        // on is it served without any replay.)
        let table = search_bounds_table(
            &[(192, 8)],
            &search_variants(),
            &ThroughputPool::from_jobs(1),
            ExecutionBackend::Sequential,
        );
        let md = table.to_markdown();
        let audit_row: Vec<&str> = md
            .lines()
            .find(|l| l.contains("block-64-audit"))
            .expect("audit row present")
            .split('|')
            .map(str::trim)
            .collect();
        let forced: u64 = audit_row[4].parse().expect("forced column");
        let replayed: u64 = audit_row[8].parse().expect("replayed column");
        assert!(
            replayed < forced,
            "audit workload should replay fewer entries than it serves: {md}"
        );
    }

    #[test]
    fn adversary_algorithm_roster_is_complete_and_named() {
        let names: Vec<String> = AdversaryAlgorithm::all().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 3);
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup, "roster names must be distinct");
    }

    #[test]
    fn tables_are_identical_across_backends() {
        let grid = [(2_000usize, 3usize)];
        let seq = theorem1_table(&grid, 3, ExecutionBackend::Sequential);
        let thr = theorem1_table(
            &grid,
            3,
            ExecutionBackend::Threaded {
                threads: 4,
                threshold: 1,
            },
        );
        assert_eq!(
            seq.to_markdown(),
            thr.to_markdown(),
            "threaded evaluation must not change any reported number"
        );
    }

    #[test]
    fn panel_series_match_serial_per_config_runs() {
        let pool = ThroughputPool::from_jobs(4);
        let pooled = figure5_panel_series("uniform", 100, 2, 2016, &pool);
        assert!(!pooled.is_empty());
        for (config, series) in &pooled {
            let reference = figure5_series(config);
            for (a, b) in series.points.iter().zip(&reference.points) {
                assert_eq!(
                    a.comparisons, b.comparisons,
                    "pooled panel diverged from the serial loop"
                );
            }
        }
    }

    #[test]
    fn dominance_sweep_matches_serial_per_config_runs() {
        use ecs_analysis::dominance_experiment;
        let pool = ThroughputPool::from_jobs(2);
        let distributions = vec![AnyDistribution::uniform(10), AnyDistribution::zeta(2.5)];
        let pooled = dominance_sweep(distributions.clone(), 500, 3, 7, &pool);
        for (distribution, result) in distributions.into_iter().zip(&pooled) {
            let reference = dominance_experiment(&DominanceConfig {
                distribution,
                n: 500,
                trials: 3,
                seed: 7,
            });
            assert_eq!(result.measured_total, reference.measured_total);
            assert_eq!(result.measured_cross, reference.measured_cross);
        }
    }

    #[test]
    fn comparison_table_lists_all_algorithms() {
        let table = algorithm_comparison_table(300, 3, 9, ExecutionBackend::Sequential);
        assert_eq!(table.num_rows(), 5);
        let md = table.to_markdown();
        assert!(md.contains("cr-compound"));
        assert!(md.contains("round-robin"));
        assert!(
            !md.contains("false"),
            "every algorithm must classify correctly:\n{md}"
        );
    }
}
