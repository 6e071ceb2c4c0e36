//! Runs every experiment of the paper at a reduced scale and writes all
//! tables to `results/` (CSV) plus a combined Markdown report.
//!
//! ```text
//! cargo run -p ecs_bench --release --bin reproduce_all -- [--out results] [--scale D]
//!     [--threads N] [--jobs J] [--batch W]
//! ```
//!
//! Pass `--full` to use the paper's exact grids (slow). `--jobs J` runs all
//! Figure 5 and Theorem 7 trials through one shared throughput pool;
//! `--batch W` evaluates every session's rounds as oracle `same_batch` waves
//! of up to W pairs (all reported numbers are bit-identical with and without
//! it); `ECS_BENCH_SMOKE=1` shrinks every grid to a CI-sized smoke run.

use ecs_bench::runners::{
    algorithm_comparison_table, dominance_sweep, dominance_table, figure5_panel_series,
    figure5_table, theorem1_table, theorem2_table, theorem4_table, theorem5_table, theorem6_table,
    AdversaryAlgorithm,
};
use ecs_bench::{paper, smoke, Args};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_distributions::ClassDistribution;

fn main() {
    let args = Args::from_env();
    args.warn_unknown(&[
        "out", "full", "scale", "trials", "seed", "threads", "batch", "jobs",
    ]);
    let out_dir = args.get_or("out", "results");
    // ECS_BENCH_SMOKE only shrinks the *defaults*; explicit flags always win.
    let scale = if args.has("full") {
        1
    } else {
        args.get_usize("scale", if smoke() { 100 } else { 20 })
    };
    let default_trials = match (args.has("full"), smoke()) {
        (true, _) => 10,
        (false, true) => 2,
        (false, false) => 3,
    };
    let trials = args.get_usize("trials", default_trials);
    let seed = args.get_u64("seed", 2016);
    let backend = args.execution_backend();
    let pool = args.throughput_pool();
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    println!(
        "execution backend: {}; throughput pool: {}",
        backend.label(),
        pool.label()
    );

    let mut report = String::from("# Reproduction report\n\n");

    // Experiments E1–E4: Figure 5 panels, each panel's whole grid submitted
    // to the shared throughput pool as one workload.
    for panel in paper::panel_names() {
        println!("running Figure 5 panel '{panel}'...");
        for (config, series) in figure5_panel_series(panel, scale, trials, seed, &pool, backend) {
            let table = figure5_table(&series);
            report.push_str(&table.to_markdown());
            report.push('\n');
            let label = config.distribution.name();
            table
                .write_csv(format!(
                    "{out_dir}/figure5_{}.csv",
                    label.replace(['(', ')', '=', ',', ' '], "_")
                ))
                .expect("cannot write CSV");
        }
    }

    // Experiments E5–E7: round counts.
    println!("running Theorem 1/2/4 round-count experiments...");
    let small_grid: Vec<(usize, usize)> = paper::round_count_grid()
        .into_iter()
        .map(|(n, k)| (n / scale.max(1), k))
        .filter(|&(n, k)| n >= 10 * k)
        .collect();
    for (table, path) in [
        (
            theorem1_table(&small_grid, seed, backend),
            "theorem1_rounds.csv",
        ),
        (
            theorem2_table(&small_grid, seed, backend),
            "theorem2_rounds.csv",
        ),
        (
            theorem4_table(&paper::theorem4_lambdas(), &[1_000, 4_000], seed, backend),
            "theorem4_rounds.csv",
        ),
    ] {
        report.push_str(&table.to_markdown());
        report.push('\n');
        table
            .write_csv(format!("{out_dir}/{path}"))
            .expect("cannot write CSV");
    }

    // Experiment E8: lower bounds — every roster algorithm per grid point,
    // drained through the same throughput pool as the other experiments.
    println!("running Theorem 5/6 lower-bound experiments...");
    let (grid5, grid6) = if smoke() && !args.has("full") {
        (paper::theorem5_smoke_grid(), paper::theorem6_smoke_grid())
    } else {
        (paper::theorem5_grid(), paper::theorem6_grid())
    };
    let algorithms = AdversaryAlgorithm::all();
    let t5 = theorem5_table(&grid5, &algorithms, &pool, backend);
    let t6 = theorem6_table(&grid6, &algorithms, &pool, backend);
    report.push_str(&t5.to_markdown());
    report.push('\n');
    report.push_str(&t6.to_markdown());
    report.push('\n');
    t5.write_csv(format!("{out_dir}/theorem5_lower_bound.csv"))
        .unwrap();
    t6.write_csv(format!("{out_dir}/theorem6_lower_bound.csv"))
        .unwrap();

    // Experiment E9: Theorem 7 dominance, all distributions × trials through
    // the same shared pool.
    println!("running Theorem 7 dominance experiment...");
    let n = 50_000 / scale.max(1);
    let results = dominance_sweep(
        vec![
            AnyDistribution::uniform(10),
            AnyDistribution::geometric(0.1),
            AnyDistribution::poisson(5.0),
            AnyDistribution::zeta(2.5),
        ],
        n,
        trials,
        seed,
        &pool,
        backend,
    );
    let dom = dominance_table(&results, n);
    report.push_str(&dom.to_markdown());
    report.push('\n');
    dom.write_csv(format!("{out_dir}/theorem7_dominance.csv"))
        .unwrap();

    // Summary comparison of all algorithms on one instance.
    let summary = algorithm_comparison_table(2_000, 8, seed, backend);
    report.push_str(&summary.to_markdown());
    summary
        .write_csv(format!("{out_dir}/algorithm_comparison.csv"))
        .unwrap();

    let report_path = format!("{out_dir}/report.md");
    std::fs::write(&report_path, &report).expect("cannot write report");
    println!("all experiments complete; report at {report_path}");
}
