//! Regenerates Figure 5: round-robin comparison counts under the four class
//! distributions, with best-fit lines where the paper proves linearity.
//!
//! ```text
//! cargo run -p ecs_bench --release --bin figure5 -- [--dist uniform|geometric|poisson|zeta|all]
//!     [--full] [--scale D] [--trials T] [--seed S] [--out results] [--threads N] [--jobs J]
//!     [--batch W]
//!
//! `--jobs J` runs every trial of the whole grid through one shared J-worker
//! throughput pool (round-robin fairness across distributions); without
//! `--jobs`, `--threads N` / `ECS_THREADS` select the trial pool instead
//! (round evaluation inside a trial follows `ECS_THREADS`, but these trials'
//! rounds are single comparisons). `--batch W` makes every trial session
//! submit its rounds as oracle `same_batch` waves of up to W pairs —
//! round-robin is sequential, so this changes nothing here, which is the
//! point: CSVs are byte-identical with and without `--batch` (CI diffs
//! them). Results are bit-identical to a serial run either way.
//! ```
//!
//! By default the paper's size grids are divided by 10 so the whole figure
//! regenerates in seconds; pass `--full` for the exact grids of the paper
//! (n up to 200 000, 10 trials — this takes considerably longer). Setting
//! `ECS_BENCH_SMOKE=1` shrinks the grids further to a CI-sized smoke run.

use ecs_bench::runners::{figure5_panel_series, figure5_table};
use ecs_bench::{paper, smoke, Args};
use ecs_distributions::ClassDistribution;

fn main() {
    let args = Args::from_env();
    args.warn_unknown(&[
        "dist", "full", "scale", "trials", "seed", "out", "threads", "batch", "jobs",
    ]);
    let panel = args.get_or("dist", "all");
    // ECS_BENCH_SMOKE only shrinks the *defaults*; explicit flags always win.
    let scale = if args.has("full") {
        1
    } else {
        args.get_usize("scale", if smoke() { 100 } else { 10 })
    };
    let default_trials = match (args.has("full"), smoke()) {
        (true, _) => 10,
        (false, true) => 2,
        (false, false) => 5,
    };
    let trials = args.get_usize("trials", default_trials);
    let seed = args.get_u64("seed", 2016);
    let out_dir = args.get_or("out", "results");
    let pool = args.throughput_pool();
    let backend = args.execution_backend();
    println!(
        "throughput pool: {}; execution backend: {}",
        pool.label(),
        backend.label()
    );
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

    let panels: Vec<&str> = if panel == "all" {
        paper::panel_names()
    } else {
        vec![Box::leak(panel.clone().into_boxed_str())]
    };

    for panel in panels {
        println!("=== Figure 5 panel: {panel} (scale 1/{scale}, {trials} trials) ===\n");
        for (config, series) in figure5_panel_series(panel, scale, trials, seed, &pool, backend) {
            let label = config.distribution.name();
            let table = figure5_table(&series);
            println!("{}", table.to_text());
            if series.fit.is_some() {
                println!(
                    "max relative spread around the fit: {:.2}%\n",
                    100.0 * series.max_relative_spread()
                );
            } else {
                println!("(no fit: paper leaves this regime open — expect super-linear growth)\n");
            }
            let path = format!(
                "{out_dir}/figure5_{}.csv",
                label.replace(['(', ')', '=', ',', ' '], "_")
            );
            table.write_csv(&path).expect("cannot write CSV");
            println!("wrote {path}\n");
        }
    }
}
