//! Regenerates the Theorem 7/8/9 evidence: the round-robin algorithm's total
//! comparisons are dominated by twice the sum of `n` draws from the cut-off
//! rank distribution `D_N(n)`, and are linear for the distributions where the
//! paper proves it.
//!
//! ```text
//! cargo run -p ecs_bench --release --bin theorem7_dominance -- [--n N] [--trials T]
//!     [--out results] [--threads N] [--jobs J] [--batch W]
//!
//! `--jobs J` runs every trial of every distribution through one shared
//! J-worker throughput pool (round-robin fairness across distributions);
//! `--batch W` makes each trial session submit rounds as oracle
//! `same_batch` waves of up to W pairs. Results are bit-identical to a
//! serial, unbatched run either way.
//! ```
//!
//! Setting `ECS_BENCH_SMOKE=1` shrinks the sweep to a CI-sized smoke run.

use ecs_bench::runners::{dominance_sweep, dominance_table};
use ecs_bench::{smoke, Args};
use ecs_distributions::class_distribution::AnyDistribution;

fn main() {
    let args = Args::from_env();
    args.warn_unknown(&["n", "trials", "seed", "out", "threads", "batch", "jobs"]);
    let n = args.get_usize("n", if smoke() { 500 } else { 5_000 });
    let trials = args.get_usize("trials", if smoke() { 2 } else { 8 });
    let seed = args.get_u64("seed", 7);
    let out_dir = args.get_or("out", "results");
    let pool = args.throughput_pool();
    let backend = args.execution_backend();
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

    println!(
        "throughput pool: {}; execution backend: {}",
        pool.label(),
        backend.label()
    );
    let distributions = vec![
        AnyDistribution::uniform(10),
        AnyDistribution::uniform(100),
        AnyDistribution::geometric(0.5),
        AnyDistribution::geometric(0.02),
        AnyDistribution::poisson(5.0),
        AnyDistribution::poisson(25.0),
        AnyDistribution::zeta(2.5),
        AnyDistribution::zeta(2.0),
    ];

    let results = dominance_sweep(distributions, n, trials, seed, &pool, backend);

    let table = dominance_table(&results, n);
    println!("{}", table.to_text());
    println!("Theorem 7 predicts measured ≤ bound (stochastic dominance); Theorems 8–9 predict");
    println!("both columns are linear in n for these parameters.");
    let path = format!("{out_dir}/theorem7_dominance.csv");
    table.write_csv(&path).expect("cannot write CSV");
    println!("wrote {path}");
}
