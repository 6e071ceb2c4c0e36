//! Regenerates the Theorem 2 evidence: the ER merge algorithm classifies `n`
//! elements in `O(k log n)` rounds.
//!
//! ```text
//! cargo run -p ecs_bench --release --bin theorem2_rounds -- [--seed S] [--out results] [--threads N] [--batch W]
//! ```

use ecs_bench::paper::round_count_grid;
use ecs_bench::runners::theorem2_table;
use ecs_bench::Args;

fn main() {
    let args = Args::from_env();
    args.warn_unknown(&["seed", "out", "threads", "batch"]);
    let seed = args.get_u64("seed", 1);
    let out_dir = args.get_or("out", "results");
    let backend = args.execution_backend();
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

    println!("execution backend: {}", backend.label());
    let table = theorem2_table(&round_count_grid(), seed, backend);
    println!("{}", table.to_text());
    let path = format!("{out_dir}/theorem2_rounds.csv");
    table.write_csv(&path).expect("cannot write CSV");
    println!("wrote {path}");
}
