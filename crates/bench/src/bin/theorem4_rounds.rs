//! Regenerates the Theorem 4 evidence: when the smallest class has size at
//! least `λn`, the constant-round ER algorithm's round count does not grow
//! with `n`.
//!
//! ```text
//! cargo run -p ecs_bench --release --bin theorem4_rounds -- [--seed S] [--out results] [--full] [--threads N]
//! ```

use ecs_bench::paper::theorem4_lambdas;
use ecs_bench::runners::theorem4_table;
use ecs_bench::Args;

fn main() {
    let args = Args::from_env();
    args.warn_unknown(&["seed", "out", "full", "threads"]);
    let seed = args.get_u64("seed", 4);
    let out_dir = args.get_or("out", "results");
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

    let sizes: Vec<usize> = if args.has("full") {
        vec![2_000, 8_000, 32_000, 128_000]
    } else {
        vec![1_000, 4_000, 16_000]
    };
    let backend = args.execution_backend();
    println!("execution backend: {}", backend.label());
    let table = theorem4_table(&theorem4_lambdas(), &sizes, seed, backend);
    println!("{}", table.to_text());
    println!("(rounds stay flat as n grows within each λ block — the Theorem 4 claim)");
    let path = format!("{out_dir}/theorem4_rounds.csv");
    table.write_csv(&path).expect("cannot write CSV");
    println!("wrote {path}");
}
