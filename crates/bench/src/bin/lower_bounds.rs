//! Regenerates the lower-bound evidence for Theorems 5 and 6: the coloring
//! adversary forces any correct algorithm to perform Ω(n²/f) (equal class
//! sizes) and Ω(n²/ℓ) (smallest class) comparisons, well above the older
//! Ω(n²/f²) / Ω(n²/ℓ²) bounds, for every algorithm in the roster.
//!
//! ```text
//! cargo run -p ecs_bench --release --bin lower_bounds -- [--out results]
//!     [--threads N] [--batch W] [--jobs J] [--search]
//! ```
//!
//! The adversaries run the round-commit protocol, so `--threads` and
//! `--batch` genuinely route adversarial rounds through the work-stealing
//! pool / `same_batch` waves, and `--jobs J` drains the whole
//! `(grid point, algorithm)` matrix through the shared throughput pool —
//! all with byte-identical CSV output (CI diffs a pooled+batched run against
//! the serial one). `ECS_BENCH_SMOKE=1` shrinks the grids; `--full` restores
//! them.
//!
//! `--search` additionally runs the Theorem 6 *adaptive search* table: the
//! wave-parallel [`ecs_adversary::SmallestClassSearch`] roster (plain and
//! audit variants) against the smallest-class adversary, with the
//! incremental planner's replay-count witness as extra columns.

use ecs_bench::paper::{
    search_grid, search_smoke_grid, theorem5_grid, theorem5_smoke_grid, theorem6_grid,
    theorem6_smoke_grid,
};
use ecs_bench::runners::{
    search_bounds_table, search_variants, theorem5_table, theorem6_table, AdversaryAlgorithm,
};
use ecs_bench::{smoke, Args};

fn main() {
    let args = Args::from_env();
    args.warn_unknown(&["out", "full", "threads", "batch", "jobs", "search"]);
    let out_dir = args.get_or("out", "results");
    let backend = args.execution_backend();
    let pool = args.throughput_pool();
    // ECS_BENCH_SMOKE only shrinks the defaults; --full always wins.
    let (grid5, grid6, grid_search) = if smoke() && !args.has("full") {
        (
            theorem5_smoke_grid(),
            theorem6_smoke_grid(),
            search_smoke_grid(),
        )
    } else {
        (theorem5_grid(), theorem6_grid(), search_grid())
    };
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    println!(
        "execution backend: {}; throughput pool: {}",
        backend.label(),
        pool.label()
    );

    let algorithms = AdversaryAlgorithm::all();
    let t5 = theorem5_table(&grid5, &algorithms, &pool, backend);
    println!("{}", t5.to_text());
    t5.write_csv(format!("{out_dir}/theorem5_lower_bound.csv"))
        .expect("cannot write CSV");

    let t6 = theorem6_table(&grid6, &algorithms, &pool, backend);
    println!("{}", t6.to_text());
    t6.write_csv(format!("{out_dir}/theorem6_lower_bound.csv"))
        .expect("cannot write CSV");

    println!("wrote {out_dir}/theorem5_lower_bound.csv and {out_dir}/theorem6_lower_bound.csv");

    if args.has("search") {
        let ts = search_bounds_table(&grid_search, &search_variants(), &pool, backend);
        println!("{}", ts.to_text());
        ts.write_csv(format!("{out_dir}/search_lower_bound.csv"))
            .expect("cannot write CSV");
        println!("wrote {out_dir}/search_lower_bound.csv");
    }
}
