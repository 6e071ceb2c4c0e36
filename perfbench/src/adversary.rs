//! The Theorem 5/6 lower-bound adversaries, measured per layer.
//!
//! Every cell of `paper::theorem5_grid` and `paper::theorem6_grid` crossed
//! with `AdversaryAlgorithm::all()`, and every cell of `paper::search_grid`
//! crossed with the smallest-class search roster, is one job; a pass runs
//! all 57 as one batch on the workload's pool, on the backend
//! `lower_bounds` picks with no flags. Adversaries are deterministic, so
//! the seed only shuffles cells of equal size; larger cells go first.
//!
//! These passes run inside the traced run of `sort-large`. Their
//! wall-clock figures drift too much on a shared machine to carry an
//! end-to-end bound (see `perfbench/README.md`), so they report per-layer
//! metrics only.

use crate::report::{Report, ADVERSARY_ROSTER};
use crate::stats::{mean, median, ratio};
use crate::trace::{OracleTrace, TimingOracle};
use ecs_adversary::{
    EqualSizeAdversary, LowerBoundAdversary, SmallestClassAdversary, SmallestClassSearch,
};
use ecs_bench::paper::{search_grid, theorem5_grid, theorem6_grid};
use ecs_bench::runners::{search_variants, AdversaryAlgorithm, SearchVariant};
use ecs_model::throughput::Job;
use ecs_model::{EquivalenceOracle, ExecutionBackend, Partition, PlanStats, ThroughputPool};
use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
use std::time::Instant;

/// Who plays against the adversary.
#[derive(Debug, Clone, Copy)]
enum Player {
    Sort(AdversaryAlgorithm),
    Search(SearchVariant),
}

impl Player {
    /// Runs against `oracle`; returns the derived partition and the rounds
    /// charged.
    fn play<O: EquivalenceOracle>(
        &self,
        oracle: &O,
        backend: ExecutionBackend,
    ) -> (Partition, u64) {
        match *self {
            Player::Sort(algorithm) => {
                let run = algorithm.run(oracle, backend);
                (run.partition, run.metrics.rounds())
            }
            Player::Search(variant) => {
                let mut search = SmallestClassSearch::new(variant.wave);
                if variant.audit {
                    search = search.with_audit();
                }
                let report = search.run(oracle, backend);
                (report.partition, report.metrics.rounds())
            }
        }
    }
}

/// One adversary cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    n: usize,
    /// `f` (Theorem 5) or `ℓ` (Theorem 6).
    p: usize,
    equal_size: bool,
    player: Player,
    /// Index into [`ADVERSARY_ROSTER`].
    roster: usize,
}

impl Cell {
    fn label(&self) -> String {
        let (theorem, param) = if self.equal_size { (5, "f") } else { (6, "l") };
        format!(
            "theorem {theorem} n={} {param}={} {}",
            self.n, self.p, ADVERSARY_ROSTER[self.roster]
        )
    }
}

/// Every cell of one pass, larger cells first, equal sizes shuffled by
/// `seed`.
fn cells(seed: u64) -> Vec<Cell> {
    let sorts = AdversaryAlgorithm::all();
    let mut cells = Vec::new();
    for (grid, equal_size) in [(theorem5_grid(), true), (theorem6_grid(), false)] {
        for (n, p) in grid {
            for (roster, &algorithm) in sorts.iter().enumerate() {
                cells.push(Cell {
                    n,
                    p,
                    equal_size,
                    player: Player::Sort(algorithm),
                    roster,
                });
            }
        }
    }
    for (n, p) in search_grid() {
        for (i, variant) in search_variants().into_iter().enumerate() {
            cells.push(Cell {
                n,
                p,
                equal_size: false,
                player: Player::Search(variant),
                roster: sorts.len() + i,
            });
        }
    }
    Xoshiro256StarStar::seed_from_u64(seed).shuffle(&mut cells);
    cells.sort_by_key(|cell| std::cmp::Reverse(cell.n));
    cells
}

/// What one cell did.
#[derive(Debug, Clone)]
struct CellResult {
    forced: u64,
    bound: u64,
    rounds: u64,
    plan: PlanStats,
    seconds: f64,
    problems: Vec<String>,
    trace: Option<OracleTrace>,
}

fn settle<A: LowerBoundAdversary>(
    adversary: &A,
    cell: &Cell,
    backend: ExecutionBackend,
    traced: bool,
    plan: impl Fn(&A) -> PlanStats,
    pinned: impl Fn(&A) -> bool,
) -> CellResult {
    let started = Instant::now();
    let ((partition, rounds), trace) = if traced {
        let timing = TimingOracle::new(adversary);
        (
            cell.player.play(&timing, backend),
            Some(timing.trace(false)),
        )
    } else {
        (cell.player.play(adversary, backend), None)
    };
    let seconds = started.elapsed().as_secs_f64();
    let forced = adversary.comparisons();
    let bound = adversary.paper_lower_bound();
    let mut problems = Vec::new();
    if partition != adversary.partition() {
        problems.push(format!("{}: not the adversary's partition", cell.label()));
    }
    if forced < bound {
        problems.push(format!(
            "{}: {forced} comparisons < bound {bound}",
            cell.label()
        ));
    }
    if matches!(cell.player, Player::Search(_)) && !pinned(adversary) {
        problems.push(format!("{}: smallest class not pinned", cell.label()));
    }
    CellResult {
        forced,
        bound,
        rounds,
        plan: plan(adversary),
        seconds,
        problems,
        trace,
    }
}

fn run_cell(cell: &Cell, backend: ExecutionBackend, traced: bool) -> CellResult {
    if cell.equal_size {
        settle(
            &EqualSizeAdversary::new(cell.n, cell.p),
            cell,
            backend,
            traced,
            EqualSizeAdversary::plan_stats,
            |_| true,
        )
    } else {
        settle(
            &SmallestClassAdversary::new(cell.n, cell.p),
            cell,
            backend,
            traced,
            SmallestClassAdversary::plan_stats,
            SmallestClassAdversary::smallest_class_pinned,
        )
    }
}

/// Runs one pass of `cells` on the pool; returns the results in cell order
/// and the wall time.
fn pass(
    pool: &ThroughputPool,
    cells: &[Cell],
    backend: ExecutionBackend,
    traced: bool,
    report: &mut Report,
) -> (Vec<CellResult>, f64) {
    let jobs: Vec<Job<'_, CellResult>> = cells
        .iter()
        .map(|cell| Box::new(move || run_cell(cell, backend, traced)) as Job<'_, CellResult>)
        .collect();
    let started = Instant::now();
    let results = pool.run(jobs);
    let wall = started.elapsed().as_secs_f64();
    report.attempted += results.len() as u64;
    for result in &results {
        for problem in &result.problems {
            report.fail(problem.clone());
        }
    }
    (results, wall)
}

/// Measures the adversary layers: one untraced pass over every cell, then
/// one traced pass that must charge the same counts. Reports the
/// `adversary.*` per-layer metrics; every cell's partition and bound are
/// checked in both passes.
pub fn report_layers(pool: &ThroughputPool, seed: u64, report: &mut Report) {
    let backend = ExecutionBackend::from_env();
    let cells = cells(seed);
    let (untraced, _) = pass(pool, &cells, backend, false, report);
    let worst = untraced
        .iter()
        .map(|r| ratio(r.forced as f64, r.bound as f64))
        .fold(f64::INFINITY, f64::min);
    report.set("adversary.forced_over_bound_min", worst);
    let (cached, replayed, invalidated) = untraced.iter().fold((0, 0, 0), |acc, r| {
        (
            acc.0 + r.plan.cached,
            acc.1 + r.plan.replayed,
            acc.2 + r.plan.invalidated,
        )
    });
    report.set(
        "adversary.plan_hit_ratio",
        ratio(cached as f64, (cached + replayed) as f64),
    );
    report.set("adversary.invalidated", invalidated as f64);

    let (traced, _) = pass(pool, &cells, backend, true, report);
    let (mut opened, mut closed) = (Vec::new(), Vec::new());
    let (mut query_ns, mut calls) = (0.0, 0u64);
    for ((result, plain), cell) in traced.iter().zip(&untraced).zip(&cells) {
        if (result.forced, result.rounds) != (plain.forced, plain.rounds) {
            report.fail(format!(
                "{}: the traced pass changed its counts",
                cell.label()
            ));
        }
        let trace = result.trace.as_ref().expect("traced cells carry a trace");
        opened.extend(trace.opened_ns.iter().map(|&ns| ns as f64 / 1e3));
        closed.extend(trace.closed_ns.iter().map(|&ns| ns as f64 / 1e3));
        query_ns += trace.query_ns;
        calls += trace.calls;
    }
    report.set("adversary.open_us_mean", mean(&opened));
    report.set("adversary.close_us_mean", mean(&closed));
    report.set(
        "adversary.serve_us_mean",
        ratio(query_ns, calls as f64) / 1e3,
    );
    for (roster, name) in ADVERSARY_ROSTER.iter().enumerate() {
        let runs: Vec<f64> = traced
            .iter()
            .zip(&cells)
            .filter(|(_, cell)| cell.roster == roster)
            .map(|(result, _)| result.seconds * 1e3)
            .collect();
        report.set(format!("adversary.run_ms_p50.{name}"), median(&runs));
    }
}
