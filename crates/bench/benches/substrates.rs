//! Criterion benchmarks for the substrates: union-find, Hamiltonian unions,
//! ER scheduling, the PRNG, instance building from the class samplers, and
//! the packed bitset substrate against its pointer-based counterparts
//! (hash-set pair graphs, `Vec<Vec<usize>>` class exports).
//!
//! Set `ECS_BENCH_SMOKE=1` to shrink the workloads (used by CI on every
//! push).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecs_bench::smoke;
use ecs_graph::{HamiltonianUnion, PairBitset, UnionFind};
use ecs_model::schedule::schedule_er;
use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
use ecs_service::DistSpec;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;

fn union_find(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_union_find");
    for &n in &[10_000usize, 100_000] {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let ops: Vec<(usize, usize)> = (0..n).map(|_| (rng.below(n), rng.below(n))).collect();
        group.bench_with_input(BenchmarkId::new("random_unions", n), &ops, |b, ops| {
            b.iter(|| {
                let mut uf = UnionFind::new(n);
                for &(a, bb) in ops {
                    uf.union(a, bb);
                }
                black_box(uf.num_sets())
            });
        });
    }
    group.finish();
}

fn hamiltonian(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_hamiltonian");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[10_000usize, 50_000] {
        group.bench_with_input(BenchmarkId::new("build_and_schedule", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = Xoshiro256StarStar::seed_from_u64(3);
                let h = HamiltonianUnion::random(n, 8, &mut rng);
                let mut pairs = 0;
                h.for_each_er_round(|round| pairs += round.len());
                black_box(pairs)
            });
        });
    }
    group.finish();
}

fn er_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_schedule");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &m in &[10_000usize, 50_000] {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let pairs: Vec<(usize, usize)> = (0..m)
            .map(|_| {
                let a = rng.below(m);
                let mut b = rng.below(m);
                if a == b {
                    b = (b + 1) % m;
                }
                (a, b)
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("greedy_er", m), &pairs, |b, pairs| {
            b.iter(|| black_box(schedule_er(pairs).len()));
        });
    }
    group.finish();
}

fn rng_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_rng");
    group.bench_function("xoshiro_1M_draws", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(5);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        });
    });
    group.finish();
}

/// `DistSpec::instance(2000, seed)` as every `sort-large` job builds it:
/// the five slate distributions, plus the two parameters whose samplers
/// answer most draws from their formula rather than a table (zeta:1.1's
/// heavy tail, geometric:0.9's long run of thresholds). Each timed call
/// builds one instance on a fresh seed, so a row reads as time per build.
fn instance_build(c: &mut Criterion) {
    let specs = [
        DistSpec::Uniform(5),
        DistSpec::Geometric(0.3),
        DistSpec::Poisson(4.0),
        DistSpec::Zeta(2.5),
        DistSpec::Balanced(7),
        DistSpec::Zeta(1.1),
        DistSpec::Geometric(0.9),
    ];
    let mut group = c.benchmark_group("instance_build");
    group.sample_size(if smoke() { 10 } else { 400 });
    for spec in specs {
        let mut seed = 0u64;
        group.bench_with_input(BenchmarkId::new("n2000", spec), &spec, |b, &spec| {
            b.iter(|| {
                seed += 1;
                black_box(spec.instance(2000, seed).num_classes())
            });
        });
    }
    group.finish();
}

/// Packed pair triangle vs hash-set adjacency: build the known-unequal graph
/// of an adversary-sized universe edge by edge, then probe every edge in
/// both orientations (the `adjacent`/`degree` hot path of the case
/// analysis).
fn pair_graph(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[2_048] } else { &[2_048, 8_192] };
    let mut group = c.benchmark_group("substrate_pair_graph");
    group.sample_size(if smoke() { 10 } else { 20 });
    for &n in sizes {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let edges: Vec<(usize, usize)> = (0..8 * n)
            .map(|_| {
                let a = rng.below(n);
                let mut b = rng.below(n);
                if a == b {
                    b = (b + 1) % n;
                }
                (a, b)
            })
            .collect();

        group.bench_with_input(BenchmarkId::new("packed", n), &edges, |bench, edges| {
            bench.iter(|| {
                let mut g = PairBitset::new(n);
                for &(a, b) in edges {
                    g.set(a, b);
                }
                let mut hits = 0usize;
                for &(a, b) in edges {
                    hits += usize::from(g.test(a, b)) + usize::from(g.test(b, a));
                }
                black_box(hits)
            });
        });

        group.bench_with_input(BenchmarkId::new("hashset", n), &edges, |bench, edges| {
            bench.iter(|| {
                let mut g: HashMap<usize, HashSet<usize>> = HashMap::new();
                for &(a, b) in edges {
                    g.entry(a).or_default().insert(b);
                    g.entry(b).or_default().insert(a);
                }
                let mut hits = 0usize;
                for &(a, b) in edges {
                    hits += usize::from(g.get(&a).is_some_and(|s| s.contains(&b)));
                    hits += usize::from(g.get(&b).is_some_and(|s| s.contains(&a)));
                }
                black_box(hits)
            });
        });
    }
    group.finish();
}

/// Packed class export ([`UnionFind::classes_as_bitrows`]) vs the
/// `Vec<Vec<usize>>` group export, on a forest merged down to the small
/// class count the row view is built for (`k` equivalence classes). The row
/// view is a
/// `k x n` bit matrix, so it is only sensible — and only benchmarked — at
/// small `k`.
fn class_export(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() {
        &[10_000]
    } else {
        &[10_000, 100_000]
    };
    let k = 64usize;
    let mut group = c.benchmark_group("substrate_class_export");
    for &n in sizes {
        let mut uf = UnionFind::new(n);
        for i in k..n {
            // Chain unions within each residue class mod k: exactly k
            // classes, with non-trivial trees rather than stars.
            uf.union(i, i - k);
        }
        assert_eq!(uf.num_sets(), k);
        group.bench_with_input(BenchmarkId::new("bitrows", n), &(), |bench, _| {
            bench.iter(|| {
                let mut uf = uf.clone();
                black_box(uf.classes_as_bitrows().len())
            });
        });
        group.bench_with_input(BenchmarkId::new("groups", n), &(), |bench, _| {
            bench.iter(|| {
                let mut uf = uf.clone();
                black_box(uf.groups().len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    union_find,
    hamiltonian,
    er_scheduling,
    rng_throughput,
    instance_build,
    pair_graph,
    class_export
);
criterion_main!(benches);
