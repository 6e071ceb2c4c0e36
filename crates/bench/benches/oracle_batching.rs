//! Scalar vs batched round evaluation under a synthetic-latency oracle.
//!
//! The paper's cost model charges rounds by oracle *queries*; for an oracle
//! whose cost is dominated by a per-request fixed cost (a service round
//! trip, a seek into a disk-resident partition), a round of `m` comparisons
//! evaluated pair-at-a-time is `m` blocking round trips. This bench puts a
//! number on what [`ExecutionBackend::Batched`] buys back:
//!
//! * **round evaluation** — one large ER round on a [`SyntheticLatencyOracle`]
//!   (a fixed per-request latency plus a small per-pair cost, busy-waited so
//!   the measurement is scheduler-independent), evaluated under the
//!   sequential backend and batched backends with several wave sizes.
//!
//! Answers are asserted bit-identical across configurations before any
//! timing starts. Set `ECS_BENCH_SMOKE=1` to shrink the workload (used by CI
//! to exercise the harness on every push).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecs_bench::smoke;
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, LabelOracle, ReadMode};
use std::time::{Duration, Instant};

/// Busy-waits for `duration` — `thread::sleep` has millisecond-scale
/// granularity on some hosts, far above the microsecond latencies modelled
/// here.
fn spin_for(duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

/// An oracle modelling an I/O-backed service: every request (scalar or
/// batch) costs a fixed latency, plus a small per-pair cost inside a batch.
/// Batching a round therefore amortizes the dominant fixed cost over the
/// whole wave.
struct SyntheticLatencyOracle {
    inner: LabelOracle,
    /// Fixed cost per request (one `same` call or one `same_batch` wave).
    per_request: Duration,
    /// Marginal cost per pair inside a batch.
    per_pair: Duration,
}

impl SyntheticLatencyOracle {
    fn new(labels: Vec<u32>, per_request_us: u64, per_pair_ns: u64) -> Self {
        Self {
            inner: LabelOracle::new(labels),
            per_request: Duration::from_micros(per_request_us),
            per_pair: Duration::from_nanos(per_pair_ns),
        }
    }
}

impl EquivalenceOracle for SyntheticLatencyOracle {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        spin_for(self.per_request + self.per_pair);
        self.inner.same(a, b)
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        spin_for(self.per_request + self.per_pair * pairs.len() as u32);
        self.inner.same_batch(pairs)
    }
}

fn matching_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect()
}

fn round_evaluation(c: &mut Criterion) {
    let n = if smoke() { 2_000 } else { 20_000 };
    let labels: Vec<u32> = (0..n as u32).map(|i| i % 16).collect();
    // 20µs per request: a fast same-rack service call; 50ns marginal per
    // batched pair.
    let oracle = SyntheticLatencyOracle::new(labels, 20, 50);
    let pairs = matching_pairs(n);

    let backends = [
        ExecutionBackend::Sequential,
        ExecutionBackend::batched(64),
        ExecutionBackend::batched(256),
        ExecutionBackend::batched(0), // whole round as one wave
    ];

    // Determinism gate: every batched configuration must reproduce the
    // scalar answers bit-for-bit before its timing is worth reporting.
    let reference = {
        let mut session = ComparisonSession::with_backend(
            &oracle,
            ReadMode::Concurrent,
            ExecutionBackend::Sequential,
        );
        session.execute_round(&pairs)
    };
    for backend in backends {
        let mut session = ComparisonSession::with_backend(&oracle, ReadMode::Concurrent, backend);
        assert_eq!(
            session.execute_round(&pairs),
            reference,
            "{} diverged from scalar answers",
            backend.label()
        );
    }

    let mut group = c.benchmark_group(format!("oracle_batching_round_n{n}"));
    group.sample_size(if smoke() { 3 } else { 10 });
    for backend in backends {
        group.bench_with_input(
            BenchmarkId::new("execute_round", backend.label()),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    let mut session =
                        ComparisonSession::with_backend(&oracle, ReadMode::Concurrent, backend);
                    std::hint::black_box(session.execute_round(pairs).len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, round_evaluation);
criterion_main!(benches);
