//! Properties of the bulk oracle paths: a round as one `same_batch` call,
//! and a sequential row as one `same_row` call.
//!
//! Two guarantees:
//!
//! 1. **Pairwise agreement.** `same_batch` must agree with `same` pair by
//!    pair — `same_batch(pairs)[i] == same(pairs[i].0, pairs[i].1)` — for
//!    both ground-truth oracle types ([`InstanceOracle`], [`LabelOracle`])
//!    on instances drawn from all four of the paper's class-size
//!    distributions. This is the contract that keeps a round evaluated
//!    inline (one `same_batch` call) identical to the same round sharded on
//!    the pool (one `same_batch` call per shard, at most `threads` shards,
//!    and no `same` call — counted below).
//! 2. **Row transparency.** `ComparisonSession::compare_row` must ask,
//!    answer and charge exactly what a loop of `compare` calls does — also
//!    for the order-adaptive adversaries, which keep the default `same_row`
//!    (a `same` loop) and so must force the same answers, partition and
//!    marks.

use ecs_adversary::{EqualSizeAdversary, SmallestClassAdversary};
use ecs_core::{EcsAlgorithm, NaiveAllPairs};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::{
    ComparisonSession, EquivalenceOracle, ExecutionBackend, Instance, InstanceOracle, LabelOracle,
    Partition, ReadMode,
};
use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

fn distribution(choice: u8) -> AnyDistribution {
    match choice % 4 {
        0 => AnyDistribution::uniform(8),
        1 => AnyDistribution::geometric(0.2),
        2 => AnyDistribution::poisson(5.0),
        _ => AnyDistribution::zeta(2.5),
    }
}

/// Deterministic pseudo-random pair list covering the index range, derived
/// from the proptest-drawn seed.
fn query_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x9E37_79B9);
    (0..count)
        .filter_map(|_| {
            let a = rng.next_u64() as usize % n;
            let b = rng.next_u64() as usize % n;
            (a != b).then_some((a, b))
        })
        .collect()
}

/// Deterministic pseudo-random rows `(a, others)` with `a` outside
/// `others`, of lengths 0 to 199 at arbitrary (mostly unaligned) starts.
fn query_rows(n: usize, count: usize, seed: u64) -> Vec<(usize, Range<usize>)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x51_7CC1_B727);
    (0..count)
        .map(|_| {
            let a = rng.next_u64() as usize % n;
            // Half the rows lie right of `a`, half left of it.
            let (lo, hi) = if rng.next_u64() % 2 == 0 {
                (a + 1, n)
            } else {
                (0, a)
            };
            let start = lo + rng.next_u64() as usize % (hi - lo + 1);
            let len = (rng.next_u64() as usize % 200).min(hi - start);
            (a, start..start + len)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Guarantee 1: pairwise agreement for both oracle types across all four
    /// distributions.
    #[test]
    fn same_batch_agrees_pairwise_with_same(
        seed in 0u64..10_000,
        n in 2usize..300,
        choice in 0u8..4,
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let instance = Instance::from_distribution(&distribution(choice), n, &mut rng);
        let instance_oracle = InstanceOracle::new(&instance);
        let label_oracle = LabelOracle::new(instance.ground_truth().labels().to_vec());
        let pairs = query_pairs(instance.n(), 200, seed);
        let scalar: Vec<bool> = pairs
            .iter()
            .map(|&(a, b)| instance_oracle.same(a, b))
            .collect();
        prop_assert_eq!(&instance_oracle.same_batch(&pairs), &scalar);
        prop_assert_eq!(&label_oracle.same_batch(&pairs), &scalar);
        // Scalar calls through the two oracle types agree too (the label
        // oracle answers from the instance's own ground truth).
        for &(a, b) in &pairs {
            prop_assert_eq!(instance_oracle.same(a, b), label_oracle.same(a, b));
        }
    }
}

/// Runs `rows` through one session as `compare_row` calls and through
/// another as a `compare` loop, and returns both answer lists after checking
/// the charges agree.
fn row_and_loop<O: EquivalenceOracle>(
    bulk: &O,
    looped: &O,
    rows: &[(usize, Range<usize>)],
) -> (Vec<bool>, Vec<bool>) {
    let mut s = ComparisonSession::new(bulk, ReadMode::Exclusive);
    let mut t = ComparisonSession::new(looped, ReadMode::Exclusive);
    let (mut words, mut by_row, mut compared) = (Vec::new(), Vec::new(), Vec::new());
    for (a, others) in rows {
        s.compare_row(*a, others.clone(), &mut words);
        by_row.extend((0..others.len()).map(|i| words[i / 64] >> (i % 64) & 1 == 1));
        compared.extend(others.clone().map(|b| t.compare(*a, b)));
    }
    assert_eq!(s.metrics(), t.metrics());
    assert_eq!(s.metrics().round_sizes(), t.metrics().round_sizes());
    (by_row, compared)
}

#[test]
fn adversaries_answer_a_row_exactly_as_a_compare_loop() {
    let n = 96;
    // All-pairs rows, the shape naive all-pairs submits, then a few
    // repeated rows and rows left of their `a`.
    let mut rows: Vec<(usize, Range<usize>)> = (0..n).map(|a| (a, (a + 1)..n)).collect();
    rows.extend([(5, 0..5), (90, 3..70), (5, 0..5)]);

    let (bulk, looped) = (EqualSizeAdversary::new(n, 4), EqualSizeAdversary::new(n, 4));
    let (by_row, compared) = row_and_loop(&bulk, &looped, &rows);
    assert_eq!(by_row, compared);
    assert_eq!(bulk.comparisons(), looped.comparisons());
    assert_eq!(bulk.marked_elements(), looped.marked_elements());
    assert_eq!(bulk.swaps(), looped.swaps());
    assert_eq!(bulk.partition(), looped.partition());

    let (bulk, looped) = (
        SmallestClassAdversary::new(n, 6),
        SmallestClassAdversary::new(n, 6),
    );
    let (by_row, compared) = row_and_loop(&bulk, &looped, &rows);
    assert_eq!(by_row, compared);
    assert_eq!(bulk.comparisons(), looped.comparisons());
    assert_eq!(bulk.marked_elements(), looped.marked_elements());
    assert_eq!(bulk.swaps(), looped.swaps());
    assert_eq!(bulk.partition(), looped.partition());
}

#[test]
fn ground_truth_rows_match_the_compare_loop_on_every_distribution() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(41);
    for choice in 0..4 {
        let instance = Instance::from_distribution(&distribution(choice), 300, &mut rng);
        let labels = instance.ground_truth().labels().to_vec();
        let rows = query_rows(300, 100, u64::from(choice));
        let oracle = InstanceOracle::new(&instance);
        let (by_row, compared) = row_and_loop(&oracle, &oracle, &rows);
        assert_eq!(by_row, compared);
        let oracle = LabelOracle::new(labels);
        let (by_row, compared) = row_and_loop(&oracle, &oracle, &rows);
        assert_eq!(by_row, compared);
        // Naive all-pairs, built on rows, still finds the truth.
        let run = NaiveAllPairs::new().sort(&InstanceOracle::new(&instance));
        assert_eq!(
            run.partition,
            Partition::from_labels(instance.ground_truth().labels())
        );
    }
}

/// A label oracle that counts its scalar and batch requests.
struct CountingOracle {
    inner: LabelOracle,
    same_calls: AtomicUsize,
    batch_calls: AtomicUsize,
    batched_pairs: AtomicUsize,
}

impl EquivalenceOracle for CountingOracle {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        self.same_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.same(a, b)
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.batch_calls.fetch_add(1, Ordering::SeqCst);
        self.batched_pairs.fetch_add(pairs.len(), Ordering::SeqCst);
        self.inner.same_batch(pairs)
    }
}

#[test]
fn a_pooled_round_is_at_most_threads_batch_calls() {
    let n = 10_000;
    let labels: Vec<u32> = (0..n as u32).map(|i| i % 13).collect();
    let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect();
    let expected = LabelOracle::new(labels.clone()).same_batch(&pairs);
    for threads in [2, 3, 4] {
        for round in [&pairs[..], &pairs[..threads + 1], &pairs[..1]] {
            let oracle = CountingOracle {
                inner: LabelOracle::new(labels.clone()),
                same_calls: AtomicUsize::new(0),
                batch_calls: AtomicUsize::new(0),
                batched_pairs: AtomicUsize::new(0),
            };
            let backend = ExecutionBackend::Threaded {
                threads,
                threshold: 1,
            };
            let mut session =
                ComparisonSession::with_backend(&oracle, ReadMode::Exclusive, backend);
            let answers = session.execute_round(round);
            assert_eq!(answers, expected[..round.len()], "threads = {threads}");
            let batches = oracle.batch_calls.load(Ordering::SeqCst);
            assert!(
                (1..=threads).contains(&batches),
                "{} pairs on {threads} threads took {batches} same_batch calls",
                round.len()
            );
            assert_eq!(
                oracle.same_calls.load(Ordering::SeqCst),
                0,
                "no scalar same call"
            );
            assert_eq!(oracle.batched_pairs.load(Ordering::SeqCst), round.len());
        }
    }
}
