//! Transcript goldens for the sort engines.
//!
//! `metrics_regression` pins how many comparisons and rounds each algorithm
//! charges; it cannot see *which* pairs were asked or in what order. These
//! goldens pin the full query transcript — every `(a, b, answer)` in the
//! order the oracle saw it — as an FNV-1a digest, for the six algorithms on
//! the five `sort-large` distributions at n = 1000, round-robin on inputs
//! where its scans skip long runs of known elements (many classes at
//! n = 2000, all-distinct labels), plus the forced count and transcript of
//! naive all-pairs and round-robin against the Theorem 5 equal-size
//! adversary. A change to an engine's bookkeeping that keeps the
//! counts but reorders or swaps a single query fails here.
//!
//! If a change is *meant* to alter a transcript, regenerate every pinned value
//! in this file together: the failure message prints the whole table.

use parallel_ecs::prelude::*;
use parallel_ecs::service::{AlgoSpec, DistSpec};

/// The five distributions of the `sort-large` benchmark slates.
const DISTS: [DistSpec; 5] = [
    DistSpec::Uniform(5),
    DistSpec::Geometric(0.3),
    DistSpec::Poisson(4.0),
    DistSpec::Zeta(2.5),
    DistSpec::Balanced(7),
];

const N: usize = 1000;

/// What one run showed the oracle and what it charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    digest: u64,
    comparisons: u64,
    rounds: u64,
    max_round_size: usize,
}

/// FNV-1a over the transcript's `(a, b, answer)` triples, in query order.
fn digest(transcript: &Transcript) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (a, b, same) in transcript.iter() {
        for byte in (a as u32).to_le_bytes() {
            eat(byte);
        }
        for byte in (b as u32).to_le_bytes() {
            eat(byte);
        }
        eat(u8::from(same));
    }
    hash
}

fn pin(run: &EcsRun, transcript: &Transcript) -> Pin {
    assert_eq!(
        transcript.len() as u64,
        run.metrics.comparisons(),
        "every charged comparison reaches the oracle exactly once"
    );
    Pin {
        digest: digest(transcript),
        comparisons: run.metrics.comparisons(),
        rounds: run.metrics.rounds(),
        max_round_size: run.metrics.max_round_size(),
    }
}

/// Runs one algorithm on `instance`, checks its partition and pins what the
/// oracle saw.
fn record(algo: AlgoSpec, seed: u64, instance: &Instance) -> Pin {
    let k = instance.ground_truth().num_classes().max(1);
    let oracle = RecordingOracle::new(InstanceOracle::new(instance));
    let run = algo.sort(seed, k, &oracle, ExecutionBackend::Sequential);
    assert!(instance.verify(&run.partition), "{algo}: wrong partition");
    pin(&run, &oracle.into_transcript())
}

/// Runs every algorithm on one distribution and compares against `golden`
/// (one pin per algorithm, in `AlgoSpec::ALL` order).
fn check_distribution(d: usize, golden: &[Pin]) {
    let dist = DISTS[d];
    let seed = 0x5eed_0000 + d as u64;
    let instance = dist.instance(N, seed);
    let actual: Vec<Pin> = AlgoSpec::ALL
        .into_iter()
        .map(|algo| record(algo, seed, &instance))
        .collect();
    assert_eq!(
        actual,
        golden,
        "transcripts changed on {dist}; actual pins:\n{}",
        table(&actual)
    );
}

/// Renders pins in the `pins!` syntax, for regenerating a golden.
fn table(pins: &[Pin]) -> String {
    pins.iter()
        .map(|p| {
            format!(
                "({:#018x}, {}, {}, {}),\n",
                p.digest, p.comparisons, p.rounds, p.max_round_size
            )
        })
        .collect()
}

macro_rules! pins {
    ($(($digest:expr, $comparisons:expr, $rounds:expr, $max:expr)),* $(,)?) => {
        [$(Pin { digest: $digest, comparisons: $comparisons, rounds: $rounds, max_round_size: $max }),*]
    };
}

#[test]
fn uniform_transcripts() {
    check_distribution(
        0,
        &pins![
            (0x5076215cb9e65c68, 499500, 499500, 1),
            (0x4cc103de6f234626, 2972, 2972, 1),
            (0x96667caefa82f18a, 3012, 3012, 1),
            (0x63e4554b22ce08a0, 4907, 42, 500),
            (0x6882eb21b04d8148, 23911, 54, 500),
            (0xc9424fedd015bcd4, 5082, 11, 1000),
        ],
    );
}

#[test]
fn geometric_transcripts() {
    check_distribution(
        1,
        &pins![
            (0x12ffeea617819396, 499500, 499500, 1),
            (0xe068500f474ec199, 1666, 1666, 1),
            (0x72a0a7add1d13155, 1426, 1426, 1),
            (0x3a36a2f8e887fe48, 2708, 46, 500),
            (0x710c0fdbae9e167f, 22453, 60, 500),
            (0xfd68746b8be3935f, 2787, 9, 542),
        ],
    );
}

#[test]
fn poisson_transcripts() {
    check_distribution(
        2,
        &pins![
            (0xc5c4a41b4b894682, 499500, 499500, 1),
            (0x4445c6bf9b694284, 4142, 4142, 1),
            (0x5d5c55f6127e79ea, 4807, 4807, 1),
            (0xbf028d962054a947, 8197, 80, 500),
            (0x269164fe24867e03, 24658, 81, 500),
            (0x94944b273021251b, 8197, 14, 1000),
        ],
    );
}

#[test]
fn zeta_transcripts() {
    check_distribution(
        3,
        &pins![
            (0xdb5ccf506fc0df50, 499500, 499500, 1),
            (0x52c75c03ff320e8b, 2090, 2090, 1),
            (0x51d3b1d87ffa7ad0, 1971, 1971, 1),
            (0x2dec908748a4c96d, 3894, 80, 500),
            (0xf66f44e3f6fb9d8f, 22888, 91, 500),
            (0x1f08ada4c90d4c5b, 3894, 10, 500),
        ],
    );
}

#[test]
fn balanced_transcripts() {
    check_distribution(
        4,
        &pins![
            (0x75aeaa76fe9b2ae0, 499500, 499500, 1),
            (0x08a42bc89a292ee8, 3968, 3968, 1),
            (0x16f875bd5ee1bc8c, 3996, 3996, 1),
            (0x467a654fe37e9520, 6935, 56, 500),
            (0x2e1b7779304064ec, 24997, 65, 500),
            (0xaadbe451010811fd, 7082, 12, 1000),
        ],
    );
}

/// Round-robin where row scanners and long skips dominate: uniform:100 and
/// zeta:1.5 at n = 2000 (many classes, so many groups' known sets are bit
/// rows), and n = 300 all-distinct labels (every scan skips every element it
/// already compared).
#[test]
fn round_robin_long_skip_transcripts() {
    let mut actual: Vec<Pin> = [DistSpec::Uniform(100), DistSpec::Zeta(1.5)]
        .into_iter()
        .enumerate()
        .map(|(d, dist)| {
            let seed = 0x5eed_1000 + d as u64;
            record(AlgoSpec::RoundRobin, seed, &dist.instance(2000, seed))
        })
        .collect();
    let distinct: Vec<u32> = (0..300).collect();
    actual.push(record(
        AlgoSpec::RoundRobin,
        0,
        &Instance::from_labels(&distinct),
    ));
    let golden: &[Pin] = &pins![
        (0x639d10fd211315ce, 98761, 98761, 1),
        (0xc86ede410dfb4541, 48723, 48723, 1),
        (0x89b25807e4fd4e1d, 44850, 44850, 1),
    ];
    assert_eq!(
        actual,
        golden,
        "round-robin transcripts changed; actual pins:\n{}",
        table(&actual)
    );
}

/// The sequential engines against the Theorem 5 adversary: the forced count
/// and the transcript the adversary answered.
#[test]
fn equal_size_adversary_transcripts() {
    let (n, f) = (256, 8);
    let mut actual = Vec::new();
    for algo in [AlgoSpec::Naive, AlgoSpec::RoundRobin] {
        let adversary = EqualSizeAdversary::new(n, f).with_transcript();
        let run = algo.sort(0, f, &adversary, ExecutionBackend::Sequential);
        assert_eq!(run.partition, adversary.partition(), "{algo}: commitment");
        assert_eq!(adversary.comparisons(), run.metrics.comparisons());
        actual.push(pin(&run, &adversary.transcript()));
    }
    let golden: &[Pin] = &pins![
        (0x6eb365bebc18caa5, 32640, 32640, 1),
        (0xcdb10192267f094c, 2371, 2371, 1),
    ];
    assert_eq!(
        actual,
        golden,
        "adversary transcripts changed; actual pins:\n{}",
        table(&actual)
    );
}
