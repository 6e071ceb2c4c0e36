//! Round-robin against a dense reference of its schedule.
//!
//! `RoundRobin` keeps its knowledge in lazy lists, bit rows and cached runs
//! of known positions (see `ecs_core::sequential::round_robin`). This file
//! re-implements the same schedule with none of that: one `n × n` matrix of
//! known-different group pairs, group labels relabelled by a full pass, and a
//! scan that tests every position in turn. Both must ask the oracle the very
//! same queries, in the same order, and return the same partition.
//!
//! The inputs are the five `sort-large` distributions at n = 2000, plus
//! uniform:100 and zeta:1.5 (many classes, so most known sets are long), on
//! seeds 1–3.

use parallel_ecs::prelude::*;
use parallel_ecs::service::DistSpec;

/// What the reference knows: group labels and a dense matrix of group pairs
/// known to differ.
struct Dense {
    n: usize,
    group: Vec<usize>,
    size: Vec<usize>,
    /// `known[g * n + h]`: groups `g` and `h` are known to differ.
    known: Vec<bool>,
    /// The number of live groups `g` is known to differ from.
    count: Vec<usize>,
    live: usize,
    known_pairs: usize,
}

impl Dense {
    fn new(n: usize) -> Self {
        Self {
            n,
            group: (0..n).collect(),
            size: vec![1; n],
            known: vec![false; n * n],
            count: vec![0; n],
            live: n,
            known_pairs: 0,
        }
    }

    fn complete(&self) -> bool {
        self.known_pairs == self.live * (self.live - 1) / 2
    }

    fn fully_informed(&self, x: usize) -> bool {
        self.count[self.group[x]] == self.live - 1
    }

    fn unknown(&self, x: usize, y: usize) -> bool {
        let (gx, gy) = (self.group[x], self.group[y]);
        gx != gy && !self.known[gx * self.n + gy]
    }

    fn record_different(&mut self, x: usize, y: usize) {
        let (gx, gy) = (self.group[x], self.group[y]);
        self.known[gx * self.n + gy] = true;
        self.known[gy * self.n + gx] = true;
        self.count[gx] += 1;
        self.count[gy] += 1;
        self.known_pairs += 1;
    }

    fn record_equal(&mut self, x: usize, y: usize) {
        let (gx, gy) = (self.group[x], self.group[y]);
        if gx == gy {
            return;
        }
        let n = self.n;
        let (keep, gone) = if self.size[gx] >= self.size[gy] {
            (gx, gy)
        } else {
            (gy, gx)
        };
        for h in 0..n {
            if !self.known[gone * n + h] {
                continue;
            }
            self.known[gone * n + h] = false;
            self.known[h * n + gone] = false;
            if self.known[keep * n + h] {
                // h knew both: two known pairs become one.
                self.count[h] -= 1;
                self.known_pairs -= 1;
            } else {
                self.known[keep * n + h] = true;
                self.known[h * n + keep] = true;
            }
        }
        for g in self.group.iter_mut() {
            if *g == gone {
                *g = keep;
            }
        }
        self.size[keep] += self.size[gone];
        self.count[keep] = (0..n).filter(|&h| self.known[keep * n + h]).count();
        self.count[gone] = 0;
        self.live -= 1;
    }
}

/// Round-robin's schedule on the dense reference: the transcript it asks of
/// `oracle` and the final group labels.
fn reference<O: EquivalenceOracle>(oracle: &O) -> (Vec<(usize, usize, bool)>, Vec<usize>) {
    let n = oracle.n();
    let mut dense = Dense::new(n);
    let mut transcript = Vec::new();
    let mut cursors = vec![1; n];
    while !dense.complete() {
        let mut progressed = false;
        for (x, cursor) in cursors.iter_mut().enumerate() {
            if dense.complete() {
                break;
            }
            if *cursor >= n {
                continue;
            }
            if dense.fully_informed(x) {
                *cursor = n;
                continue;
            }
            let Some(offset) = (*cursor..n).find(|&o| dense.unknown(x, (x + o) % n)) else {
                *cursor = n;
                continue;
            };
            *cursor = offset + 1;
            progressed = true;
            let y = (x + offset) % n;
            let same = oracle.same(x, y);
            transcript.push((x, y, same));
            if same {
                dense.record_equal(x, y);
            } else {
                dense.record_different(x, y);
            }
        }
        assert!(progressed || dense.complete(), "the reference stalled");
    }
    (transcript, dense.group)
}

fn check(dist: DistSpec, n: usize, seed: u64) {
    let instance = dist.instance(n, seed);
    let oracle = RecordingOracle::new(InstanceOracle::new(&instance));
    let run = RoundRobin::new().sort(&oracle);
    let actual: Vec<(usize, usize, bool)> = oracle.into_transcript().iter().collect();
    let (expected, labels) = reference(&InstanceOracle::new(&instance));
    assert!(instance.verify(&run.partition), "{dist}, seed {seed}");
    assert_eq!(
        run.partition,
        Partition::from_labels(&labels),
        "{dist}, seed {seed}"
    );
    assert_eq!(run.metrics.comparisons(), expected.len() as u64);
    if let Some(i) = (0..actual.len().min(expected.len())).find(|&i| actual[i] != expected[i]) {
        panic!(
            "{dist}, seed {seed}: query {i} is {:?}, the reference asks {:?}",
            actual[i], expected[i]
        );
    }
    assert_eq!(actual.len(), expected.len(), "{dist}, seed {seed}");
}

#[test]
fn sort_large_distributions_match_the_dense_reference() {
    for dist in [
        DistSpec::Uniform(5),
        DistSpec::Geometric(0.3),
        DistSpec::Poisson(4.0),
        DistSpec::Zeta(2.5),
        DistSpec::Balanced(7),
    ] {
        for seed in 1..=3 {
            check(dist, 2000, seed);
        }
    }
}

#[test]
fn many_class_distributions_match_the_dense_reference() {
    for dist in [DistSpec::Uniform(100), DistSpec::Zeta(1.5)] {
        for seed in 1..=3 {
            check(dist, 2000, seed);
        }
    }
}
