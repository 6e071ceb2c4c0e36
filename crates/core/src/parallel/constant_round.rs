//! Theorem 4: exclusive-read ECS in `O(1)` rounds when every class is large.
//!
//! When the smallest equivalence class has size at least `λn` for a constant
//! `λ ∈ (0, 0.4]`, the paper classifies everything in a constant number of ER
//! rounds:
//!
//! 1. build `H_d`, the union of `d` random Hamiltonian cycles, with `d` chosen
//!    from Theorem 3's probability bound so that, with high probability, every
//!    class contains a connected component of `H_d`-equal edges of size at
//!    least `λn/8`;
//! 2. test all edges of `H_d` — the cycles decompose into matchings, so this
//!    takes `O(d)` ER rounds;
//! 3. take the large components this induces (one per class, w.h.p.), and
//!    compare each against the rest of the input, `|C|` elements per round —
//!    `O(1/λ)` rounds per class, `O(1/λ²)` rounds in total.
//!
//! If some class failed to produce a large component (low probability), or if
//! `λ` is unknown, the algorithm restarts with a halved `λ` estimate exactly as
//! the remark after Theorem 4 prescribes; all comparisons spent across
//! attempts are charged.
//!
//! Step 2 draws each cycle of `H_d` into one reused buffer just before its
//! rounds, streams the matchings one at a time through another
//! ([`HamiltonianUnion::for_each_random_er_round`]) and unites each round's
//! "equal" edges; neither the `d` permutations nor the `2d` or `3d` rounds
//! are materialised, and the cycles' draws from the attempt's generator
//! come in the same order as when all `d` were drawn up front. Step 3
//! builds the list of unclassified elements once and shrinks it as pivots
//! classify elements, and reuses one round buffer for every pivot round.
//! Neither changes a draw, a round or the order of its pairs.

use crate::run::{EcsAlgorithm, EcsRun};
use ecs_graph::{Fragments, HamiltonianUnion, UnionFind};
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, Partition, ReadMode};
use ecs_rng::{SeedableEcsRng, SplitMix64, Xoshiro256StarStar};

/// The constant-round exclusive-read algorithm (Theorem 4).
#[derive(Debug, Clone, Copy)]
pub struct ErConstantRound {
    lambda: Option<f64>,
    seed: u64,
    sharp_cycles: bool,
}

impl ErConstantRound {
    /// Creates the algorithm with a known lower bound `λ ∈ (0, 0.4]` on the
    /// smallest class fraction.
    ///
    /// # Panics
    ///
    /// Panics if `λ` is outside `(0, 0.4]`.
    pub fn with_lambda(lambda: f64, seed: u64) -> Self {
        assert!(
            lambda > 0.0 && lambda <= 0.4,
            "lambda must lie in (0, 0.4], got {lambda}"
        );
        Self {
            lambda: Some(lambda),
            seed,
            sharp_cycles: true,
        }
    }

    /// Creates the algorithm for the unknown-`λ` setting: it starts from the
    /// largest admissible value (0.4) and halves its estimate whenever an
    /// attempt fails.
    pub fn adaptive(seed: u64) -> Self {
        Self {
            lambda: None,
            seed,
            sharp_cycles: true,
        }
    }

    /// Uses the conservative `t ≤ −λ²/8` bound to pick the number of
    /// Hamiltonian cycles instead of the sharper exact exponent (more cycles,
    /// higher success probability; used by the ablation benchmarks).
    pub fn conservative_cycles(mut self) -> Self {
        self.sharp_cycles = false;
        self
    }

    /// The configured `λ`, if known.
    pub fn lambda(&self) -> Option<f64> {
        self.lambda
    }

    /// The number of Hamiltonian cycles the algorithm will use for a given
    /// `λ` estimate on an `n`-element instance.
    pub fn cycles_for(&self, lambda: f64, n: usize) -> usize {
        let d = if self.sharp_cycles {
            HamiltonianUnion::required_cycles_exact(lambda)
        } else {
            HamiltonianUnion::required_cycles(lambda)
        };
        d.min(n.max(2) - 1).max(1)
    }

    /// One attempt at a fixed `λ` estimate. Returns the labels if every
    /// element was classified, `None` if some class produced no component of
    /// size ≥ `λn/8` (so the attempt must be retried with more cycles).
    fn attempt<O: EquivalenceOracle>(
        &self,
        oracle: &O,
        session: &mut ComparisonSession<'_, O>,
        lambda: f64,
        attempt_index: u64,
    ) -> Option<Vec<usize>> {
        let n = oracle.n();
        let d = self.cycles_for(lambda, n);
        let mut rng =
            Xoshiro256StarStar::seed_from_u64(SplitMix64::new(self.seed).derive(attempt_index));

        // Step 2: test every edge of H_d in ER rounds, streamed one matching
        // at a time, each cycle drawn just before its rounds; each round's
        // "equal" edges are packed without a branch per edge, then united.
        let mut uf = UnionFind::new(n);
        let mut equal = Vec::new();
        HamiltonianUnion::for_each_random_er_round(n, d, &mut rng, |round| {
            let answers = session.execute_round(round);
            equal.resize(round.len(), (0, 0));
            let mut k = 0;
            for (&pair, &same) in round.iter().zip(&answers) {
                equal[k] = pair;
                k += usize::from(same);
            }
            for &(u, v) in &equal[..k] {
                uf.union(u, v);
            }
        });

        // Step 3: pivot on the large components, largest first (ties by
        // smallest member), read through the packed fragment view
        // ([`Fragments`]). A pivot's rounds zip its ascending members
        // against the still-unclassified elements in ascending order,
        // `size` of them per round; that list is built once and shrinks as
        // pivots classify elements.
        let fragments = Fragments::from_union_find(&mut uf);
        let threshold = (((lambda * n as f64) / 8.0).floor() as usize).max(1);

        let mut labels = vec![usize::MAX; n];
        let mut next_label = 0usize;
        let mut others: Vec<usize> = (0..n).collect();
        let mut members = Vec::new();
        let mut round = Vec::new();
        for idx in fragments.by_size_desc() {
            let size = fragments.size(idx);
            if size < threshold {
                break;
            }
            let first = fragments.smallest(idx).expect("fragments are non-empty");
            if labels[first] != usize::MAX {
                // This fragment's class was already classified by an earlier
                // (larger) pivot of the same class.
                continue;
            }
            let label = next_label;
            next_label += 1;
            members.clear();
            members.extend(fragments.row(idx).iter_ones());
            for &e in &members {
                labels[e] = label;
            }
            let mut kept = 0;
            for i in 0..others.len() {
                let x = others[i];
                others[kept] = x;
                kept += usize::from(labels[x] == usize::MAX);
            }
            others.truncate(kept);
            for chunk in others.chunks(size) {
                round.clear();
                round.extend(members.iter().copied().zip(chunk.iter().copied()));
                let answers = session.execute_round(&round);
                for (&(_, o), &same) in round.iter().zip(&answers) {
                    if same {
                        labels[o] = label;
                    }
                }
            }
        }

        if labels.iter().all(|&l| l != usize::MAX) {
            Some(labels)
        } else {
            None
        }
    }
}

impl EcsAlgorithm for ErConstantRound {
    fn name(&self) -> String {
        match self.lambda {
            Some(l) => format!("er-constant-round(lambda={l})"),
            None => "er-constant-round(adaptive)".to_string(),
        }
    }

    fn read_mode(&self) -> ReadMode {
        ReadMode::Exclusive
    }

    fn sort_with_backend<O: EquivalenceOracle>(
        &self,
        oracle: &O,
        backend: ExecutionBackend,
    ) -> EcsRun {
        let n = oracle.n();
        let mut session = ComparisonSession::with_backend(oracle, ReadMode::Exclusive, backend);
        if n == 0 {
            return EcsRun::new(Partition::from_labels::<u32>(&[]), session.into_metrics());
        }
        if n == 1 {
            return EcsRun::new(Partition::singletons(1), session.into_metrics());
        }

        let mut lambda = self.lambda.unwrap_or(0.4);
        let mut attempt_index = 0u64;
        loop {
            if let Some(labels) = self.attempt(oracle, &mut session, lambda, attempt_index) {
                return EcsRun::new(Partition::from_labels(&labels), session.into_metrics());
            }
            attempt_index += 1;
            // The remark after Theorem 4: halve the estimate and retry. Once
            // the component-size threshold reaches one element, every fragment
            // is a pivot and the attempt cannot fail, so this terminates.
            lambda = (lambda / 2.0).max(0.5 / n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_model::{Instance, InstanceOracle};
    use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn classifies_large_class_instances() {
        let mut r = rng(1);
        for &(n, k) in &[(50usize, 2usize), (200, 3), (500, 2), (999, 3)] {
            let inst = Instance::balanced(n, k, &mut r);
            let lambda = (inst.smallest_class_size() as f64 / n as f64).min(0.4);
            let oracle = InstanceOracle::new(&inst);
            let run = ErConstantRound::with_lambda(lambda, 7).sort(&oracle);
            assert!(inst.verify(&run.partition), "failed for n={n}, k={k}");
        }
    }

    #[test]
    fn adaptive_mode_works_without_lambda() {
        let mut r = rng(2);
        let inst = Instance::balanced(400, 4, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = ErConstantRound::adaptive(11).sort(&oracle);
        assert!(inst.verify(&run.partition));
    }

    #[test]
    fn tiny_instances() {
        let inst1 = Instance::from_labels(&[0u8]);
        let run = ErConstantRound::adaptive(3).sort(&InstanceOracle::new(&inst1));
        assert_eq!(run.partition.num_classes(), 1);

        let inst2 = Instance::from_labels(&[0u8, 1]);
        let run = ErConstantRound::adaptive(3).sort(&InstanceOracle::new(&inst2));
        assert!(inst2.verify(&run.partition));

        let inst0 = Instance::from_labels::<u8>(&[]);
        let run = ErConstantRound::adaptive(3).sort(&InstanceOracle::new(&inst0));
        assert!(run.partition.is_empty());
    }

    #[test]
    #[should_panic(expected = "lambda must lie")]
    fn rejects_lambda_above_point_four() {
        let _ = ErConstantRound::with_lambda(0.5, 1);
    }

    #[test]
    fn rounds_do_not_grow_with_n() {
        // The heart of Theorem 4: for fixed lambda the round count is O(1),
        // independent of n.
        let lambda = 0.25;
        let mut r = rng(3);
        let rounds_at = |n: usize, r: &mut Xoshiro256StarStar| {
            let inst = Instance::balanced(n, 3, r); // smallest class ~ n/3 > lambda n
            let oracle = InstanceOracle::new(&inst);
            let run = ErConstantRound::with_lambda(lambda, 5).sort(&oracle);
            assert!(inst.verify(&run.partition));
            run.metrics.rounds()
        };
        let small = rounds_at(600, &mut r);
        let large = rounds_at(20_000, &mut r);
        // Identical schedules up to the ±1 odd/even cycle-decomposition round
        // and chunk rounding; allow a small additive slack.
        assert!(
            large <= small + 6,
            "rounds grew from {small} (n=600) to {large} (n=20000)"
        );
    }

    #[test]
    fn comparisons_are_linear_in_n_for_fixed_lambda() {
        let lambda = 0.3;
        let mut r = rng(4);
        let comps_at = |n: usize, r: &mut Xoshiro256StarStar| {
            let inst = Instance::balanced(n, 3, r);
            let oracle = InstanceOracle::new(&inst);
            let run = ErConstantRound::with_lambda(lambda, 5).sort(&oracle);
            run.metrics.comparisons() as f64
        };
        let at_2k = comps_at(2_000, &mut r);
        let at_8k = comps_at(8_000, &mut r);
        let ratio = at_8k / at_2k;
        assert!(
            (3.0..5.0).contains(&ratio),
            "comparisons should scale ~linearly: ratio {ratio}"
        );
    }

    #[test]
    fn conservative_cycles_use_more_cycles() {
        let sharp = ErConstantRound::with_lambda(0.3, 1);
        let conservative = ErConstantRound::with_lambda(0.3, 1).conservative_cycles();
        assert!(conservative.cycles_for(0.3, 100_000) > sharp.cycles_for(0.3, 100_000));
    }

    #[test]
    fn cycles_capped_for_tiny_instances() {
        let alg = ErConstantRound::with_lambda(0.05, 1);
        assert!(alg.cycles_for(0.05, 10) <= 9);
    }

    #[test]
    fn unbalanced_but_large_classes() {
        let mut r = rng(5);
        // Classes of 40% / 35% / 25%: smallest fraction 0.25.
        let inst = Instance::from_class_sizes(&[400, 350, 250], &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = ErConstantRound::with_lambda(0.25, 9).sort(&oracle);
        assert!(inst.verify(&run.partition));
    }

    #[test]
    fn succeeds_even_when_lambda_estimate_is_too_optimistic() {
        // True smallest class is ~10% but we claim 0.4: attempts fail and the
        // estimate halves until the run succeeds.
        let mut r = rng(6);
        let inst = Instance::from_class_sizes(&[450, 450, 100], &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = ErConstantRound::with_lambda(0.4, 13).sort(&oracle);
        assert!(inst.verify(&run.partition));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut r = rng(7);
        let inst = Instance::balanced(500, 2, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let a = ErConstantRound::with_lambda(0.4, 42).sort(&oracle);
        let b = ErConstantRound::with_lambda(0.4, 42).sort(&oracle);
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.metrics.comparisons(), b.metrics.comparisons());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn matches_ground_truth_on_random_large_class_instances(
            seed in 0u64..500,
            k in 2usize..4,
            n in 60usize..400,
        ) {
            let mut r = rng(seed);
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = ErConstantRound::adaptive(seed).sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
        }

        #[test]
        fn adaptive_handles_small_classes_too(
            seed in 0u64..200,
            sizes in proptest::collection::vec(1usize..30, 2..8),
        ) {
            // Even when the "large class" premise fails, the halving fallback
            // must still classify correctly (just not in O(1) rounds).
            let mut r = rng(seed);
            let inst = Instance::from_class_sizes(&sizes, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = ErConstantRound::adaptive(seed).sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
        }
    }

    #[test]
    fn shuffled_class_layout_does_not_matter() {
        let mut r = rng(8);
        let mut labels: Vec<usize> = (0..900).map(|i| i % 3).collect();
        r.shuffle(&mut labels);
        let inst = Instance::from_labels(&labels);
        let oracle = InstanceOracle::new(&inst);
        let run = ErConstantRound::with_lambda(0.33, 21).sort(&oracle);
        assert!(inst.verify(&run.partition));
    }
}
