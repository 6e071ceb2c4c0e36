//! Theorem 4: exclusive-read ECS in `O(1)` rounds when every class is large.
//!
//! When the smallest equivalence class has size at least `λn` for a constant
//! `λ ∈ (0, 0.4]`, the paper classifies everything in a constant number of ER
//! rounds:
//!
//! 1. build `H_d`, the union of `d` random Hamiltonian cycles, with `d` chosen
//!    from Theorem 3's probability bound so that, with high probability, every
//!    class contains a connected component of `H_d`-equal edges of size at
//!    least `t = ⌊λn/8⌋`;
//! 2. test all edges of `H_d` — the cycles decompose into matchings, so this
//!    takes `O(d)` ER rounds;
//! 3. take the large components this induces (one per class, w.h.p.), and
//!    compare each against the rest of the input, `|C|` elements per round —
//!    `O(1/λ)` rounds per class, `O(1/λ²)` rounds in total.
//!
//! This is one *attempt*, at the given `λ` or, when `λ` is unknown, at the
//! largest admissible estimate 0.4. The algorithm makes at most one attempt
//! and then finishes what it left; it never restarts.
//!
//! **Budget check.** The attempt charges at most `d·n` edges in step 2 and at
//! most `n` comparisons for each of at most `⌈n/t⌉` pivots in step 3. It
//! runs only if that worst case fits in half of all-pairs,
//! `d·n + ⌈n/t⌉·n ≤ ½·n(n−1)/2`; for `λ = 0.4` that holds from `n = 180`
//! up. Otherwise the whole input goes to the finish as `n`
//! singletons.
//!
//! **Leftover.** Every pivot is compared with every element still
//! unclassified when its turn comes, so a pivot classifies its whole class.
//! The elements a failed attempt leaves unclassified are therefore a union
//! of whole classes (those that produced no pivot), and every pair with an
//! end outside that set is already settled: an unclassified element was
//! compared with every pivot class, and each pivot class with every later
//! one.
//!
//! **Finish.** The unclassified elements enter er-merge's level merges
//! ([`crate::ErMergeSort`]) as one singleton answer per step-2 component,
//! led by its smallest member, in ascending order. The merges leave out a
//! pair if one of its classes has already matched in the same merge, or if
//! its two classes hold two components that an `H_d` edge joined (step 2
//! answered that edge "different"), and charge no round they leave empty.
//! To find those edges, a failed attempt replays `H_d` from its seeded
//! generator, so the attempt itself records no answers. The finish thus
//! asks no pair twice, none with an end outside the leftover and none the
//! attempt asked. A skipped attempt is the same finish over `n` singletons.
//!
//! The charge stays within all-pairs except by the pairs the attempt itself
//! asks twice: `H_d`'s cycles can share an edge, and a pivot can re-ask an
//! edge of `H_d`. Only inputs with almost no repeated labels come near the
//! bound, since every class the attempt or the finish merges saves pairs.
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

use crate::answer::Answers;
use crate::parallel::er_merge::ErMergeSort;
use crate::run::{EcsAlgorithm, EcsRun};
use ecs_graph::{Fragments, HamiltonianUnion, UnionFind};
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, Partition, ReadMode};
use ecs_rng::{SeedableEcsRng, SplitMix64, Xoshiro256StarStar};

/// The `λ` estimate of [`ErConstantRound::adaptive`]: the largest value
/// Theorem 3's bound admits.
const ADAPTIVE_LAMBDA: f64 = 0.4;

/// The share of all-pairs the attempt's worst-case charge must fit in for
/// the attempt to run.
const ATTEMPT_SHARE: f64 = 0.5;

/// The component size `t = ⌊λn/8⌋` (at least 1) from which a step-2
/// component becomes a pivot.
fn pivot_threshold(lambda: f64, n: usize) -> usize {
    (((lambda * n as f64) / 8.0).floor() as usize).max(1)
}

/// What one attempt leaves.
enum Attempt {
    /// Every element's class label.
    Classified(Vec<usize>),
    /// The finish's first level over the unclassified elements, and the
    /// pairs of its leaders that step 2 showed different.
    Leftover(Answers, Vec<(u32, u32)>),
}

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

    /// Creates the algorithm for the unknown-`λ` setting: its one attempt
    /// uses the largest admissible estimate (0.4), and the er-merge finish
    /// classifies whatever that leaves.
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

    /// Whether the attempt's worst-case charge, `d·n` edges plus `n`
    /// comparisons for each of at most `⌈n/t⌉` pivots, fits in
    /// [`ATTEMPT_SHARE`] of all-pairs.
    fn attempt_fits(&self, lambda: f64, n: usize) -> bool {
        let (n64, d) = (n as u64, self.cycles_for(lambda, n) as u64);
        let worst = d * n64 + n.div_ceil(pivot_threshold(lambda, n)) as u64 * n64;
        worst as f64 <= ATTEMPT_SHARE * (n64 * (n64 - 1) / 2) as f64
    }

    /// The attempt at a fixed `λ` estimate (steps 1–3). Classifies every
    /// element unless some class produced no component of size ≥ `t`; then
    /// returns the finish's first level over the unclassified elements.
    fn attempt<O: EquivalenceOracle>(
        &self,
        session: &mut ComparisonSession<'_, O>,
        n: usize,
        lambda: f64,
    ) -> Attempt {
        let d = self.cycles_for(lambda, n);
        let mut rng = self.attempt_rng();
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
        let threshold = pivot_threshold(lambda, n);

        let mut labels = vec![usize::MAX; n];
        // `pivots[label]` is the smallest member of that label's pivot.
        let mut pivots = Vec::new();
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
            let label = pivots.len();
            pivots.push(first);
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
            Attempt::Classified(labels)
        } else {
            let (answers, different) = self.leftover(d, &labels, &pivots, &mut uf);
            Attempt::Leftover(answers, different)
        }
    }

    /// The generator step 2 draws `H_d` from.
    fn attempt_rng(&self) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(SplitMix64::new(self.seed).derive(0))
    }

    /// The finish's input after a failed attempt. Its first level holds one
    /// singleton answer per step-2 component of the unclassified elements,
    /// led by the component's smallest member; every other element links to
    /// its leader, or to its pivot's smallest member if it was classified.
    ///
    /// Step 2 is replayed from the attempt's generator to list the leader
    /// pairs of the leftover components that an `H_d` edge joins: each such
    /// edge was answered "different", or its ends would share a component.
    fn leftover(
        &self,
        d: usize,
        labels: &[usize],
        pivots: &[usize],
        uf: &mut UnionFind,
    ) -> (Answers, Vec<(u32, u32)>) {
        let n = labels.len();
        assert!(
            n <= u32::MAX as usize,
            "answers hold up to u32::MAX elements"
        );
        let mut link = vec![0u32; n];
        // The leader of each component, indexed by its union-find root.
        let mut leader = vec![u32::MAX; n];
        let mut reps = Vec::new();
        for (e, &label) in labels.iter().enumerate() {
            link[e] = if label == usize::MAX {
                let root = uf.find(e);
                if leader[root] == u32::MAX {
                    leader[root] = e as u32;
                    reps.push(e as u32);
                }
                leader[root]
            } else {
                pivots[label] as u32
            };
        }
        let mut different = Vec::new();
        HamiltonianUnion::for_each_random_er_round(n, d, &mut self.attempt_rng(), |round| {
            for &(u, v) in round {
                let (a, b) = (link[u], link[v]);
                if labels[u] == usize::MAX && labels[v] == usize::MAX && a != b {
                    different.push((a.min(b), a.max(b)));
                }
            }
        });
        different.sort_unstable();
        different.dedup();
        (Answers::over_forest(link, reps), different)
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
        let lambda = self.lambda.unwrap_or(ADAPTIVE_LAMBDA);
        let (mut answers, different) = if self.attempt_fits(lambda, n) {
            match self.attempt(&mut session, n, lambda) {
                Attempt::Classified(labels) => {
                    return EcsRun::new(Partition::from_labels(&labels), session.into_metrics());
                }
                Attempt::Leftover(answers, different) => (answers, different),
            }
        } else {
            (Answers::singletons(n), Vec::new())
        };
        ErMergeSort::merge_to_one(&mut answers, &mut session, Some(&different));
        EcsRun::new(answers.into_partition(), session.into_metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_distributions::class_distribution::AnyDistribution;
    use ecs_model::{Instance, InstanceOracle, RecordingOracle};
    use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;
    use std::collections::HashSet;

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
        // True smallest class is ~10% but we claim 0.4: if the attempt finds
        // no pivot for that class, the finish classifies it.
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
            // Even when the "large class" premise fails, the finish must
            // still classify correctly (just not in O(1) rounds).
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

    /// The six families of the all-pairs gate: uniform, balanced, geometric,
    /// Poisson, zeta and zeta:1.5, each at two parameters.
    fn family_instance(family: usize, high: bool, n: usize, seed: u64) -> Instance {
        let mut r = rng(seed);
        let dist = match (family, high) {
            (0, false) => AnyDistribution::uniform(3),
            (0, true) => AnyDistribution::uniform(12),
            (1, false) => return Instance::balanced(n, 2.min(n), &mut r),
            (1, true) => return Instance::balanced(n, 12.min(n), &mut r),
            (2, false) => AnyDistribution::geometric(0.2),
            (2, true) => AnyDistribution::geometric(0.8),
            (3, false) => AnyDistribution::poisson(1.0),
            (3, true) => AnyDistribution::poisson(8.0),
            (4, false) => AnyDistribution::zeta(2.0),
            (4, true) => AnyDistribution::zeta(3.0),
            _ => AnyDistribution::zeta(1.5),
        };
        Instance::from_distribution(&dist, n, &mut r)
    }

    #[test]
    fn charges_at_most_all_pairs_on_a_fixed_seed_sweep() {
        // Below n = 180 the budget check skips the attempt, so these are
        // all finishes over n singletons; the larger sizes run the attempt,
        // and on the skewed families its finish.
        let sizes = (2..=160).chain([200, 320]);
        for n in sizes {
            for family in 0..6 {
                for high in [false, true] {
                    let seed = (n * 12 + family * 2 + usize::from(high)) as u64;
                    let inst = family_instance(family, high, n, seed);
                    let run = ErConstantRound::adaptive(seed).sort(&InstanceOracle::new(&inst));
                    assert!(inst.verify(&run.partition), "family {family}, n = {n}");
                    let all_pairs = (n * (n - 1) / 2) as u64;
                    assert!(
                        run.metrics.comparisons() <= all_pairs,
                        "family {family} ({high}), n = {n}, seed {seed}: {} > {all_pairs}",
                        run.metrics.comparisons()
                    );
                }
            }
        }
    }

    #[test]
    fn the_budget_check_admits_the_paper_grid_but_not_small_inputs() {
        let adaptive = ErConstantRound::adaptive(1);
        assert!(!adaptive.attempt_fits(ADAPTIVE_LAMBDA, 2));
        assert!(!adaptive.attempt_fits(ADAPTIVE_LAMBDA, 48));
        assert!(!adaptive.attempt_fits(ADAPTIVE_LAMBDA, 179));
        assert!(adaptive.attempt_fits(ADAPTIVE_LAMBDA, 180));
        assert!(adaptive.attempt_fits(ADAPTIVE_LAMBDA, 256));
        for lambda in [0.4, 0.3, 0.25, 0.2] {
            let alg = ErConstantRound::with_lambda(lambda, 1);
            for n in [1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 128_000] {
                assert!(alg.attempt_fits(lambda, n), "lambda {lambda}, n = {n}");
            }
        }
    }

    /// Each repeat of an unordered pair in `pairs`, after its first time.
    fn repeats(pairs: impl Iterator<Item = (usize, usize)>) -> Vec<(usize, usize)> {
        let mut seen = HashSet::new();
        pairs
            .map(|(a, b)| (a.min(b), a.max(b)))
            .filter(|&pair| !seen.insert(pair))
            .collect()
    }

    #[test]
    fn a_skipped_attempt_is_er_merge_without_its_settled_pairs() {
        // At n = 48 the attempt never runs: the finish walks er-merge's
        // schedule, asks no pair twice, and never charges more.
        for (d, seed) in (0..6).zip(100u64..) {
            let inst = family_instance(d, true, 48, seed);
            let oracle = RecordingOracle::new(InstanceOracle::new(&inst));
            let run = ErConstantRound::adaptive(seed).sort(&oracle);
            assert!(inst.verify(&run.partition));
            let merge = ErMergeSort::new().sort(&InstanceOracle::new(&inst));
            assert!(run.metrics.comparisons() <= merge.metrics.comparisons());
            assert!(run.metrics.rounds() <= merge.metrics.rounds());
            let transcript = oracle.into_transcript();
            assert_eq!(repeats(transcript.iter().map(|(a, b, _)| (a, b))), []);
        }
    }

    #[test]
    fn a_failed_attempt_finishes_among_the_leftover_representatives() {
        // The class of 30 is below t = 50, so it can never yield a pivot.
        let inst = Instance::from_class_sizes(&[900, 70, 30], &mut rng(9));
        let n = inst.n();
        let alg = ErConstantRound::adaptive(5);
        assert!(alg.attempt_fits(ADAPTIVE_LAMBDA, n));
        let oracle = InstanceOracle::new(&inst);
        let mut session = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let Attempt::Leftover(answers, _) = alg.attempt(&mut session, n, ADAPTIVE_LAMBDA) else {
            panic!("a class below the pivot threshold cannot be classified");
        };
        let attempt_charge = session.metrics().comparisons() as usize;
        let reps: HashSet<usize> = (0..answers.len())
            .map(|i| answers.reps(i)[0] as usize)
            .collect();
        // Only the small classes are left, each led by one representative
        // per component, and the class of 30 is among them.
        let truth = inst.ground_truth();
        let sizes = truth.class_sizes();
        assert!(reps.iter().all(|&r| sizes[truth.label_of(r)] < 900));
        assert!(reps.iter().any(|&r| sizes[truth.label_of(r)] == 30));

        let recording = RecordingOracle::new(InstanceOracle::new(&inst));
        let run = alg.sort(&recording);
        assert!(inst.verify(&run.partition));
        assert!(run.metrics.comparisons() <= (n * (n - 1) / 2) as u64);
        let transcript: Vec<(usize, usize)> = recording
            .into_transcript()
            .iter()
            .map(|(a, b, _)| (a.min(b), a.max(b)))
            .collect();
        let (attempt, finish) = transcript.split_at(attempt_charge);
        assert!(!finish.is_empty());
        assert!(finish
            .iter()
            .all(|(a, b)| reps.contains(a) && reps.contains(b)));
        assert_eq!(repeats(finish.iter().copied()), []);
        // The replay of step 2 keeps the finish off every pair it asked.
        let asked: HashSet<_> = attempt.iter().collect();
        assert!(finish.iter().all(|pair| !asked.contains(pair)));
    }
}
