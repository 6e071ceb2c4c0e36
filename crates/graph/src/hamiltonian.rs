//! The `H_d` construction: a union of `d` independent random Hamiltonian cycles.
//!
//! Theorem 3 of the paper (quoting Goodrich, *Pipelined algorithms to detect
//! cheating in long-term grid computations*) states that for any subset `W` of
//! `λn` vertices, the union of `d` random Hamiltonian cycles induces a strongly
//! connected component inside `W` of size greater than `γλn`, with probability
//! at least `1 − e^{n[(1+λ)ln2 + d·t] + O(1)}` where
//! `t = α ln α + β ln β − (1−λ)ln(1−λ)`, `α = 1 − (1−γ)/2·λ`,
//! `β = 1 − (1+γ)/2·λ`.
//!
//! With `γ = 1/4` the paper bounds `t ≤ −λ²/8` for `λ ∈ (0, 0.4]` via an
//! explicit Taylor-series computation; this module exposes both that bound and
//! the resulting choice of `d`, plus the decomposition of the cycles into
//! exclusive-read comparison rounds (each round a perfect or near-perfect
//! matching).

use crate::{BitRow, UnionFind};
use ecs_rng::EcsRng;

/// The natural logarithm of 2, used by the probability bound.
const LN_2: f64 = std::f64::consts::LN_2;

/// Draws a uniformly random permutation of `0..n` into `cycle`, replacing
/// its contents: the identity, Fisher–Yates shuffled.
fn draw_cycle<R: EcsRng + ?Sized>(n: usize, rng: &mut R, cycle: &mut Vec<u32>) {
    cycle.clear();
    cycle.extend(0..n as u32);
    rng.shuffle(cycle);
}

/// Hands the exclusive-read rounds of one cycle to `round`, in the order
/// [`HamiltonianUnion::for_each_er_round`] documents, building them in
/// `buffer`.
fn cycle_er_rounds(
    cycle: &[u32],
    buffer: &mut Vec<(usize, usize)>,
    round: &mut impl FnMut(&[(usize, usize)]),
) {
    let n = cycle.len();
    if n < 2 {
        return;
    }
    let edge = |pair: &[u32]| (pair[0] as usize, pair[1] as usize);
    if n == 2 {
        round(&[edge(cycle)]);
        return;
    }
    let closing = (cycle[n - 1] as usize, cycle[0] as usize);
    buffer.clear();
    buffer.extend(cycle.chunks_exact(2).map(edge));
    round(buffer);
    buffer.clear();
    buffer.extend(cycle[1..].chunks_exact(2).map(edge));
    if n.is_multiple_of(2) {
        buffer.push(closing);
        round(buffer);
    } else {
        round(buffer);
        round(&[closing]);
    }
}

/// A union of `d` random Hamiltonian cycles on `n` vertices.
#[derive(Debug, Clone)]
pub struct HamiltonianUnion {
    n: usize,
    cycles: Vec<Vec<u32>>,
}

impl HamiltonianUnion {
    /// Builds `H_d`: `d` independent uniformly random Hamiltonian cycles on
    /// `0..n`, each determined by a random permutation of the vertices.
    pub fn random<R: EcsRng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Self {
        let cycles = (0..d)
            .map(|_| {
                let mut perm = Vec::with_capacity(n);
                draw_cycle(n, rng, &mut perm);
                perm
            })
            .collect();
        Self { n, cycles }
    }

    /// Streams the exclusive-read rounds of a freshly drawn `H_d` without
    /// keeping it: each cycle is drawn into one reused buffer just before
    /// its rounds are handed to `round`. The cycles, their draws from `rng`
    /// and the rounds are exactly those of
    /// `HamiltonianUnion::random(n, d, rng).for_each_er_round(round)`, as
    /// long as nothing else draws from `rng` meanwhile; one permutation is
    /// held at a time instead of `d`.
    pub fn for_each_random_er_round<R: EcsRng + ?Sized>(
        n: usize,
        d: usize,
        rng: &mut R,
        mut round: impl FnMut(&[(usize, usize)]),
    ) {
        let mut cycle = Vec::with_capacity(n);
        let mut buffer = Vec::with_capacity(n / 2 + 1);
        for _ in 0..d {
            draw_cycle(n, rng, &mut cycle);
            cycle_er_rounds(&cycle, &mut buffer, &mut round);
        }
    }

    /// Builds `H_d` from explicit permutations (used by tests).
    ///
    /// # Panics
    ///
    /// Panics if any cycle is not a permutation of `0..n`.
    pub fn from_permutations(n: usize, cycles: Vec<Vec<u32>>) -> Self {
        for cycle in &cycles {
            assert_eq!(cycle.len(), n, "cycle must visit every vertex exactly once");
            let mut sorted = cycle.clone();
            sorted.sort_unstable();
            assert!(
                sorted.iter().enumerate().all(|(i, &v)| i as u32 == v),
                "cycle must be a permutation of 0..n"
            );
        }
        Self { n, cycles }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of Hamiltonian cycles (`d`).
    pub fn num_cycles(&self) -> usize {
        self.cycles.len()
    }

    /// The underlying permutations.
    pub fn cycles(&self) -> &[Vec<u32>] {
        &self.cycles
    }

    /// All directed edges of `H_d` (successor edges along every cycle).
    ///
    /// For `n < 2` there are no edges.
    pub fn directed_edges(&self) -> Vec<(usize, usize)> {
        if self.n < 2 {
            return Vec::new();
        }
        let mut edges = Vec::with_capacity(self.cycles.len() * self.n);
        for cycle in &self.cycles {
            for i in 0..self.n {
                let u = cycle[i] as usize;
                let v = cycle[(i + 1) % self.n] as usize;
                edges.push((u, v));
            }
        }
        edges
    }

    /// The distinct undirected comparison pairs `{u, v}` of `H_d`, with
    /// `u < v`, deduplicated across cycles.
    pub fn comparison_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = self
            .directed_edges()
            .into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Decomposes all comparisons of `H_d` into exclusive-read rounds, each
    /// a set of vertex-disjoint pairs, and hands them to `round` one at a
    /// time, in order, in one reused buffer.
    ///
    /// Cycle `c` (a permutation of the vertices) has the edges
    /// `(c[i], c[i + 1])` and the closing edge `(c[n - 1], c[0])`. It gives
    /// the round of its even-`i` edges, then the round of its odd-`i` edges.
    /// On an even number of vertices these are two perfect matchings, and
    /// the closing edge ends the odd round. On an odd number of vertices
    /// the closing edge shares a vertex with both, so it is a third,
    /// one-edge round. For `n = 2` a cycle is the single round
    /// `[(c[0], c[1])]`, and for `n < 2` there are no rounds. The paper
    /// charges `2d` rounds for this step, which this decomposition matches
    /// for even `n` and exceeds by at most `d` rounds for odd `n` — still
    /// `O(d)`.
    pub fn for_each_er_round(&self, mut round: impl FnMut(&[(usize, usize)])) {
        let mut buffer = Vec::with_capacity(self.n / 2 + 1);
        for cycle in &self.cycles {
            cycle_er_rounds(cycle, &mut buffer, &mut round);
        }
    }

    /// The paper's Taylor-polynomial upper bound on the exponent term `t` for
    /// `γ = 1/4`:
    ///
    /// `t ≤ −(3743/8192)λ⁴ + (19/256)λ³ − (15/64)λ²`,
    ///
    /// which is at most `−λ²/8` for `λ ∈ (0, 0.4]`.
    pub fn exponent_bound(lambda: f64) -> f64 {
        assert!(
            lambda > 0.0 && lambda <= 0.4,
            "the Taylor bound is stated for lambda in (0, 0.4], got {lambda}"
        );
        -3743.0 / 8192.0 * lambda.powi(4) + 19.0 / 256.0 * lambda.powi(3)
            - 15.0 / 64.0 * lambda.powi(2)
    }

    /// The exact exponent term `t(λ, γ) = α ln α + β ln β − (1−λ)ln(1−λ)` from
    /// Theorem 3, with `α = 1 − (1−γ)λ/2` and `β = 1 − (1+γ)λ/2`.
    pub fn exponent_exact(lambda: f64, gamma: f64) -> f64 {
        assert!(lambda > 0.0 && lambda < 1.0, "lambda must lie in (0, 1)");
        assert!(gamma > 0.0 && gamma < 1.0, "gamma must lie in (0, 1)");
        let alpha = 1.0 - (1.0 - gamma) / 2.0 * lambda;
        let beta = 1.0 - (1.0 + gamma) / 2.0 * lambda;
        alpha * alpha.ln() + beta * beta.ln() - (1.0 - lambda) * (1.0 - lambda).ln()
    }

    /// The number of Hamiltonian cycles `d` needed so that the failure
    /// probability exponent `n[(1+λ)ln2 + d·t]` is negative with slack
    /// (Theorem 3 with `γ = 1/4`), i.e. so Theorem 4's construction succeeds
    /// with high probability.
    ///
    /// Uses the conservative `t ≤ −λ²/8` bound: `d = ⌈8(1+λ)ln2 / λ²⌉ + 1`.
    pub fn required_cycles(lambda: f64) -> usize {
        assert!(
            lambda > 0.0 && lambda <= 0.4,
            "lambda must lie in (0, 0.4], got {lambda}"
        );
        let d = (8.0 * (1.0 + lambda) * LN_2) / (lambda * lambda);
        d.ceil() as usize + 1
    }

    /// A sharper choice of `d` using the exact exponent rather than the
    /// `−λ²/8` relaxation. Still includes one extra cycle of slack.
    pub fn required_cycles_exact(lambda: f64) -> usize {
        let t = Self::exponent_exact(lambda, 0.25);
        assert!(t < 0.0, "exponent must be negative for lambda = {lambda}");
        let d = ((1.0 + lambda) * LN_2) / (-t);
        d.ceil() as usize + 1
    }

    /// The failure-probability exponent per element, `(1+λ)ln2 + d·t`, using
    /// the exact `t`. The overall failure probability is roughly
    /// `e^{n · exponent}`, so a negative value means success with probability
    /// approaching 1 exponentially fast in `n`.
    pub fn failure_exponent(lambda: f64, d: usize) -> f64 {
        (1.0 + lambda) * LN_2 + d as f64 * Self::exponent_exact(lambda, 0.25)
    }
}

/// The connected fragments a tested `H_d` overlay induces, packed on the
/// [`BitRow`] substrate ([`UnionFind::classes_as_bitrows`]) instead of
/// exploded `Vec<Vec<usize>>` member lists.
///
/// The constant-round pivot consumer reads fragments through this view:
/// size checks are cached popcounts and membership sweeps are word scans.
/// Member order is identical to [`UnionFind::groups`] — both derive from
/// [`UnionFind::labels`], so members ascend within a fragment and fragments
/// are born ordered by smallest member — which is what makes the packed
/// lowering bit-identical to the legacy `Vec` path. The `Vec` export
/// survives as the thin [`Fragments::to_groups`] / [`Fragments::members`]
/// adapters.
#[derive(Debug, Clone)]
pub struct Fragments {
    rows: Vec<BitRow>,
    /// Cached popcount per row, so the hot size comparisons never rescan.
    sizes: Vec<usize>,
}

impl Fragments {
    /// Packs the current partition of `uf`, one [`BitRow`] per fragment.
    pub fn from_union_find(uf: &mut UnionFind) -> Self {
        let rows = uf.classes_as_bitrows();
        let sizes = rows.iter().map(BitRow::count_ones).collect();
        Self { rows, sizes }
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the universe (and so the fragment list) is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Member count of fragment `i` (a cached popcount).
    pub fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// The packed membership row of fragment `i`.
    pub fn row(&self, i: usize) -> &BitRow {
        &self.rows[i]
    }

    /// The smallest member of fragment `i` (fragments are never empty, but
    /// the lookup stays total).
    pub fn smallest(&self, i: usize) -> Option<usize> {
        self.rows[i].iter_ones().next()
    }

    /// Fragment indices ordered largest-first; ties keep the
    /// smallest-member birth order (stable sort), exactly matching
    /// `groups().sort_by_key(|f| Reverse(f.len()))` on the legacy path.
    pub fn by_size_desc(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.sizes[i]));
        order
    }

    /// Thin adapter: fragment `i` as an ascending member list.
    pub fn members(&self, i: usize) -> Vec<usize> {
        self.rows[i].ones()
    }

    /// Thin adapter: the whole partition as `Vec<Vec<usize>>`, bit-identical
    /// to [`UnionFind::groups`].
    pub fn to_groups(&self) -> Vec<Vec<usize>> {
        self.rows.iter().map(BitRow::ones).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    /// Every streamed round, collected.
    fn er_rounds(h: &HamiltonianUnion) -> Vec<Vec<(usize, usize)>> {
        let mut rounds = Vec::new();
        h.for_each_er_round(|round| rounds.push(round.to_vec()));
        rounds
    }

    /// The decomposition as documented, edge by edge: per cycle the
    /// even-`i` edges `(c[i], c[(i + 1) % n])`, then the odd-`i` ones, with
    /// the closing edge `i = n - 1` in a round of its own when `n` is odd.
    fn documented_rounds(h: &HamiltonianUnion) -> Vec<Vec<(usize, usize)>> {
        let n = h.num_vertices();
        let mut rounds = Vec::new();
        for c in h.cycles() {
            let edge = |i: usize| (c[i] as usize, c[(i + 1) % n] as usize);
            if n == 2 {
                rounds.push(vec![edge(0)]);
                continue;
            }
            let last = if n.is_multiple_of(2) { n } else { n - 1 };
            rounds.push((0..last).step_by(2).map(edge).collect());
            rounds.push((1..last).step_by(2).map(edge).collect());
            if !n.is_multiple_of(2) {
                rounds.push(vec![edge(n - 1)]);
            }
        }
        rounds
    }

    #[test]
    fn streamed_rounds_follow_the_documented_decomposition() {
        for n in [2usize, 3, 4, 7, 10, 2000, 2001] {
            let h = HamiltonianUnion::random(n, 3, &mut rng(n as u64));
            assert_eq!(er_rounds(&h), documented_rounds(&h), "n = {n}");
        }
        let two = HamiltonianUnion::from_permutations(2, vec![vec![1, 0], vec![0, 1]]);
        assert_eq!(er_rounds(&two), vec![vec![(1, 0)], vec![(0, 1)]]);
        let five = HamiltonianUnion::from_permutations(5, vec![vec![4, 2, 0, 3, 1]]);
        assert_eq!(
            er_rounds(&five),
            vec![vec![(4, 2), (0, 3)], vec![(2, 0), (3, 1)], vec![(1, 4)]]
        );
        let four = HamiltonianUnion::from_permutations(4, vec![vec![3, 1, 0, 2]]);
        assert_eq!(
            er_rounds(&four),
            vec![vec![(3, 1), (0, 2)], vec![(1, 0), (2, 3)]]
        );
    }

    #[test]
    fn lazily_drawn_cycles_stream_the_rounds_of_the_drawn_union() {
        for n in [0usize, 1, 2, 3, 4, 7, 10, 2000, 2001] {
            let (mut eager, mut lazy) = (rng(n as u64), rng(n as u64));
            let h = HamiltonianUnion::random(n, 5, &mut eager);
            let mut streamed = Vec::new();
            HamiltonianUnion::for_each_random_er_round(n, 5, &mut lazy, |round| {
                streamed.push(round.to_vec())
            });
            assert_eq!(streamed, er_rounds(&h), "n = {n}");
            assert_eq!(lazy.next_u64(), eager.next_u64(), "n = {n}: draws consumed");
        }
    }

    #[test]
    fn directed_edge_count_is_d_times_n() {
        let h = HamiltonianUnion::random(17, 4, &mut rng(2));
        assert_eq!(h.directed_edges().len(), 4 * 17);
    }

    #[test]
    fn tiny_graphs() {
        let h0 = HamiltonianUnion::random(0, 2, &mut rng(3));
        assert!(h0.directed_edges().is_empty());
        assert!(er_rounds(&h0).is_empty());
        let h1 = HamiltonianUnion::random(1, 2, &mut rng(3));
        assert!(h1.directed_edges().is_empty());
        let h2 = HamiltonianUnion::random(2, 2, &mut rng(3));
        assert_eq!(h2.comparison_pairs(), vec![(0, 1)]);
        assert_eq!(er_rounds(&h2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn from_permutations_rejects_non_permutation() {
        let _ = HamiltonianUnion::from_permutations(3, vec![vec![0, 0, 2]]);
    }

    #[test]
    fn er_rounds_are_matchings_and_cover_all_pairs() {
        for &n in &[4usize, 5, 6, 9, 10, 33] {
            let h = HamiltonianUnion::random(n, 3, &mut rng(n as u64));
            let rounds = er_rounds(&h);
            // Every round must be a matching: no vertex appears twice.
            for round in &rounds {
                let mut seen = vec![false; n];
                for &(u, v) in round {
                    assert_ne!(u, v);
                    assert!(!seen[u], "vertex {u} reused within a round (n={n})");
                    assert!(!seen[v], "vertex {v} reused within a round (n={n})");
                    seen[u] = true;
                    seen[v] = true;
                }
            }
            // The union of rounds must cover exactly the comparison pairs.
            let mut from_rounds: Vec<(usize, usize)> = rounds
                .iter()
                .flatten()
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .collect();
            from_rounds.sort_unstable();
            from_rounds.dedup();
            assert_eq!(from_rounds, h.comparison_pairs());
            // Round count: 2 per cycle for even n, 3 per cycle for odd n >= 3.
            let per_cycle = if n % 2 == 0 { 2 } else { 3 };
            assert_eq!(rounds.len(), per_cycle * h.num_cycles());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn packed_fragments_cross_validate_against_groups(
            n in 1usize..80,
            unions in proptest::collection::vec((0usize..80, 0usize..80), 0..120),
            seed in 0u64..1_000,
        ) {
            // Drive the union-find with H_d edge answers plus arbitrary
            // extra unions, then require the packed view and the legacy
            // `Vec` export to agree on everything the pivot consumer reads.
            let mut uf = UnionFind::new(n);
            let h = HamiltonianUnion::random(n, 2, &mut rng(seed));
            for (u, v) in h.comparison_pairs() {
                if (u + v + seed as usize).is_multiple_of(3) {
                    uf.union(u, v);
                }
            }
            for (a, b) in unions {
                if a % n != b % n {
                    uf.union(a % n, b % n);
                }
            }
            let fragments = Fragments::from_union_find(&mut uf);
            let groups = uf.groups();
            prop_assert_eq!(fragments.to_groups(), groups.clone());
            prop_assert_eq!(fragments.len(), groups.len());
            let mut legacy_order: Vec<Vec<usize>> = groups.clone();
            legacy_order.sort_by_key(|f| std::cmp::Reverse(f.len()));
            let packed_order: Vec<Vec<usize>> = fragments
                .by_size_desc()
                .into_iter()
                .map(|i| fragments.members(i))
                .collect();
            prop_assert_eq!(packed_order, legacy_order, "pivot order must match");
            for (i, group) in groups.iter().enumerate() {
                prop_assert_eq!(fragments.size(i), group.len());
                prop_assert_eq!(fragments.smallest(i), group.first().copied());
                let prefix: Vec<usize> =
                    fragments.row(i).iter_ones().take(2).collect();
                prop_assert_eq!(&prefix, &group[..group.len().min(2)]);
            }
        }
    }

    #[test]
    fn exponent_bound_matches_paper_inequality() {
        // The polynomial bound must be <= -lambda^2 / 8 on (0, 0.4].
        let mut lambda = 0.01;
        while lambda <= 0.4 {
            let bound = HamiltonianUnion::exponent_bound(lambda);
            assert!(
                bound <= -lambda * lambda / 8.0 + 1e-12,
                "bound {bound} violates -lambda^2/8 at lambda={lambda}"
            );
            lambda += 0.01;
        }
    }

    #[test]
    fn exact_exponent_is_negative_and_below_taylor_bound() {
        for &lambda in &[0.05, 0.1, 0.2, 0.3, 0.4] {
            let exact = HamiltonianUnion::exponent_exact(lambda, 0.25);
            let taylor = HamiltonianUnion::exponent_bound(lambda);
            assert!(exact < 0.0);
            // The Taylor polynomial is an upper bound on t.
            assert!(exact <= taylor + 1e-12, "exact {exact} vs taylor {taylor}");
        }
    }

    #[test]
    fn required_cycles_monotone_and_sufficient() {
        let d_04 = HamiltonianUnion::required_cycles(0.4);
        let d_02 = HamiltonianUnion::required_cycles(0.2);
        let d_01 = HamiltonianUnion::required_cycles(0.1);
        assert!(
            d_04 < d_02 && d_02 < d_01,
            "smaller lambda needs more cycles"
        );
        for &lambda in &[0.1, 0.2, 0.3, 0.4] {
            let d = HamiltonianUnion::required_cycles(lambda);
            assert!(
                HamiltonianUnion::failure_exponent(lambda, d) < 0.0,
                "required_cycles({lambda}) = {d} does not make the exponent negative"
            );
            let d_exact = HamiltonianUnion::required_cycles_exact(lambda);
            assert!(d_exact <= d, "exact choice should never need more cycles");
            assert!(HamiltonianUnion::failure_exponent(lambda, d_exact) < 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn required_cycles_rejects_large_lambda() {
        let _ = HamiltonianUnion::required_cycles(0.5);
    }

    #[test]
    fn induced_component_in_large_subsets_is_large() {
        // Empirical check of Theorem 3's guarantee: for lambda = 0.25 and the
        // prescribed d, every tested subset of size lambda*n contains a
        // connected component (within the subset) of size > lambda*n/8.
        let n = 400;
        let lambda = 0.25;
        let d = HamiltonianUnion::required_cycles_exact(lambda);
        let mut r = rng(77);
        let h = HamiltonianUnion::random(n, d, &mut r);
        let w_size = (lambda * n as f64) as usize;
        for trial in 0..20 {
            let mut t = rng(1000 + trial);
            let members = t.sample_indices(n, w_size);
            let in_w: Vec<Option<usize>> = {
                let mut map = vec![None; n];
                for (local, &global) in members.iter().enumerate() {
                    map[global] = Some(local);
                }
                map
            };
            // The subset's components, found with the union-find the
            // constant-round algorithm itself merges answers with.
            let mut uf = UnionFind::new(w_size);
            for (u, v) in h.comparison_pairs() {
                if let (Some(a), Some(b)) = (in_w[u], in_w[v]) {
                    uf.union(a, b);
                }
            }
            let largest = uf.groups().iter().map(Vec::len).max().unwrap_or(0);
            assert!(
                largest * 8 > w_size,
                "trial {trial}: largest component {largest} of subset {w_size} too small"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn comparison_pairs_are_symmetric_dedup_of_edges(
            n in 2usize..40,
            d in 1usize..5,
            seed in 0u64..1000,
        ) {
            let h = HamiltonianUnion::random(n, d, &mut rng(seed));
            let pairs = h.comparison_pairs();
            // Pairs are sorted, unique, and within range.
            let mut sorted = pairs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&sorted, &pairs);
            prop_assert!(pairs.iter().all(|&(u, v)| u < v && v < n));
            // Each cycle contributes at most n pairs.
            prop_assert!(pairs.len() <= d * n);
            // A single Hamiltonian cycle on >= 3 vertices has exactly n pairs.
            if d == 1 && n >= 3 {
                prop_assert_eq!(pairs.len(), n);
            }
        }

        #[test]
        fn random_cycles_are_permutations(
            n in 2usize..60,
            d in 1usize..4,
            seed in 0u64..1000,
        ) {
            let h = HamiltonianUnion::random(n, d, &mut rng(seed));
            prop_assert_eq!(h.num_cycles(), d);
            let edges = h.directed_edges();
            prop_assert_eq!(edges.len(), d * n);
            for (cycle, cycle_edges) in h.cycles().iter().zip(edges.chunks(n)) {
                let mut sorted = cycle.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<u32>>());
                // Each cycle alone is one directed ring through every
                // vertex, so `H_d` is strongly connected: walking the
                // successor map from 0 visits all n vertices, then returns.
                let mut succ = vec![usize::MAX; n];
                for &(u, v) in cycle_edges {
                    prop_assert_eq!(succ[u], usize::MAX, "vertex {} has two successors", u);
                    succ[u] = v;
                }
                let mut seen = vec![false; n];
                let (mut v, mut visited) = (0usize, 0usize);
                while !seen[v] {
                    seen[v] = true;
                    visited += 1;
                    v = succ[v];
                }
                prop_assert_eq!(v, 0, "the walk closed on a vertex other than 0");
                prop_assert_eq!(visited, n);
            }
        }
    }
}
