//! The rank distribution `D_N` and its cut-off `D_N(n)`.
//!
//! Section 4 of the paper renumbers the equivalence classes of a distribution
//! `D` from most likely to least likely (`D_N`, a distribution on ranks) and
//! then "piles up" all mass of ranks `≥ n` onto the single value `n`
//! (`D_N(n)`). Theorem 7 shows the round-robin algorithm's total comparisons
//! are stochastically dominated by twice the sum of `n` draws from `D_N(n)`.

use crate::class_distribution::ClassDistribution;
use ecs_rng::EcsRng;

/// A class distribution re-indexed by rank (most probable class first).
///
/// For the uniform, geometric, and zeta families the raw class indices are
/// already ranks. The Poisson family is unimodal with mode near `λ`, so its
/// classes must genuinely be re-sorted; the sort is performed over a finite
/// support window large enough that the excluded tail mass is far below any
/// quantity the experiments can resolve.
#[derive(Debug, Clone)]
pub struct RankDistribution<D> {
    dist: D,
    /// `order[r]` = raw class index of rank `r`, for ranks inside the window.
    order: Vec<usize>,
    /// `rank_of[c]` = rank of raw class `c`, for classes inside the window.
    rank_of: Vec<usize>,
}

impl<D: ClassDistribution> RankDistribution<D> {
    /// Default support window used when re-sorting is required.
    pub const DEFAULT_SUPPORT: usize = 4096;

    /// Builds the rank distribution with the default support window.
    pub fn new(dist: D) -> Self {
        Self::with_support(dist, Self::DEFAULT_SUPPORT)
    }

    /// Builds the rank distribution, sorting the first `support` classes by
    /// probability (descending). Classes outside the window keep their raw
    /// index as their rank, which is correct whenever the pmf is eventually
    /// non-increasing (true for all four families).
    pub fn with_support(dist: D, support: usize) -> Self {
        let support = support.max(1);
        if dist.is_rank_ordered() {
            return Self {
                dist,
                order: Vec::new(),
                rank_of: Vec::new(),
            };
        }
        let mut order: Vec<usize> = (0..support).collect();
        // Stable sort by descending pmf; ties broken by smaller class index so
        // the ranking is deterministic.
        order.sort_by(|&a, &b| {
            dist.pmf(b)
                .partial_cmp(&dist.pmf(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut rank_of = vec![0usize; support];
        for (rank, &class) in order.iter().enumerate() {
            rank_of[class] = rank;
        }
        Self {
            dist,
            order,
            rank_of,
        }
    }

    /// The underlying distribution.
    pub fn inner(&self) -> &D {
        &self.dist
    }

    /// Maps a raw class index to its rank.
    pub fn rank_of_class(&self, class: usize) -> usize {
        if self.rank_of.is_empty() || class >= self.rank_of.len() {
            class
        } else {
            self.rank_of[class]
        }
    }

    /// Maps a rank back to its raw class index.
    pub fn class_of_rank(&self, rank: usize) -> usize {
        if self.order.is_empty() || rank >= self.order.len() {
            rank
        } else {
            self.order[rank]
        }
    }

    /// `Pr[rank = r]`.
    pub fn pmf_of_rank(&self, rank: usize) -> f64 {
        self.dist.pmf(self.class_of_rank(rank))
    }

    /// Samples a rank.
    pub fn sample_rank<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of_class(self.dist.sample_class(rng))
    }
}

/// The distribution `D_N(n)`: ranks below `n` keep their probability, and all
/// remaining mass sits on the value `n` itself.
#[derive(Debug, Clone)]
pub struct CutoffDistribution<D> {
    ranks: RankDistribution<D>,
    n: usize,
}

impl<D: ClassDistribution> CutoffDistribution<D> {
    /// Builds `D_N(n)` from a raw class distribution.
    pub fn new(dist: D, n: usize) -> Self {
        Self {
            ranks: RankDistribution::new(dist),
            n,
        }
    }

    /// The cut-off point `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The underlying rank distribution.
    pub fn ranks(&self) -> &RankDistribution<D> {
        &self.ranks
    }

    /// `Pr[X = i]` for the cut-off variable: the rank pmf below `n`, the whole
    /// tail mass at `i = n`, and zero above.
    pub fn pmf(&self, i: usize) -> f64 {
        use std::cmp::Ordering;
        match i.cmp(&self.n) {
            Ordering::Less => self.ranks.pmf_of_rank(i),
            Ordering::Equal => {
                let below: f64 = (0..self.n).map(|r| self.ranks.pmf_of_rank(r)).sum();
                (1.0 - below).max(0.0)
            }
            Ordering::Greater => 0.0,
        }
    }

    /// Samples a draw from `D_N(n)`: the rank of a class sample, clamped to `n`.
    pub fn sample<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        self.ranks.sample_rank(rng).min(self.n)
    }

    /// The exact mean `E[X] = Σ_{i<n} i·Pr[rank=i] + n·Pr[rank ≥ n]`.
    pub fn mean(&self) -> f64 {
        let mut mean = 0.0;
        let mut below = 0.0;
        for i in 0..self.n {
            let p = self.ranks.pmf_of_rank(i);
            mean += i as f64 * p;
            below += p;
        }
        mean + self.n as f64 * (1.0 - below).max(0.0)
    }

    /// The sum of `count` independent draws.
    pub fn sample_sum<R: EcsRng + ?Sized>(&self, count: usize, rng: &mut R) -> u64 {
        (0..count).map(|_| self.sample(rng) as u64).sum()
    }

    /// The upper bound of Theorem 7 for an `n`-element instance: twice the sum
    /// of `n` draws from this distribution.
    pub fn theorem7_bound<R: EcsRng + ?Sized>(&self, rng: &mut R) -> u64 {
        2 * self.sample_sum(self.n, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_distribution::{
        GeometricClasses, PoissonClasses, UniformClasses, ZetaClasses,
    };
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn rank_ordered_families_use_identity_ranking() {
        let u = RankDistribution::new(UniformClasses::new(10));
        let g = RankDistribution::new(GeometricClasses::new(0.5));
        let z = RankDistribution::new(ZetaClasses::new(2.0));
        for c in 0..20 {
            assert_eq!(u.rank_of_class(c), c);
            assert_eq!(g.rank_of_class(c), c);
            assert_eq!(z.rank_of_class(c), c);
            assert_eq!(u.class_of_rank(c), c);
        }
    }

    #[test]
    fn poisson_ranking_puts_mode_first() {
        let lambda = 25.0;
        let ranks = RankDistribution::new(PoissonClasses::new(lambda));
        // Rank 0 must be one of the two modes (24 or 25).
        let top = ranks.class_of_rank(0);
        assert!((24..=25).contains(&top), "rank 0 is class {top}");
        // pmf must be non-increasing in rank.
        for r in 0..100 {
            assert!(
                ranks.pmf_of_rank(r) >= ranks.pmf_of_rank(r + 1) - 1e-15,
                "pmf increases at rank {r}"
            );
        }
        // rank_of_class and class_of_rank are inverse on the window.
        for c in 0..200 {
            assert_eq!(ranks.class_of_rank(ranks.rank_of_class(c)), c);
        }
    }

    #[test]
    fn poisson_rank_samples_are_stochastically_smaller_than_raw() {
        // Ranking can only move probability toward smaller values.
        let d = PoissonClasses::new(25.0);
        let ranks = RankDistribution::new(d);
        let mut r = rng(3);
        let n = 50_000;
        let raw_mean: f64 = (0..n).map(|_| d.sample_class(&mut r) as f64).sum::<f64>() / n as f64;
        let rank_mean: f64 = (0..n)
            .map(|_| ranks.sample_rank(&mut r) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            rank_mean < raw_mean,
            "rank mean {rank_mean} should be below raw mean {raw_mean}"
        );
    }

    #[test]
    fn cutoff_pmf_sums_to_one_and_tail_is_piled_up() {
        let cutoff = CutoffDistribution::new(GeometricClasses::new(0.9), 5);
        let total: f64 = (0..=5).map(|i| cutoff.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        // With p = 0.9 a lot of mass lies beyond rank 5.
        assert!(cutoff.pmf(5) > 0.5, "tail mass {}", cutoff.pmf(5));
        assert_eq!(cutoff.pmf(6), 0.0);
    }

    #[test]
    fn cutoff_samples_never_exceed_n() {
        let cutoff = CutoffDistribution::new(ZetaClasses::new(1.1), 50);
        let mut r = rng(4);
        for _ in 0..20_000 {
            assert!(cutoff.sample(&mut r) <= 50);
        }
    }

    #[test]
    fn cutoff_mean_matches_empirical() {
        let cutoff = CutoffDistribution::new(GeometricClasses::new(0.5), 30);
        let exact = cutoff.mean();
        let mut r = rng(5);
        let n = 200_000;
        let empirical = (0..n).map(|_| cutoff.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!(
            (exact - empirical).abs() < 0.02,
            "exact {exact} vs empirical {empirical}"
        );
        // For geometric(0.5) the mean of the untruncated variable is 1, and
        // truncation at 30 barely matters.
        assert!((exact - 1.0).abs() < 0.01);
    }

    #[test]
    fn uniform_cutoff_mean_is_class_mean_when_n_exceeds_k() {
        let cutoff = CutoffDistribution::new(UniformClasses::new(10), 100);
        assert!((cutoff.mean() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn theorem7_bound_is_positive_and_scales_with_n() {
        let mut r = rng(6);
        let small = CutoffDistribution::new(UniformClasses::new(10), 100);
        let large = CutoffDistribution::new(UniformClasses::new(10), 10_000);
        let b_small = small.theorem7_bound(&mut r);
        let b_large = large.theorem7_bound(&mut r);
        assert!(b_small > 0);
        assert!(
            b_large > 10 * b_small,
            "bound should grow roughly linearly in n"
        );
    }

    #[test]
    fn sample_sum_is_deterministic_per_seed() {
        let cutoff = CutoffDistribution::new(PoissonClasses::new(5.0), 1000);
        let a = cutoff.sample_sum(500, &mut rng(7));
        let b = cutoff.sample_sum(500, &mut rng(7));
        assert_eq!(a, b);
    }
}
