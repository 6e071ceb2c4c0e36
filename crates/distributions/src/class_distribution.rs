//! The four class-size distribution families studied in the paper.
//!
//! Each family has one sampler, and its output is pinned bit for bit. The
//! geometric and zeta samplers answer most draws from per-parameter tables
//! of the thresholds where their libm formula's answer changes, only where
//! a relative guard band of 2⁻³⁰ around every threshold (about 2²² units in
//! the last place, against libm's one) proves the table right, and
//! evaluate the formula everywhere else (`crate::inversion`; the zeta
//! acceptance cutoffs are exact by IEEE monotonicity, see [`crate::zeta`]).
//! The Poisson sampler computes `e^{−λ}` and its chunking once, at
//! construction.

use crate::inversion::{TableMemo, Thresholds};
use crate::poisson::{poisson_pmf, KnuthPoisson};
use crate::zeta::{riemann_zeta_memo, zeta_pmf, ZetaSampler};
use ecs_rng::EcsRng;
use std::fmt;

/// A distribution over equivalence classes, indexed by non-negative integers.
///
/// Implementors expose their probability mass function, a sampler, and the
/// metadata the distribution-based analysis of Section 4 needs (mean of the
/// *rank* distribution, when finite).
pub trait ClassDistribution {
    /// A human-readable name, e.g. `"uniform(k=10)"`; used in reports.
    fn name(&self) -> String;

    /// `Pr[class = i]` for the raw (un-ranked) class index `i`.
    fn pmf(&self, i: usize) -> f64;

    /// Samples a raw class index.
    fn sample_class<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize
    where
        Self: Sized;

    /// Samples `n` raw class indices: `n` [`Self::sample_class`] draws, in
    /// order. [`AnyDistribution`] picks its family once per call here
    /// rather than once per draw.
    fn sample_classes<R: EcsRng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.sample_class(rng)).collect()
    }

    /// The mean of the distribution over raw class indices, if finite.
    fn mean(&self) -> Option<f64>;

    /// Whether the pmf is already non-increasing in the class index, i.e.
    /// whether raw indices coincide with ranks (true for every family here
    /// except Poisson, whose mode sits near `λ`).
    fn is_rank_ordered(&self) -> bool;

    /// The kind tag, for dispatching in experiment configuration.
    fn kind(&self) -> DistributionKind;
}

/// Discriminates the four families used in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionKind {
    /// Discrete uniform over `k` classes.
    Uniform,
    /// Geometric with success probability `p` (class `i` has mass `p^i (1-p)`
    /// under the paper's convention of counting heads with probability `p`).
    Geometric,
    /// Poisson with mean `λ`.
    Poisson,
    /// Zeta (Zipf) with exponent `s > 1`.
    Zeta,
}

impl std::fmt::Display for DistributionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DistributionKind::Uniform => "uniform",
            DistributionKind::Geometric => "geometric",
            DistributionKind::Poisson => "poisson",
            DistributionKind::Zeta => "zeta",
        };
        write!(f, "{name}")
    }
}

/// Discrete uniform distribution over `k` equally likely classes.
#[derive(Debug, Clone, Copy)]
pub struct UniformClasses {
    k: usize,
}

impl UniformClasses {
    /// Creates a uniform distribution over `k ≥ 1` classes.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "uniform distribution needs at least one class");
        Self { k }
    }

    /// The number of classes.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl ClassDistribution for UniformClasses {
    fn name(&self) -> String {
        format!("uniform(k={})", self.k)
    }

    fn pmf(&self, i: usize) -> f64 {
        if i < self.k {
            1.0 / self.k as f64
        } else {
            0.0
        }
    }

    fn sample_class<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.below(self.k)
    }

    fn mean(&self) -> Option<f64> {
        Some((self.k as f64 - 1.0) / 2.0)
    }

    fn is_rank_ordered(&self) -> bool {
        true
    }

    fn kind(&self) -> DistributionKind {
        DistributionKind::Uniform
    }
}

/// Geometric distribution: class `i` has probability `p^i (1 − p)`.
///
/// This follows the paper's convention — an element "flips a biased coin where
/// heads occurs with probability `p` until it comes up tails" and its class is
/// the number of heads — so *smaller* `p` means *fewer*, *larger* classes.
///
/// Sampling inverts the distribution: the class is `⌊ln u / ln p⌋` for
/// `u = f64_open()`, with `ln p` computed once. Most draws are read from a
/// per-`p` table of the thresholds `p^i` where that answer changes (see
/// `crate::inversion`); the table answers only when `u` lies outside a
/// relative band of 2⁻³⁰ around every threshold, which covers libm's `ln`
/// and `exp` error many times over, and the formula answers the rest. The
/// answer is the formula's either way.
#[derive(Clone, Copy)]
pub struct GeometricClasses {
    p: f64,
    /// `ln p`, the formula's divisor.
    ln_p: f64,
    /// The thresholds `exp(i · ln p)`; `None` once the table memo is full.
    table: Option<&'static Thresholds>,
}

/// Geometric tables kept per `p`.
static GEOMETRIC_TABLES: TableMemo<Thresholds> = TableMemo::new();

/// The thresholds of `⌊ln u / ln p⌋`: the answer is at least `i` iff
/// `ln u ≤ i · ln p`, i.e. `u ≤ exp(i · ln p)`.
fn geometric_thresholds(ln_p: f64) -> Thresholds {
    Thresholds::new((1..).map(|i| (i as f64 * ln_p).exp()))
}

impl fmt::Debug for GeometricClasses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GeometricClasses")
            .field("p", &self.p)
            .finish()
    }
}

impl GeometricClasses {
    /// Creates a geometric distribution with heads probability `p ∈ (0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p < 1.0,
            "geometric parameter must lie in (0,1), got {p}"
        );
        let ln_p = p.ln();
        let table = GEOMETRIC_TABLES.get(p.to_bits(), || geometric_thresholds(ln_p));
        Self { p, ln_p, table }
    }

    /// The heads probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The class of the uniform draw `u`: read from the table where it
    /// answers, else [`Self::formula`].
    #[inline]
    fn invert(&self, u: f64) -> usize {
        match self.table.and_then(|table| table.lookup(u)) {
            Some(heads) => heads,
            None => self.formula(u),
        }
    }

    /// Inverse transform: the number of heads before the first tail is
    /// floor(ln U / ln p) for U uniform in (0,1).
    fn formula(&self, u: f64) -> usize {
        let x = u.ln() / self.ln_p;
        // Guard against pathological rounding for p close to 1.
        x.floor().clamp(0.0, 1e18) as usize
    }
}

impl ClassDistribution for GeometricClasses {
    fn name(&self) -> String {
        format!("geometric(p={})", self.p)
    }

    fn pmf(&self, i: usize) -> f64 {
        self.p.powi(i as i32) * (1.0 - self.p)
    }

    fn sample_class<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        self.invert(rng.f64_open())
    }

    fn mean(&self) -> Option<f64> {
        Some(self.p / (1.0 - self.p))
    }

    fn is_rank_ordered(&self) -> bool {
        true
    }

    fn kind(&self) -> DistributionKind {
        DistributionKind::Geometric
    }
}

/// Poisson distribution: class `i` has probability `λ^i e^{-λ} / i!`.
///
/// Sampling is Knuth's product of uniforms, with `e^{−λ}` and the chunking
/// of means above 16 computed once at construction (see
/// [`crate::poisson`]).
#[derive(Clone, Copy)]
pub struct PoissonClasses {
    lambda: f64,
    sampler: KnuthPoisson,
}

impl fmt::Debug for PoissonClasses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoissonClasses")
            .field("lambda", &self.lambda)
            .finish()
    }
}

impl PoissonClasses {
    /// Creates a Poisson distribution with mean `λ > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0,
            "poisson parameter must be positive, got {lambda}"
        );
        Self {
            lambda,
            sampler: KnuthPoisson::new(lambda),
        }
    }

    /// The mean `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl ClassDistribution for PoissonClasses {
    fn name(&self) -> String {
        format!("poisson(lambda={})", self.lambda)
    }

    fn pmf(&self, i: usize) -> f64 {
        poisson_pmf(self.lambda, i)
    }

    fn sample_class<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sampler.sample(rng)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.lambda)
    }

    fn is_rank_ordered(&self) -> bool {
        // The Poisson pmf increases up to ~λ before decreasing, so raw class
        // indices are not ranks unless λ < 1.
        self.lambda < 1.0
    }

    fn kind(&self) -> DistributionKind {
        DistributionKind::Poisson
    }
}

/// Zeta (Zipf) distribution: class `i` has probability `(i+1)^{-s} / ζ(s)`.
///
/// Sampling is Devroye's rejection-inversion, with most tries answered
/// exactly from a per-`s` table (see [`crate::zeta`]).
#[derive(Clone, Copy)]
pub struct ZetaClasses {
    s: f64,
    zeta_s: f64,
    sampler: ZetaSampler,
}

impl fmt::Debug for ZetaClasses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZetaClasses")
            .field("s", &self.s)
            .field("zeta_s", &self.zeta_s)
            .finish()
    }
}

impl ZetaClasses {
    /// Creates a zeta distribution with exponent `s > 1`. The normalizing
    /// constant `ζ(s)` and the sampler's table are memoised per process, so
    /// repeated `s` values skip the 20 000-term sum and the table build.
    pub fn new(s: f64) -> Self {
        assert!(s > 1.0, "zeta parameter must exceed 1, got {s}");
        Self {
            s,
            zeta_s: riemann_zeta_memo(s),
            sampler: ZetaSampler::new(s),
        }
    }

    /// The exponent `s`.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// The normalizing constant `ζ(s)`.
    pub fn zeta_s(&self) -> f64 {
        self.zeta_s
    }
}

impl ClassDistribution for ZetaClasses {
    fn name(&self) -> String {
        format!("zeta(s={})", self.s)
    }

    fn pmf(&self, i: usize) -> f64 {
        zeta_pmf(self.s, self.zeta_s, i)
    }

    fn sample_class<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sampler.sample(rng)
    }

    fn mean(&self) -> Option<f64> {
        // The mean of the 1-based Zipf variate is ζ(s−1)/ζ(s) for s > 2; our
        // classes are 0-based, hence the −1. For s ≤ 2 the mean diverges.
        if self.s > 2.0 {
            Some(riemann_zeta_memo(self.s - 1.0) / self.zeta_s - 1.0)
        } else {
            None
        }
    }

    fn is_rank_ordered(&self) -> bool {
        true
    }

    fn kind(&self) -> DistributionKind {
        DistributionKind::Zeta
    }
}

/// A type-erased distribution covering all four families, so experiment
/// configuration can hold heterogeneous lists.
#[derive(Debug, Clone, Copy)]
pub enum AnyDistribution {
    /// Uniform over `k` classes.
    Uniform(UniformClasses),
    /// Geometric with parameter `p`.
    Geometric(GeometricClasses),
    /// Poisson with parameter `λ`.
    Poisson(PoissonClasses),
    /// Zeta with exponent `s`.
    Zeta(ZetaClasses),
}

impl AnyDistribution {
    /// Builds the paper's uniform configuration.
    pub fn uniform(k: usize) -> Self {
        Self::Uniform(UniformClasses::new(k))
    }

    /// Builds the paper's geometric configuration.
    pub fn geometric(p: f64) -> Self {
        Self::Geometric(GeometricClasses::new(p))
    }

    /// Builds the paper's Poisson configuration.
    pub fn poisson(lambda: f64) -> Self {
        Self::Poisson(PoissonClasses::new(lambda))
    }

    /// Builds the paper's zeta configuration.
    pub fn zeta(s: f64) -> Self {
        Self::Zeta(ZetaClasses::new(s))
    }
}

impl ClassDistribution for AnyDistribution {
    fn name(&self) -> String {
        match self {
            Self::Uniform(d) => d.name(),
            Self::Geometric(d) => d.name(),
            Self::Poisson(d) => d.name(),
            Self::Zeta(d) => d.name(),
        }
    }

    fn pmf(&self, i: usize) -> f64 {
        match self {
            Self::Uniform(d) => d.pmf(i),
            Self::Geometric(d) => d.pmf(i),
            Self::Poisson(d) => d.pmf(i),
            Self::Zeta(d) => d.pmf(i),
        }
    }

    fn sample_class<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        match self {
            Self::Uniform(d) => d.sample_class(rng),
            Self::Geometric(d) => d.sample_class(rng),
            Self::Poisson(d) => d.sample_class(rng),
            Self::Zeta(d) => d.sample_class(rng),
        }
    }

    fn sample_classes<R: EcsRng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        match self {
            Self::Uniform(d) => d.sample_classes(n, rng),
            Self::Geometric(d) => d.sample_classes(n, rng),
            Self::Poisson(d) => d.sample_classes(n, rng),
            Self::Zeta(d) => d.sample_classes(n, rng),
        }
    }

    fn mean(&self) -> Option<f64> {
        match self {
            Self::Uniform(d) => d.mean(),
            Self::Geometric(d) => d.mean(),
            Self::Poisson(d) => d.mean(),
            Self::Zeta(d) => d.mean(),
        }
    }

    fn is_rank_ordered(&self) -> bool {
        match self {
            Self::Uniform(d) => d.is_rank_ordered(),
            Self::Geometric(d) => d.is_rank_ordered(),
            Self::Poisson(d) => d.is_rank_ordered(),
            Self::Zeta(d) => d.is_rank_ordered(),
        }
    }

    fn kind(&self) -> DistributionKind {
        match self {
            Self::Uniform(d) => d.kind(),
            Self::Geometric(d) => d.kind(),
            Self::Poisson(d) => d.kind(),
            Self::Zeta(d) => d.kind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inversion::GUARD;
    use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;

    /// The spacing of the `f64_open` grid, `2⁻⁵³`.
    const GRID: f64 = 1.0 / (1u64 << 53) as f64;

    /// A geometric distribution with a table of its own, outside the
    /// per-process memo.
    fn tabled_geometric(p: f64) -> GeometricClasses {
        let ln_p = p.ln();
        let table: &'static Thresholds = Box::leak(Box::new(geometric_thresholds(ln_p)));
        GeometricClasses {
            p,
            ln_p,
            table: Some(table),
        }
    }

    /// The `f64_open` grid points `k · 2⁻⁵³ ∈ (0, 1)` within `steps` grid
    /// steps of `centre`.
    fn grid_near(centre: f64, steps: i64) -> impl Iterator<Item = f64> {
        let k = (centre / GRID).round() as i64;
        (k - steps..=k + steps)
            .filter(|&k| (1..1 << 53).contains(&k))
            .map(|k| k as f64 * GRID)
    }

    #[test]
    fn geometric_table_answers_match_the_formula_around_every_threshold() {
        for p in [0.02, 0.1, 0.3, 0.5, 0.9, 0.99, 0.999_999] {
            let d = tabled_geometric(p);
            let thresholds = d.table.expect("a tabled distribution");
            assert!(thresholds.len() >= 1, "p={p}: an empty table");
            for i in 0..=thresholds.len() {
                let t = thresholds.threshold(i);
                // Where 2048 grid steps lie well inside the band, nothing
                // near the threshold is answered, and the formula's own
                // flip sits within 2⁻⁴⁰ of it (about 2¹⁰ ULPs of u).
                let inside = i >= 1 && t >= 1.0 / 1024.0;
                let margin = t / (1u64 << 40) as f64;
                let near = [
                    (t, 2048),
                    (t * (1.0 - GUARD), 512),
                    (t * (1.0 + GUARD), 512),
                ];
                for (centre, steps) in near {
                    for u in grid_near(centre, steps) {
                        let formula = d.formula(u);
                        let answer = thresholds.lookup(u);
                        if let Some(heads) = answer {
                            assert_eq!(heads, formula, "p={p}, t_{i}={t}, u={u}");
                        }
                        if inside && centre == t {
                            assert_eq!(answer, None, "p={p}: u={u} near t_{i}");
                            assert!(u > t - margin || formula >= i, "p={p}: u={u}");
                            assert!(u < t + margin || formula < i, "p={p}: u={u}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn geometric_inversion_matches_the_formula_on_random_draws(
            p in 0.001f64..0.999,
            seed in 0u64..1 << 32,
        ) {
            let d = tabled_geometric(p);
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            for _ in 0..2000 {
                let u = rng.f64_open();
                prop_assert_eq!(d.invert(u), d.formula(u), "p={}, u={}", p, u);
            }
        }
    }

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn empirical_mean<D: ClassDistribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut r = rng(seed);
        (0..n).map(|_| d.sample_class(&mut r) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_pmf_and_mean() {
        let d = UniformClasses::new(4);
        assert_eq!(d.pmf(0), 0.25);
        assert_eq!(d.pmf(3), 0.25);
        assert_eq!(d.pmf(4), 0.0);
        assert_eq!(d.mean(), Some(1.5));
        let m = empirical_mean(&d, 100_000, 1);
        assert!((m - 1.5).abs() < 0.02);
    }

    #[test]
    fn uniform_samples_cover_support() {
        let d = UniformClasses::new(10);
        let mut r = rng(2);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            seen[d.sample_class(&mut r)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn uniform_rejects_zero_classes() {
        let _ = UniformClasses::new(0);
    }

    #[test]
    fn geometric_pmf_sums_to_one_and_mean_matches() {
        for &p in &[0.5, 0.1, 0.02] {
            let d = GeometricClasses::new(p);
            let total: f64 = (0..2000).map(|i| d.pmf(i)).sum();
            assert!((total - 1.0).abs() < 1e-9, "p={p}: total {total}");
            let expected = p / (1.0 - p);
            assert_eq!(d.mean(), Some(expected));
            let m = empirical_mean(&d, 200_000, 3);
            assert!(
                (m - expected).abs() < 0.05 * expected.max(0.2),
                "p={p}: empirical mean {m} vs {expected}"
            );
        }
    }

    #[test]
    fn geometric_paper_parameters_have_small_means() {
        // The paper's p values (1/2, 1/10, 1/50) mean most elements land in
        // class 0, i.e. a giant first equivalence class.
        for &p in &[0.5, 0.1, 0.02] {
            let d = GeometricClasses::new(p);
            assert!(d.pmf(0) > 0.5 - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "in (0,1)")]
    fn geometric_rejects_bad_parameter() {
        let _ = GeometricClasses::new(1.0);
    }

    #[test]
    fn poisson_mean_and_rank_orderedness() {
        let d = PoissonClasses::new(5.0);
        assert_eq!(d.mean(), Some(5.0));
        assert!(!d.is_rank_ordered());
        let d_small = PoissonClasses::new(0.5);
        assert!(d_small.is_rank_ordered());
        let m = empirical_mean(&d, 100_000, 4);
        assert!((m - 5.0).abs() < 0.05);
    }

    #[test]
    fn zeta_mean_finite_only_above_two() {
        assert!(ZetaClasses::new(2.5).mean().is_some());
        assert!(ZetaClasses::new(2.0).mean().is_none());
        assert!(ZetaClasses::new(1.5).mean().is_none());
    }

    #[test]
    fn memoized_zeta_is_bit_identical_to_direct_evaluation() {
        use crate::zeta::riemann_zeta;
        for &s in &[1.1, 1.5, 2.0, 2.5, 3.0, 4.0] {
            // Twice: the first build fills the memo, the second reads it.
            for _ in 0..2 {
                let d = ZetaClasses::new(s);
                let zeta_s = riemann_zeta(s);
                assert_eq!(d.zeta_s().to_bits(), zeta_s.to_bits(), "s={s}: zeta_s");
                for i in [0, 1, 7, 1000] {
                    let direct = ((i + 1) as f64).powf(-s) / zeta_s;
                    assert_eq!(d.pmf(i).to_bits(), direct.to_bits(), "s={s}: pmf({i})");
                }
                let direct_mean = (s > 2.0).then(|| riemann_zeta(s - 1.0) / zeta_s - 1.0);
                assert_eq!(
                    d.mean().map(f64::to_bits),
                    direct_mean.map(f64::to_bits),
                    "s={s}: mean"
                );
            }
        }
    }

    #[test]
    fn zeta_empirical_mean_matches_theory_for_s_2_5() {
        let d = ZetaClasses::new(2.5);
        let expected = d.mean().unwrap();
        let m = empirical_mean(&d, 400_000, 5);
        assert!(
            (m - expected).abs() < 0.05 * expected.max(1.0),
            "empirical {m} vs expected {expected}"
        );
    }

    #[test]
    fn any_distribution_delegates() {
        let all = [
            AnyDistribution::uniform(10),
            AnyDistribution::geometric(0.1),
            AnyDistribution::poisson(5.0),
            AnyDistribution::zeta(2.0),
        ];
        let kinds: Vec<DistributionKind> = all.iter().map(|d| d.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                DistributionKind::Uniform,
                DistributionKind::Geometric,
                DistributionKind::Poisson,
                DistributionKind::Zeta
            ]
        );
        let mut r = rng(6);
        for d in &all {
            let name = d.name();
            assert!(!name.is_empty());
            let x = d.sample_class(&mut r);
            assert!(d.pmf(x) >= 0.0);
        }
        // The batch draws what `n` single draws would, and leaves the
        // generator where they would.
        for d in &all {
            let (mut batch, mut single) = (rng(7), rng(7));
            let drawn = d.sample_classes(500, &mut batch);
            let one_by_one: Vec<usize> = (0..500).map(|_| d.sample_class(&mut single)).collect();
            assert_eq!(drawn, one_by_one, "{}", d.name());
            assert_eq!(batch.next_u64(), single.next_u64(), "{}", d.name());
        }
    }

    #[test]
    fn pmfs_are_nonincreasing_when_rank_ordered() {
        let dists = [
            AnyDistribution::uniform(25),
            AnyDistribution::geometric(0.5),
            AnyDistribution::zeta(1.5),
        ];
        for d in &dists {
            assert!(d.is_rank_ordered());
            for i in 0..50 {
                assert!(
                    d.pmf(i) >= d.pmf(i + 1) - 1e-15,
                    "{} pmf increases at {i}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn display_of_kinds() {
        assert_eq!(DistributionKind::Uniform.to_string(), "uniform");
        assert_eq!(DistributionKind::Zeta.to_string(), "zeta");
    }
}
