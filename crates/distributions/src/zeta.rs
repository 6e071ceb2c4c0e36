//! The Riemann zeta function and the zeta (Zipf) class distribution's numeric
//! underpinnings, including its sampler.
//!
//! The sampler is Devroye's rejection-inversion, answered from a table
//! built once per exponent wherever the table provably gives the formula's
//! answer:
//!
//! * **Guard band.** The proposal `⌊u^{−1/(s−1)}⌋` is read from thresholds
//!   `t_i = (1 + i)^{−(s−1)}` only when `u` lies more than a relative 2⁻³⁰
//!   from each of them. libm's `pow` is accurate to about one unit in the
//!   last place, which can move the formula's flip by at most about
//!   `(s−1)·2⁻⁵²` relative, far inside the band for every `s ≤ 1024`.
//! * **Monotone cutoffs.** For a tabled candidate `x` the acceptance test
//!   `v·x·(t−1)/(b−1) ≤ t/b` multiplies and divides `v` by non-negative
//!   constants, each step monotone under IEEE rounding, and `v` lies on the
//!   2⁻⁵³ grid of `EcsRng::f64`; bisection on that exact expression finds
//!   the last accepted `v`, so the test becomes one comparison.
//! * **Fallback.** Inside a band, past the last threshold, or without a
//!   table (the memo is full), the try evaluates both `powf` calls as
//!   written. The random draws are consumed identically either way.

use crate::inversion::{TableMemo, Thresholds};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Evaluates the Riemann zeta function `ζ(s)` for real `s > 1`.
///
/// Uses direct summation of the first `M` terms plus an Euler–Maclaurin tail
/// correction:
///
/// `ζ(s) ≈ Σ_{i=1}^{M} i^{-s} + M^{1-s}/(s-1) + M^{-s}/2 + s·M^{-s-1}/12`.
///
/// For the parameter range used in the paper (`s ≥ 1.1`) this is accurate to
/// well below `1e-10` with `M = 20_000`, which is far more precision than the
/// experiments need.
///
/// # Panics
///
/// Panics if `s <= 1` (the series diverges).
pub fn riemann_zeta(s: f64) -> f64 {
    assert!(s > 1.0, "riemann_zeta requires s > 1, got {s}");
    let m = 20_000u32;
    let mut sum = 0.0f64;
    for i in 1..m {
        sum += (i as f64).powf(-s);
    }
    // Euler–Maclaurin tail starting at M: ∫_M^∞ x^{-s} dx + f(M)/2 − f'(M)/12.
    let mf = m as f64;
    sum += mf.powf(1.0 - s) / (s - 1.0);
    sum += 0.5 * mf.powf(-s);
    sum += s * mf.powf(-s - 1.0) / 12.0;
    sum
}

/// Distinct `s` values [`riemann_zeta_memo`] keeps. Served jobs choose `s`,
/// so the memo must not grow with whatever clients send.
const ZETA_MEMO_CAPACITY: usize = 1024;

/// `ζ(s)` by `s.to_bits()`, filled by [`riemann_zeta_memo`].
static ZETA_MEMO: OnceLock<Mutex<HashMap<u64, f64>>> = OnceLock::new();

/// [`riemann_zeta`], evaluated once per distinct `s` per process for the
/// first [`ZETA_MEMO_CAPACITY`] values of `s`, and on every call after that.
///
/// Every served zeta job builds a fresh [`crate::ZetaClasses`], and the
/// 20 000-term sum would otherwise dominate building a small instance. The
/// memo returns exactly the value `riemann_zeta(s)` returns. The sum runs
/// outside the lock, so jobs with other `s` values never wait for it; two
/// first callers racing on one `s` may both compute the same value.
pub(crate) fn riemann_zeta_memo(s: f64) -> f64 {
    let memo = ZETA_MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    // Every update is a single insert, so a poisoned map is still valid.
    let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&value) = lock().get(&s.to_bits()) {
        return value;
    }
    let value = riemann_zeta(s);
    let mut memo = lock();
    if memo.len() < ZETA_MEMO_CAPACITY {
        memo.insert(s.to_bits(), value);
    }
    value
}

/// The normalized probability of rank `i` (0-based) under the zeta
/// distribution with parameter `s`: `Pr[rank = i] = (i+1)^{-s} / ζ(s)`.
pub fn zeta_pmf(s: f64, zeta_s: f64, i: usize) -> f64 {
    ((i + 1) as f64).powf(-s) / zeta_s
}

/// Zeta tables kept per exponent `s`.
static ZETA_TABLES: TableMemo<ZetaTable> = TableMemo::new();

/// Devroye's acceptance test for the candidate `x`, with
/// `t = (1 + 1/x)^(s−1)` and `b = 2^(s−1)`. The one expression both the
/// formula and [`accept_cutoff`] evaluate.
#[inline]
fn accepts(v: f64, x: f64, t: f64, b: f64) -> bool {
    v * x * (t - 1.0) / (b - 1.0) <= t / b
}

/// The spacing of the grid `EcsRng::f64` draws from: `v = k · 2⁻⁵³`.
const GRID: f64 = 1.0 / (1u64 << 53) as f64;

/// The largest `v` on the `f64()` grid that [`accepts`] for `x`, or `−1`
/// if none does. For finite `t ≥ 1` and `b > 1` each step of the left side
/// — a product or quotient with a non-negative constant — is monotone
/// under IEEE rounding, so the accepted `v` form a prefix of the grid and
/// bisection finds its end exactly: `v ≤ cutoff` iff `accepts(v, …)`.
fn accept_cutoff(x: f64, t: f64, b: f64) -> f64 {
    let passes = |k: u64| accepts(k as f64 * GRID, x, t, b);
    if !passes(0) {
        return -1.0;
    }
    // passes(lo) holds; hi is past the grid or fails.
    let (mut lo, mut hi) = (0u64, 1u64 << 53);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo as f64 * GRID
}

/// The lookup table of one exponent: where `⌊u^{−1/(s−1)}⌋` changes, and
/// each tabled candidate's acceptance cutoff.
struct ZetaTable {
    /// `t_i = (1 + i)^{1/e}` with `e = −1/(s−1)`: the candidate is at least
    /// `1 + i` iff `u ≤ t_i`.
    thresholds: Thresholds,
    /// `cutoff[i]`: [`accept_cutoff`] of the candidate `x = 1 + i`.
    cutoff: Box<[f64]>,
}

impl ZetaTable {
    fn new(sampler: &ZetaSampler) -> Self {
        let ZetaSampler { s, exponent, b, .. } = *sampler;
        let thresholds = Thresholds::new((1..).map(|i| ((1 + i) as f64).powf(1.0 / exponent)));
        let cutoff = (0..thresholds.len())
            .map(|i| {
                let x = (1 + i) as f64;
                accept_cutoff(x, (1.0 + 1.0 / x).powf(s - 1.0), b)
            })
            .collect();
        Self { thresholds, cutoff }
    }
}

/// Samples 0-based ranks from the zeta distribution with parameter `s > 1`
/// using Devroye's rejection-inversion method (the standard algorithm for
/// unbounded Zipf variates; see Devroye, *Non-Uniform Random Variate
/// Generation*, §X.6).
///
/// Each try draws `u = f64_open()` then `v = f64()`, proposes
/// `x = ⌊u^{−1/(s−1)}⌋` and accepts it when
/// `v·x·(t−1)/(b−1) ≤ t/b`, with `t = (1 + 1/x)^{s−1}` and `b = 2^{s−1}`.
/// Most tries are answered from a per-`s` table instead of two `powf`
/// calls; the module docs say why the answer is always the formula's.
///
/// The returned value is `k - 1` where `k ≥ 1` is the classic 1-based Zipf
/// variate, so that class indices start at 0 like every other distribution in
/// this crate.
#[derive(Clone, Copy)]
pub(crate) struct ZetaSampler {
    s: f64,
    /// `−1/(s−1)`, the proposal's power of `u`.
    exponent: f64,
    /// `b = 2^(s−1)`.
    b: f64,
    /// `None` when the table memo is full, or `b` is not a finite number
    /// above 1 (then the acceptance test is not monotone in `v`).
    table: Option<&'static ZetaTable>,
}

impl ZetaSampler {
    /// The sampler for `s > 1`, with its table from the per-process memo.
    pub(crate) fn new(s: f64) -> Self {
        debug_assert!(s > 1.0);
        let mut sampler = Self::untabled(s);
        if sampler.b.is_finite() && sampler.b > 1.0 {
            sampler.table = ZETA_TABLES.get(s.to_bits(), || ZetaTable::new(&sampler));
        }
        sampler
    }

    /// The sampler for `s` that always evaluates its formula.
    fn untabled(s: f64) -> Self {
        Self {
            s,
            exponent: -1.0 / (s - 1.0),
            b: 2f64.powf(s - 1.0),
            table: None,
        }
    }

    /// Draws one 0-based rank.
    pub(crate) fn sample<R: ecs_rng::EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        loop {
            let u = rng.f64_open();
            let v = rng.f64();
            if let Some(rank) = self.attempt(u, v) {
                return rank;
            }
        }
    }

    /// One try on the draws `(u, v)`: the accepted rank, or `None` to try
    /// again. Read from the table where it answers, else [`Self::formula`].
    #[inline]
    fn attempt(&self, u: f64, v: f64) -> Option<usize> {
        if let Some(table) = self.table {
            if let Some(i) = table.thresholds.lookup(u) {
                // The candidate is x = 1 + i, and its rank x − 1 = i.
                return (v <= table.cutoff[i]).then_some(i);
            }
        }
        self.formula(u, v)
    }

    /// The proposal `⌊u^{−1/(s−1)}⌋`.
    fn proposal(&self, u: f64) -> f64 {
        u.powf(self.exponent).floor()
    }

    /// One try of Devroye's method as written, with two `powf` calls.
    fn formula(&self, u: f64, v: f64) -> Option<usize> {
        let x = self.proposal(u);
        // Guard against overflow of the floor into absurd territory when u is
        // extremely small; resample in that case (probability ~ 2^-64).
        if !(1.0..=1e18).contains(&x) {
            return None;
        }
        let t = (1.0 + 1.0 / x).powf(self.s - 1.0);
        accepts(v, x, t, self.b).then(|| (x as usize) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inversion::GUARD;
    use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;

    /// Exponents inside and past the tables' reach: a heavy tail, the
    /// paper's values, a light tail, the largest served `s`, and `s` so near
    /// 1 that the thresholds crowd together just below `u = 1`.
    const SHAPES: [f64; 8] = [1.1, 1.5, 2.0, 2.5, 3.0, 8.0, 1024.0, 1.000001];

    /// A sampler with a table of its own, outside the per-process memo.
    fn tabled(s: f64) -> ZetaSampler {
        let mut sampler = ZetaSampler::untabled(s);
        sampler.table = Some(Box::leak(Box::new(ZetaTable::new(&sampler))));
        sampler
    }

    /// The points `k · 2⁻⁵³` of the `f64()` grid (which `f64_open` shares,
    /// without 0) within `steps` grid steps of `centre`.
    fn grid_near(centre: f64, steps: i64) -> impl Iterator<Item = f64> {
        let k = (centre / GRID).round() as i64;
        (k - steps..=k + steps)
            .filter(|&k| (0..1 << 53).contains(&k))
            .map(|k| k as f64 * GRID)
    }

    #[test]
    fn table_candidates_match_the_formula_around_every_threshold() {
        for s in SHAPES {
            let sampler = tabled(s);
            let thresholds = &sampler.table.expect("a tabled sampler").thresholds;
            assert!(thresholds.len() >= 1, "s={s}: an empty table");
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
                    for u in grid_near(centre, steps).filter(|&u| u > 0.0) {
                        let formula = sampler.proposal(u);
                        let answer = thresholds.lookup(u);
                        if let Some(answer) = answer {
                            assert_eq!(formula, (1 + answer) as f64, "s={s}, t_{i}={t}, u={u}");
                        }
                        if inside && centre == t {
                            assert_eq!(answer, None, "s={s}: u={u} near t_{i}");
                            assert!(u > t - margin || formula >= (1 + i) as f64, "s={s}: u={u}");
                            assert!(u < t + margin || formula <= i as f64, "s={s}: u={u}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn accept_cutoffs_match_the_test_around_every_cutoff() {
        for s in SHAPES {
            let sampler = tabled(s);
            let table = sampler.table.expect("a tabled sampler");
            for (i, &cutoff) in table.cutoff.iter().enumerate() {
                let x = (1 + i) as f64;
                let t = (1.0 + 1.0 / x).powf(s - 1.0);
                for v in grid_near(cutoff, 2048).chain([0.0, 1.0 - GRID]) {
                    assert_eq!(
                        v <= cutoff,
                        accepts(v, x, t, sampler.b),
                        "s={s}, x={x}, v={v}, cutoff={cutoff}"
                    );
                }
            }
        }
    }

    #[test]
    fn tries_match_the_formula_near_thresholds_and_cutoffs() {
        for s in SHAPES {
            let sampler = tabled(s);
            let table = sampler.table.expect("a tabled sampler");
            for i in 0..table.thresholds.len() {
                let (upper, lower) = (
                    table.thresholds.threshold(i),
                    table.thresholds.threshold(i + 1),
                );
                let cutoff = table.cutoff[i];
                for u in [upper * (1.0 - 2.0 * GUARD), lower * (1.0 + 2.0 * GUARD)] {
                    let u = (u / GRID).round() * GRID;
                    for v in grid_near(cutoff, 4).chain([0.0, 0.5, 1.0 - GRID]) {
                        assert_eq!(
                            sampler.attempt(u, v),
                            sampler.formula(u, v),
                            "s={s}, u={u}, v={v}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn tries_match_the_formula_on_random_draws(
            s in 1.01f64..16.0,
            seed in 0u64..1 << 32,
        ) {
            let sampler = tabled(s);
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            for _ in 0..2000 {
                let u = rng.f64_open();
                let v = rng.f64();
                prop_assert_eq!(sampler.attempt(u, v), sampler.formula(u, v), "s={}, u={}, v={}", s, u, v);
            }
        }
    }

    #[test]
    fn zeta_known_values() {
        let pi = std::f64::consts::PI;
        assert!((riemann_zeta(2.0) - pi * pi / 6.0).abs() < 1e-9);
        assert!((riemann_zeta(4.0) - pi.powi(4) / 90.0).abs() < 1e-9);
        // Reference values (Apéry's constant and ζ(1.5)).
        assert!((riemann_zeta(3.0) - 1.2020569031595942).abs() < 1e-9);
        assert!((riemann_zeta(1.5) - 2.612375348685488).abs() < 1e-7);
        // ζ(1.1) is large but finite; reference ≈ 10.5844484649508.
        assert!((riemann_zeta(1.1) - 10.5844484649508).abs() < 1e-5);
    }

    #[test]
    fn the_memo_stays_exact_and_bounded_past_its_capacity() {
        for i in 0..ZETA_MEMO_CAPACITY + 8 {
            let s = 7.0 + i as f64 / 64.0;
            assert_eq!(riemann_zeta_memo(s).to_bits(), riemann_zeta(s).to_bits());
        }
        let held = ZETA_MEMO
            .get()
            .expect("the memo was filled")
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        assert!(held <= ZETA_MEMO_CAPACITY, "the memo holds {held} values");
    }

    #[test]
    #[should_panic(expected = "s > 1")]
    fn zeta_rejects_divergent_arguments() {
        let _ = riemann_zeta(1.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &s in &[1.5, 2.0, 2.5, 3.0] {
            let z = riemann_zeta(s);
            let total: f64 = (0..200_000).map(|i| zeta_pmf(s, z, i)).sum();
            // The truncated sum should be close to 1 (tail is tiny for s >= 1.5
            // only when s is comfortably above 1; allow a looser tolerance for 1.5).
            let tol = if s >= 2.0 { 1e-4 } else { 2e-2 };
            assert!((total - 1.0).abs() < tol, "s={s}: pmf sums to {total}");
        }
    }

    #[test]
    fn sampler_matches_pmf_for_small_ranks() {
        let s = 2.0;
        let z = riemann_zeta(s);
        let sampler = ZetaSampler::new(s);
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            let x = sampler.sample(&mut rng);
            if x < counts.len() {
                counts[x] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = zeta_pmf(s, z, i);
            let observed = c as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {i}: observed {observed} vs expected {expected}"
            );
        }
    }

    #[test]
    fn sampler_mean_matches_theory_for_s3() {
        // For s = 3 the mean of the 1-based variate is ζ(2)/ζ(3); our 0-based
        // samples should average to that minus 1.
        let s = 3.0;
        let expected = riemann_zeta(2.0) / riemann_zeta(3.0) - 1.0;
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let n = 300_000;
        let sampler = ZetaSampler::new(s);
        let sum: f64 = (0..n).map(|_| sampler.sample(&mut rng) as f64).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - expected).abs() < 0.01,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn heavy_tail_produces_large_ranks_for_small_s() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let sampler = ZetaSampler::new(1.1);
        let max = (0..50_000).map(|_| sampler.sample(&mut rng)).max().unwrap();
        assert!(
            max > 1_000,
            "s = 1.1 should occasionally produce very large ranks, max {max}"
        );
    }
}
