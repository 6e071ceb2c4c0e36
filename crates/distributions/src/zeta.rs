//! The Riemann zeta function and the zeta (Zipf) class distribution's numeric
//! underpinnings.

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

/// Samples a 0-based rank from the zeta distribution with parameter `s > 1`
/// using Devroye's rejection-inversion method (the standard algorithm for
/// unbounded Zipf variates; see Devroye, *Non-Uniform Random Variate
/// Generation*, §X.6).
///
/// The returned value is `k - 1` where `k ≥ 1` is the classic 1-based Zipf
/// variate, so that class indices start at 0 like every other distribution in
/// this crate.
pub fn sample_zeta<R: ecs_rng::EcsRng + ?Sized>(s: f64, rng: &mut R) -> usize {
    debug_assert!(s > 1.0);
    // Devroye's algorithm with b = 2^(s-1).
    let b = 2f64.powf(s - 1.0);
    loop {
        let u = rng.f64_open();
        let v = rng.f64();
        let x = u.powf(-1.0 / (s - 1.0)).floor();
        // Guard against overflow of the floor into absurd territory when u is
        // extremely small; resample in that case (probability ~ 2^-64).
        if !(1.0..=1e18).contains(&x) {
            continue;
        }
        let t = (1.0 + 1.0 / x).powf(s - 1.0);
        if v * x * (t - 1.0) / (b - 1.0) <= t / b {
            return (x as usize) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

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
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            let x = sample_zeta(s, &mut rng);
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
        let sum: f64 = (0..n).map(|_| sample_zeta(s, &mut rng) as f64).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - expected).abs() < 0.01,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn heavy_tail_produces_large_ranks_for_small_s() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let max = (0..50_000)
            .map(|_| sample_zeta(1.1, &mut rng))
            .max()
            .unwrap();
        assert!(
            max > 1_000,
            "s = 1.1 should occasionally produce very large ranks, max {max}"
        );
    }
}
