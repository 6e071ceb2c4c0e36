//! Poisson sampling and probability mass evaluation.
//!
//! The sampler is Knuth's product of uniforms, whose every factor is a
//! random draw, so no table can skip work without changing the draws. What
//! does not depend on the draws — `e^{−λ}` and the split of a mean above 16
//! into `⌈λ/16⌉` equal chunks — is computed once per `KnuthPoisson`
//! rather than per variate; the values are the ones the per-draw code
//! computed, bit for bit.

use ecs_rng::EcsRng;

/// The Poisson probability mass function `Pr[X = i] = λ^i e^{-λ} / i!`,
/// evaluated in log-space to stay accurate for large `i` or `λ`.
pub fn poisson_pmf(lambda: f64, i: usize) -> f64 {
    assert!(lambda > 0.0, "poisson_pmf requires lambda > 0");
    let i_f = i as f64;
    let log_p = i_f * lambda.ln() - lambda - ln_factorial(i);
    log_p.exp()
}

/// Natural log of `i!` via `ln Γ(i + 1)` (Lanczos-free: exact summation for
/// small `i`, Stirling's series for large `i`).
pub fn ln_factorial(i: usize) -> f64 {
    if i < 128 {
        (1..=i).map(|j| (j as f64).ln()).sum()
    } else {
        // Stirling's series with the first three correction terms — accurate
        // to ~1e-12 for i >= 128.
        let n = i as f64;
        n * n.ln() - n + 0.5 * (2.0 * std::f64::consts::PI * n).ln() + 1.0 / (12.0 * n)
            - 1.0 / (360.0 * n.powi(3))
    }
}

/// Samples Poisson variates with one mean `λ`.
///
/// It uses Knuth's product-of-uniforms method: multiply `f64_open` draws
/// until the product falls to `e^{−λ}` or below, and count the factors
/// past the first. For large means (where `e^{-λ}` underflows usefulness) it
/// sums independent Poisson variates of `⌈λ/16⌉` equal means of at most 16,
/// which is exact in distribution because the Poisson family is closed
/// under convolution. The chunk count and `e^{−λ/chunks}` are computed once,
/// at construction, rather than per draw; a mean of at most 16 is one chunk
/// of `λ/1 = λ`, so the hoisted threshold is the per-draw one bit for bit.
/// The experiment parameters in the paper (λ ∈ {1, 5, 25}) stay well
/// inside comfortable territory either way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KnuthPoisson {
    /// `e^{−λ/chunks}`.
    threshold: f64,
    /// `1` for `λ ≤ 16`, else `⌈λ/16⌉`.
    chunks: usize,
}

impl KnuthPoisson {
    /// The sampler for mean `lambda > 0`.
    pub(crate) fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "a Poisson sampler requires lambda > 0");
        let chunks = if lambda <= 16.0 {
            1
        } else {
            (lambda / 16.0).ceil() as usize
        };
        let per_chunk = lambda / chunks as f64;
        Self {
            threshold: (-per_chunk).exp(),
            chunks,
        }
    }

    /// Draws one variate.
    pub(crate) fn sample<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut count = self.chunk(rng);
        for _ in 1..self.chunks {
            count += self.chunk(rng);
        }
        count
    }

    /// One product-of-uniforms variate of mean `λ/chunks`.
    fn chunk<R: EcsRng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut count = 0usize;
        let mut product = rng.f64_open();
        while product > self.threshold {
            count += 1;
            product *= rng.f64_open();
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3628800f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_stirling_continuity() {
        // The exact and Stirling branches should agree where they meet.
        let exact: f64 = (1..=127).map(|j| (j as f64).ln()).sum();
        let l127 = ln_factorial(127);
        let l128 = ln_factorial(128);
        assert!((l127 - exact).abs() < 1e-9);
        assert!((l128 - (exact + 128f64.ln())).abs() < 1e-8);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &lambda in &[0.5, 1.0, 5.0, 25.0] {
            let total: f64 = (0..400).map(|i| poisson_pmf(lambda, i)).sum();
            assert!((total - 1.0).abs() < 1e-9, "lambda={lambda}: total {total}");
        }
    }

    #[test]
    fn pmf_peaks_near_lambda() {
        let lambda = 25.0;
        let argmax = (0..100)
            .max_by(|&a, &b| {
                poisson_pmf(lambda, a)
                    .partial_cmp(&poisson_pmf(lambda, b))
                    .unwrap()
            })
            .unwrap();
        assert!((24..=25).contains(&argmax), "mode at {argmax}");
    }

    #[test]
    fn sampler_mean_and_variance() {
        for &lambda in &[1.0, 5.0, 25.0, 40.0] {
            let mut rng = Xoshiro256StarStar::seed_from_u64(lambda as u64 + 3);
            let sampler = KnuthPoisson::new(lambda);
            let n = 100_000;
            let samples: Vec<f64> = (0..n).map(|_| sampler.sample(&mut rng) as f64).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(1.0),
                "lambda={lambda}: mean {mean}"
            );
            assert!(
                (var - lambda).abs() < 0.1 * lambda.max(1.0),
                "lambda={lambda}: variance {var}"
            );
        }
    }

    #[test]
    fn sampler_matches_pmf_for_small_values() {
        let lambda = 5.0;
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let sampler = KnuthPoisson::new(lambda);
        let n = 200_000;
        let mut counts = [0usize; 12];
        for _ in 0..n {
            let x = sampler.sample(&mut rng);
            if x < counts.len() {
                counts[x] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = poisson_pmf(lambda, i);
            let observed = c as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "i={i}: observed {observed} vs expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "lambda > 0")]
    fn zero_lambda_rejected() {
        let _ = KnuthPoisson::new(0.0);
    }
}
