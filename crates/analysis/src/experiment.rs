//! Experiment runners for the paper's Section 5 study and the Theorem 7
//! dominance check.

use crate::regression::LinearFit;
use crate::stats::Summary;
use ecs_core::{EcsAlgorithm, RoundRobin};
use ecs_distributions::{
    class_distribution::AnyDistribution, ClassDistribution, CutoffDistribution,
};
use ecs_model::throughput::Job;
use ecs_model::{Instance, InstanceOracle, ThroughputPool};
use ecs_rng::StreamSplit;

/// Configuration of one Figure 5 series: a distribution, the input sizes, and
/// the number of trials per size.
#[derive(Debug, Clone)]
pub struct Figure5Config {
    /// The class-size distribution the elements are drawn from.
    pub distribution: AnyDistribution,
    /// The input sizes `n` to test.
    pub sizes: Vec<usize>,
    /// Independent trials per size (the paper uses 10).
    pub trials: usize,
    /// Master seed; every `(size, trial)` pair derives its own stream.
    pub seed: u64,
}

impl Figure5Config {
    /// The paper's size grid for the uniform / geometric / Poisson panels:
    /// 10 000 to 200 000 in steps of 10 000, 10 trials.
    pub fn paper_large(distribution: AnyDistribution, seed: u64) -> Self {
        Self {
            distribution,
            sizes: (1..=20).map(|i| i * 10_000).collect(),
            trials: 10,
            seed,
        }
    }

    /// The paper's size grid for the zeta panels: 1 000 to 20 000 in steps of
    /// 1 000, 10 trials.
    pub fn paper_zeta(distribution: AnyDistribution, seed: u64) -> Self {
        Self {
            distribution,
            sizes: (1..=20).map(|i| i * 1_000).collect(),
            trials: 10,
            seed,
        }
    }

    /// A scaled-down grid (sizes divided by `factor`) for quick runs and CI.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        assert!(factor >= 1);
        self.sizes = self.sizes.iter().map(|&s| (s / factor).max(100)).collect();
        self
    }
}

/// Measurements at one input size.
#[derive(Debug, Clone)]
pub struct Figure5Point {
    /// Input size `n`.
    pub n: usize,
    /// Total comparisons of each trial.
    pub comparisons: Vec<u64>,
    /// Summary statistics over the trials.
    pub summary: Summary,
}

/// One series (curve) of the Figure 5 reproduction.
#[derive(Debug, Clone)]
pub struct Figure5Series {
    /// Label, e.g. `"uniform(k=10)"`.
    pub label: String,
    /// Per-size measurements.
    pub points: Vec<Figure5Point>,
    /// Least-squares fit of mean comparisons against `n`, when the paper
    /// proves (high-probability or expected) linear behaviour.
    pub fit: Option<LinearFit>,
    /// Whether the paper claims a linear bound for this configuration.
    pub linear_expected: bool,
}

impl Figure5Series {
    /// The per-size mean comparisons, as `(n, mean)` pairs.
    pub fn means(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.n as f64, p.summary.mean()))
            .collect()
    }

    /// The largest relative deviation of any single trial from the fitted
    /// line (the "data points vary by as much as 10%" number for zeta s = 2).
    pub fn max_relative_spread(&self) -> f64 {
        let Some(fit) = &self.fit else { return 0.0 };
        let mut worst = 0.0f64;
        for p in &self.points {
            let pred = fit.predict(p.n as f64);
            if pred <= 0.0 {
                continue;
            }
            for &c in &p.comparisons {
                worst = worst.max(((c as f64 - pred) / pred).abs());
            }
        }
        worst
    }
}

/// Whether the Figure 5 reproduction fits a least-squares line for this
/// distribution: Theorem 8 proves linearity for uniform/geometric/Poisson and
/// Theorem 9 for zeta with s > 2; the boundary s = 2 is included because the
/// paper's experiments fit a line there too (observed near-linear, within
/// ~10% spread, though unproven — `tail_bounds::paper_comparison_bound`
/// accordingly reports no bound for s ≤ 2).
pub fn paper_claims_linear(distribution: &AnyDistribution) -> bool {
    match distribution {
        AnyDistribution::Uniform(_)
        | AnyDistribution::Geometric(_)
        | AnyDistribution::Poisson(_) => true,
        AnyDistribution::Zeta(z) => z.s() >= 2.0,
    }
}

/// One Figure 5 trial: draw an instance addressed by `(n, trial)` from the
/// config's seed, run round-robin, return the total comparisons. Every job
/// of [`figure5_grid`] calls it with its own stream coordinates, so the
/// measurements do not depend on how many workers drain the grid.
/// Round-robin's rounds are single comparisons, so no round ever reaches an
/// execution backend's pool.
fn figure5_trial(
    distribution: &AnyDistribution,
    split: StreamSplit,
    n: usize,
    trial: usize,
) -> u64 {
    let mut rng = split.stream(&[n as u64, trial as u64]);
    let instance = Instance::from_distribution(distribution, n, &mut rng);
    let oracle = InstanceOracle::new(&instance);
    let run = RoundRobin::new().sort(&oracle);
    debug_assert!(instance.verify(&run.partition));
    run.metrics.comparisons()
}

/// Assembles a [`Figure5Series`] from the per-size trial measurements.
fn assemble_figure5_series(config: &Figure5Config, per_size: Vec<Vec<u64>>) -> Figure5Series {
    debug_assert_eq!(per_size.len(), config.sizes.len());
    let points: Vec<Figure5Point> = config
        .sizes
        .iter()
        .zip(per_size)
        .map(|(&n, comparisons)| {
            let summary =
                Summary::from_slice(&comparisons.iter().map(|&c| c as f64).collect::<Vec<_>>());
            Figure5Point {
                n,
                comparisons,
                summary,
            }
        })
        .collect();

    let linear_expected = paper_claims_linear(&config.distribution);
    let fit = if linear_expected {
        let x: Vec<f64> = points.iter().map(|p| p.n as f64).collect();
        let y: Vec<f64> = points.iter().map(|p| p.summary.mean()).collect();
        LinearFit::fit(&x, &y)
    } else {
        None
    };

    Figure5Series {
        label: config.distribution.name(),
        points,
        fit,
        linear_expected,
    }
}

/// Runs one Figure 5 series: for every size and trial, draw an instance from
/// the distribution, run the round-robin algorithm, and record the total
/// comparisons. This is [`figure5_grid`] on a serial pool — the reference
/// that pooled runs must match bit for bit.
pub fn figure5_series(config: &Figure5Config) -> Figure5Series {
    figure5_grid(std::slice::from_ref(config), &ThroughputPool::from_jobs(1))
        .pop()
        .expect("one config gives one series")
}

/// Runs a whole grid of Figure 5 configurations through one
/// [`ThroughputPool`]: every `(config, size, trial)` job of the grid is
/// submitted up front (one fairness session per config), so the pool stays
/// saturated across size and distribution boundaries. Results are
/// bit-identical for every worker count — the jobs run the same code on the
/// same stream coordinates.
pub fn figure5_grid(configs: &[Figure5Config], pool: &ThroughputPool) -> Vec<Figure5Series> {
    let sessions: Vec<Vec<Job<'_, u64>>> = configs
        .iter()
        .map(|config| {
            let split = StreamSplit::new(config.seed);
            let mut jobs: Vec<Job<'_, u64>> =
                Vec::with_capacity(config.sizes.len() * config.trials);
            for &n in &config.sizes {
                for trial in 0..config.trials {
                    let distribution = &config.distribution;
                    jobs.push(Box::new(move || {
                        figure5_trial(distribution, split, n, trial)
                    }));
                }
            }
            jobs
        })
        .collect();

    let per_config = pool.run_sessions(sessions);

    configs
        .iter()
        .zip(per_config)
        .map(|(config, flat)| {
            let per_size: Vec<Vec<u64>> = if config.trials == 0 {
                config.sizes.iter().map(|_| Vec::new()).collect()
            } else {
                flat.chunks(config.trials).map(<[u64]>::to_vec).collect()
            };
            assemble_figure5_series(config, per_size)
        })
        .collect()
}

/// Configuration for the Theorem 7 stochastic-dominance experiment.
#[derive(Debug, Clone)]
pub struct DominanceConfig {
    /// The class-size distribution.
    pub distribution: AnyDistribution,
    /// The input size `n`.
    pub n: usize,
    /// Number of paired trials.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

/// Result of the Theorem 7 experiment.
///
/// Theorem 7's accounting sums the `2·min(Y_i, Y_j)` lemma of Jayapaul et al.
/// over *distinct* class pairs, so the quantity it bounds by `2·Σ D_N(n)`
/// draws is the number of **cross-class** tests; the within-class "equal"
/// answers that contract groups add at most `n − k` further comparisons. The
/// experiment therefore reports both the cross-class count (checked against
/// the Theorem 7 bound) and the total count (checked against the bound plus
/// `n`), which is exactly how Theorem 8 uses the result to conclude `O(n)`
/// total work.
#[derive(Debug, Clone)]
pub struct DominanceResult {
    /// Label of the distribution.
    pub label: String,
    /// Measured round-robin total comparisons per trial.
    pub measured_total: Vec<u64>,
    /// Measured round-robin cross-class comparisons per trial.
    pub measured_cross: Vec<u64>,
    /// Input size `n`.
    pub n: usize,
    /// Sampled Theorem 7 bounds (`2·Σ` of `n` draws from `D_N(n)`) per trial.
    pub bound_samples: Vec<u64>,
    /// The exact mean of the bound, `2·n·E[D_N(n)]`.
    pub bound_mean: f64,
}

impl DominanceResult {
    /// Fraction of trials whose *cross-class* comparisons were at most the
    /// bound's expected value (the literal Theorem 7 quantity).
    pub fn fraction_cross_below_bound(&self) -> f64 {
        if self.measured_cross.is_empty() {
            return 1.0;
        }
        let below = self
            .measured_cross
            .iter()
            .filter(|&&m| (m as f64) <= self.bound_mean)
            .count();
        below as f64 / self.measured_cross.len() as f64
    }

    /// Fraction of trials whose *total* comparisons were at most the bound
    /// plus `n` (bound on cross-class tests plus at most `n` within-class
    /// contractions), the form in which Theorem 8 concludes linear work.
    pub fn fraction_total_below_bound_plus_n(&self) -> f64 {
        if self.measured_total.is_empty() {
            return 1.0;
        }
        let limit = self.bound_mean + self.n as f64;
        let below = self
            .measured_total
            .iter()
            .filter(|&&m| (m as f64) <= limit)
            .count();
        below as f64 / self.measured_total.len() as f64
    }

    /// Mean of the measured total comparison counts.
    pub fn measured_mean(&self) -> f64 {
        Summary::from_slice(
            &self
                .measured_total
                .iter()
                .map(|&c| c as f64)
                .collect::<Vec<_>>(),
        )
        .mean()
    }

    /// Mean of the measured cross-class comparison counts.
    pub fn measured_cross_mean(&self) -> f64 {
        Summary::from_slice(
            &self
                .measured_cross
                .iter()
                .map(|&c| c as f64)
                .collect::<Vec<_>>(),
        )
        .mean()
    }
}

/// An oracle wrapper that counts how many answered tests crossed two distinct
/// ground-truth classes.
struct CrossCountingOracle<'a> {
    inner: InstanceOracle<'a>,
    cross: std::sync::atomic::AtomicU64,
}

impl ecs_model::EquivalenceOracle for CrossCountingOracle<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn same(&self, a: usize, b: usize) -> bool {
        let same = self.inner.same(a, b);
        if !same {
            self.cross
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        same
    }
}

/// One Theorem 7 measurement trial: `(total, cross-class)` comparisons of a
/// round-robin run on the instance addressed by `(1, trial)`; every job of
/// [`dominance_grid`] calls it with its own trial index.
fn dominance_trial(
    distribution: &AnyDistribution,
    split: StreamSplit,
    n: usize,
    trial: usize,
) -> (u64, u64) {
    let mut rng = split.stream(&[1, trial as u64]);
    let instance = Instance::from_distribution(distribution, n, &mut rng);
    let oracle = CrossCountingOracle {
        inner: InstanceOracle::new(&instance),
        cross: std::sync::atomic::AtomicU64::new(0),
    };
    let run = RoundRobin::new().sort(&oracle);
    debug_assert!(instance.verify(&run.partition));
    (
        run.metrics.comparisons(),
        oracle.cross.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// Assembles a [`DominanceResult`] from the measurement tuples (the cheap
/// bound sampling runs inline; it is a handful of RNG draws per trial).
fn assemble_dominance(config: &DominanceConfig, measurements: Vec<(u64, u64)>) -> DominanceResult {
    let split = StreamSplit::new(config.seed);
    let cutoff = CutoffDistribution::new(config.distribution, config.n);
    let bound_samples: Vec<u64> = (0..config.trials)
        .map(|trial| {
            let mut rng = split.stream(&[2, trial as u64]);
            cutoff.theorem7_bound(&mut rng)
        })
        .collect();

    DominanceResult {
        label: config.distribution.name(),
        measured_total: measurements.iter().map(|&(t, _)| t).collect(),
        measured_cross: measurements.iter().map(|&(_, c)| c).collect(),
        n: config.n,
        bound_samples,
        bound_mean: 2.0 * config.n as f64 * cutoff.mean(),
    }
}

/// Runs the Theorem 7 experiment: measures round-robin comparisons on inputs
/// drawn from the distribution and compares them against the
/// `2·Σ_{i=1}^n V_i` bound where `V_i ~ D_N(n)`. This is [`dominance_grid`]
/// on a serial pool — the reference that pooled runs must match bit for bit.
pub fn dominance_experiment(config: &DominanceConfig) -> DominanceResult {
    dominance_grid(std::slice::from_ref(config), &ThroughputPool::from_jobs(1))
        .pop()
        .expect("one config gives one result")
}

/// Runs every configuration of a Theorem 7 dominance sweep through one
/// [`ThroughputPool`], one fairness session per configuration, so all
/// `configs × trials` measurement jobs share the pool. Bit-identical to
/// calling [`dominance_experiment`] per config.
pub fn dominance_grid(configs: &[DominanceConfig], pool: &ThroughputPool) -> Vec<DominanceResult> {
    let sessions: Vec<Vec<Job<'_, (u64, u64)>>> = configs
        .iter()
        .map(|config| {
            let split = StreamSplit::new(config.seed);
            (0..config.trials)
                .map(|trial| {
                    let distribution = &config.distribution;
                    let n = config.n;
                    Box::new(move || dominance_trial(distribution, split, n, trial))
                        as Job<'_, (u64, u64)>
                })
                .collect()
        })
        .collect();

    let per_config = pool.run_sessions(sessions);

    configs
        .iter()
        .zip(per_config)
        .map(|(config, measurements)| assemble_dominance(config, measurements))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_series_shapes_and_determinism() {
        let config = Figure5Config {
            distribution: AnyDistribution::uniform(10),
            sizes: vec![200, 400, 800],
            trials: 3,
            seed: 99,
        };
        let series = figure5_series(&config);
        assert_eq!(series.points.len(), 3);
        assert!(series.points.iter().all(|p| p.comparisons.len() == 3));
        assert!(series.linear_expected);
        assert!(series.fit.is_some());
        // Deterministic under the same seed.
        let again = figure5_series(&config);
        assert_eq!(
            series.points[0].comparisons, again.points[0].comparisons,
            "same seed must reproduce identical measurements"
        );
        // Larger inputs cost more comparisons on average.
        let means = series.means();
        assert!(means[2].1 > means[0].1);
    }

    #[test]
    fn uniform_series_is_nearly_linear() {
        let config = Figure5Config {
            distribution: AnyDistribution::uniform(10),
            sizes: vec![500, 1000, 1500, 2000, 2500],
            trials: 4,
            seed: 7,
        };
        let series = figure5_series(&config);
        let fit = series.fit.unwrap();
        assert!(
            fit.r_squared > 0.98,
            "uniform(10) should be tightly linear, R^2 = {}",
            fit.r_squared
        );
    }

    #[test]
    fn zeta_small_s_has_no_fit() {
        let config = Figure5Config {
            distribution: AnyDistribution::zeta(1.5),
            sizes: vec![200, 400],
            trials: 2,
            seed: 5,
        };
        let series = figure5_series(&config);
        assert!(!series.linear_expected);
        assert!(series.fit.is_none());
        assert_eq!(series.max_relative_spread(), 0.0);
    }

    #[test]
    fn scaled_down_config_shrinks_sizes() {
        let config = Figure5Config::paper_large(AnyDistribution::uniform(10), 1).scaled_down(100);
        assert_eq!(config.sizes[0], 100);
        assert_eq!(config.sizes.len(), 20);
        let zeta = Figure5Config::paper_zeta(AnyDistribution::zeta(2.0), 1);
        assert_eq!(zeta.sizes[0], 1_000);
        assert_eq!(zeta.sizes.last().copied(), Some(20_000));
    }

    #[test]
    fn dominance_holds_for_uniform_on_average() {
        let config = DominanceConfig {
            distribution: AnyDistribution::uniform(25),
            n: 1_500,
            trials: 6,
            seed: 11,
        };
        let result = dominance_experiment(&config);
        assert_eq!(result.measured_total.len(), 6);
        assert_eq!(result.measured_cross.len(), 6);
        assert_eq!(result.bound_samples.len(), 6);
        assert!(
            result.fraction_cross_below_bound() >= 0.99,
            "cross-class mean {} vs bound mean {}",
            result.measured_cross_mean(),
            result.bound_mean
        );
        assert!(
            result.fraction_total_below_bound_plus_n() >= 0.99,
            "total mean {} vs bound mean + n {}",
            result.measured_mean(),
            result.bound_mean + config.n as f64
        );
        // Cross-class counts are a subset of the totals.
        for (total, cross) in result.measured_total.iter().zip(&result.measured_cross) {
            assert!(cross <= total);
        }
    }

    #[test]
    fn pooled_grid_matches_per_config_series() {
        let configs = vec![
            Figure5Config {
                distribution: AnyDistribution::uniform(10),
                sizes: vec![200, 400],
                trials: 3,
                seed: 99,
            },
            Figure5Config {
                distribution: AnyDistribution::zeta(2.5),
                sizes: vec![150, 300, 450],
                trials: 2,
                seed: 7,
            },
        ];
        for pool in [ThroughputPool::from_jobs(1), ThroughputPool::from_jobs(4)] {
            let grid = figure5_grid(&configs, &pool);
            assert_eq!(grid.len(), configs.len());
            for (config, series) in configs.iter().zip(&grid) {
                let reference = figure5_series(config);
                assert_eq!(series.label, reference.label);
                for (a, b) in series.points.iter().zip(&reference.points) {
                    assert_eq!(a.n, b.n);
                    assert_eq!(
                        a.comparisons,
                        b.comparisons,
                        "{} trial measurements diverged between pooled and serial",
                        pool.label()
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_dominance_grid_matches_per_config_runs() {
        let configs = vec![
            DominanceConfig {
                distribution: AnyDistribution::uniform(25),
                n: 600,
                trials: 3,
                seed: 11,
            },
            DominanceConfig {
                distribution: AnyDistribution::geometric(0.3),
                n: 400,
                trials: 4,
                seed: 5,
            },
        ];
        let pool = ThroughputPool::from_jobs(3);
        let grid = dominance_grid(&configs, &pool);
        for (config, pooled) in configs.iter().zip(&grid) {
            let reference = dominance_experiment(config);
            assert_eq!(pooled.measured_total, reference.measured_total);
            assert_eq!(pooled.measured_cross, reference.measured_cross);
            assert_eq!(pooled.bound_samples, reference.bound_samples);
            assert_eq!(pooled.bound_mean, reference.bound_mean);
        }
    }

    #[test]
    fn paper_linearity_claims() {
        assert!(paper_claims_linear(&AnyDistribution::uniform(5)));
        assert!(paper_claims_linear(&AnyDistribution::geometric(0.5)));
        assert!(paper_claims_linear(&AnyDistribution::poisson(5.0)));
        assert!(paper_claims_linear(&AnyDistribution::zeta(2.5)));
        assert!(paper_claims_linear(&AnyDistribution::zeta(2.0)));
        assert!(!paper_claims_linear(&AnyDistribution::zeta(1.5)));
    }
}
