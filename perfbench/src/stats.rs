//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q · len` samples at or below it.
/// Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank) of `samples`, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples`, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `numerator / denominator`, or 0 when the denominator is not positive.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Throughput and latency of a run measured as consecutive blocks, each
/// summarised by the median across blocks, so that a burst of outside
/// interference moves one block's figures but not the run's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blocked {
    /// Median over blocks of jobs finished per second of block wall time.
    pub jobs_per_s: f64,
    /// Median over blocks of the block's median job latency.
    pub p50: f64,
    /// Median over blocks of the block's 99th-percentile job latency.
    pub p99: f64,
}

/// One measured block: its job latencies and its wall time in seconds.
pub type Block = (Vec<f64>, f64);

/// Summarises `blocks`.
pub fn blocked(blocks: &[Block]) -> Blocked {
    let per = |f: fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    Blocked {
        jobs_per_s: per(|(jobs, wall)| ratio(jobs.len() as f64, *wall)),
        p50: per(|(jobs, _)| median(jobs)),
        p99: per(|(jobs, _)| quantile(jobs, 0.99)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_summarised_by_their_medians() {
        let blocks = vec![
            (vec![1.0, 2.0, 3.0], 1.0),
            (vec![1.0, 2.0, 30.0], 10.0),
            (vec![2.0, 3.0, 4.0], 1.5),
        ];
        let summary = blocked(&blocks);
        assert_eq!(summary.jobs_per_s, 2.0);
        assert_eq!(summary.p50, 2.0);
        assert_eq!(summary.p99, 4.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 5.0);
        assert_eq!(quantile(&samples, 0.99), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
