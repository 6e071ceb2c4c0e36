//! Cost accounting in Valiant's parallel comparison model.

/// Number of power-of-two buckets in [`RoundSizeHistogram`]: bucket 0 holds
/// empty rounds, bucket 1 holds single-comparison rounds, and bucket `i >= 2`
/// holds sizes in `(2^(i-2), 2^(i-1)]`, so every `usize` has a bucket.
const HISTOGRAM_BUCKETS: usize = usize::BITS as usize + 2;

/// The default number of rounds for which [`Metrics`] keeps an exact
/// per-round size trace before falling back to the histogram alone. A
/// sequential Θ(n²) run charges one round per comparison, so an unbounded
/// trace would store O(n²) entries; this cap bounds it while keeping the
/// exact trace available for every realistically-inspected run.
pub const DEFAULT_ROUND_TRACE_LIMIT: usize = 4096;

/// Replay-count witness of an incremental round planner.
///
/// An order-adaptive oracle that plans comparison rounds against committed
/// state (the adversaries' round-commit protocol) reports here how much
/// planning work each strategy actually did. These counters are *planner
/// diagnostics*, deliberately kept out of [`Metrics`]: the charged cost of a
/// run must stay bit-identical whether plans were cached or fully replayed,
/// and `Metrics` equality is part of that contract.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Pair occurrences replayed through the planning case analysis (each
    /// call into the underlying state's `answer`).
    pub replayed: u64,
    /// Queries served straight from a still-valid cache entry — an earlier
    /// round's answer, or a repeat already planned this round — without a
    /// fresh replay of their own pair.
    pub cached: u64,
    /// Cache entries dropped because an endpoint's knowledge epoch advanced
    /// at a commit (the packed plan counts these eagerly at the commit; a
    /// spilled plan validates lazily and counts an entry when a fresh replay
    /// overwrites it).
    pub invalidated: u64,
}

impl PlanStats {
    /// The difference `self - earlier`, counter-wise: the planning work done
    /// since `earlier` was sampled.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not component-wise `<= self`.
    pub fn since(&self, earlier: &PlanStats) -> PlanStats {
        PlanStats {
            replayed: self
                .replayed
                .checked_sub(earlier.replayed)
                .expect("earlier sample has more replays"),
            cached: self
                .cached
                .checked_sub(earlier.cached)
                .expect("earlier sample has more cache hits"),
            invalidated: self
                .invalidated
                .checked_sub(earlier.invalidated)
                .expect("earlier sample has more invalidations"),
        }
    }
}

/// A bounded summary of per-round comparison counts: rounds are bucketed by
/// power-of-two size ranges (0, 1, 2, 3–4, 5–8, 9–16, ...), so the memory
/// footprint is constant no matter how many rounds are charged.
///
/// Each power of two is the **inclusive top edge** of its bucket: a round of
/// exactly `2^k` comparisons lands in the bucket capped at `2^k` rather than
/// opening the next one. Parallel rounds in this workspace are overwhelmingly
/// exact powers of two (perfect matchings of `2^k` pairs, binary merge
/// waves), and the old bit-width bucketing filed such a round as the
/// *smallest* member of the next bucket — a maximal `4096`-pair round shared
/// a bucket with everything up to `8191` while being split from the
/// `4095`-pair round one comparison below it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSizeHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
}

impl Default for RoundSizeHistogram {
    fn default() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl RoundSizeHistogram {
    /// The bucket index for a round of `size` comparisons: `0` for empty
    /// rounds, else `bit_width(size - 1) + 1`, which makes every power of two
    /// the inclusive top edge of its bucket.
    fn bucket(size: usize) -> usize {
        match size {
            0 => 0,
            _ => (usize::BITS - (size - 1).leading_zeros()) as usize + 1,
        }
    }

    /// Counts one value into its power-of-two bucket. [`Metrics`] feeds
    /// round sizes through this; other consumers (e.g. the service daemon's
    /// per-tenant job-latency histograms) may count any `usize`-valued
    /// quantity — the bucket boundaries are pure powers of two either way.
    pub fn record(&mut self, size: usize) {
        self.counts[Self::bucket(size)] += 1;
    }

    /// Counts `times` values of `size` at once.
    fn record_many(&mut self, size: usize, times: u64) {
        self.counts[Self::bucket(size)] += times;
    }

    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Total number of rounds recorded (across all buckets).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of recorded rounds whose size falls in the same power-of-two
    /// bucket as `size` (bucket 0 is exactly the empty rounds, bucket 1 the
    /// single-comparison rounds; bucket `i >= 2` is sizes in
    /// `(2^(i-2), 2^(i-1)]` — each power of two is the inclusive top edge of
    /// its bucket).
    pub fn count_for_size(&self, size: usize) -> u64 {
        self.counts[Self::bucket(size)]
    }

    /// The non-empty buckets as `(smallest size in bucket, largest size in
    /// bucket, rounds)` triples, smallest sizes first.
    pub fn nonzero_buckets(&self) -> Vec<(usize, usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(bucket, &count)| match bucket {
                0 => (0, 0, count),
                1 => (1, 1, count),
                _ => (
                    (1usize << (bucket - 2)) + 1,
                    if bucket == HISTOGRAM_BUCKETS - 1 {
                        // The top bucket's nominal edge, 2^usize::BITS, does
                        // not fit in a usize; its largest representable
                        // member is usize::MAX.
                        usize::MAX
                    } else {
                        1usize << (bucket - 1)
                    },
                    count,
                ),
            })
            .collect()
    }
}

/// The costs charged to an algorithm: total comparisons (work) and parallel
/// comparison rounds (depth), together with enough per-round detail to sanity
/// check processor utilisation.
///
/// Per-round sizes are kept in two forms: a constant-size
/// [`RoundSizeHistogram`] that never grows, and an exact in-order trace that
/// is retained only up to a configurable limit
/// ([`DEFAULT_ROUND_TRACE_LIMIT`] rounds by default, see
/// [`Metrics::with_trace_limit`]). Once a run charges more rounds than the
/// limit, the trace is discarded ([`Metrics::round_sizes`] returns `None`)
/// and only the bounded summaries keep growing — a sequential Θ(n²) run
/// therefore stores O(1) size data instead of O(n²).
#[derive(Debug, Clone)]
pub struct Metrics {
    comparisons: u64,
    rounds: u64,
    max_round_size: usize,
    histogram: RoundSizeHistogram,
    /// Exact per-round sizes while `rounds <= trace_limit`; emptied and
    /// abandoned once the limit is crossed.
    trace: Vec<usize>,
    trace_limit: usize,
    trace_complete: bool,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::with_trace_limit(DEFAULT_ROUND_TRACE_LIMIT)
    }
}

/// Equality compares the *charged* cost state — comparisons, rounds,
/// maximum round size, and the round-size histogram. A run that kept its
/// exact trace and a histogram-only run (a lower trace limit, or a merge
/// that crossed it) of the same workload therefore compare equal: the trace
/// is a diagnostic refinement of the bounded summaries, and its presence is
/// a configuration artifact, not a cost difference. Comparing the trace
/// itself only when both sides happened to retain it would make equality
/// non-transitive (a traceless run would bridge two differently-ordered
/// traced runs), so callers that care about exact per-round *order* —
/// the determinism suites do — must compare [`Metrics::round_sizes`]
/// explicitly alongside `==`.
impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        self.comparisons == other.comparisons
            && self.rounds == other.rounds
            && self.max_round_size == other.max_round_size
            && self.histogram == other.histogram
    }
}

impl Eq for Metrics {}

impl Metrics {
    /// Fresh, zeroed metrics with the default round-trace limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh, zeroed metrics that keep the exact per-round size trace for up
    /// to `limit` rounds (`0` disables the trace entirely; `usize::MAX`
    /// restores the old unbounded behaviour for small diagnostic runs).
    pub fn with_trace_limit(limit: usize) -> Self {
        Self {
            comparisons: 0,
            rounds: 0,
            max_round_size: 0,
            histogram: RoundSizeHistogram::default(),
            trace: Vec::new(),
            trace_limit: limit,
            trace_complete: true,
        }
    }

    /// Total number of equivalence tests performed.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of parallel comparison rounds charged.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The largest number of comparisons charged to a single round.
    pub fn max_round_size(&self) -> usize {
        self.max_round_size
    }

    /// The number of comparisons in each charged round, in order — `None`
    /// once the run outgrew the trace limit (use [`Metrics::histogram`] for
    /// the always-available bounded summary).
    pub fn round_sizes(&self) -> Option<&[usize]> {
        if self.trace_complete {
            Some(&self.trace)
        } else {
            None
        }
    }

    /// The bounded per-round size summary (power-of-two buckets); available
    /// for runs of any length.
    pub fn histogram(&self) -> &RoundSizeHistogram {
        &self.histogram
    }

    /// Average processor utilisation, `comparisons / (rounds × processors)`,
    /// in `[0, 1]` — how full the rounds were relative to the machine width.
    pub fn utilisation(&self, processors: usize) -> f64 {
        if self.rounds == 0 || processors == 0 {
            return 0.0;
        }
        self.comparisons as f64 / (self.rounds as f64 * processors as f64)
    }

    /// Records one round containing `size` comparisons.
    pub fn record_round(&mut self, size: usize) {
        self.comparisons += size as u64;
        self.rounds += 1;
        self.max_round_size = self.max_round_size.max(size);
        self.histogram.record(size);
        self.push_trace(size);
    }

    /// Records a single comparison performed outside any round structure
    /// (sequential algorithms). Each such comparison is its own round — in
    /// Valiant's model a sequential algorithm has depth equal to its work.
    pub fn record_single(&mut self) {
        self.record_round(1);
    }

    /// Records `k` single comparisons at once: exactly what `k` calls to
    /// [`Metrics::record_single`] record, including dropping the trace when
    /// the run crosses the trace limit part-way through the `k`.
    pub fn record_singles(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        self.comparisons += k as u64;
        self.rounds += k as u64;
        self.max_round_size = self.max_round_size.max(1);
        self.histogram.record_many(1, k as u64);
        if !self.trace_complete {
            return;
        }
        if k <= self.trace_limit - self.trace.len() {
            self.trace.resize(self.trace.len() + k, 1);
        } else {
            self.drop_trace();
        }
    }

    /// Merges another metrics object into this one (summing work and depth);
    /// used when an algorithm runs subphases with separate sessions. The
    /// exact trace survives only if both sides retained theirs and the
    /// combination still fits this object's limit.
    pub fn absorb(&mut self, other: &Metrics) {
        self.comparisons += other.comparisons;
        self.rounds += other.rounds;
        self.max_round_size = self.max_round_size.max(other.max_round_size);
        self.histogram.merge(&other.histogram);
        match other.round_sizes() {
            Some(sizes)
                if self.trace_complete && self.trace.len() + sizes.len() <= self.trace_limit =>
            {
                self.trace.extend_from_slice(sizes);
            }
            _ => self.drop_trace(),
        }
    }

    fn push_trace(&mut self, size: usize) {
        if !self.trace_complete {
            return;
        }
        if self.trace.len() < self.trace_limit {
            self.trace.push(size);
        } else {
            self.drop_trace();
        }
    }

    /// Abandons the exact trace and releases its memory.
    fn drop_trace(&mut self) {
        self.trace_complete = false;
        self.trace = Vec::new();
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} comparisons over {} rounds (max round {})",
            self.comparisons, self.rounds, self.max_round_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_at_start() {
        let m = Metrics::new();
        assert_eq!(m.comparisons(), 0);
        assert_eq!(m.rounds(), 0);
        assert_eq!(m.max_round_size(), 0);
        assert_eq!(m.utilisation(16), 0.0);
        assert_eq!(m.round_sizes(), Some(&[][..]));
        assert_eq!(m.histogram().total(), 0);
    }

    #[test]
    fn record_round_accumulates() {
        let mut m = Metrics::new();
        m.record_round(10);
        m.record_round(4);
        m.record_round(0);
        assert_eq!(m.comparisons(), 14);
        assert_eq!(m.rounds(), 3);
        assert_eq!(m.max_round_size(), 10);
        assert_eq!(m.round_sizes(), Some(&[10, 4, 0][..]));
        assert_eq!(m.histogram().total(), 3);
        assert_eq!(m.histogram().count_for_size(0), 1);
        assert_eq!(m.histogram().count_for_size(4), 1);
        assert_eq!(m.histogram().count_for_size(10), 1);
    }

    #[test]
    fn singles_are_one_per_round() {
        let mut m = Metrics::new();
        for _ in 0..5 {
            m.record_single();
        }
        assert_eq!(m.comparisons(), 5);
        assert_eq!(m.rounds(), 5);
        assert_eq!(m.max_round_size(), 1);
        assert_eq!(m.histogram().count_for_size(1), 5);
    }

    #[test]
    fn record_singles_is_k_record_single_calls() {
        let limit = 8;
        // k = 0, below the limit, exactly at it, and across it — from an
        // empty trace and from one already part-full.
        for prefix in [0, 3] {
            for k in [
                0,
                1,
                limit - prefix - 1,
                limit - prefix,
                limit - prefix + 1,
                40,
            ] {
                let mut bulk = Metrics::with_trace_limit(limit);
                let mut looped = Metrics::with_trace_limit(limit);
                for m in [&mut bulk, &mut looped] {
                    for _ in 0..prefix {
                        m.record_round(5);
                    }
                }
                bulk.record_singles(k);
                for _ in 0..k {
                    looped.record_single();
                }
                let context = format!("prefix {prefix}, k {k}");
                assert_eq!(bulk, looped, "{context}");
                assert_eq!(bulk.round_sizes(), looped.round_sizes(), "{context}");
                assert_eq!(
                    bulk.histogram().nonzero_buckets(),
                    looped.histogram().nonzero_buckets(),
                    "{context}"
                );
                assert_eq!(bulk.trace.capacity() == 0, looped.trace.capacity() == 0);
            }
        }
        // Once the trace is gone, later singles leave it gone.
        let mut m = Metrics::with_trace_limit(2);
        m.record_singles(3);
        m.record_singles(1);
        assert_eq!(m.round_sizes(), None);
        assert_eq!(m.rounds(), 4);
    }

    #[test]
    fn trace_is_bounded_but_counters_keep_going() {
        let mut m = Metrics::with_trace_limit(8);
        for _ in 0..100 {
            m.record_single();
        }
        assert_eq!(m.rounds(), 100);
        assert_eq!(m.comparisons(), 100);
        assert_eq!(
            m.round_sizes(),
            None,
            "trace must be dropped past the limit"
        );
        assert_eq!(m.histogram().total(), 100);
        assert_eq!(m.histogram().count_for_size(1), 100);
        // The dropped trace releases its memory.
        assert_eq!(m.trace.capacity(), 0);
    }

    #[test]
    fn trace_limit_zero_disables_tracing() {
        let mut m = Metrics::with_trace_limit(0);
        assert_eq!(
            m.round_sizes(),
            Some(&[][..]),
            "no rounds yet: trivially complete"
        );
        m.record_round(3);
        assert_eq!(m.round_sizes(), None);
        assert_eq!(m.histogram().count_for_size(3), 1);
    }

    #[test]
    fn utilisation_is_work_over_width_times_depth() {
        let mut m = Metrics::new();
        m.record_round(8);
        m.record_round(8);
        assert!((m.utilisation(16) - 0.5).abs() < 1e-12);
        assert!((m.utilisation(8) - 1.0).abs() < 1e-12);
        assert_eq!(m.utilisation(0), 0.0);
    }

    #[test]
    fn absorb_sums_both() {
        let mut a = Metrics::new();
        a.record_round(3);
        let mut b = Metrics::new();
        b.record_round(7);
        b.record_round(2);
        a.absorb(&b);
        assert_eq!(a.comparisons(), 12);
        assert_eq!(a.rounds(), 3);
        assert_eq!(a.max_round_size(), 7);
        assert_eq!(a.round_sizes(), Some(&[3, 7, 2][..]));
        assert_eq!(a.histogram().total(), 3);
    }

    #[test]
    fn absorb_drops_trace_when_either_side_overflowed() {
        let mut big = Metrics::with_trace_limit(2);
        for _ in 0..5 {
            big.record_single();
        }
        assert_eq!(big.round_sizes(), None);
        let mut a = Metrics::new();
        a.record_round(3);
        a.absorb(&big);
        assert_eq!(a.round_sizes(), None);
        assert_eq!(a.rounds(), 6);
        assert_eq!(a.histogram().total(), 6);
    }

    #[test]
    fn equality_ignores_the_trace_configuration() {
        let mut a = Metrics::with_trace_limit(100);
        let mut b = Metrics::with_trace_limit(200);
        for m in [&mut a, &mut b] {
            m.record_round(4);
            m.record_round(9);
        }
        assert_eq!(a, b, "same charges, both traces retained");
        // Regression: a capped-trace run and a histogram-only run of the
        // same workload must agree — the trace's absence is a configuration
        // artifact, not a cost difference.
        let mut c = Metrics::with_trace_limit(1);
        c.record_round(4);
        c.record_round(9);
        assert_eq!(a, c, "same workload, c merely dropped its trace");
        assert_eq!(c, a, "equality must stay symmetric");
        // Equality is over the charged summaries, so it is transitive even
        // through a traceless middle term; exact per-round *order* is the
        // explicit `round_sizes()` check the determinism suites add.
        let mut d = Metrics::new();
        d.record_round(9);
        d.record_round(4);
        assert_eq!(a, d, "same charges in a different order: equal summaries");
        assert_ne!(
            a.round_sizes(),
            d.round_sizes(),
            "order divergence is visible through round_sizes()"
        );
        // A genuinely different workload never compares equal.
        let mut e = Metrics::with_trace_limit(1);
        e.record_round(4);
        e.record_round(10);
        assert_ne!(a, e);
    }

    #[test]
    fn merged_histogram_only_metrics_agree_with_a_capped_trace_run() {
        // Accumulate the same workload twice: once directly with a trace,
        // once by absorbing a histogram-only part (which drops the trace).
        let mut traced = Metrics::new();
        let mut merged = Metrics::new();
        let mut histogram_only = Metrics::with_trace_limit(0);
        for size in [3, 8, 1, 5] {
            traced.record_round(size);
            histogram_only.record_round(size);
        }
        merged.absorb(&histogram_only);
        assert_eq!(merged.round_sizes(), None);
        assert_eq!(
            traced, merged,
            "merge result must agree with the traced run"
        );
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut m = Metrics::new();
        for size in [0, 1, 2, 3, 4, 7, 8, 1024] {
            m.record_round(size);
        }
        let buckets = m.histogram().nonzero_buckets();
        assert_eq!(
            buckets,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 2, 1),
                (3, 4, 2),
                (5, 8, 2),
                (513, 1024, 1),
            ]
        );
    }

    #[test]
    fn exact_powers_of_two_top_their_bucket() {
        // Regression: a round of exactly 2^k comparisons must land in the
        // bucket whose inclusive top edge is 2^k — together with the sizes
        // just below it, not with the sizes up to 2^(k+1) - 1 above it.
        let mut m = Metrics::new();
        for size in [4096, 4095, 4097, 2049] {
            m.record_round(size);
        }
        assert_eq!(
            m.histogram().count_for_size(4096),
            3,
            "4095..=4096 and 2049 share (2048, 4096]"
        );
        assert_eq!(
            m.histogram().count_for_size(4097),
            1,
            "4097 opens (4096, 8192]"
        );
        assert_eq!(
            m.histogram().nonzero_buckets(),
            vec![(2049, 4096, 3), (4097, 8192, 1)]
        );
        // The extremes stay in range: the top bucket's edge saturates.
        let mut top = Metrics::new();
        top.record_round(usize::MAX);
        assert_eq!(top.histogram().count_for_size(usize::MAX), 1);
        assert_eq!(
            top.histogram().nonzero_buckets(),
            vec![((1usize << (usize::BITS - 1)) + 1, usize::MAX, 1)]
        );
        let mut edge = Metrics::new();
        edge.record_round(1usize << (usize::BITS - 1));
        assert_eq!(
            edge.histogram()
                .nonzero_buckets()
                .last()
                .map(|&(_, high, _)| high),
            Some(1usize << (usize::BITS - 1)),
            "an exact power of two tops its bucket even at the extreme"
        );
    }

    #[test]
    fn display_is_human_readable() {
        let mut m = Metrics::new();
        m.record_round(2);
        let s = m.to_string();
        assert!(s.contains("2 comparisons"));
        assert!(s.contains("1 rounds"));
    }
}
