//! The comparison session: executes rounds, enforces the model, counts cost.

use crate::backend::ExecutionBackend;
use crate::metrics::Metrics;
use crate::oracle::EquivalenceOracle;
use std::ops::Range;

/// Which read discipline a session enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Exclusive-read: every element participates in at most one comparison
    /// per round.
    Exclusive,
    /// Concurrent-read: elements may appear in any number of comparisons per
    /// round.
    Concurrent,
}

/// A charging session in Valiant's parallel comparison model.
///
/// Algorithms submit comparison rounds (or single sequential comparisons);
/// the session validates them against the read discipline and processor
/// budget, evaluates them against the oracle through an
/// [`ExecutionBackend`] — as one [`EquivalenceOracle::same_batch`] call on
/// the calling thread, or as shards on a pool of OS threads for large
/// rounds when a [`ExecutionBackend::Threaded`] backend is selected — and
/// accumulates [`Metrics`]. Charging is independent of the backend, and
/// answers are collected in submission order, so metrics and partitions are
/// bit-identical across backends.
///
/// # Example
///
/// ```
/// use ecs_model::{ComparisonSession, Instance, InstanceOracle, ReadMode};
/// use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let instance = Instance::balanced(8, 2, &mut rng);
/// let oracle = InstanceOracle::new(&instance);
/// let mut session = ComparisonSession::new(&oracle, ReadMode::Exclusive);
///
/// let answers = session.execute_round(&[(0, 1), (2, 3), (4, 5), (6, 7)]);
/// assert_eq!(answers.len(), 4);
/// assert_eq!(session.metrics().rounds(), 1);
/// assert_eq!(session.metrics().comparisons(), 4);
/// ```
pub struct ComparisonSession<'a, O: EquivalenceOracle> {
    oracle: &'a O,
    mode: ReadMode,
    processors: usize,
    metrics: Metrics,
    backend: ExecutionBackend,
    /// Per-element stamp of the last ER round that used the element, so
    /// matching validation is one array probe per endpoint.
    seen: Vec<u32>,
    /// Stamp of the ER round being validated.
    epoch: u32,
}

impl<'a, O: EquivalenceOracle> ComparisonSession<'a, O> {
    /// Creates a session with `n` processors (the paper's standing
    /// assumption) and the backend selected by the environment
    /// ([`ExecutionBackend::from_env`], i.e. the `ECS_THREADS` variable;
    /// sequential when unset).
    pub fn new(oracle: &'a O, mode: ReadMode) -> Self {
        Self::with_backend(oracle, mode, ExecutionBackend::from_env())
    }

    /// Creates a session evaluating rounds on an explicit backend, with `n`
    /// processors.
    pub fn with_backend(oracle: &'a O, mode: ReadMode, backend: ExecutionBackend) -> Self {
        Self::with_processors_and_backend(oracle, mode, oracle.n().max(1), backend)
    }

    /// Creates a session with an explicit processor budget *and* an explicit
    /// backend. This is the fully-specified constructor the others route
    /// through; the throughput pool uses it so that a job's explicitly
    /// chosen backend is never silently overridden by `ECS_THREADS`.
    pub fn with_processors_and_backend(
        oracle: &'a O,
        mode: ReadMode,
        processors: usize,
        backend: ExecutionBackend,
    ) -> Self {
        assert!(processors > 0, "need at least one processor");
        Self {
            oracle,
            mode,
            processors,
            metrics: Metrics::new(),
            backend,
            seen: Vec::new(),
            epoch: 0,
        }
    }

    /// The read discipline being enforced.
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// The execution backend evaluating this session's rounds.
    pub fn backend(&self) -> ExecutionBackend {
        self.backend
    }

    /// The processor budget per round.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The number of elements in the underlying instance.
    pub fn n(&self) -> usize {
        self.oracle.n()
    }

    /// The accumulated cost so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the session and returns its metrics.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// Performs a single comparison, charged as its own round (this is how
    /// sequential algorithms are accounted: depth equals work).
    pub fn compare(&mut self, a: usize, b: usize) -> bool {
        self.metrics.record_single();
        self.oracle.same(a, b)
    }

    /// Performs the row of single comparisons `(a, b)`, one for every `b` in
    /// `others` in ascending order, and packs the answers into `out` (bit
    /// `i % 64` of `out[i / 64]` answers `(a, others.start + i)`; see
    /// [`EquivalenceOracle::same_row`]): exactly the charges and queries of
    /// calling [`Self::compare`] on each pair in turn (every pair is its own
    /// round, and no round hooks are called), in one call. Oracles whose
    /// answers do not depend on query order answer the whole row a word at a
    /// time.
    pub fn compare_row(&mut self, a: usize, others: Range<usize>, out: &mut Vec<u64>) {
        self.metrics.record_singles(others.len());
        self.oracle.same_row(a, others, out);
    }

    /// Executes one parallel round of comparisons and returns one answer per
    /// pair, in order.
    ///
    /// Validation and charging:
    ///
    /// * In [`ReadMode::Exclusive`] the pairs must form a matching — an
    ///   element appearing twice panics, because it indicates a bug in the
    ///   algorithm's schedule rather than a cost-model decision.
    /// * If the batch exceeds the processor budget it is charged as
    ///   `⌈batch / processors⌉` consecutive rounds, which is exactly what a
    ///   `p`-processor machine would need.
    pub fn execute_round(&mut self, pairs: &[(usize, usize)]) -> Vec<bool> {
        if pairs.is_empty() {
            return Vec::new();
        }
        if self.mode == ReadMode::Exclusive {
            self.validate_matching(pairs);
        }
        let full_rounds = pairs.len() / self.processors;
        let remainder = pairs.len() % self.processors;
        for _ in 0..full_rounds {
            self.metrics.record_round(self.processors);
        }
        if remainder > 0 {
            self.metrics.record_round(remainder);
        }
        // One evaluation batch is one oracle round, even when the processor
        // budget charges it as several model rounds: order-adaptive oracles
        // plan the round's answers at `round_opened` (against the round-start
        // state, in the canonical pair order given here) and publish the
        // merged state advance at `round_closed`, making the answers
        // independent of the execution backend. Stateless oracles ignore
        // both hooks.
        self.oracle.round_opened(pairs);
        let answers = self.evaluate(pairs);
        self.oracle.round_closed();
        answers
    }

    fn validate_matching(&mut self, pairs: &[(usize, usize)]) {
        let n = self.oracle.n();
        // One slot per element, and a last one that every out-of-range
        // index is clamped onto.
        if self.seen.len() <= n {
            self.seen.resize(n + 1, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        // Stamp the whole round without a branch per pair. Only a round that
        // breaks the matching rule, or names an element out of range, is
        // checked again pair by pair below, to report its first fault.
        let seen = &mut self.seen[..=n];
        let mut fault = false;
        for &(a, b) in pairs {
            let (a, b) = (a.min(n), b.min(n));
            fault |= (a == b) | (a == n) | (b == n) | (seen[a] == epoch) | (seen[b] == epoch);
            seen[a] = epoch;
            seen[b] = epoch;
        }
        if !fault {
            return;
        }
        self.seen.fill(0);
        for &(a, b) in pairs {
            assert_ne!(a, b, "ER round contains a self-comparison ({a}, {a})");
            for x in [a, b] {
                // An out-of-range index is left to the oracle's own
                // diagnostic when the round is evaluated.
                if let Some(stamp) = self.seen[..n].get_mut(x) {
                    assert!(
                        *stamp != epoch,
                        "ER round reuses element {x}: not a matching"
                    );
                    *stamp = epoch;
                }
            }
        }
    }

    fn evaluate(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.backend.evaluate(self.oracle, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::oracle::{InstanceOracle, LabelOracle};
    use crate::transcript::RecordingOracle;
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn single_comparisons_charge_one_round_each() {
        let oracle = LabelOracle::new(vec![0, 0, 1, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        assert!(s.compare(0, 1));
        assert!(!s.compare(1, 2));
        assert_eq!(s.metrics().comparisons(), 2);
        assert_eq!(s.metrics().rounds(), 2);
    }

    #[test]
    fn round_answers_match_truth() {
        let mut r = rng(1);
        let inst = Instance::balanced(100, 4, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Concurrent);
        let pairs: Vec<(usize, usize)> = (1..100).map(|i| (0, i)).collect();
        let answers = s.execute_round(&pairs);
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(answers[idx], inst.same_class(a, b));
        }
        assert_eq!(s.metrics().rounds(), 1);
        assert_eq!(s.metrics().comparisons(), 99);
    }

    #[test]
    #[should_panic(expected = "not a matching")]
    fn er_round_rejects_element_reuse() {
        let oracle = LabelOracle::new(vec![0, 0, 1, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let _ = s.execute_round(&[(0, 1), (1, 2)]);
    }

    #[test]
    fn er_rounds_may_reuse_elements_across_rounds() {
        let oracle = LabelOracle::new(vec![0, 0, 1, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        for _ in 0..3 {
            assert_eq!(s.execute_round(&[(0, 1), (2, 3)]), vec![true, true]);
            assert_eq!(s.execute_round(&[(1, 2), (3, 0)]), vec![false, false]);
        }
        assert_eq!(s.metrics().rounds(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn er_round_out_of_range_reaches_the_oracle_diagnostic() {
        let oracle = LabelOracle::new(vec![0, 0, 1, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let _ = s.execute_round(&[(0, 1), (2, 7)]);
    }

    /// Packs answers in the [`EquivalenceOracle::same_row`] layout.
    fn pack(answers: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; answers.len().div_ceil(64)];
        for (i, &same) in answers.iter().enumerate() {
            words[i / 64] |= u64::from(same) << (i % 64);
        }
        words
    }

    /// Rows of length 0, 1, 63, 64, 65 and 129, with aligned and unaligned
    /// starts, rows left and right of `a`, and `a = n − 1`.
    fn rows(n: usize) -> Vec<(usize, Range<usize>)> {
        vec![
            (0, 1..1),
            (0, 1..2),
            (0, 1..64),
            (5, 64..128),
            (3, 7..72),
            (200, 0..129),
            (n - 1, n..n),
            (n - 1, n - 130..n - 1),
            (17, 18..n),
        ]
    }

    /// Runs every row through `compare_row` on one session and through a
    /// `compare` loop on another, checking answers, word layout and charges.
    fn row_and_loop<O: EquivalenceOracle>(
        bulk: &O,
        looped: &O,
        rows: &[(usize, Range<usize>)],
    ) -> Vec<Vec<u64>> {
        let mut s = ComparisonSession::new(bulk, ReadMode::Exclusive);
        let mut t = ComparisonSession::new(looped, ReadMode::Exclusive);
        s.compare(1, 2);
        t.compare(1, 2);
        // Stale words must be cleared, not extended.
        let mut words = vec![u64::MAX; 9];
        let mut answered = Vec::new();
        for (a, others) in rows {
            s.compare_row(*a, others.clone(), &mut words);
            let expected: Vec<bool> = others.clone().map(|b| t.compare(*a, b)).collect();
            assert_eq!(words, pack(&expected), "row ({a}, {others:?})");
            answered.push(words.clone());
        }
        assert_eq!(s.metrics(), t.metrics());
        assert_eq!(s.metrics().round_sizes(), t.metrics().round_sizes());
        answered
    }

    #[test]
    fn compare_row_matches_the_compare_loop() {
        let mut r = rng(5);
        let inst = Instance::balanced(300, 6, &mut r);
        let labels = inst.ground_truth().labels().to_vec();
        let rows = rows(300);

        let instance_oracle = InstanceOracle::new(&inst);
        let label_oracle = LabelOracle::new(labels);
        let by_instance = row_and_loop(&instance_oracle, &instance_oracle, &rows);
        let by_labels = row_and_loop(&label_oracle, &label_oracle, &rows);
        assert_eq!(by_instance, by_labels);

        let bulk = RecordingOracle::new(InstanceOracle::new(&inst));
        let looped = RecordingOracle::new(InstanceOracle::new(&inst));
        let _ = row_and_loop(&bulk, &looped, &rows);
        let bulk: Vec<_> = bulk.transcript().iter().collect();
        let looped: Vec<_> = looped.transcript().iter().collect();
        let asked: usize = rows.iter().map(|(_, others)| others.len()).sum();
        assert_eq!(bulk.len(), asked + 1);
        assert_eq!(bulk, looped, "same transcript, pair for pair");
    }

    #[test]
    fn compare_row_on_a_tripped_token_unwinds_with_cancelled() {
        use crate::cancellation::{is_cancellation, CancellableOracle, CancellationToken};
        let token = CancellationToken::new();
        let oracle = CancellableOracle::new(LabelOracle::new(vec![0, 0, 1]), token.clone());
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let mut words = Vec::new();
        s.compare_row(0, 1..3, &mut words);
        assert_eq!(words, vec![0b01]);
        token.cancel();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.compare_row(0, 1..3, &mut words)
        }));
        assert!(is_cancellation(
            &*unwound.expect_err("a tripped token must abort")
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn compare_row_rejects_out_of_range_rows() {
        let oracle = LabelOracle::new(vec![0, 0, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        s.compare_row(1, 2..4, &mut Vec::new());
    }

    #[test]
    fn cr_round_allows_element_reuse() {
        let oracle = LabelOracle::new(vec![0, 0, 1, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Concurrent);
        let answers = s.execute_round(&[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(answers, vec![true, false, false]);
        assert_eq!(s.metrics().rounds(), 1);
    }

    #[test]
    #[should_panic(expected = "self-comparison")]
    fn er_round_rejects_self_pairs() {
        let oracle = LabelOracle::new(vec![0, 0]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let _ = s.execute_round(&[(1, 1)]);
    }

    #[test]
    fn oversized_round_charged_as_multiple() {
        // 10 elements => 10 processors, but a CR round with 25 comparisons.
        let oracle = LabelOracle::new(vec![0; 10]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Concurrent);
        let pairs: Vec<(usize, usize)> = (0..25).map(|i| (i % 10, (i + 1) % 10)).collect();
        let _ = s.execute_round(&pairs);
        assert_eq!(
            s.metrics().rounds(),
            3,
            "25 comparisons on 10 processors = 3 rounds"
        );
        assert_eq!(s.metrics().comparisons(), 25);
        assert_eq!(s.metrics().round_sizes(), Some(&[10, 10, 5][..]));
    }

    #[test]
    fn explicit_processors_and_backend_are_both_honoured() {
        let oracle = LabelOracle::new(vec![0; 100]);
        let s = ComparisonSession::with_processors_and_backend(
            &oracle,
            ReadMode::Concurrent,
            8,
            ExecutionBackend::threaded(2),
        );
        assert_eq!(s.processors(), 8);
        assert_eq!(
            s.backend(),
            ExecutionBackend::threaded(2),
            "an explicitly chosen backend must not be overridden by ECS_THREADS"
        );
    }

    #[test]
    fn explicit_processor_budget() {
        let oracle = LabelOracle::new(vec![0; 100]);
        let mut s = ComparisonSession::with_processors_and_backend(
            &oracle,
            ReadMode::Concurrent,
            8,
            ExecutionBackend::Sequential,
        );
        assert_eq!(s.processors(), 8);
        let pairs: Vec<(usize, usize)> = (0..16).map(|i| (i, (i + 1) % 100)).collect();
        let _ = s.execute_round(&pairs);
        assert_eq!(s.metrics().rounds(), 2);
    }

    #[test]
    fn empty_round_is_free() {
        let oracle = LabelOracle::new(vec![0, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let answers = s.execute_round(&[]);
        assert!(answers.is_empty());
        assert_eq!(s.metrics().rounds(), 0);
    }

    #[test]
    fn large_batch_parallel_matches_sequential() {
        let mut r = rng(2);
        let inst = Instance::balanced(20_000, 7, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let pairs: Vec<(usize, usize)> = (0..10_000).map(|i| (i, i + 10_000)).collect();

        let mut parallel = ComparisonSession::with_backend(
            &oracle,
            ReadMode::Exclusive,
            ExecutionBackend::threaded(4),
        );
        let a = parallel.execute_round(&pairs);

        let mut sequential = ComparisonSession::with_backend(
            &oracle,
            ReadMode::Exclusive,
            ExecutionBackend::Sequential,
        );
        let b = sequential.execute_round(&pairs);

        assert_eq!(a, b);
        assert_eq!(parallel.metrics(), sequential.metrics());
    }

    #[test]
    fn backend_accessor_reports_selection() {
        let oracle = LabelOracle::new(vec![0, 1]);
        let s = ComparisonSession::with_backend(
            &oracle,
            ReadMode::Exclusive,
            ExecutionBackend::threaded(2),
        );
        assert_eq!(s.backend(), ExecutionBackend::threaded(2));
        let s = ComparisonSession::with_backend(
            &oracle,
            ReadMode::Exclusive,
            ExecutionBackend::Sequential,
        );
        assert_eq!(s.backend(), ExecutionBackend::Sequential);
    }

    #[test]
    fn consecutive_rounds_are_answered_and_charged_one_by_one() {
        let oracle = LabelOracle::new(vec![0, 0, 1, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let rounds = [vec![(0usize, 1usize)], vec![(2, 3)], vec![(0, 2), (1, 3)]];
        let answers: Vec<Vec<bool>> = rounds.iter().map(|r| s.execute_round(r)).collect();
        assert_eq!(answers, vec![vec![true], vec![true], vec![false, false]]);
        assert_eq!(s.metrics().rounds(), 3);
        assert_eq!(s.metrics().comparisons(), 4);
    }

    #[test]
    fn an_inline_round_is_one_same_batch_call() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Counts `same` and `same_batch` calls separately.
        #[derive(Default)]
        struct CallCounter {
            same: AtomicU64,
            batches: AtomicU64,
        }
        impl EquivalenceOracle for CallCounter {
            fn n(&self) -> usize {
                16
            }
            fn same(&self, a: usize, b: usize) -> bool {
                self.same.fetch_add(1, Ordering::SeqCst);
                a % 3 == b % 3
            }
            fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
                self.batches.fetch_add(1, Ordering::SeqCst);
                pairs.iter().map(|&(a, b)| a % 3 == b % 3).collect()
            }
        }

        let pairs: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 8)).collect();
        let expected: Vec<bool> = pairs.iter().map(|&(a, b)| a % 3 == b % 3).collect();
        // A threaded round below its threshold is evaluated inline too.
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Threaded {
                threads: 2,
                threshold: 1 << 20,
            },
        ] {
            let oracle = CallCounter::default();
            let mut s = ComparisonSession::with_backend(&oracle, ReadMode::Exclusive, backend);
            assert_eq!(s.execute_round(&pairs), expected, "{}", backend.label());
            assert_eq!(
                oracle.batches.load(Ordering::SeqCst),
                1,
                "{}",
                backend.label()
            );
            assert_eq!(oracle.same.load(Ordering::SeqCst), 0, "{}", backend.label());
            // A single comparison is one `same` call.
            assert!(s.compare(0, 3));
            assert_eq!(oracle.same.load(Ordering::SeqCst), 1, "{}", backend.label());
            assert_eq!(
                oracle.batches.load(Ordering::SeqCst),
                1,
                "{}",
                backend.label()
            );
        }
    }

    #[test]
    fn execute_round_brackets_the_oracle_with_round_hooks() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Counts hook invocations and how many queries arrived inside an
        /// open round bracket.
        struct HookAudit {
            opened: AtomicU64,
            closed: AtomicU64,
            bracketed_queries: AtomicU64,
        }
        impl EquivalenceOracle for HookAudit {
            fn n(&self) -> usize {
                8
            }
            fn same(&self, a: usize, b: usize) -> bool {
                if self.opened.load(Ordering::SeqCst) == self.closed.load(Ordering::SeqCst) + 1 {
                    self.bracketed_queries.fetch_add(1, Ordering::SeqCst);
                }
                a % 2 == b % 2
            }
            fn round_opened(&self, pairs: &[(usize, usize)]) {
                assert!(!pairs.is_empty(), "empty rounds are never opened");
                self.opened.fetch_add(1, Ordering::SeqCst);
            }
            fn round_closed(&self) {
                self.closed.fetch_add(1, Ordering::SeqCst);
            }
        }

        let oracle = HookAudit {
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            bracketed_queries: AtomicU64::new(0),
        };
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        // An empty round is free and opens nothing.
        let _ = s.execute_round(&[]);
        assert_eq!(oracle.opened.load(Ordering::SeqCst), 0);
        // Each evaluated batch is exactly one open/close bracket, even when
        // the processor budget charges it as several model rounds.
        let _ = s.execute_round(&[(0, 2), (1, 3)]);
        let _ = s.execute_round(&[(0, 1)]);
        let _ = s.execute_round(&[(2, 4), (3, 5)]);
        assert_eq!(oracle.opened.load(Ordering::SeqCst), 3);
        assert_eq!(oracle.closed.load(Ordering::SeqCst), 3);
        assert_eq!(
            oracle.bracketed_queries.load(Ordering::SeqCst),
            5,
            "every round query must arrive inside an open round"
        );
        // Single sequential comparisons are not bracketed: they behave as
        // their own single-pair round on the oracle side.
        let _ = s.compare(0, 2);
        assert_eq!(oracle.opened.load(Ordering::SeqCst), 3);
        assert_eq!(oracle.bracketed_queries.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn into_metrics_returns_accumulated_cost() {
        let oracle = LabelOracle::new(vec![0, 1]);
        let mut s = ComparisonSession::new(&oracle, ReadMode::Exclusive);
        let _ = s.compare(0, 1);
        let m = s.into_metrics();
        assert_eq!(m.comparisons(), 1);
    }
}
