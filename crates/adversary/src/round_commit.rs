//! The round-granular commit protocol that makes the order-adaptive
//! adversaries deterministic on every execution backend.
//!
//! The sequential adversary of Section 3 mutates its coloring after every
//! query, so its answers depend on the *temporal order* of queries — which a
//! work-stealing pool does not preserve, and which a batched backend reshapes
//! into waves. [`RoundCommit`] removes that dependency at round granularity:
//!
//! 1. **Snapshot & plan.** When the session opens a round
//!    ([`ecs_model::EquivalenceOracle::round_opened`] hands the round's pairs
//!    over), the protocol notes the round's pairs in **pair order** — the
//!    round's canonical order, identical on every backend. Replay against
//!    the committed round-start state is **lazy**: a query only forces the
//!    canonical-order prefix up to its own pair through the sequential case
//!    analysis, so early-exiting algorithms never pay for unqueried tails.
//! 2. **Serve.** Every query between the hooks — scalar `same` calls from
//!    any pool thread, in any arrival order, or `same_batch` waves of any
//!    cut — is answered from the plan. Repeats are served (and charged) as
//!    often as they are asked, with the answer the plan pinned.
//! 3. **Commit.** [`ecs_model::EquivalenceOracle::round_closed`] publishes
//!    the merged state advance and bumps the knowledge epoch
//!    ([`AdversaryState::commit_round`]). Nothing between the hooks can
//!    observe intermediate replay states, so the commit is atomic at round
//!    granularity.
//!
//! Scalar queries arriving *outside* an open round (sequential algorithms'
//! single comparisons) run as their own single-pair round, which makes the
//! protocol **bit-identical to the classic sequential adversary** for every
//! sequential algorithm, and bit-identical across `Sequential`, `Threaded`,
//! and `Batched` backends for round-based algorithms: the set of pairs the
//! replay advances through is a pure function of (committed state, round
//! pairs, set of queried pairs), and all three are backend-independent.
//!
//! ## The incremental plan cache
//!
//! Planned answers are not discarded at the commit: they live in a
//! persistent `PlanCache`, keyed by the endpoints' knowledge epochs
//! ([`AdversaryState::epoch_of`]). The adversary's answers are *eternal* —
//! once a pair is settled (contracted equal, or joined by a known-unequal
//! edge) its answer can never change, and replaying a settled pair is a pure
//! read of the committed state. A cache entry therefore stays valid until
//! one of its endpoints' epochs advances; only then is the pair replayed
//! (still in canonical order), which is itself a pure read that re-validates
//! the entry. Pairs planned through the *mutating* path dirty their queried
//! endpoints, so their entries are invalidated at the very next commit and
//! earn their eternal status through one pure replay. The replay-count
//! witness ([`RoundCommit::plan_stats`]) makes the saving observable without
//! weakening any golden: on repeat-heavy round sequences, cached rounds
//! replay strictly fewer entries than the round size.
//!
//! ## Plan storage
//!
//! For universes up to [`PACKED_PLAN_MAX_N`], the cache is two packed
//! upper-triangular [`PairBitset`]s (entry-present and its answer) plus a
//! third marking the open round's membership, so serving a query is a few
//! word probes and no hashing. Per-pair epoch tags would cost 16 bytes per
//! pair, so the packed cache invalidates eagerly instead: the commit clears
//! the cached rows of exactly the elements the round dirtied. Universes
//! above the threshold and explicitly-requested baselines
//! ([`RoundCommit::with_spill_plan`]) keep the cache in a hash map whose
//! entries carry literal epoch tags and go stale by themselves; both the map
//! and the round-membership set recycle their allocations across rounds.

use crate::core_state::{AdversaryCore, AdversaryState};
use ecs_graph::{BitRow, PairBitset};
use ecs_model::PlanStats;
use std::collections::{HashMap, HashSet};

/// Largest universe that plans rounds in the packed pair triangle; above
/// this (8 MiB of plan bits per `PairBitset` at 8192 elements costs ~4 MiB,
/// quadratic beyond) the protocol spills to the hash-map plan.
pub const PACKED_PLAN_MAX_N: usize = 8192;

/// A spilled cache entry: the planned answer plus the endpoint epochs it was
/// computed under. The entry is valid while both epochs are unchanged.
#[derive(Debug, Clone, Copy)]
struct SpillEntry {
    answer: bool,
    epoch_a: u64,
    epoch_b: u64,
}

/// The persistent plan cache plus the open round's membership. All buffers
/// are allocated lazily at the first round and recycled for the lifetime of
/// the protocol.
#[derive(Debug)]
enum PlanCache {
    /// No round planned yet — the storage mode is decided lazily at the
    /// first round, when the universe size is known to matter.
    Undecided,
    Packed {
        /// Bit (a, b) set iff the pair holds a cached answer valid against
        /// the committed state (epoch-invalidated eagerly at each commit).
        cached: PairBitset,
        /// The cached answer for pair (a, b); meaningful only under `cached`.
        answers: PairBitset,
        /// Bit (a, b) set iff the pair is part of the open round.
        in_round: PairBitset,
        /// Word indices of `in_round` written this round — closing the round
        /// wipes exactly these (duplicates are harmless).
        touched: Vec<u32>,
        /// Self-comparisons (a, a) in the open round (always answered
        /// `true`); kept off the triangle, which stores strict pairs only.
        diagonal: BitRow,
        diagonal_used: bool,
        /// Scratch for the commit-time invalidation row scans.
        row_scratch: Vec<usize>,
    },
    Spill {
        /// Epoch-tagged cache; persists (entries and allocation) across
        /// rounds.
        cache: HashMap<(usize, usize), SpillEntry>,
        /// Membership of the open round; cleared (allocation retained) at
        /// each commit.
        in_round: HashSet<(usize, usize)>,
    },
}

/// Drives an [`AdversaryState`] through the plan/serve/commit round protocol
/// with the incremental plan cache. The default state is the packed
/// [`AdversaryCore`]; the pointer-based [`crate::legacy::LegacyCore`] slots
/// in for parity tests and benchmarks.
#[derive(Debug)]
pub struct RoundCommit<S: AdversaryState = AdversaryCore> {
    core: S,
    cache: PlanCache,
    /// The open round's pairs in canonical (submission) order; allocation
    /// recycled across rounds.
    round_pairs: Vec<(usize, usize)>,
    /// Lazy replay frontier: `round_pairs[..replay_pos]` has been advanced
    /// through the planner (replayed or served from cache).
    replay_pos: usize,
    /// Whether a round is currently open (the plan is live).
    round_open: bool,
    /// When set, always plan into the hash map even for small universes —
    /// the pointer baseline for the packed-vs-spill benchmarks.
    force_spill: bool,
    /// When set, every round eagerly replays all of its pairs at
    /// `begin_round` and the cache is never consulted — the pre-cache
    /// protocol, kept as the witness/bench baseline.
    full_replan: bool,
    /// Rounds committed so far (single-pair auto-rounds included).
    rounds_committed: u64,
    /// Replay-count witness.
    stats: PlanStats,
}

impl<S: AdversaryState> RoundCommit<S> {
    /// Wraps a core in the round protocol.
    pub fn new(core: S) -> Self {
        Self {
            core,
            cache: PlanCache::Undecided,
            round_pairs: Vec::new(),
            replay_pos: 0,
            round_open: false,
            force_spill: false,
            full_replan: false,
            rounds_committed: 0,
            stats: PlanStats::default(),
        }
    }

    /// Wraps a core in the round protocol with the hash-map plan forced on,
    /// regardless of universe size — the pointer baseline that the
    /// packed-vs-spill benchmarks and the substrate-parity suite compare
    /// against.
    pub fn with_spill_plan(core: S) -> Self {
        Self {
            force_spill: true,
            ..Self::new(core)
        }
    }

    /// Disables cache reuse and lazy planning: every round eagerly replays
    /// all of its pairs at [`RoundCommit::begin_round`], exactly like the
    /// pre-cache protocol. Observationally identical to the incremental
    /// planner (the bit-identity suites prove it); only
    /// [`RoundCommit::plan_stats`] can tell the two apart.
    ///
    /// # Panics
    ///
    /// Panics while a round is open.
    pub fn force_full_replan(&mut self) {
        assert!(!self.round_open, "cannot reconfigure the planner mid-round");
        self.full_replan = true;
    }

    /// The replay-count witness: how many pair occurrences were replayed
    /// through the case analysis, how many queries were served from a
    /// still-valid cache entry, and how many entries a commit invalidated.
    pub fn plan_stats(&self) -> PlanStats {
        self.stats
    }

    /// The adversary state (already advanced past the open round's replayed
    /// prefix while a round is open — unobservable through the oracle
    /// interface, which serves planned answers until the round closes).
    pub fn core(&self) -> &S {
        &self.core
    }

    /// Mutable access to the core, for configuration (e.g. enabling the
    /// transcript) before a run.
    ///
    /// # Panics
    ///
    /// Panics while a round is open.
    pub fn core_mut(&mut self) -> &mut S {
        assert!(!self.round_open, "cannot mutate the adversary mid-round");
        &mut self.core
    }

    /// Number of rounds committed so far.
    pub fn rounds_committed(&self) -> u64 {
        self.rounds_committed
    }

    /// Whether this protocol plans rounds in the packed pair triangle (after
    /// the lazy decision at the first round; `false` while still undecided).
    pub fn plan_is_packed(&self) -> bool {
        matches!(self.cache, PlanCache::Packed { .. })
    }

    /// Opens a round over `pairs` (the session's round, in submission
    /// order). Queries until [`RoundCommit::end_round`] are served from the
    /// plan, in any order; replay against the committed state happens lazily
    /// as queries demand it (or eagerly here under
    /// [`RoundCommit::force_full_replan`]).
    ///
    /// # Panics
    ///
    /// Panics if a round is already open — an order-adaptive oracle must not
    /// be shared by two concurrently-evaluating sessions.
    pub fn begin_round(&mut self, pairs: &[(usize, usize)]) {
        assert!(
            !self.round_open,
            "a previous adversary round is still open (is the oracle shared by two sessions?)"
        );
        self.ensure_cache();
        self.round_pairs.clear();
        self.round_pairs.extend_from_slice(pairs);
        self.replay_pos = 0;
        match &mut self.cache {
            PlanCache::Undecided => unreachable!("plan storage decided above"),
            PlanCache::Packed {
                in_round,
                touched,
                diagonal,
                diagonal_used,
                ..
            } => {
                for &(a, b) in pairs {
                    if a == b {
                        diagonal.set(a);
                        *diagonal_used = true;
                    } else if in_round.set(a, b) {
                        touched.push(in_round.word_index(a, b) as u32);
                    }
                }
            }
            PlanCache::Spill { in_round, .. } => {
                for &(a, b) in pairs {
                    in_round.insert(normalize(a, b));
                }
            }
        }
        self.round_open = true;
        if self.full_replan {
            while self.replay_pos < self.round_pairs.len() {
                self.step();
            }
        }
    }

    /// Answers one query. Inside an open round the answer is served from the
    /// plan; outside, the query runs as its own single-pair round (same
    /// cache, epoch-commit, and accounting path as round queries).
    ///
    /// # Panics
    ///
    /// Panics if a round is open and `(a, b)` was not part of it.
    pub fn query(&mut self, a: usize, b: usize) -> bool {
        if self.round_open {
            return self.serve(a, b);
        }
        self.begin_round(&[(a, b)]);
        let answer = self.serve(a, b);
        self.end_round();
        answer
    }

    /// Answers a wave of queries in pair order. Inside an open round the
    /// wave is served from the plan; outside, the whole wave forms one round.
    pub fn query_batch(&mut self, pairs: &[(usize, usize)]) -> Vec<bool> {
        if self.round_open {
            return pairs.iter().map(|&(a, b)| self.query(a, b)).collect();
        }
        self.begin_round(pairs);
        let answers = pairs.iter().map(|&(a, b)| self.serve(a, b)).collect();
        self.end_round();
        answers
    }

    /// Closes the open round: publishes the round's merged state advance,
    /// bumps the knowledge epoch, and invalidates cache entries whose
    /// endpoints the round dirtied. Pairs beyond the lazy replay frontier
    /// were never queried and are dropped without ever being replayed.
    ///
    /// # Panics
    ///
    /// Panics if no round is open.
    pub fn end_round(&mut self) {
        assert!(self.round_open, "no adversary round is open");
        self.round_pairs.clear();
        self.replay_pos = 0;
        match &mut self.cache {
            PlanCache::Undecided => unreachable!("open round always has a plan"),
            PlanCache::Packed {
                in_round,
                touched,
                diagonal,
                diagonal_used,
                ..
            } => {
                for &w in touched.iter() {
                    in_round.clear_word(w as usize);
                }
                touched.clear();
                if *diagonal_used {
                    diagonal.clear_all();
                    *diagonal_used = false;
                }
            }
            PlanCache::Spill { in_round, .. } => in_round.clear(),
        }
        // Commit the epoch advance. The packed cache invalidates eagerly —
        // the dirty elements' cached rows are cleared word-by-word — while
        // the spilled cache's epoch tags go stale by themselves.
        let Self {
            core, cache, stats, ..
        } = self;
        let dirty = core.commit_round();
        if !dirty.is_empty() {
            if let PlanCache::Packed {
                cached,
                row_scratch,
                ..
            } = cache
            {
                for &e in dirty {
                    row_scratch.clear();
                    cached.for_each_in_row(e, |z| row_scratch.push(z));
                    for &z in row_scratch.iter() {
                        if cached.clear(e, z) {
                            stats.invalidated += 1;
                        }
                    }
                }
            }
        }
        self.round_open = false;
        self.rounds_committed += 1;
    }

    /// Decides the storage mode at the first round.
    fn ensure_cache(&mut self) {
        if matches!(self.cache, PlanCache::Undecided) {
            let n = self.core.n();
            self.cache = if self.force_spill || n > PACKED_PLAN_MAX_N {
                PlanCache::Spill {
                    cache: HashMap::new(),
                    in_round: HashSet::new(),
                }
            } else {
                PlanCache::Packed {
                    cached: PairBitset::new(n),
                    answers: PairBitset::new(n),
                    in_round: PairBitset::new(n),
                    touched: Vec::new(),
                    diagonal: BitRow::new(n),
                    diagonal_used: false,
                    row_scratch: Vec::new(),
                }
            };
        }
    }

    /// Serves one query of the open round, forcing the lazy replay as far as
    /// the queried pair requires.
    fn serve(&mut self, a: usize, b: usize) -> bool {
        assert!(
            self.pair_in_round(a, b),
            "query ({a}, {b}) is not part of the open adversary round"
        );
        let answer = if a == b {
            true
        } else {
            if Self::entry_valid(&self.cache, &self.core, a, b) {
                // Served from the cache (an earlier round's entry, or a
                // repeat already planned this round): no replay at all. The
                // full-replan baseline plans every round eagerly, so its
                // entries are fresh plans, not cache reuse.
                if !self.full_replan {
                    self.stats.cached += 1;
                }
            } else {
                // Lazy prefix planning: advance the canonical-order replay
                // only until this pair holds a valid entry. Entries are
                // valid for the rest of the round (epochs move at commits),
                // so the walk terminates at the pair's first occurrence.
                while !Self::entry_valid(&self.cache, &self.core, a, b) {
                    self.step();
                }
            }
            Self::entry_answer(&self.cache, a, b)
        };
        self.core.record(a, b, answer);
        answer
    }

    /// Advances the replay frontier by one pair: a no-op for self-pairs and
    /// (in incremental mode) for pairs with a valid cache entry; otherwise
    /// one call into the sequential case analysis.
    fn step(&mut self) {
        let (a, b) = self.round_pairs[self.replay_pos];
        self.replay_pos += 1;
        if a == b {
            // Self-pairs are always `true` and never mutate the core: the
            // pre-cache replay's `answer(a, a)` was a pure read.
            return;
        }
        if !self.full_replan && Self::entry_valid(&self.cache, &self.core, a, b) {
            return;
        }
        let answer = self.core.answer(a, b);
        self.stats.replayed += 1;
        let overwrote_stale = Self::store_entry(&mut self.cache, &self.core, a, b, answer);
        if overwrote_stale && !self.full_replan {
            self.stats.invalidated += 1;
        }
    }

    /// Whether `(a, b)` belongs to the open round.
    fn pair_in_round(&self, a: usize, b: usize) -> bool {
        match &self.cache {
            PlanCache::Undecided => unreachable!("open round always has a plan"),
            PlanCache::Packed {
                in_round, diagonal, ..
            } => {
                if a == b {
                    diagonal.test(a)
                } else {
                    in_round.test(a, b)
                }
            }
            PlanCache::Spill { in_round, .. } => in_round.contains(&normalize(a, b)),
        }
    }

    /// Whether the cache holds a valid answer for `(a, b)` (strict pair).
    fn entry_valid(cache: &PlanCache, core: &S, a: usize, b: usize) -> bool {
        match cache {
            PlanCache::Undecided => false,
            PlanCache::Packed { cached, .. } => cached.test(a, b),
            PlanCache::Spill { cache, .. } => {
                let (na, nb) = normalize(a, b);
                cache.get(&(na, nb)).is_some_and(|e| {
                    e.epoch_a == core.epoch_of(na) && e.epoch_b == core.epoch_of(nb)
                })
            }
        }
    }

    /// The cached answer for `(a, b)`; only meaningful after
    /// [`RoundCommit::entry_valid`] (or a fresh store) holds.
    fn entry_answer(cache: &PlanCache, a: usize, b: usize) -> bool {
        match cache {
            PlanCache::Undecided => unreachable!("open round always has a plan"),
            PlanCache::Packed { answers, .. } => answers.test(a, b),
            PlanCache::Spill { cache, .. } => cache[&normalize(a, b)].answer,
        }
    }

    /// Stores a freshly replayed answer, tagged with the endpoints' current
    /// epochs. Returns whether a previous (stale or bypassed) entry was
    /// overwritten.
    fn store_entry(cache: &mut PlanCache, core: &S, a: usize, b: usize, answer: bool) -> bool {
        match cache {
            PlanCache::Undecided => unreachable!("open round always has a plan"),
            PlanCache::Packed {
                cached, answers, ..
            } => {
                cached.set(a, b);
                if answer {
                    answers.set(a, b);
                } else {
                    answers.clear(a, b);
                }
                false
            }
            PlanCache::Spill { cache, .. } => {
                let (na, nb) = normalize(a, b);
                let entry = SpillEntry {
                    answer,
                    epoch_a: core.epoch_of(na),
                    epoch_b: core.epoch_of(nb),
                };
                cache.insert((na, nb), entry).is_some()
            }
        }
    }

    /// Capacities of the spilled cache map and round-membership set, for the
    /// allocation-recycling test.
    #[cfg(test)]
    fn spill_capacities(&self) -> Option<(usize, usize)> {
        match &self.cache {
            PlanCache::Spill { cache, in_round } => Some((cache.capacity(), in_round.capacity())),
            _ => None,
        }
    }
}

fn normalize(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protocol(sizes: &[usize], threshold: usize) -> RoundCommit {
        RoundCommit::new(AdversaryCore::new(sizes, threshold, None))
    }

    fn spill_protocol(sizes: &[usize], threshold: usize) -> RoundCommit {
        RoundCommit::with_spill_plan(AdversaryCore::new(sizes, threshold, None))
    }

    #[test]
    fn scalar_queries_outside_a_round_commit_immediately() {
        let mut p = protocol(&[2, 2], 1);
        let first = p.query(0, 2);
        let second = p.query(0, 2);
        assert_eq!(first, second, "repeat questions stay consistent");
        assert_eq!(p.core().comparisons(), 2);
        assert_eq!(p.rounds_committed(), 2);
    }

    #[test]
    fn round_queries_are_served_from_the_plan_in_any_order() {
        let pairs = [(0usize, 1usize), (4, 5), (0, 4), (8, 2), (1, 5)];
        let forward = {
            let mut p = protocol(&[4, 4, 4], 3);
            p.begin_round(&pairs);
            let answers: Vec<bool> = pairs.iter().map(|&(a, b)| p.query(a, b)).collect();
            p.end_round();
            (answers, p.core().partition(), p.core().swaps())
        };
        let scrambled = {
            let mut p = protocol(&[4, 4, 4], 3);
            p.begin_round(&pairs);
            // Arrival order differs (e.g. pool threads racing); answers and
            // the committed state must not.
            let mut answers: Vec<bool> = pairs.iter().rev().map(|&(a, b)| p.query(a, b)).collect();
            answers.reverse();
            p.end_round();
            (answers, p.core().partition(), p.core().swaps())
        };
        assert_eq!(forward, scrambled);
    }

    #[test]
    fn round_protocol_matches_the_sequential_adversary() {
        // Serving a round's pairs in submission order must replay exactly the
        // classic sequential case analysis.
        let pairs: Vec<(usize, usize)> = (0..6)
            .flat_map(|a| (a + 1..6).map(move |b| (a, b)))
            .collect();
        let mut sequential = AdversaryCore::new(&[3, 3], 1, None);
        let reference: Vec<bool> = pairs
            .iter()
            .map(|&(a, b)| sequential.answer(a, b))
            .collect();

        let mut p = protocol(&[3, 3], 1);
        p.begin_round(&pairs);
        let planned: Vec<bool> = pairs.iter().map(|&(a, b)| p.query(a, b)).collect();
        p.end_round();
        assert_eq!(planned, reference);
        assert_eq!(p.core().partition(), sequential.partition());
        assert_eq!(p.core().swaps(), sequential.swaps());
        assert_eq!(p.core().marked_elements(), sequential.marked_elements());
    }

    #[test]
    fn packed_and_spill_plans_serve_identical_rounds() {
        let rounds: Vec<Vec<(usize, usize)>> = vec![
            vec![(0, 1), (2, 3), (4, 5), (6, 7)],
            vec![(0, 2), (1, 3), (4, 6), (5, 7), (0, 2)],
            vec![(0, 4), (1, 5), (2, 6), (3, 7), (7, 3)],
            vec![(0, 7), (1, 6), (2, 5), (3, 4)],
        ];
        let mut packed = protocol(&[4, 4], 1);
        let mut spill = spill_protocol(&[4, 4], 1);
        for round in &rounds {
            packed.begin_round(round);
            spill.begin_round(round);
            for &(a, b) in round {
                assert_eq!(packed.query(a, b), spill.query(a, b), "pair ({a}, {b})");
            }
            packed.end_round();
            spill.end_round();
        }
        assert!(packed.plan_is_packed());
        assert!(!spill.plan_is_packed());
        assert_eq!(packed.core().partition(), spill.core().partition());
        assert_eq!(packed.core().comparisons(), spill.core().comparisons());
        assert_eq!(packed.core().swaps(), spill.core().swaps());
        assert_eq!(packed.rounds_committed(), spill.rounds_committed());
        assert_eq!(
            packed.plan_stats().replayed,
            spill.plan_stats().replayed,
            "both substrates must make identical reuse decisions"
        );
        assert_eq!(packed.plan_stats().cached, spill.plan_stats().cached);
    }

    #[test]
    fn packed_plan_words_are_recycled_between_rounds() {
        let mut p = protocol(&[4, 4], 1);
        p.begin_round(&[(0, 4), (1, 5)]);
        let _ = p.query(0, 4);
        let _ = p.query(1, 5);
        p.end_round();
        // A later round over different pairs must not see stale plan bits.
        p.begin_round(&[(2, 6)]);
        let _ = p.query(2, 6);
        p.end_round();
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.begin_round(&[(3, 7)]);
            p.query(0, 4) // planned two rounds ago, must be rejected now
        }));
        assert!(stale.is_err(), "stale plan bits survived the commit wipe");
    }

    #[test]
    fn repeats_and_orientations_are_served_and_charged() {
        let mut p = protocol(&[5, 5, 5, 5], 5);
        p.begin_round(&[(0, 1), (1, 0), (0, 1)]);
        let a1 = p.query(0, 1);
        let a2 = p.query(1, 0);
        let a3 = p.query(0, 1);
        assert_eq!(a1, a2);
        assert_eq!(a1, a3);
        assert_eq!(p.core().comparisons(), 3, "every served query is charged");
        p.end_round();
        assert_eq!(p.rounds_committed(), 1);
        let stats = p.plan_stats();
        assert_eq!(stats.replayed, 1, "the pair is planned once");
        assert_eq!(stats.cached, 2, "repeats are served from the fresh entry");
    }

    #[test]
    fn batch_outside_a_round_forms_its_own_round() {
        let mut p = protocol(&[3, 3, 3], 2);
        let answers = p.query_batch(&[(0, 3), (1, 4), (0, 1)]);
        assert_eq!(answers.len(), 3);
        assert_eq!(p.rounds_committed(), 1);
        assert_eq!(p.core().comparisons(), 3);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn nested_rounds_are_rejected() {
        let mut p = protocol(&[2, 2], 1);
        p.begin_round(&[(0, 2)]);
        p.begin_round(&[(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "not part of the open adversary round")]
    fn queries_outside_the_plan_are_rejected() {
        let mut p = protocol(&[2, 2], 1);
        p.begin_round(&[(0, 2)]);
        let _ = p.query(1, 3);
    }

    #[test]
    #[should_panic(expected = "not part of the open adversary round")]
    fn spill_queries_outside_the_plan_are_rejected() {
        let mut p = spill_protocol(&[2, 2], 1);
        p.begin_round(&[(0, 2)]);
        let _ = p.query(1, 3);
    }

    #[test]
    #[should_panic(expected = "no adversary round is open")]
    fn closing_without_opening_is_rejected() {
        let mut p = protocol(&[2, 2], 1);
        p.end_round();
    }

    #[test]
    fn complete_interrogation_stays_consistent_and_equitable() {
        // Ask every pair, one CR-style round per left endpoint, and verify
        // that the final colors explain every answer.
        let sizes = [4usize, 4, 4];
        let n: usize = sizes.iter().sum();
        let mut p = RoundCommit::new(AdversaryCore::new(&sizes, 1, None));
        p.core_mut().enable_transcript();
        let mut transcript = Vec::new();
        for a in 0..n {
            let round: Vec<(usize, usize)> = ((a + 1)..n).map(|b| (a, b)).collect();
            if round.is_empty() {
                continue;
            }
            p.begin_round(&round);
            for &(a, b) in &round {
                let same = p.query(a, b);
                transcript.push((a, b, same));
            }
            p.end_round();
        }
        assert!(p.core().is_consistent_with(&transcript));
        let recorded = p.core().transcript().unwrap();
        assert!(recorded.consistent_with(&p.core().partition()));
        let mut sizes_got = p.core().partition().class_sizes();
        sizes_got.sort_unstable();
        assert_eq!(sizes_got, vec![4, 4, 4]);
    }

    #[test]
    fn protected_color_resists_marking() {
        // Theorem 6 adversary behind the protocol: the protected color should
        // stay unmarked while plenty of unmarked swap partners remain.
        let mut p = RoundCommit::new(AdversaryCore::new(&[2, 6, 6, 6], 2, Some(0)));
        for other in 2..8 {
            let _ = p.query(0, other);
        }
        assert!(
            !p.core().protected_color_touched(),
            "protected color was marked after only a handful of probes"
        );
    }

    #[test]
    fn lazy_planning_replays_only_the_queried_prefix() {
        let mut p = protocol(&[4, 4], 1);
        p.begin_round(&[(0, 4), (1, 5), (2, 6), (3, 7)]);
        let _ = p.query(1, 5);
        p.end_round();
        let stats = p.plan_stats();
        assert_eq!(
            stats.replayed, 2,
            "only the canonical prefix up to the queried pair is replayed"
        );
        assert_eq!(p.core().comparisons(), 1, "only the served query charges");
    }

    /// The cache lifecycle on a repeat-heavy sequence: a fresh round replays
    /// everything and dirties its endpoints, the repeat replays once more
    /// (pure reads that re-validate the entries), and from then on the round
    /// replays nothing at all.
    #[test]
    fn repeat_rounds_stop_replaying_after_one_revalidation() {
        for spill in [false, true] {
            let round = [(0usize, 4usize), (1, 5), (2, 6)];
            let mut p = if spill {
                spill_protocol(&[4, 4], 1)
            } else {
                protocol(&[4, 4], 1)
            };
            let mut deltas = Vec::new();
            let mut prev = PlanStats::default();
            for _ in 0..4 {
                p.begin_round(&round);
                for &(a, b) in &round {
                    let _ = p.query(a, b);
                }
                p.end_round();
                let now = p.plan_stats();
                deltas.push(now.since(&prev));
                prev = now;
            }
            assert_eq!(deltas[0].replayed, 3, "spill={spill}: fresh round");
            assert_eq!(deltas[0].cached, 0, "spill={spill}");
            assert_eq!(
                deltas[1].replayed, 3,
                "spill={spill}: the fresh facts dirtied their endpoints"
            );
            assert_eq!(
                deltas[2].replayed, 0,
                "spill={spill}: pure replays re-validated every entry"
            );
            assert_eq!(deltas[2].cached, 3, "spill={spill}");
            assert_eq!(deltas[3].replayed, 0, "spill={spill}: steady state");
            assert_eq!(p.core().comparisons(), 12, "every query still charged");
        }
    }

    #[test]
    fn scalar_repeats_reuse_the_cache_after_one_revalidation() {
        let mut p = protocol(&[2, 2], 1);
        let _ = p.query(0, 2); // fresh fact: replayed, endpoints dirtied
        let _ = p.query(0, 2); // stale entry: one pure replay re-validates
        let _ = p.query(0, 2); // clean commit behind it: served from cache
        let s = p.plan_stats();
        assert_eq!(s.replayed, 2);
        assert_eq!(s.cached, 1);
        assert!(s.invalidated >= 1);
        assert_eq!(p.core().comparisons(), 3);
        assert_eq!(p.rounds_committed(), 3);
    }

    /// Full replan is the pre-cache protocol: observably identical, but the
    /// witness shows it replaying every occurrence of every round.
    #[test]
    fn full_replan_matches_incremental_observably() {
        let rounds: Vec<Vec<(usize, usize)>> = vec![
            vec![(0, 4), (1, 5), (2, 6)],
            vec![(0, 4), (1, 5), (2, 6)],
            vec![(0, 1), (4, 5), (0, 4)],
            vec![(0, 4), (1, 5), (2, 6)],
        ];
        let mut incremental = protocol(&[4, 4], 1);
        let mut full = protocol(&[4, 4], 1);
        full.force_full_replan();
        for round in &rounds {
            incremental.begin_round(round);
            full.begin_round(round);
            for &(a, b) in round {
                assert_eq!(incremental.query(a, b), full.query(a, b), "pair ({a}, {b})");
            }
            incremental.end_round();
            full.end_round();
        }
        assert_eq!(incremental.core().partition(), full.core().partition());
        assert_eq!(incremental.core().comparisons(), full.core().comparisons());
        assert_eq!(incremental.core().swaps(), full.core().swaps());
        let total: u64 = rounds.iter().map(|r| r.len() as u64).sum();
        assert_eq!(full.plan_stats().replayed, total);
        assert_eq!(full.plan_stats().cached, 0);
        assert!(
            incremental.plan_stats().replayed < total,
            "the incremental planner must have reused entries: {:?}",
            incremental.plan_stats()
        );
    }

    #[test]
    fn spill_plan_allocation_is_recycled_across_rounds() {
        let mut p = spill_protocol(&[8, 8], 1);
        let big: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 8)).collect();
        p.begin_round(&big);
        for &(a, b) in &big {
            let _ = p.query(a, b);
        }
        p.end_round();
        let (cache_cap, round_cap) = p.spill_capacities().unwrap();
        assert!(round_cap >= 8, "the big round must grow the membership set");
        for _ in 0..5 {
            p.begin_round(&[(0, 8)]);
            let _ = p.query(0, 8);
            p.end_round();
        }
        let (cache_after, round_after) = p.spill_capacities().unwrap();
        assert!(cache_after >= cache_cap, "cache map allocation shrank");
        assert!(
            round_after >= round_cap,
            "round-membership allocation was not recycled"
        );
    }

    #[test]
    fn diagonal_pairs_are_served_true_and_charged() {
        let mut p = protocol(&[2, 2], 1);
        p.begin_round(&[(1, 1), (0, 2)]);
        assert!(p.query(1, 1));
        let _ = p.query(0, 2);
        p.end_round();
        assert_eq!(p.core().comparisons(), 2);
        assert_eq!(
            p.plan_stats().replayed,
            1,
            "self-pairs are never replayed through the case analysis"
        );
    }
}
