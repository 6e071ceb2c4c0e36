//! The shared coloring-adversary machinery behind Theorems 5 and 6.
//!
//! [`AdversaryCore`] holds the committed adversary state and the sequential
//! case analysis of Section 3 (`AdversaryCore::answer`). The round-commit
//! protocol in [`crate::round_commit`] drives it: all pairs of one comparison
//! round are answered by replaying them in **pair order** against the state
//! at round start, so the answers an algorithm observes never depend on
//! which OS thread asked first or whether the round arrived as one batch.
//!
//! The knowledge graph lives on the packed substrates of
//! [`ecs_graph::bitset`]: the known-unequal relation is a [`PairBitset`]
//! (one bit per unordered vertex pair, word-granular edge tests, per-root
//! degree counters), and the mark flags and per-color membership filters are
//! [`BitRow`]s, so the hot candidate checks of `find_swap_partner`
//! ("is this class adjacent to the candidate?", "does this class still have
//! an unmarked member?") collapse into word-parallel row intersections
//! instead of hash-set walks. The per-color member *lists* are kept as
//! ordered vectors alongside the masks: the adversary's swap-partner choice
//! depends on list order (insertion order mutated by `swap_remove`), and the
//! golden transcripts pin that order, so the lists stay the source of truth
//! for iteration while the masks answer every order-independent question.
//!
//! Answering and cost accounting are deliberately split:
//! `AdversaryCore::answer` applies the swap/mark/edge/contract intents of
//! one pair without counting it, and `AdversaryCore::record` charges one
//! comparison (and optionally a transcript entry) per *query served* — the
//! round protocol plans a pair once but charges every repeat.

use ecs_graph::{BitRow, PairBitset, UnionFind};
use ecs_model::{Partition, Transcript};

/// Why an element ended up marked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The element's vertex reached degree above the threshold.
    HighElementDegree,
    /// The element's whole color class ran out of swap partners.
    HighColorDegree,
    /// Both of the above.
    Both,
}

/// The mutable-state interface the [`crate::RoundCommit`] protocol drives.
///
/// Two implementations exist: the packed [`AdversaryCore`] (production) and
/// the pointer-based [`crate::legacy::LegacyCore`] retained as the reference
/// for the substrate-parity suite and the packed-vs-pointer benchmarks.
///
/// Besides answering and charging, the state versions its knowledge: every
/// element carries the **commit epoch** at which its class membership, mark,
/// or incident known-unequal edges last changed. The incremental plan cache
/// in [`crate::RoundCommit`] keys its entries on these epochs — an entry
/// whose endpoints' epochs are unchanged is reused verbatim instead of being
/// replayed.
pub trait AdversaryState {
    /// Number of elements.
    fn n(&self) -> usize;

    /// Answers one equivalence test and applies its swap/mark/edge/contract
    /// intents **without charging it** — the planning half of the protocol.
    fn answer(&mut self, a: usize, b: usize) -> bool;

    /// Charges one served query (cost counter and optional transcript).
    fn record(&mut self, a: usize, b: usize, answer: bool);

    /// The monotone commit counter: bumped once per
    /// [`AdversaryState::commit_round`].
    fn commit_epoch(&self) -> u64;

    /// The commit epoch at which `elem`'s knowledge (class membership, mark,
    /// or incident known-unequal edges recorded on it as a queried endpoint)
    /// last changed. Zero until the element's first change is committed.
    fn epoch_of(&self, elem: usize) -> u64;

    /// Seals the answers planned since the previous commit: bumps the commit
    /// epoch, stamps every element whose knowledge changed in the window,
    /// and returns that dirty set (each element at most once, in first-touch
    /// order).
    fn commit_round(&mut self) -> &[usize];
}

/// The per-element knowledge-epoch bookkeeping behind the incremental plan
/// cache, shared by both [`AdversaryState`] substrates so their epoch
/// streams stay bit-identical: a monotone commit counter, the epoch at which
/// each element last changed, and the dirty set accumulated since the last
/// commit (deduplicated through a bit row).
#[derive(Debug)]
pub(crate) struct EpochTracker {
    commit_epoch: u64,
    elem_epoch: Vec<u64>,
    /// Elements touched since the last commit, in first-touch order.
    pending: Vec<usize>,
    /// Dedup mask over `pending`.
    pending_mask: BitRow,
    /// The most recent commit's dirty set, handed back by `commit`.
    last_dirty: Vec<usize>,
}

impl EpochTracker {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            commit_epoch: 0,
            elem_epoch: vec![0; n],
            pending: Vec::new(),
            pending_mask: BitRow::new(n),
            last_dirty: Vec::new(),
        }
    }

    /// Records that `elem`'s knowledge changed in the current window.
    pub(crate) fn touch(&mut self, elem: usize) {
        if self.pending_mask.set(elem) {
            self.pending.push(elem);
        }
    }

    pub(crate) fn commit_epoch(&self) -> u64 {
        self.commit_epoch
    }

    pub(crate) fn epoch_of(&self, elem: usize) -> u64 {
        self.elem_epoch[elem]
    }

    /// Bumps the epoch, stamps the pending dirty set, and returns it.
    pub(crate) fn commit(&mut self) -> &[usize] {
        self.commit_epoch += 1;
        for &e in &self.pending {
            self.elem_epoch[e] = self.commit_epoch;
            self.pending_mask.clear(e);
        }
        std::mem::swap(&mut self.pending, &mut self.last_dirty);
        self.pending.clear();
        &self.last_dirty
    }
}

/// The adversary's mutable state. The public adversary types wrap this (via
/// [`crate::RoundCommit`]) in a mutex so it can sit behind the `&self` oracle
/// interface.
#[derive(Debug)]
pub struct AdversaryCore {
    n: usize,
    /// Degree threshold: an unmarked element exceeding this is marked.
    degree_threshold: usize,
    /// Color (eventual class) of every element.
    color: Vec<usize>,
    /// Elements of each color in list order (marked and unmarked alike).
    /// Iteration order is observable through swap-partner choice, so these
    /// ordered lists stay authoritative; the masks below mirror them.
    members: Vec<Vec<usize>>,
    /// Position of each element inside its color's member list — turns the
    /// legacy `position()` scan in a swap into O(1) bookkeeping.
    member_pos: Vec<usize>,
    /// Bit-per-element mirror of `members`, one row per color, for
    /// word-parallel class filters.
    members_mask: Vec<BitRow>,
    /// Elements marked with [`Mark::HighElementDegree`] (possibly `Both`).
    mark_degree: BitRow,
    /// Elements marked with [`Mark::HighColorDegree`] (possibly `Both`).
    mark_color: BitRow,
    /// Union of the two mark rows — the "is marked at all" filter.
    marked: BitRow,
    /// Whether the whole color class has been marked.
    color_marked: Vec<bool>,
    /// Colors that must dodge marking by swapping away if possible
    /// (the "smallest class color" of Theorem 6).
    protected_color: Option<usize>,
    /// Contraction structure over elements (vertices of the knowledge graph).
    uf: UnionFind,
    /// Known-different edges between vertex roots: one bit per unordered
    /// pair, packed upper-triangular.
    unequal: PairBitset,
    /// Degree of every live root in the known-unequal graph.
    degree: Vec<u32>,
    /// Reused neighbour buffer for contractions (no per-contract allocation).
    scratch: Vec<usize>,
    /// Number of equivalence tests answered.
    comparisons: u64,
    /// Number of marked elements.
    marked_elements: usize,
    /// Number of swaps performed (diagnostic).
    swaps: u64,
    /// Optional record of every served query, for consistency audits.
    transcript: Option<Transcript>,
    /// Per-element knowledge epochs for the incremental plan cache.
    epochs: EpochTracker,
}

impl AdversaryCore {
    /// Creates the adversary with the given color class sizes. `sizes[c]` is
    /// the number of elements that will end up in class `c`; elements are
    /// assigned to colors in blocks (the algorithm cannot observe the initial
    /// layout because every answer it gets is adversarial anyway).
    ///
    /// # Panics
    ///
    /// Panics if the sizes are empty, contain zero, or the threshold is zero.
    pub fn new(sizes: &[usize], degree_threshold: usize, protected_color: Option<usize>) -> Self {
        assert!(!sizes.is_empty(), "need at least one color class");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "color class sizes must be positive"
        );
        assert!(degree_threshold > 0, "degree threshold must be positive");
        if let Some(p) = protected_color {
            assert!(p < sizes.len(), "protected color out of range");
        }
        let n: usize = sizes.iter().sum();
        let mut color = Vec::with_capacity(n);
        let mut member_pos = Vec::with_capacity(n);
        let mut members = vec![Vec::new(); sizes.len()];
        let mut members_mask = vec![BitRow::new(n); sizes.len()];
        for (c, &s) in sizes.iter().enumerate() {
            for _ in 0..s {
                let e = color.len();
                member_pos.push(members[c].len());
                members[c].push(e);
                members_mask[c].set(e);
                color.push(c);
            }
        }
        Self {
            n,
            degree_threshold,
            color,
            members,
            member_pos,
            members_mask,
            mark_degree: BitRow::new(n),
            mark_color: BitRow::new(n),
            marked: BitRow::new(n),
            color_marked: vec![false; sizes.len()],
            protected_color,
            uf: UnionFind::new(n),
            unequal: PairBitset::new(n),
            degree: vec![0; n],
            scratch: Vec::new(),
            comparisons: 0,
            marked_elements: 0,
            swaps: 0,
            transcript: None,
            epochs: EpochTracker::new(n),
        }
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of equivalence tests answered so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of elements that have been marked so far.
    pub fn marked_elements(&self) -> usize {
        self.marked_elements
    }

    /// Number of color swaps performed (a diagnostic of how long the
    /// adversary managed to stay non-committal).
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Starts recording every served query into a [`Transcript`] (off by
    /// default: a full interrogation stores Θ(n²) entries).
    pub fn enable_transcript(&mut self) {
        if self.transcript.is_none() {
            self.transcript = Some(Transcript::new());
        }
    }

    /// The recorded transcript, when [`AdversaryCore::enable_transcript`] was
    /// called before the run.
    pub fn transcript(&self) -> Option<&Transcript> {
        self.transcript.as_ref()
    }

    /// The mark on `element`, if any, reassembled from the packed mark rows.
    pub fn mark_of(&self, element: usize) -> Option<Mark> {
        match (
            self.mark_degree.test(element),
            self.mark_color.test(element),
        ) {
            (false, false) => None,
            (true, false) => Some(Mark::HighElementDegree),
            (false, true) => Some(Mark::HighColorDegree),
            (true, true) => Some(Mark::Both),
        }
    }

    /// Whether any element of the protected color has been marked (Theorem 6:
    /// the bound counts comparisons until this first happens). One
    /// word-parallel intersection of the color's member mask with the mark
    /// row.
    pub fn protected_color_touched(&self) -> bool {
        match self.protected_color {
            None => false,
            Some(p) => self.members_mask[p].intersects(&self.marked),
        }
    }

    /// The partition the adversary has committed to (current colors). Once an
    /// algorithm has performed enough comparisons to pin the adversary down,
    /// this is the unique partition consistent with every answer given.
    pub fn partition(&self) -> Partition {
        Partition::from_labels(&self.color)
    }

    /// Replays a transcript of answered comparisons against the final colors
    /// and reports whether every answer was consistent (used by tests).
    pub fn is_consistent_with(&self, transcript: &[(usize, usize, bool)]) -> bool {
        transcript
            .iter()
            .all(|&(a, b, same)| (self.color[a] == self.color[b]) == same)
    }

    /// Charges one served query (cost counter and optional transcript). Kept
    /// separate from [`AdversaryCore::answer`] so the round protocol can plan
    /// a pair once but charge every repeat of it.
    pub(crate) fn record(&mut self, a: usize, b: usize, answer: bool) {
        self.comparisons += 1;
        if let Some(t) = self.transcript.as_mut() {
            t.record(a, b, answer);
        }
    }

    fn add_edge(&mut self, ra: usize, rb: usize) {
        if ra == rb {
            return;
        }
        if self.unequal.set(ra, rb) {
            self.degree[ra] += 1;
            self.degree[rb] += 1;
        }
    }

    /// Merges `rb`'s vertex into `ra`'s (or vice versa, whichever survives
    /// union-by-size), migrating the dropped root's packed edge row onto the
    /// keeper with exact degree bookkeeping.
    fn contract(&mut self, ra: usize, rb: usize) {
        if ra == rb {
            return;
        }
        self.uf.union(ra, rb);
        let keep = self.uf.find(ra);
        let drop = if keep == ra { rb } else { ra };
        let mut moved = std::mem::take(&mut self.scratch);
        moved.clear();
        self.unequal.for_each_in_row(drop, |z| moved.push(z));
        for &z in &moved {
            self.unequal.clear(drop, z);
            self.degree[z] -= 1;
            if z != keep && self.unequal.set(keep, z) {
                self.degree[keep] += 1;
                self.degree[z] += 1;
            }
        }
        self.degree[drop] = 0;
        self.scratch = moved;
    }

    fn set_mark(&mut self, element: usize, mark: Mark) {
        let changed = match mark {
            Mark::HighElementDegree => self.mark_degree.set(element),
            Mark::HighColorDegree => self.mark_color.set(element),
            Mark::Both => {
                let degree = self.mark_degree.set(element);
                let color = self.mark_color.set(element);
                degree || color
            }
        };
        if self.marked.set(element) {
            self.marked_elements += 1;
        }
        if changed {
            self.epochs.touch(element);
        }
    }

    /// Marks `element` with "high element degree" if it is unmarked and one
    /// more edge would push its vertex degree above the threshold. For
    /// protected (smallest-class) elements the adversary first tries to swap
    /// the element out of harm's way, per Theorem 6.
    fn maybe_mark_high_degree(&mut self, element: usize) {
        if self.marked.test(element) {
            return;
        }
        let root = self.uf.find_immutable(element);
        if (self.degree[root] as usize) < self.degree_threshold {
            return;
        }
        if Some(self.color[element]) == self.protected_color {
            // Theorem 6: attempt to swap the endangered smallest-class element
            // with any valid unmarked vertex before conceding a mark.
            if let Some(partner) = self.find_swap_partner(element, self.color[element]) {
                self.swap_colors(element, partner);
                return;
            }
        }
        self.set_mark(element, Mark::HighElementDegree);
    }

    /// Looks for an unmarked element `z` of a different color such that
    /// swapping colors with `candidate` keeps the coloring proper:
    /// `z` must not be adjacent to any vertex colored like `candidate`
    /// (`avoid_color`), and `candidate` must not be adjacent to any vertex
    /// colored like `z`.
    ///
    /// Classes are filtered word-parallel — "any unmarked member left?" is
    /// `mask ∧ ¬marked`, and "is this class adjacent to the candidate?" is
    /// one packed-row/mask intersection — while the surviving candidates are
    /// still visited in member-list order, which is the order the golden
    /// transcripts pin.
    fn find_swap_partner(&self, candidate: usize, avoid_color: usize) -> Option<usize> {
        let cand_root = self.uf.find_immutable(candidate);
        let avoid_mask = &self.members_mask[avoid_color];
        for (c, members) in self.members.iter().enumerate() {
            if c == avoid_color || self.color_marked[c] {
                continue;
            }
            // Word-parallel skip: a class with no unmarked member cannot
            // yield a partner (same outcome as scanning its list).
            if !self.members_mask[c].any_and_not(&self.marked) {
                continue;
            }
            // Colors adjacent to the candidate: the candidate's packed edge
            // row intersected with this class's member mask. Unmarked
            // vertices are singleton groups, so a root's own index is its
            // representative element and the mask lookup is exact.
            if self
                .unequal
                .row_intersects(cand_root, &self.members_mask[c])
            {
                continue;
            }
            for &z in members {
                if self.marked.test(z) || self.color[z] != c {
                    continue;
                }
                let z_root = self.uf.find_immutable(z);
                // z must not be adjacent to the avoided color: one more
                // packed row/mask intersection.
                if !self.unequal.row_intersects(z_root, avoid_mask) {
                    return Some(z);
                }
            }
        }
        None
    }

    fn swap_colors(&mut self, a: usize, b: usize) {
        let ca = self.color[a];
        let cb = self.color[b];
        if ca == cb {
            return;
        }
        self.color[a] = cb;
        self.color[b] = ca;
        // Maintain the membership lists with the exact swap_remove-then-push
        // sequence the swap-partner order depends on, plus the packed masks.
        self.remove_member(ca, a);
        self.remove_member(cb, b);
        self.push_member(ca, b);
        self.push_member(cb, a);
        self.members_mask[ca].clear(a);
        self.members_mask[ca].set(b);
        self.members_mask[cb].clear(b);
        self.members_mask[cb].set(a);
        self.swaps += 1;
        self.epochs.touch(a);
        self.epochs.touch(b);
    }

    fn remove_member(&mut self, c: usize, e: usize) {
        let pos = self.member_pos[e];
        debug_assert_eq!(self.members[c][pos], e, "member position out of sync");
        self.members[c].swap_remove(pos);
        if let Some(&moved) = self.members[c].get(pos) {
            self.member_pos[moved] = pos;
        }
    }

    fn push_member(&mut self, c: usize, e: usize) {
        self.member_pos[e] = self.members[c].len();
        self.members[c].push(e);
    }

    fn mark_whole_color(&mut self, color: usize) {
        if self.color_marked[color] {
            return;
        }
        self.color_marked[color] = true;
        for idx in 0..self.members[color].len() {
            let e = self.members[color][idx];
            self.set_mark(e, Mark::HighColorDegree);
        }
    }

    /// Answers one equivalence test, following the case analysis of Section 3,
    /// and applies its swap/mark/edge/contract effects. Does **not** charge
    /// the comparison — the round protocol calls [`AdversaryCore::record`]
    /// per served query instead (a pair is planned once per round but every
    /// repeat of it is charged).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub(crate) fn answer(&mut self, a: usize, b: usize) -> bool {
        assert!(a < self.n && b < self.n, "comparison out of range");
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            // Already conceded equal earlier; stay consistent.
            return true;
        }
        if self.unequal.test(ra, rb) {
            // Already answered "not equal" for these vertices.
            return false;
        }

        // Case 1: degree-based marking.
        self.maybe_mark_high_degree(a);
        self.maybe_mark_high_degree(b);

        // Cases 2 and 3: same-colored pair with at least one unmarked element.
        if self.color[a] == self.color[b] && (!self.marked.test(a) || !self.marked.test(b)) {
            let unmarked = if !self.marked.test(a) { a } else { b };
            let common = self.color[a];
            match self.find_swap_partner(unmarked, common) {
                Some(partner) => self.swap_colors(unmarked, partner),
                None => self.mark_whole_color(common),
            }
        }

        // Case 4: answer.
        let both_marked = self.marked.test(a) && self.marked.test(b);
        let same = if both_marked {
            self.color[a] == self.color[b]
        } else {
            // At least one endpoint is still unmarked; after the swap phase
            // their colors must differ, and the adversary answers "not equal".
            debug_assert_ne!(
                self.color[a], self.color[b],
                "unmarked same-colored pair survived the swap/mark phase"
            );
            false
        };

        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if same {
            self.contract(ra, rb);
        } else {
            self.add_edge(ra, rb);
        }
        // A new fact was recorded (settled pairs returned early above): the
        // queried endpoints' knowledge changed. Neighbours whose edges merely
        // migrated in a contraction are deliberately *not* touched — their
        // already-settled answers are eternal, so cache entries on them stay
        // valid.
        self.epochs.touch(a);
        self.epochs.touch(b);
        same
    }
}

impl AdversaryState for AdversaryCore {
    fn n(&self) -> usize {
        AdversaryCore::n(self)
    }

    fn answer(&mut self, a: usize, b: usize) -> bool {
        AdversaryCore::answer(self, a, b)
    }

    fn record(&mut self, a: usize, b: usize, answer: bool) {
        AdversaryCore::record(self, a, b, answer);
    }

    fn commit_epoch(&self) -> u64 {
        self.epochs.commit_epoch()
    }

    fn epoch_of(&self, elem: usize) -> u64 {
        self.epochs.epoch_of(elem)
    }

    fn commit_round(&mut self) -> &[usize] {
        self.epochs.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_layout_matches_sizes() {
        let core = AdversaryCore::new(&[3, 3, 3], 2, None);
        assert_eq!(core.n(), 9);
        assert_eq!(core.partition().class_sizes(), vec![3, 3, 3]);
        assert_eq!(core.comparisons(), 0);
        assert_eq!(core.marked_elements(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_sizes() {
        let _ = AdversaryCore::new(&[2, 0], 1, None);
    }

    #[test]
    fn repeat_questions_stay_consistent() {
        let mut core = AdversaryCore::new(&[2, 2], 1, None);
        let first = core.answer(0, 2);
        let second = core.answer(0, 2);
        assert_eq!(first, second);
    }

    #[test]
    fn transcript_is_consistent_with_final_colors() {
        // Ask every pair (a small complete interrogation) and verify that the
        // final colors explain every answer.
        let sizes = [4usize, 4, 4];
        let n: usize = sizes.iter().sum();
        let mut core = AdversaryCore::new(&sizes, (n / (4 * 4)).max(1), None);
        let mut transcript = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let same = core.answer(a, b);
                transcript.push((a, b, same));
            }
        }
        assert!(core.is_consistent_with(&transcript));
        // After complete interrogation, classes keep their prescribed sizes.
        let mut sizes_got = core.partition().class_sizes();
        sizes_got.sort_unstable();
        assert_eq!(sizes_got, vec![4, 4, 4]);
    }

    #[test]
    fn swaps_keep_answers_negative_early_on() {
        // With a generous threshold, the first few same-color probes should be
        // deflected by swaps rather than conceded.
        let mut core = AdversaryCore::new(&[5, 5, 5, 5], 5, None);
        // Elements 0 and 1 start with the same color; the adversary should
        // swap one away and answer "not equal".
        assert!(!core.answer(0, 1));
        assert!(core.swaps() >= 1);
        assert_eq!(core.marked_elements(), 0);
    }

    #[test]
    fn protected_color_resists_marking() {
        // Theorem 6 adversary: the protected color should stay unmarked while
        // plenty of unmarked swap partners remain.
        let mut core = AdversaryCore::new(&[2, 6, 6, 6], 2, Some(0));
        for other in 2..8 {
            let _ = core.answer(0, other);
        }
        assert!(
            !core.protected_color_touched(),
            "protected color was marked after only a handful of probes"
        );
    }

    #[test]
    fn answering_does_not_charge_but_recording_does() {
        let mut core = AdversaryCore::new(&[2, 2], 1, None);
        let answer = core.answer(0, 2);
        assert_eq!(core.comparisons(), 0, "planning a pair is free");
        core.record(0, 2, answer);
        core.record(2, 0, answer);
        assert_eq!(core.comparisons(), 2, "every served query is charged");
    }

    #[test]
    fn transcript_recording_is_opt_in() {
        let mut core = AdversaryCore::new(&[2, 2], 1, None);
        core.record(0, 2, false);
        assert!(core.transcript().is_none());
        core.enable_transcript();
        core.record(0, 3, false);
        assert_eq!(core.transcript().unwrap().len(), 1);
        assert_eq!(core.comparisons(), 2);
    }

    #[test]
    fn mark_bits_compose_like_the_enum() {
        let mut core = AdversaryCore::new(&[4, 4], 1, None);
        assert_eq!(core.mark_of(0), None);
        core.set_mark(0, Mark::HighElementDegree);
        assert_eq!(core.mark_of(0), Some(Mark::HighElementDegree));
        core.set_mark(0, Mark::HighElementDegree);
        assert_eq!(core.mark_of(0), Some(Mark::HighElementDegree));
        assert_eq!(core.marked_elements(), 1, "re-marking is idempotent");
        core.set_mark(0, Mark::HighColorDegree);
        assert_eq!(core.mark_of(0), Some(Mark::Both));
        core.set_mark(1, Mark::HighColorDegree);
        assert_eq!(core.mark_of(1), Some(Mark::HighColorDegree));
        core.set_mark(1, Mark::HighElementDegree);
        assert_eq!(core.mark_of(1), Some(Mark::Both));
        assert_eq!(core.marked_elements(), 2);
    }

    #[test]
    fn epochs_stamp_only_changed_elements_at_commit() {
        let mut core = AdversaryCore::new(&[2, 2], 1, None);
        assert_eq!(core.commit_epoch(), 0);
        assert!((0..4).all(|e| core.epoch_of(e) == 0));
        let _ = core.answer(0, 2); // new fact: touches the queried endpoints
        assert_eq!(core.epoch_of(0), 0, "epochs only move at commit");
        let dirty = core.commit_round().to_vec();
        assert_eq!(core.commit_epoch(), 1);
        assert!(dirty.contains(&0) && dirty.contains(&2));
        assert_eq!(core.epoch_of(0), 1);
        assert_eq!(core.epoch_of(2), 1);
        assert_eq!(core.epoch_of(1), 0, "untouched elements keep their epoch");
        // Replaying the settled pair is a pure read: nothing new to stamp.
        let _ = core.answer(0, 2);
        assert!(core.commit_round().is_empty());
        assert_eq!(core.commit_epoch(), 2);
        assert_eq!(core.epoch_of(0), 1);
    }

    #[test]
    fn swaps_dirty_the_partner_too() {
        let mut core = AdversaryCore::new(&[5, 5, 5, 5], 5, None);
        assert!(
            !core.answer(0, 1),
            "the probe should be deflected by a swap"
        );
        assert!(core.swaps() >= 1);
        let dirty = core.commit_round().to_vec();
        assert!(dirty.contains(&0) && dirty.contains(&1));
        assert!(
            dirty.len() >= 3,
            "the swap partner's class membership changed too: {dirty:?}"
        );
    }

    #[test]
    fn degrees_track_the_packed_graph_through_contractions() {
        let mut core = AdversaryCore::new(&[2, 2, 2], 1, None);
        // Force some edges and a contraction, then recount degrees from the
        // packed relation and compare with the incremental counters.
        for (a, b) in [(0, 2), (0, 4), (2, 4), (1, 3)] {
            let _ = core.answer(a, b);
        }
        for v in 0..core.n() {
            let mut recounted = 0u32;
            core.unequal.for_each_in_row(v, |_| recounted += 1);
            assert_eq!(core.degree[v], recounted, "degree mismatch at vertex {v}");
        }
    }
}
