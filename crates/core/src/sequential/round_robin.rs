//! The round-robin algorithm of Jayapaul et al., analysed in Sections 4–5.
//!
//! Every element keeps a cyclic cursor over the other elements; the algorithm
//! sweeps over the elements in rounds, and in each sweep every still-active
//! element initiates one equivalence test with the *next element whose
//! relationship to it is still unknown*. Knowledge is shared at the group
//! level: discovered equivalences contract groups, discovered differences
//! are recorded between groups, and a relationship is "known" as soon as it
//! can be inferred from the group structure.
//!
//! The bookkeeping (the private `Knowledge`) is sized to the known pairs,
//! not to `n²`, and never changes a query:
//!
//! * **Lazy lists.** A group's known set is a list of group ids that may have
//!   gone stale; an entry reads as its element's current group. A scan only
//!   returns an unknown element, so every "different" answer is a fresh
//!   group pair and costs one append to each side's list. A merge walks the
//!   merged-away group's list, finds the groups both sides knew (each group
//!   keeps an exact distinct count, which drives `fully_informed` and
//!   `complete`), and never touches a neighbour's list. Stamping a list for
//!   a scan compacts it in place. The lists live in power-of-two blocks of
//!   one buffer, so an append allocates nothing once blocks are reused.
//!   Between them, the lists hold at most two entries per recorded
//!   difference.
//! * **Rows for long sets and large groups.** A list as long as a bit row
//!   over all group ids becomes that row (`⌈n/32⌉` words), and so does the
//!   set of a group with at least `n/64` members. Rows are kept exact at
//!   every merge, so a scan by a group that knows many, or by a member of
//!   one of the few large groups, tests one bit per position.
//! * **Known runs.** Each group caches one cyclic run of positions it knows.
//!   Knowledge only grows, so the run stays true, and a scan that starts in
//!   it, or reaches it, jumps over it.
//!
//! The lemma of Jayapaul et al. used by Theorem 7 states that this schedule
//! performs at most `2·min(Y_i, Y_j)` tests between any two classes of sizes
//! `Y_i` and `Y_j`; the property-based tests below check that bound (and the
//! resulting Theorem 7 stochastic dominance is exercised again in the
//! integration tests and the `theorem7_dominance` benchmark binary).

use crate::run::{EcsAlgorithm, EcsRun};
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, Partition, ReadMode};

/// The round-robin sequential equivalence class sorter.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

/// Marks a [`KnownSet`] that holds a row rather than a list.
const ROW: u32 = u32::MAX;

/// A group with at least `n / BIG` members keeps its known set as a row,
/// however short: at most `BIG` groups are that large, so their rows take
/// at most `2n` words, and the largest groups, which scan and absorb the
/// most, test one bit instead of stamping a list.
const BIG: usize = 64;

/// A group's known set: the groups it is known to differ from, in a block
/// of [`KnownSets`].
///
/// A short set is a *lazy* list of `len` ids: each entry names an element
/// that was a group id when the difference was learnt, and reads as that
/// element's current group (`group_of[entry]`). A merge therefore never
/// touches a neighbour's list; entries that have come to name the same
/// group are dropped the next time the list is stamped. Once a list holds
/// as many entries as a bit row over all `n` group ids takes words, or its
/// group has [`BIG`]'s share of the members, it becomes that row
/// (`len == ROW`), whose bit of every live known group is kept set, so a
/// lookup is one bit test. A row may also keep the bits of ids that have
/// since merged away; they read like lazy entries.
#[derive(Debug, Clone, Copy, Default)]
struct KnownSet {
    start: u32,
    len: u32,
    /// Block size: 0 or a power of two for a list, the row's words for a
    /// row.
    cap: u32,
}

impl KnownSet {
    fn is_row(self) -> bool {
        self.len == ROW
    }
}

/// Every known set, each in a block of one buffer: a list in a
/// power-of-two block of at least 4 entries, a row in a block of exactly
/// its words. Blocks given up by grown, converted or merged-away sets are
/// reused before the buffer grows.
#[derive(Debug)]
struct KnownSets {
    buf: Vec<u32>,
    /// Free block starts, by [`KnownSets::class`].
    free: Vec<Vec<u32>>,
    /// Words in a row: one bit per group id.
    row_words: u32,
}

impl KnownSets {
    fn new(n: usize) -> Self {
        Self {
            buf: Vec::new(),
            free: Vec::new(),
            row_words: n.div_ceil(32) as u32,
        }
    }

    /// The free list a block of `cap` entries goes to: by `log2(cap)`, and
    /// a row whose word count is not a power of two in a list of its own.
    fn class(&self, cap: u32) -> usize {
        if cap == self.row_words && !cap.is_power_of_two() {
            32
        } else {
            cap.trailing_zeros() as usize
        }
    }

    /// A block of `cap` entries.
    fn block(&mut self, cap: u32) -> u32 {
        let class = self.class(cap);
        if let Some(start) = self.free.get_mut(class).and_then(Vec::pop) {
            return start;
        }
        let start = self.buf.len();
        self.buf.resize(start + cap as usize, 0);
        u32::try_from(start).expect("the known sets exceed 2^32 entries")
    }

    /// Gives `set`'s block back.
    fn release(&mut self, set: KnownSet) {
        if set.cap == 0 {
            return;
        }
        let class = self.class(set.cap);
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(set.start);
    }

    /// Appends `h` to a list, moving it to a block twice as large when full.
    fn push(&mut self, list: &mut KnownSet, h: u32) {
        if list.len == list.cap {
            let cap = (2 * list.cap).max(4);
            let start = self.block(cap);
            let from = list.start as usize;
            self.buf
                .copy_within(from..from + list.len as usize, start as usize);
            self.release(*list);
            list.start = start;
            list.cap = cap;
        }
        self.buf[(list.start + list.len) as usize] = h;
        list.len += 1;
    }

    /// Stamps a list's entries with `turn` and compacts it in place to the
    /// distinct current groups it names.
    fn stamp(&mut self, list: &mut KnownSet, group_of: &[u32], stamp: &mut [u32], turn: u32) {
        let entries = &mut self.buf[list.start as usize..][..list.len as usize];
        let mut kept = 0;
        for i in 0..entries.len() {
            let h = group_of[entries[i] as usize];
            entries[kept] = h;
            kept += usize::from(stamp[h as usize] != turn);
            stamp[h as usize] = turn;
        }
        list.len = kept as u32;
    }

    /// The row naming the current group of every entry of `list`, which it
    /// replaces.
    fn make_row(&mut self, list: KnownSet, group_of: &[u32]) -> KnownSet {
        let cap = self.row_words;
        let row = KnownSet {
            start: self.block(cap),
            len: ROW,
            cap,
        };
        self.buf[row.start as usize..][..cap as usize].fill(0);
        for i in list.start..list.start + list.len {
            let h = group_of[self.buf[i as usize] as usize];
            self.set(row, h as usize);
        }
        self.release(list);
        row
    }

    /// `group`'s set as a row if its list is long or the group is large.
    fn settle(&mut self, group: &mut Group, group_of: &[u32]) {
        let set = group.set;
        let big = group.size as usize * BIG >= group_of.len();
        if !set.is_row() && (big || set.len >= self.row_words) {
            group.set = self.make_row(set, group_of);
        }
    }

    fn test(&self, row: KnownSet, g: usize) -> bool {
        self.buf[row.start as usize + g / 32] >> (g % 32) & 1 == 1
    }

    fn set(&mut self, row: KnownSet, g: usize) {
        self.buf[row.start as usize + g / 32] |= 1 << (g % 32);
    }
}

/// A cyclic run of positions, see [`Group::run`].
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    start: u32,
    len: u32,
}

/// One live group, aligned so that two share a cache line and none
/// straddles two.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(32))]
struct Group {
    /// Member count.
    size: u32,
    /// The exact number of distinct groups known to differ.
    count: u32,
    /// Those groups, lazily.
    set: KnownSet,
    /// A run of positions `start, start + 1, …` (`len` of them, cyclically)
    /// whose elements the group knows: its own members or members of
    /// groups known to differ. Knowledge only grows, so a run stays true,
    /// and a merged group may keep either parent's.
    run: Run,
}

/// Group-level knowledge in flat arrays, with no hashing: O(n + known pairs)
/// memory, and each cursor scan a few slice searches over `group_of`.
///
/// A group's id is one of its members, so ids live in `0..n` and every
/// per-group array is indexed by element. Contracting two groups relabels
/// the smaller one, so each element is relabelled O(log n) times.
struct Knowledge {
    /// The group of every element.
    group_of: Vec<u32>,
    /// Circular member lists: `next[x]` is the next member of `x`'s group.
    next: Vec<u32>,
    /// The state of each live group.
    groups: Vec<Group>,
    /// The blocks behind every [`Group::set`].
    sets: KnownSets,
    /// Number of live groups.
    live: usize,
    /// Number of unordered known-different group pairs.
    known_pairs: usize,
    /// `stamp[g] == turn` marks the groups a list scanner knows (see
    /// [`Knowledge::next_unknown`]); merges use it to match two sets.
    stamp: Vec<u32>,
    turn: u32,
    /// The list scanner whose groups `turn` still stamps (no knowledge has
    /// changed since its scan), or `usize::MAX`.
    scanned: usize,
}

impl Knowledge {
    fn new(n: usize) -> Self {
        let ids: Vec<u32> = (0..n as u32).collect();
        let single = Group {
            size: 1,
            ..Group::default()
        };
        Self {
            group_of: ids.clone(),
            next: ids,
            groups: vec![single; n],
            sets: KnownSets::new(n),
            live: n,
            known_pairs: 0,
            stamp: vec![0; n],
            turn: 0,
            scanned: usize::MAX,
        }
    }

    fn group(&self, x: usize) -> usize {
        self.group_of[x] as usize
    }

    /// All pairwise relationships among current groups are known.
    fn complete(&self) -> bool {
        self.known_pairs == self.live * (self.live - 1) / 2
    }

    /// The group of `x` knows its relationship to every other current group.
    fn fully_informed(&self, x: usize) -> bool {
        self.groups[self.group(x)].count as usize == self.live - 1
    }

    /// Advances the stamp by `by` fresh turns and returns the last one.
    fn fresh_turns(&mut self, by: u32) -> u32 {
        if self.turn > u32::MAX - by {
            self.stamp.fill(0);
            self.turn = 0;
        }
        self.turn += by;
        self.turn
    }

    /// The first offset in `from..n` whose element `(x + offset) mod n` has
    /// an unknown relationship to `x`, or `None` if every one is known; what
    /// the scan finds known is folded into the group's run (see [`scan`]).
    ///
    /// The test is picked once per scan: a scanner whose set is a list
    /// stamps its group and every group in the list, so the test is one
    /// array read; a scanner whose set is a row tests one bit.
    fn next_unknown(&mut self, x: usize, from: usize) -> Option<usize> {
        let scanner = self.group(x);
        let Group { run, mut set, .. } = self.groups[scanner];
        self.scanned = usize::MAX;
        let (found, run) = if set.is_row() {
            let sets = &self.sets;
            let unknown = |g: u32| g as usize != scanner && !sets.test(set, g as usize);
            scan(&self.group_of, x, from, run, unknown)
        } else {
            let turn = self.fresh_turns(1);
            self.stamp[scanner] = turn;
            self.sets
                .stamp(&mut set, &self.group_of, &mut self.stamp, turn);
            self.groups[scanner].set = set;
            self.scanned = scanner;
            let stamp = &self.stamp;
            scan(&self.group_of, x, from, run, |g: u32| {
                stamp[g as usize] != turn
            })
        };
        self.groups[scanner].run = run;
        found
    }

    /// Adds group `h` to `g`'s known set, turning a long list into a row.
    fn insert(&mut self, g: usize, h: u32) {
        let mut group = self.groups[g];
        if group.set.is_row() {
            self.sets.set(group.set, h as usize);
            return;
        }
        self.sets.push(&mut group.set, h);
        self.sets.settle(&mut group, &self.group_of);
        self.groups[g] = group;
    }

    /// Records a "different" answer between the groups of `a` and `b`,
    /// whose relationship was unknown (a scan only returns unknown elements).
    fn record_different(&mut self, a: usize, b: usize) {
        let (ga, gb) = (self.group(a), self.group(b));
        debug_assert_ne!(ga, gb, "consistent oracles never separate equal elements");
        self.insert(ga, gb as u32);
        self.insert(gb, ga as u32);
        self.scanned = usize::MAX;
        self.groups[ga].count += 1;
        self.groups[gb].count += 1;
        self.known_pairs += 1;
    }

    /// Records an "equal" answer: contracts the two groups (relabelling the
    /// smaller) and merges their difference knowledge.
    fn record_equal(&mut self, a: usize, b: usize) {
        let (ga, gb) = (self.group(a), self.group(b));
        if ga == gb {
            return;
        }
        let (keep, gone) = if self.groups[ga].size >= self.groups[gb].size {
            (ga, gb)
        } else {
            (gb, ga)
        };
        let mut x = gone;
        loop {
            self.group_of[x] = keep as u32;
            x = self.next[x] as usize;
            if x == gone {
                break;
            }
        }
        // Swapping one successor in each circle splices them into one.
        self.next.swap(keep, gone);
        self.live -= 1;
        let theirs = std::mem::take(&mut self.groups[gone]);
        let mut ours = self.groups[keep];
        ours.size += theirs.size;
        if theirs.run.len > ours.run.len {
            ours.run = theirs.run;
        }

        if theirs.set.len == 0 {
            // `gone` knew no group: the merged set is `keep`'s.
            self.sets.settle(&mut ours, &self.group_of);
            self.groups[keep] = ours;
            return;
        }
        // `keep`'s groups are stamped `kept` (a list) or read from its row;
        // every group of `gone` is stamped `seen` as it is visited, so its
        // duplicates are skipped. When `keep` itself just scanned, its list
        // is still stamped with the current turn.
        let reuse = !ours.set.is_row() && self.scanned == keep;
        self.scanned = usize::MAX;
        let scan_turn = self.turn;
        let seen = self.fresh_turns(if reuse { 1 } else { 2 });
        let kept = if reuse { scan_turn } else { seen - 1 };
        let Self {
            group_of,
            groups,
            sets,
            stamp,
            ..
        } = self;
        if !ours.set.is_row() && !reuse {
            sets.stamp(&mut ours.set, group_of, stamp, kept);
        }
        // When only `gone` has a row, that row becomes the merged set.
        let adopt = !ours.set.is_row() && theirs.set.is_row();
        let mut collapsed = 0;
        let mut visit = |sets: &mut KnownSets, e: u32| {
            let h = group_of[e as usize] as usize;
            if stamp[h] == seen {
                return;
            }
            debug_assert_ne!(
                h, keep,
                "oracle inconsistency: groups known different answered equal"
            );
            let both = if ours.set.is_row() {
                sets.test(ours.set, h)
            } else {
                stamp[h] == kept
            };
            stamp[h] = seen;
            if both {
                // h knew both groups: two known pairs collapse into one.
                groups[h].count -= 1;
                collapsed += 1;
                return;
            }
            if ours.set.is_row() {
                sets.set(ours.set, h);
            } else if !adopt {
                sets.push(&mut ours.set, h as u32);
            }
            let their_set = groups[h].set;
            if their_set.is_row() {
                // h knew `gone`; its row must now name `keep`.
                sets.set(their_set, keep);
            }
        };
        if theirs.set.is_row() {
            for w in 0..sets.row_words {
                let mut word = sets.buf[(theirs.set.start + w) as usize];
                while word != 0 {
                    visit(sets, w * 32 + word.trailing_zeros());
                    word &= word - 1;
                }
            }
        } else {
            for i in theirs.set.start..theirs.set.start + theirs.set.len {
                let e = sets.buf[i as usize];
                visit(sets, e);
            }
        }
        if adopt {
            for i in ours.set.start..ours.set.start + ours.set.len {
                let h = sets.buf[i as usize];
                sets.set(theirs.set, h as usize);
            }
            sets.release(ours.set);
            ours.set = theirs.set;
        } else {
            sets.release(theirs.set);
            sets.settle(&mut ours, group_of);
        }
        ours.count += theirs.count - collapsed;
        self.groups[keep] = ours;
        self.known_pairs -= collapsed as usize;
    }
}

/// The first offset in `from..n` whose element `(x + offset) mod n` is in
/// a group that is `unknown`, and `run` (a run of positions known to `x`'s
/// group) grown by the known offsets the scan passed.
///
/// The first offset is tested on its own. Past it, the scan jumps over the
/// part of the run it starts in, stops at the run's start if the run lies
/// ahead, and jumps over the run there.
fn scan(
    group_of: &[u32],
    x: usize,
    from: usize,
    run: Run,
    unknown: impl Fn(u32) -> bool,
) -> (Option<usize>, Run) {
    let n = group_of.len();
    if run.len as usize >= n || from >= n {
        return (None, run);
    }
    let first = x + from;
    if unknown(group_of[if first >= n { first - n } else { first }]) {
        return (Some(from), run);
    }
    let next = from + 1;
    // The run in offsets from x: `[ro, re)`, where a part past n wraps
    // onto offsets `0..re - n`.
    let start = run.start as usize;
    let ro = if start >= x { start - x } else { start + n - x };
    let re = ro + run.len as usize;
    let lo = if ro <= next && next < re {
        re.min(n)
    } else if re > n && next < re - n {
        re - n
    } else {
        next
    };
    let stop = if lo < ro { ro } else { n };
    let found = search(group_of, x, lo, stop, &unknown)
        .or_else(|| search(group_of, x, re.min(n).max(stop), n, &unknown));
    // Offsets `from..end` are all known now.
    let end = found.unwrap_or(n);
    let (new_start, new_len) = if from <= re && ro <= end {
        (ro.min(from), re.max(end) - ro.min(from))
    } else if re > n && from <= re - n {
        (ro, re.max(end + n) - ro)
    } else {
        (from, end - from)
    };
    if new_len < run.len as usize {
        return (found, run);
    }
    let start = x + new_start;
    let run = Run {
        start: (if start >= n { start - n } else { start }) as u32,
        len: new_len.min(n) as u32,
    };
    (found, run)
}

/// The first offset in `lo..hi` (`lo ≤ hi ≤ n = group_of.len()`, or
/// `lo ≥ hi` for an empty range) whose element `(x + offset) mod n` is in a
/// group that is `unknown`.
fn search(
    group_of: &[u32],
    x: usize,
    lo: usize,
    hi: usize,
    unknown: impl Fn(u32) -> bool,
) -> Option<usize> {
    if lo >= hi {
        return None;
    }
    let n = group_of.len();
    let (a, b) = (x + lo, x + hi);
    if a >= n {
        let hit = group_of[a - n..b - n].iter().position(|&g| unknown(g));
        return hit.map(|i| lo + i);
    }
    if let Some(i) = group_of[a..b.min(n)].iter().position(|&g| unknown(g)) {
        return Some(lo + i);
    }
    if b <= n {
        return None;
    }
    let hit = group_of[..b - n].iter().position(|&g| unknown(g));
    hit.map(|i| n - x + i)
}

impl EcsAlgorithm for RoundRobin {
    fn name(&self) -> String {
        "round-robin".to_string()
    }

    fn read_mode(&self) -> ReadMode {
        ReadMode::Exclusive
    }

    fn sort_with_backend<O: EquivalenceOracle>(
        &self,
        oracle: &O,
        backend: ExecutionBackend,
    ) -> EcsRun {
        let n = oracle.n();
        let mut session = ComparisonSession::with_backend(oracle, ReadMode::Exclusive, backend);
        if n == 0 {
            return EcsRun::new(Partition::from_labels::<u32>(&[]), session.into_metrics());
        }
        let mut knowledge = Knowledge::new(n);
        // cursors[x] is the next *offset* (1-based, cyclic) x will examine;
        // x is inactive once it reaches n.
        let mut cursors: Vec<usize> = vec![1; n];

        while !knowledge.complete() {
            let mut progressed = false;
            for (x, cursor) in cursors.iter_mut().enumerate() {
                if knowledge.complete() {
                    break;
                }
                if *cursor >= n {
                    continue;
                }
                if knowledge.fully_informed(x) {
                    // The group of x already knows every other group; it can
                    // learn nothing more, so x stops initiating tests.
                    *cursor = n;
                    continue;
                }
                // Advance the cursor to the next element with an unknown
                // relationship and test it.
                let Some(offset) = knowledge.next_unknown(x, *cursor) else {
                    *cursor = n;
                    continue;
                };
                *cursor = offset + 1;
                progressed = true;
                let y = x + offset;
                let y = if y >= n { y - n } else { y };
                if session.compare(x, y) {
                    knowledge.record_equal(x, y);
                } else {
                    knowledge.record_different(x, y);
                }
            }
            assert!(
                progressed || knowledge.complete(),
                "round-robin stalled before completing (inconsistent oracle?)"
            );
        }

        EcsRun::new(
            Partition::from_labels(&knowledge.group_of),
            session.into_metrics(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_model::{Instance, InstanceOracle};
    use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    /// Whether `g`'s known set names group `h`, read straight from the
    /// list entries or the row.
    fn knows(k: &Knowledge, g: usize, h: usize) -> bool {
        let set = k.groups[g].set;
        if set.is_row() {
            return k.sets.test(set, h);
        }
        let entries = &k.sets.buf[set.start as usize..][..set.len as usize];
        entries.iter().any(|&e| k.group(e as usize) == h)
    }

    /// The live groups.
    fn live_groups(k: &Knowledge) -> Vec<usize> {
        (0..k.group_of.len()).filter(|&x| k.group(x) == x).collect()
    }

    /// The distinct live groups `g`'s set names: its list entries read as
    /// current groups, or the live groups whose bit its row sets (a bit of a
    /// merged-away id must then read as one of them).
    fn named_groups(k: &Knowledge, g: usize) -> Vec<usize> {
        let set = k.groups[g].set;
        let mut named: Vec<usize> = if set.is_row() {
            let bits: Vec<usize> = (0..k.group_of.len())
                .filter(|&h| k.sets.test(set, h))
                .collect();
            let live: Vec<usize> = bits.iter().copied().filter(|&h| k.group(h) == h).collect();
            assert!(
                bits.iter().all(|&h| live.contains(&k.group(h))),
                "group {g}: a stale bit names an unset group"
            );
            live
        } else {
            let entries = &k.sets.buf[set.start as usize..][..set.len as usize];
            entries.iter().map(|&e| k.group(e as usize)).collect()
        };
        named.sort_unstable();
        named.dedup();
        named
    }

    /// Checks every count against a recount, knowledge for symmetry, and
    /// `known_pairs` against the counts.
    fn check_counts(k: &Knowledge) -> Result<(), proptest::test_runner::TestCaseError> {
        let live = live_groups(k);
        prop_assert_eq!(live.len(), k.live);
        let mut total = 0;
        for &g in &live {
            let named = named_groups(k, g);
            prop_assert_eq!(k.groups[g].count as usize, named.len(), "group {}", g);
            prop_assert!(!named.contains(&g), "group {} knows itself", g);
            for &h in &named {
                prop_assert!(knows(k, h, g), "group {} knows {} but not back", g, h);
            }
            total += named.len();
        }
        prop_assert_eq!(k.known_pairs * 2, total);
        Ok(())
    }

    /// Records the answer the classes give, unless the pair is known.
    fn answer(k: &mut Knowledge, class: &[usize], a: usize, b: usize) {
        if class[a] == class[b] {
            k.record_equal(a, b);
        } else if !knows(k, k.group(a), k.group(b)) {
            k.record_different(a, b);
        }
    }

    #[test]
    fn lists_grow_into_rows_and_blocks_are_reused() {
        let mut sets = KnownSets::new(200); // rows of 7 words
        let mut list = KnownSet::default();
        for h in 0..6 {
            sets.push(&mut list, h);
        }
        assert_eq!((list.len, list.cap), (6, 8));
        let first_block = sets.buf.len();
        let group_of: Vec<u32> = (0..200).map(|x| x / 2 * 2).collect();
        let row = sets.make_row(list, &group_of);
        assert!(row.is_row() && row.cap == 7);
        let members: Vec<usize> = (0..200).filter(|&g| sets.test(row, g)).collect();
        assert_eq!(
            members,
            vec![0, 2, 4],
            "entries read as their current groups"
        );
        // The list's 8-entry block went back to the free list: the next
        // 8-entry block reuses it, after the 4-entry one grown out of.
        assert_eq!(sets.block(8), list.start);
        assert_eq!(sets.buf.len(), first_block + 7);
        sets.release(row);
        assert_eq!(
            sets.block(7),
            row.start,
            "rows have blocks of their own size"
        );
    }

    #[test]
    fn knowledge_contracts_groups_and_survives_stamp_wrap() {
        let mut k = Knowledge::new(200); // short sets stay lists
        k.record_different(0, 1);
        k.record_different(2, 1);
        k.record_equal(0, 2); // {0, 2} both knew 1: two pairs collapse
        assert_eq!((k.live, k.known_pairs), (199, 1));
        assert_eq!(k.groups[1].count, 1);
        k.record_equal(3, 0); // the larger group {0, 2} survives
        assert_eq!(k.group(3), k.group(0));
        let g = k.group(0);
        assert_eq!((k.groups[g].size, k.groups[g].count), (3, 1));
        assert!(!k.groups[g].set.is_row());
        // From element 2, offsets 1 (element 3) and 198 (element 0) are its
        // own group, and offset 199 (element 1) a known-different one.
        k.turn = u32::MAX; // the next stamp wraps the counter
        assert_eq!(k.next_unknown(2, 1), Some(2), "element 4");
        assert_eq!(k.turn, 1);
        assert_eq!(k.next_unknown(2, 197), Some(197), "element 199");
        assert_eq!(k.next_unknown(2, 198), None);
        assert_eq!(k.next_unknown(2, 200), None, "an exhausted cursor");
        assert!(!k.fully_informed(2));
        let mut labels: Vec<usize> = (0..200).collect();
        labels[2] = 0;
        labels[3] = 0;
        assert_eq!(
            Partition::from_labels(&k.group_of),
            Partition::from_labels(&labels)
        );
    }

    /// The per-step scan `next_unknown` replaces: one membership test per
    /// offset, straight from the known sets.
    fn reference_scan(k: &Knowledge, x: usize, from: usize) -> Option<usize> {
        let n = k.group_of.len();
        let gx = k.group(x);
        (from..n).find(|&offset| {
            let g = k.group((x + offset) % n);
            g != gx && !knows(k, gx, g)
        })
    }

    #[test]
    fn scans_answer_alike_from_lists_and_rows() {
        // Group {0, n - 1} knows 59 groups: a list at n = 4000, which the
        // scan stamps, and a row at n = 100, which it bit-tests.
        for n in [4000, 100] {
            let mut k = Knowledge::new(n);
            k.record_equal(0, n - 1);
            for y in 1..60 {
                k.record_different(0, y);
            }
            assert_eq!(k.groups[0].set.is_row(), n == 100);
            for from in 1..n {
                let expected = from.max(60);
                let expected = (expected < n - 1).then_some(expected);
                assert_eq!(k.next_unknown(0, from), expected, "n = {n}, from = {from}");
            }
            // From element n - 1 the scan wraps onto its group's known run.
            assert_eq!(k.next_unknown(n - 1, 1), Some(61), "n = {n}");
        }
    }

    #[test]
    fn scans_jump_over_the_known_run() {
        // Group {0} knows groups 1..40; a scan from offset 1 stops at 40 and
        // records the run 1..40, which later scans jump over or stop at.
        let mut k = Knowledge::new(4000);
        for y in 1..40 {
            k.record_different(0, y);
        }
        assert_eq!(k.next_unknown(0, 1), Some(40));
        assert_eq!((k.groups[0].run.start, k.groups[0].run.len), (1, 39));
        assert_eq!(k.next_unknown(0, 20), Some(40), "starts in the run");
        k.record_different(0, 40);
        k.record_different(0, 41);
        assert_eq!(k.next_unknown(0, 40), Some(42), "starts right after it");
        assert_eq!((k.groups[0].run.start, k.groups[0].run.len), (1, 41));
        // A merged group keeps the longer of the two runs, here the run of
        // the group whose id goes.
        k.record_equal(3000, 0);
        assert_eq!(k.group(0), 3000);
        assert_eq!((k.groups[3000].run.start, k.groups[3000].run.len), (1, 41));
    }

    #[test]
    fn classifies_small_and_degenerate_instances() {
        let mut r = rng(1);
        for &(n, k) in &[
            (1usize, 1usize),
            (2, 1),
            (2, 2),
            (3, 2),
            (50, 1),
            (50, 50),
            (60, 7),
        ] {
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            assert!(inst.verify(&run.partition), "failed for n={n}, k={k}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_labels::<u32>(&[]);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(run.partition.is_empty());
        assert_eq!(run.metrics.comparisons(), 0);
    }

    #[test]
    fn two_classes_interleaved() {
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let inst = Instance::from_labels(&labels);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
    }

    #[test]
    fn uses_far_fewer_comparisons_than_all_pairs_on_few_classes() {
        let mut r = rng(2);
        let n = 600;
        let inst = Instance::balanced(n, 5, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        let all_pairs = (n * (n - 1) / 2) as u64;
        assert!(
            run.metrics.comparisons() * 10 < all_pairs,
            "round-robin used {} comparisons, close to the {} of all-pairs",
            run.metrics.comparisons(),
            all_pairs
        );
    }

    /// Counts comparisons between each pair of true classes by re-running the
    /// algorithm against a counting oracle.
    fn per_class_pair_counts(labels: &[usize]) -> (HashMap<(usize, usize), usize>, Vec<usize>) {
        use std::sync::Mutex;

        struct CountingOracle<'a> {
            labels: &'a [usize],
            counts: Mutex<HashMap<(usize, usize), usize>>,
        }
        impl EquivalenceOracle for CountingOracle<'_> {
            fn n(&self) -> usize {
                self.labels.len()
            }
            fn same(&self, a: usize, b: usize) -> bool {
                let (la, lb) = (self.labels[a], self.labels[b]);
                let key = (la.min(lb), la.max(lb));
                *self.counts.lock().unwrap().entry(key).or_insert(0) += 1;
                la == lb
            }
        }

        let oracle = CountingOracle {
            labels,
            counts: Mutex::new(HashMap::new()),
        };
        let run = RoundRobin::new().sort(&oracle);
        let inst = Instance::from_labels(labels);
        assert!(inst.verify(&run.partition));
        let mut sizes = vec![0usize; labels.iter().max().map(|m| m + 1).unwrap_or(0)];
        for &l in labels {
            sizes[l] += 1;
        }
        (oracle.counts.into_inner().unwrap(), sizes)
    }

    #[test]
    fn per_class_pair_tests_respect_jayapaul_lemma() {
        // Lemma (Jayapaul et al., used by Theorem 7): at most 2·min(Y_i, Y_j)
        // tests between any two distinct classes.
        let mut r = rng(3);
        for trial in 0..20 {
            let n = 150 + trial * 10;
            let k = 2 + (trial % 7);
            let inst = Instance::balanced(n, k, &mut r);
            let labels: Vec<usize> = inst
                .ground_truth()
                .labels()
                .iter()
                .map(|&l| l as usize)
                .collect();
            let (counts, sizes) = per_class_pair_counts(&labels);
            for (&(i, j), &c) in &counts {
                if i == j {
                    continue;
                }
                let bound = 2 * sizes[i].min(sizes[j]);
                assert!(
                    c <= bound,
                    "trial {trial}: {c} tests between classes {i} and {j}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn within_class_tests_are_at_most_class_size() {
        // Equal answers always contract groups, so a class of size s needs at
        // most s − 1 "equal" answers... but "unknown" probes inside a class
        // are exactly the equal answers, so within-class tests ≤ s − 1 + 0.
        let mut r = rng(4);
        let inst = Instance::balanced(200, 4, &mut r);
        let labels: Vec<usize> = inst
            .ground_truth()
            .labels()
            .iter()
            .map(|&l| l as usize)
            .collect();
        let (counts, sizes) = per_class_pair_counts(&labels);
        for (&(i, j), &c) in &counts {
            if i == j {
                assert!(
                    c <= sizes[i],
                    "class {i}: {c} internal tests for size {}",
                    sizes[i]
                );
            }
        }
    }

    #[test]
    fn skewed_class_sizes_are_cheap() {
        // One giant class plus a few tiny ones: the paper's distribution
        // analysis predicts close-to-linear total comparisons.
        let mut r = rng(5);
        let mut sizes = vec![900usize];
        sizes.extend(std::iter::repeat_n(10usize, 10));
        let inst = Instance::from_class_sizes(&sizes, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        let n = inst.n() as u64;
        assert!(
            run.metrics.comparisons() < 40 * n,
            "expected near-linear comparisons, got {} for n = {n}",
            run.metrics.comparisons()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_ground_truth_on_random_instances(
            labels in proptest::collection::vec(0u8..6, 1..100)
        ) {
            let inst = Instance::from_labels(&labels);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
        }

        /// Random knowledge states, built from consistent answers so that
        /// both list and row scanners occur: every `x` and `from` scans to
        /// the same offset as the per-step reference.
        #[test]
        fn next_unknown_matches_the_per_step_scan(
            n in 1usize..90,
            classes in 1usize..40,
            seed in 0u64..1000,
            answers in 0usize..400,
        ) {
            let mut r = rng(seed);
            let class: Vec<usize> = (0..n).map(|_| r.below(classes)).collect();
            let mut k = Knowledge::new(n);
            for _ in 0..answers {
                answer(&mut k, &class, r.below(n), r.below(n));
            }
            for x in 0..n {
                for from in 1..=n {
                    let expected = reference_scan(&k, x, from);
                    prop_assert_eq!(k.next_unknown(x, from), expected, "x = {}, from = {}", x, from);
                }
            }
        }

        /// The known runs depend on which scans came before, so scans are
        /// interleaved with consistent answers: most steps scan as a cursor
        /// does and answer the element found, the rest answer a random
        /// pair. That gives merges of list and row holders and scans from
        /// list and row scanners (a list becomes a row at 2 entries for
        /// n < 65 and at 19 for n near 600, and a group's set at `n / 64`
        /// members). Every scan must agree with the per-step reference, and
        /// every count with a recount.
        #[test]
        fn scans_interleaved_with_answers_match_the_reference(
            n in 2usize..500,
            classes in 1usize..120,
            few in 0u8..2,
            seed in 0u64..1000,
            steps in 0usize..1500,
        ) {
            // Half the cases have at most 8 classes, so groups grow large.
            let classes = if few == 0 { classes % 8 + 1 } else { classes };
            let mut r = rng(seed);
            let class: Vec<usize> = (0..n).map(|_| r.below(classes)).collect();
            let mut k = Knowledge::new(n);
            for step in 0..steps {
                if r.below(4) == 0 {
                    answer(&mut k, &class, r.below(n), r.below(n));
                } else {
                    // Scan as a cursor does, then answer what it found, so
                    // later scans pass long known stretches.
                    let (x, from) = (r.below(n), 1 + r.below(n));
                    let expected = reference_scan(&k, x, from);
                    prop_assert_eq!(k.next_unknown(x, from), expected, "step {}: x = {}, from = {}", step, x, from);
                    if let Some(offset) = expected {
                        answer(&mut k, &class, x, (x + offset) % n);
                    }
                }
                if step % 50 == 0 {
                    check_counts(&k)?;
                }
            }
            check_counts(&k)?;
            for x in (0..n).step_by(3) {
                prop_assert_eq!(k.next_unknown(x, 1), reference_scan(&k, x, 1), "x = {}", x);
            }
        }

        #[test]
        fn comparison_count_never_exceeds_all_pairs(
            seed in 0u64..200,
            n in 2usize..120,
            k in 1usize..10,
        ) {
            let k = k.min(n);
            let mut r = rng(seed);
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
            prop_assert!(run.metrics.comparisons() <= (n * (n - 1) / 2) as u64);
        }
    }

    #[test]
    fn deterministic_given_identical_instances() {
        let mut r1 = rng(9);
        let mut r2 = rng(9);
        let a = Instance::balanced(300, 6, &mut r1);
        let b = Instance::balanced(300, 6, &mut r2);
        let ra = RoundRobin::new().sort(&InstanceOracle::new(&a));
        let rb = RoundRobin::new().sort(&InstanceOracle::new(&b));
        assert_eq!(ra.metrics.comparisons(), rb.metrics.comparisons());
        assert_eq!(ra.partition, rb.partition);
    }

    #[test]
    fn handles_many_singleton_classes() {
        // Stress the knowledge bookkeeping: every element its own class.
        let labels: Vec<usize> = (0..80).collect();
        let inst = Instance::from_labels(&labels);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        assert_eq!(run.metrics.comparisons(), (80 * 79 / 2) as u64);
    }

    #[test]
    fn random_seeded_shuffle_does_not_break_lemma() {
        let mut r = rng(11);
        let mut labels: Vec<usize> = Vec::new();
        for class in 0..6 {
            let size = 5 + r.below(40);
            labels.extend(std::iter::repeat_n(class, size));
        }
        r.shuffle(&mut labels);
        let (counts, sizes) = per_class_pair_counts(&labels);
        for (&(i, j), &c) in &counts {
            if i != j {
                assert!(c <= 2 * sizes[i].min(sizes[j]));
            }
        }
    }
}
