//! Packed bit substrates: one bit per unordered pair and one bit per element.
//!
//! The adversary knowledge graph, the union-find class sets, and the row
//! oracle paths all ask the same two kinds of set question — "is this pair
//! related?" and "is this element in that set?" — and all of them used to
//! answer through pointer-heavy structures (`HashMap<usize, HashSet<usize>>`
//! adjacency, `Vec<Option<Mark>>` flags, `Vec<Vec<usize>>` member lists).
//! This module packs both questions into flat word arrays:
//!
//! * [`PairBitset`] stores one bit per **unordered pair** `(i, j)` of `0..n`
//!   in an upper-triangular layout over a `Vec<u64>`, addressed by the
//!   closed-form [`coord_to_idx`]. Row `i` owns the `n − 1 − i` contiguous
//!   bits for its greater partners `j > i`; its smaller partners `k < i` live
//!   strided through earlier rows at `idx(k, i)`.
//! * [`BitRow`] is a plain `n`-bit set — class rows, marks, visited flags —
//!   with word-parallel intersection and difference tests, and extraction.
//!
//! Membership tests are a shift and a mask, bulk queries (population count,
//! "does this row meet that set?") run 64 pairs per instruction, and
//! iteration walks words with `trailing_zeros` instead of chasing heap
//! pointers.
//!
//! ```text
//! n = 5        j=1 j=2 j=3 j=4
//!        i=0 [  0   1   2   3 ]   row 0: base 0, 4 contiguous bits
//!        i=1 [      4   5   6 ]   row 1: base 4, 3 contiguous bits
//!        i=2 [          7   8 ]   row 2: base 7, 2 contiguous bits
//!        i=3 [              9 ]   row 3: base 9, 1 contiguous bit
//!
//!        idx(i, j) = i·n − i·(i+1)/2 + (j − i − 1)      for i < j
//! ```

/// The closed-form upper-triangular index of the unordered pair `(i, j)`
/// among all `n·(n−1)/2` pairs of `0..n`: with `i < j` (the arguments are
/// normalized first), `idx = i·n − i·(i+1)/2 + (j − i − 1)`.
///
/// # Panics
///
/// Panics if `i == j` or either index is out of range (debug builds assert
/// eagerly; release builds fault on the out-of-range word access).
#[inline]
pub fn coord_to_idx(i: usize, j: usize, n: usize) -> usize {
    debug_assert!(i != j, "unordered pair ({i}, {j}) has distinct endpoints");
    debug_assert!(i < n && j < n, "pair ({i}, {j}) out of range for n = {n}");
    let (i, j) = if i < j { (i, j) } else { (j, i) };
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// A packed upper-triangular bitset over the unordered pairs of `0..n`.
///
/// One bit per pair, `n·(n−1)/2` bits total, stored in a flat `Vec<u64>` and
/// addressed by [`coord_to_idx`]. See the module docs for the layout diagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairBitset {
    n: usize,
    words: Vec<u64>,
}

impl PairBitset {
    /// Creates the empty relation over `n` elements.
    pub fn new(n: usize) -> Self {
        let bits = n * n.saturating_sub(1) / 2;
        Self {
            n,
            words: vec![0u64; bits.div_ceil(64)],
        }
    }

    /// Number of elements (not pairs).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of unordered pairs the set ranges over.
    pub fn num_pairs(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        coord_to_idx(i, j, self.n)
    }

    /// The index of the word holding pair `(i, j)` — exposed so callers that
    /// track touched words (e.g. a round plan that must reset quickly) can
    /// clear exactly the words they dirtied via [`PairBitset::clear_word`].
    #[inline]
    pub fn word_index(&self, i: usize, j: usize) -> usize {
        self.index(i, j) / 64
    }

    /// Tests the pair bit.
    #[inline]
    pub fn test(&self, i: usize, j: usize) -> bool {
        let idx = self.index(i, j);
        self.words[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Sets the pair bit; returns `true` if it was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) -> bool {
        let idx = self.index(i, j);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clears the pair bit; returns `true` if it was previously set.
    #[inline]
    pub fn clear(&mut self, i: usize, j: usize) -> bool {
        let idx = self.index(i, j);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }

    /// Number of set pairs, counted 64 at a time.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every pair.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Clears one whole word (64 pair bits) by index — the fast reset path
    /// for callers that tracked which words they dirtied.
    #[inline]
    pub fn clear_word(&mut self, word: usize) {
        self.words[word] = 0;
    }

    /// The backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Calls `f` for every partner `z` with the pair `(i, z)` set, in
    /// ascending `z` order. Partners below `i` are strided through earlier
    /// rows and tested bit-by-bit; partners above `i` are contiguous and
    /// walked a word at a time via `trailing_zeros`.
    pub fn for_each_in_row(&self, i: usize, mut f: impl FnMut(usize)) {
        for k in 0..i {
            if self.test(k, i) {
                f(k);
            }
        }
        if i + 1 >= self.n {
            return;
        }
        let base = coord_to_idx(i, i + 1, self.n);
        let len = self.n - 1 - i;
        let mut offset = 0;
        while offset < len {
            let take = (len - offset).min(64 - (base + offset) % 64);
            let mut word = self.words[(base + offset) / 64] >> ((base + offset) % 64);
            if take < 64 {
                word &= (1u64 << take) - 1;
            }
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                f(i + 1 + offset + bit);
                word &= word - 1;
            }
            offset += take;
        }
    }

    /// Whether any partner of `i` lies in `mask` — i.e. whether row `i`
    /// intersects the element set `mask`. The contiguous part of the row is
    /// tested 64 pairs per AND against words extracted from `mask`; the
    /// strided part iterates `mask`'s set bits below `i` (cheap when `mask`
    /// is a small class) and tests each pair bit.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is not an `n`-bit row.
    pub fn row_intersects(&self, i: usize, mask: &BitRow) -> bool {
        assert_eq!(mask.len(), self.n, "mask length mismatch");
        let mut hit = false;
        mask.for_each_one_below(i, |k| {
            hit = hit || self.test(k, i);
        });
        if hit {
            return true;
        }
        if i + 1 >= self.n {
            return false;
        }
        let base = coord_to_idx(i, i + 1, self.n);
        let len = self.n - 1 - i;
        let mut offset = 0;
        while offset < len {
            let take = (len - offset).min(64 - (base + offset) % 64);
            let mut word = self.words[(base + offset) / 64] >> ((base + offset) % 64);
            if take < 64 {
                word &= (1u64 << take) - 1;
            }
            if word & mask.extract_word(i + 1 + offset) != 0 {
                return true;
            }
            offset += take;
        }
        false
    }
}

/// A flat `n`-bit set over elements `0..n`, packed into a `Vec<u64>`.
///
/// The element-granular counterpart of [`PairBitset`]: class rows, mark
/// flags, visited sets. Set/test/clear are a shift and a mask; intersection
/// and difference queries run a word (64 elements) at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRow {
    len: usize,
    words: Vec<u64>,
}

impl BitRow {
    /// Creates the empty set over `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Number of elements the set ranges over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty (`len == 0`), matching the container
    /// convention; see [`BitRow::any`] for "is any bit set".
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range for len {}", self.len);
    }

    /// Tests bit `i`.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        self.check(i);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`; returns `true` if it was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        self.check(i);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clears bit `i`; returns `true` if it was previously set.
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        self.check(i);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits, counted 64 at a time.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Whether the two sets share any element (word-parallel; no allocation).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn intersects(&self, other: &BitRow) -> bool {
        assert_eq!(self.len, other.len, "BitRow length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether `self \ other` is non-empty — "does this set contain an
    /// element the other lacks?", one `a & !b` word op per 64 elements.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn any_and_not(&self, other: &BitRow) -> bool {
        assert_eq!(self.len, other.len, "BitRow length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .any(|(a, b)| a & !b != 0)
    }

    /// Extracts the 64 bits starting at `start` as one word (bit `k` of the
    /// result is bit `start + k` of the set; bits past the end read as 0).
    /// This is the unaligned fetch that lets a caller AND an arbitrary
    /// 64-element window of this set against its own words.
    #[inline]
    pub fn extract_word(&self, start: usize) -> u64 {
        let w = start / 64;
        let shift = start % 64;
        let lo = self.words.get(w).copied().unwrap_or(0) >> shift;
        if shift == 0 {
            lo
        } else {
            lo | self.words.get(w + 1).copied().unwrap_or(0) << (64 - shift)
        }
    }

    /// Calls `f` for every set bit, in ascending order, walking words with
    /// `trailing_zeros`.
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                f(w * 64 + bit);
                word &= word - 1;
            }
        }
    }

    /// Calls `f` for every set bit strictly below `limit`, in ascending
    /// order.
    pub fn for_each_one_below(&self, limit: usize, mut f: impl FnMut(usize)) {
        let limit = limit.min(self.len);
        for (w, &word) in self.words.iter().enumerate().take(limit.div_ceil(64)) {
            let mut word = word;
            if (w + 1) * 64 > limit {
                let keep = limit - w * 64;
                if keep == 0 {
                    break;
                }
                word &= (1u64 << keep).wrapping_sub(1);
            }
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                f(w * 64 + bit);
                word &= word - 1;
            }
        }
    }

    /// The set bits collected into a vector, ascending.
    pub fn ones(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        self.for_each_one(|i| out.push(i));
        out
    }

    /// A lazy ascending iterator over the set bits — what consumers that
    /// only need a prefix (e.g. zipping fragment members against a shorter
    /// chunk) use instead of materializing [`BitRow::ones`].
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            next_word: 0,
            current: 0,
        }
    }

    /// The backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Iterator behind [`BitRow::iter_ones`]: drains one word at a time with
/// `trailing_zeros`, exactly the [`BitRow::for_each_one`] walk but
/// suspendable.
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    words: &'a [u64],
    /// Index of the next word to load into `current`.
    next_word: usize,
    /// Remaining bits of word `next_word - 1`.
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.current = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.next_word - 1) * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn coord_to_idx_is_the_triangular_enumeration() {
        // Enumerating pairs (i, j) with i < j in lexicographic order must
        // yield consecutive indices 0, 1, 2, ... — the layout diagram.
        for n in 0..20 {
            let mut expected = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(coord_to_idx(i, j, n), expected, "({i}, {j}) in n={n}");
                    assert_eq!(coord_to_idx(j, i, n), expected, "order-normalized");
                    expected += 1;
                }
            }
            assert_eq!(expected, n * n.saturating_sub(1) / 2);
        }
    }

    #[test]
    fn set_test_clear_roundtrip() {
        let mut s = PairBitset::new(10);
        assert!(!s.test(3, 7));
        assert!(s.set(3, 7));
        assert!(!s.set(7, 3), "already set, order-normalized");
        assert!(s.test(3, 7));
        assert!(s.test(7, 3));
        assert_eq!(s.count_ones(), 1);
        assert!(s.clear(7, 3));
        assert!(!s.clear(3, 7));
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn tiny_universes() {
        let s0 = PairBitset::new(0);
        assert_eq!(s0.num_pairs(), 0);
        assert_eq!(s0.count_ones(), 0);
        let s1 = PairBitset::new(1);
        assert_eq!(s1.num_pairs(), 0);
        let mut s2 = PairBitset::new(2);
        assert!(s2.set(0, 1));
        assert_eq!(s2.count_ones(), 1);
        s2.for_each_in_row(0, |z| assert_eq!(z, 1));
        s2.for_each_in_row(1, |z| assert_eq!(z, 0));
    }

    #[test]
    fn row_iteration_covers_both_parts() {
        // Partners both below and above i, crossing a word boundary.
        let n = 200;
        let mut s = PairBitset::new(n);
        let partners = [0usize, 3, 9, 99, 101, 150, 199];
        for &p in &partners {
            s.set(100, p);
        }
        let mut seen = Vec::new();
        s.for_each_in_row(100, |z| seen.push(z));
        assert_eq!(seen, partners.to_vec());
    }

    #[test]
    fn word_index_and_clear_word() {
        let mut s = PairBitset::new(40);
        s.set(0, 1);
        s.set(0, 2);
        s.set(30, 35);
        let w = s.word_index(0, 1);
        assert_eq!(w, s.word_index(0, 2));
        s.clear_word(w);
        assert!(!s.test(0, 1));
        assert!(!s.test(0, 2));
        assert!(s.test(30, 35), "other words untouched");
    }

    #[test]
    fn row_intersects_matches_naive() {
        let n = 130;
        let mut s = PairBitset::new(n);
        for &(i, j) in &[(5usize, 64usize), (5, 100), (20, 5), (64, 129)] {
            s.set(i, j);
        }
        let mut mask = BitRow::new(n);
        mask.set(100);
        assert!(s.row_intersects(5, &mask));
        assert!(!s.row_intersects(64, &mask));
        let mut below = BitRow::new(n);
        below.set(20);
        assert!(s.row_intersects(5, &below), "strided part below i");
        let empty = BitRow::new(n);
        assert!(!s.row_intersects(5, &empty));
    }

    #[test]
    fn bitrow_basics() {
        let mut r = BitRow::new(70);
        assert!(!r.any());
        assert!(r.set(0));
        assert!(r.set(69));
        assert!(!r.set(69));
        assert!(r.test(69));
        assert_eq!(r.count_ones(), 2);
        assert_eq!(r.ones(), vec![0, 69]);
        assert!(r.clear(0));
        assert!(!r.clear(0));
        assert!(r.any());
        r.clear_all();
        assert!(!r.any());
        assert!(
            !r.is_empty(),
            "is_empty is about the universe, not the bits"
        );
        assert!(BitRow::new(0).is_empty());
    }

    #[test]
    fn bitrow_set_algebra() {
        let mut a = BitRow::new(100);
        let mut b = BitRow::new(100);
        a.set(1);
        a.set(64);
        b.set(64);
        b.set(99);
        assert!(a.intersects(&b));
        assert!(a.any_and_not(&b), "1 is in a but not b");
        b.clear(99);
        assert!(!b.any_and_not(&a), "b holds only 64, which a holds too");
    }

    #[test]
    fn extract_word_is_an_unaligned_window() {
        let mut r = BitRow::new(200);
        for &i in &[3usize, 64, 65, 127, 130] {
            r.set(i);
        }
        for start in 0..137 {
            let w = r.extract_word(start);
            for k in 0..64 {
                let expected = start + k < 200 && r.test(start + k);
                assert_eq!(w >> k & 1 == 1, expected, "start={start}, k={k}");
            }
        }
        assert_eq!(r.extract_word(199), 0);
    }

    #[test]
    fn for_each_one_below_respects_the_limit() {
        let mut r = BitRow::new(150);
        for &i in &[0usize, 63, 64, 100, 149] {
            r.set(i);
        }
        let mut seen = Vec::new();
        r.for_each_one_below(100, |i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64]);
        seen.clear();
        r.for_each_one_below(0, |i| seen.push(i));
        assert!(seen.is_empty());
        seen.clear();
        r.for_each_one_below(1000, |i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64, 100, 149]);
    }

    #[test]
    fn iter_ones_matches_ones_and_is_lazy() {
        let mut r = BitRow::new(150);
        for &i in &[0usize, 63, 64, 100, 149] {
            r.set(i);
        }
        assert_eq!(r.iter_ones().collect::<Vec<_>>(), r.ones());
        assert_eq!(r.iter_ones().take(2).collect::<Vec<_>>(), vec![0, 63]);
        assert_eq!(BitRow::new(0).iter_ones().next(), None);
        assert_eq!(BitRow::new(70).iter_ones().next(), None);
    }

    proptest! {
        #[test]
        fn pair_bitset_matches_hashset_reference(
            n in 2usize..60,
            ops in proptest::collection::vec((0usize..60, 0usize..60, 0u8..2), 0..200)
        ) {
            let mut packed = PairBitset::new(n);
            let mut reference: HashSet<(usize, usize)> = HashSet::new();
            for (a, b, op) in ops {
                let insert = op == 0;
                let (a, b) = (a % n, b % n);
                if a == b { continue; }
                let key = (a.min(b), a.max(b));
                if insert {
                    prop_assert_eq!(packed.set(a, b), reference.insert(key));
                } else {
                    prop_assert_eq!(packed.clear(a, b), reference.remove(&key));
                }
            }
            prop_assert_eq!(packed.count_ones(), reference.len());
            for i in 0..n {
                for j in (i + 1)..n {
                    prop_assert_eq!(packed.test(i, j), reference.contains(&(i, j)));
                }
                let mut row = Vec::new();
                packed.for_each_in_row(i, |z| row.push(z));
                let mut expected: Vec<usize> = (0..n)
                    .filter(|&z| z != i && reference.contains(&(i.min(z), i.max(z))))
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(row, expected);
            }
        }

        #[test]
        fn row_intersects_matches_scalar_scan(
            n in 2usize..50,
            pairs in proptest::collection::vec((0usize..50, 0usize..50), 0..120),
            members in proptest::collection::vec(0usize..50, 0..20),
            i in 0usize..50,
        ) {
            let i = i % n;
            let mut s = PairBitset::new(n);
            for (a, b) in pairs {
                let (a, b) = (a % n, b % n);
                if a != b {
                    s.set(a, b);
                }
            }
            let mut mask = BitRow::new(n);
            for m in members {
                mask.set(m % n);
            }
            let naive = (0..n).any(|z| z != i && mask.test(z) && s.test(i, z));
            prop_assert_eq!(s.row_intersects(i, &mask), naive);
        }

        #[test]
        fn bitrow_matches_bool_vec(
            len in 1usize..200,
            ops in proptest::collection::vec((0usize..200, 0u8..2), 0..300)
        ) {
            let mut row = BitRow::new(len);
            let mut reference = vec![false; len];
            for (i, op) in ops {
                let insert = op == 0;
                let i = i % len;
                if insert {
                    prop_assert_eq!(row.set(i), !reference[i]);
                    reference[i] = true;
                } else {
                    prop_assert_eq!(row.clear(i), reference[i]);
                    reference[i] = false;
                }
            }
            prop_assert_eq!(row.count_ones(), reference.iter().filter(|&&b| b).count());
            let expected: Vec<usize> =
                (0..len).filter(|&i| reference[i]).collect();
            prop_assert_eq!(row.ones(), expected);
            prop_assert_eq!(row.any(), reference.iter().any(|&b| b));
        }
    }
}
