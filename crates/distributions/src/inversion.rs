//! Exact table lookup for inversion samplers.
//!
//! The geometric and zeta samplers map a uniform `u ∈ (0, 1)` to a class
//! through a libm formula whose answer, `⌊g(u)⌋`, falls as `u` rises: the
//! answer is at least `i` exactly when `u` lies at or below a threshold
//! `t_i` (`t_i = p^i` for the geometric, `(1 + i)^{−(s−1)}` for the zeta).
//! A [`Thresholds`] table holds `t_0 = 1 > t_1 > … > t_m` and answers a draw
//! only when `u` sits clear of every threshold by a relative [`GUARD`] band.
//! The band is about 2²² units in the last place of `u`, while libm's `pow`,
//! `exp` and `ln` are accurate to about one unit, so an answer read outside
//! the bands is the one the formula would give; inside a band, or past
//! `t_m`, the lookup declines and the sampler evaluates its formula.
//!
//! Tables are built once per parameter and kept in a bounded [`TableMemo`],
//! so small instances pay one hash lookup rather than a table build.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Relative half-width of the band around each threshold inside which a
/// lookup declines: 2⁻³⁰.
pub(crate) const GUARD: f64 = 1.0 / (1u64 << 30) as f64;

/// Most thresholds a table holds past `t_0`.
const MAX_THRESHOLDS: usize = 256;

/// A threshold below this cannot be reached: every `f64_open` draw is at
/// least 2⁻⁵³, and 2⁻⁶⁰ lies far below that and its band.
const UNREACHABLE: f64 = 1.0 / (1u64 << 60) as f64;

/// Buckets of the guide table that picks where a lookup's scan starts.
const BUCKETS: usize = 1024;

/// The banded thresholds `t_0 = 1 > t_1 > … > t_m` of one inversion formula.
pub(crate) struct Thresholds {
    /// `lo[0] = +∞`, `lo[i + 1] = t_i (1 − GUARD)`, then a closing `0.0`.
    lo: Box<[f64]>,
    /// `hi[i] = t_i (1 + GUARD)`, then a closing `+∞`.
    hi: Box<[f64]>,
    /// `guide[j]`: the last position `q` with `lo[q] ≥ (j + 1) / BUCKETS`,
    /// so every `u` in bucket `j` lies below `lo[guide[j]]`.
    guide: Box<[u16]>,
}

impl Thresholds {
    /// Builds the table for `t_1 > t_2 > …` (`t_0 = 1` is implied). Stops
    /// early at the first threshold that is not below its predecessor, is
    /// not finite, or is unreachable (after including it).
    pub(crate) fn new(rest: impl IntoIterator<Item = f64>) -> Self {
        let mut thresholds = vec![1.0];
        for t in rest.into_iter().take(MAX_THRESHOLDS) {
            if !(t.is_finite() && t >= 0.0 && t < thresholds[thresholds.len() - 1]) {
                break;
            }
            thresholds.push(t);
            if t < UNREACHABLE {
                break;
            }
        }
        let lo: Box<[f64]> = std::iter::once(f64::INFINITY)
            .chain(thresholds.iter().map(|t| t * (1.0 - GUARD)))
            .chain(std::iter::once(0.0))
            .collect();
        let hi = thresholds
            .iter()
            .map(|t| t * (1.0 + GUARD))
            .chain(std::iter::once(f64::INFINITY))
            .collect();
        let mut guide = vec![0u16; BUCKETS];
        let mut q = 0;
        for j in (0..BUCKETS).rev() {
            let top = (j + 1) as f64 / BUCKETS as f64;
            while lo[q + 1] >= top {
                q += 1;
            }
            guide[j] = u16::try_from(q).expect("a table holds at most 258 positions");
        }
        Self {
            lo,
            hi,
            guide: guide.into(),
        }
    }

    /// How many answers the table can give (`m` for `t_0 … t_m`).
    pub(crate) fn len(&self) -> usize {
        self.hi.len() - 2
    }

    /// `t_i` as built, for `i ≤ m`.
    #[cfg(test)]
    pub(crate) fn threshold(&self, i: usize) -> f64 {
        self.hi[i] / (1.0 + GUARD)
    }

    /// The `i` with `t_{i+1} (1 + GUARD) < u < t_i (1 − GUARD)`, if any: the
    /// formula's answer for `u ∈ (0, 1)`, or `None` when `u` lies in a band
    /// or below `t_m`.
    #[inline]
    pub(crate) fn lookup(&self, u: f64) -> Option<usize> {
        // `u < 1`, so the bucket is below BUCKETS; `u > 0` stops the scan
        // at the closing 0.0 at the latest.
        let mut q = usize::from(self.guide[(u * BUCKETS as f64) as usize]);
        while u < self.lo[q + 1] {
            q += 1;
        }
        // Now t_q (1 − GUARD) ≤ u < t_{q−1} (1 − GUARD). `hi[0] > 1` and
        // the closing +∞ turn the two ends (the band at 1, and u past t_m)
        // into a decline.
        (u > self.hi[q]).then(|| q - 1)
    }
}

impl fmt::Debug for Thresholds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Thresholds")
            .field("answers", &(self.hi.len() - 2))
            .finish_non_exhaustive()
    }
}

/// Distinct parameters one [`TableMemo`] keeps tables for. Served jobs
/// choose their parameters, so the memo must not grow with what clients
/// send; each table is a few kilobytes.
const TABLE_MEMO_CAPACITY: usize = 128;

/// Tables built once per parameter (keyed by its bits) and kept for the
/// life of the process, for the first [`TABLE_MEMO_CAPACITY`] parameters.
pub(crate) struct TableMemo<T: 'static> {
    tables: OnceLock<Mutex<HashMap<u64, &'static T>>>,
}

impl<T: Sync> TableMemo<T> {
    /// An empty memo.
    pub(crate) const fn new() -> Self {
        Self {
            tables: OnceLock::new(),
        }
    }

    /// The table for `key`, built by `build` on first use, or `None` once
    /// the memo is full and holds no table for `key` (the sampler then uses
    /// its formula alone). The build runs under the lock, so no table is
    /// built twice; that happens at most once per kept parameter.
    pub(crate) fn get(&self, key: u64, build: impl FnOnce() -> T) -> Option<&'static T> {
        let tables = self.tables.get_or_init(|| Mutex::new(HashMap::new()));
        // Every update is a single insert, so a poisoned map is still valid.
        let mut tables = tables.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&table) = tables.get(&key) {
            return Some(table);
        }
        if tables.len() >= TABLE_MEMO_CAPACITY {
            return None;
        }
        // Kept for the life of the process, like every memo entry.
        let table: &'static T = Box::leak(Box::new(build()));
        tables.insert(key, table);
        Some(table)
    }

    /// How many tables the memo holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.tables.get().map_or(0, |tables| {
            tables.lock().unwrap_or_else(PoisonError::into_inner).len()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The position of `u` among `thresholds` by a plain scan, with the same
    /// band rule as [`Thresholds::lookup`].
    fn reference(thresholds: &Thresholds, u: f64) -> Option<usize> {
        let m = thresholds.len();
        let t = |i: usize| thresholds.threshold(i);
        let clear = |i: usize| u < t(i) * (1.0 - GUARD) || u > t(i) * (1.0 + GUARD);
        let below_all = (0..=m).filter(|&i| u <= t(i)).count();
        (below_all >= 1 && below_all <= m && (0..=m).all(clear)).then(|| below_all - 1)
    }

    #[test]
    fn lookups_match_a_plain_scan_on_a_dense_grid() {
        let tables = [
            Thresholds::new((1..).map(|i| 0.9f64.powi(i))),
            Thresholds::new((1..).map(|i| ((1 + i) as f64).powf(-0.1))),
            Thresholds::new((1..).map(|i| ((1 + i) as f64).powf(-3.0))),
            Thresholds::new([0.5, 1e-30]),
        ];
        for table in &tables {
            for k in 1..20_000 {
                let u = k as f64 / 20_000.0;
                assert_eq!(table.lookup(u), reference(table, u), "u = {u}");
            }
        }
    }

    #[test]
    fn a_lookup_declines_inside_every_band_and_answers_just_outside() {
        let table = Thresholds::new((1..).map(|i| 0.7f64.powi(i)));
        for i in 1..=table.len() {
            let t = table.threshold(i);
            if t < UNREACHABLE {
                continue;
            }
            for inside in [t, t * (1.0 + GUARD / 2.0), t * (1.0 - GUARD / 2.0)] {
                assert_eq!(table.lookup(inside), None, "t_{i}");
            }
            assert_eq!(table.lookup(t * (1.0 + 2.0 * GUARD)), Some(i - 1));
            assert_eq!(table.lookup(t * (1.0 - 2.0 * GUARD)), Some(i));
        }
        assert_eq!(
            table.lookup(1.0 - f64::EPSILON / 2.0),
            None,
            "the band at 1"
        );
    }

    #[test]
    fn building_stops_at_the_first_unreachable_or_unordered_threshold() {
        assert_eq!(Thresholds::new((1..).map(|i| 0.5f64.powi(i))).len(), 61);
        assert_eq!(Thresholds::new([0.5, 0.6, 0.1]).len(), 1);
        assert_eq!(Thresholds::new([0.5, f64::NAN]).len(), 1);
        assert_eq!(
            Thresholds::new((1..).map(|i| 0.999f64.powi(i))).len(),
            MAX_THRESHOLDS
        );
    }

    #[test]
    fn the_memo_builds_once_and_stops_at_its_capacity() {
        static MEMO: TableMemo<u64> = TableMemo::new();
        let mut builds = 0;
        for key in 0..TABLE_MEMO_CAPACITY as u64 + 8 {
            for _ in 0..2 {
                let table = MEMO.get(key, || {
                    builds += 1;
                    key
                });
                assert_eq!(
                    table.copied(),
                    (key < TABLE_MEMO_CAPACITY as u64).then_some(key)
                );
            }
        }
        assert_eq!(builds, TABLE_MEMO_CAPACITY);
        assert_eq!(MEMO.len(), TABLE_MEMO_CAPACITY);
    }
}
