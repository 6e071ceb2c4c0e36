//! Splitting a single seed into many independent, reproducible streams.

use crate::{SeedableEcsRng, SplitMix64, Xoshiro256StarStar};

/// A factory that hands out decorrelated generators for numbered streams.
///
/// Experiments are parameterised by `(seed, trial, size, ...)`; every such
/// coordinate tuple must map to its own reproducible generator so that adding
/// or removing one configuration never perturbs any other. `StreamSplit`
/// hashes the coordinates through SplitMix64-derived seeds and produces a
/// fresh [`Xoshiro256StarStar`] per stream.
///
/// # Example
///
/// ```
/// use ecs_rng::{EcsRng, StreamSplit};
///
/// let split = StreamSplit::new(2016);
/// let mut trial0 = split.stream(&[0]);
/// let mut trial1 = split.stream(&[1]);
/// assert_ne!(trial0.next_u64(), trial1.next_u64());
///
/// // Streams are a pure function of (seed, coordinates).
/// let mut again = StreamSplit::new(2016).stream(&[0]);
/// assert_eq!(StreamSplit::new(2016).stream(&[0]).next_u64(), again.next_u64());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StreamSplit {
    root: SplitMix64,
}

impl StreamSplit {
    /// Creates a splitter rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            root: SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Derives the `u64` seed for the stream addressed by `coords`.
    pub fn seed_for(&self, coords: &[u64]) -> u64 {
        let mut acc = self.root;
        let mut seed = acc.derive(coords.len() as u64);
        for (level, &c) in coords.iter().enumerate() {
            acc = SplitMix64::new(seed ^ c.rotate_left((level as u32 * 7) % 64));
            seed = acc.derive(c);
        }
        seed
    }

    /// Returns a fresh generator for the stream addressed by `coords`.
    pub fn stream(&self, coords: &[u64]) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(self.seed_for(coords))
    }

    /// Convenience: a stream addressed by a single index.
    pub fn stream_indexed(&self, index: u64) -> Xoshiro256StarStar {
        self.stream(&[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EcsRng;

    #[test]
    fn streams_are_reproducible() {
        let a = StreamSplit::new(1).stream(&[3, 5, 7]).next_u64();
        let b = StreamSplit::new(1).stream(&[3, 5, 7]).next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn different_coords_different_streams() {
        let split = StreamSplit::new(42);
        let mut seeds = std::collections::HashSet::new();
        for i in 0..50u64 {
            for j in 0..20u64 {
                seeds.insert(split.seed_for(&[i, j]));
            }
        }
        assert_eq!(
            seeds.len(),
            1000,
            "coordinate tuples must map to distinct seeds"
        );
    }

    #[test]
    fn coordinate_order_matters() {
        let split = StreamSplit::new(9);
        assert_ne!(split.seed_for(&[1, 2]), split.seed_for(&[2, 1]));
    }

    #[test]
    fn prefix_is_not_a_collision() {
        let split = StreamSplit::new(9);
        assert_ne!(split.seed_for(&[1]), split.seed_for(&[1, 0]));
    }

    #[test]
    fn different_root_seeds_differ() {
        assert_ne!(
            StreamSplit::new(1).seed_for(&[0]),
            StreamSplit::new(2).seed_for(&[0])
        );
    }

    #[test]
    fn indexed_stream_matches_slice_form() {
        let split = StreamSplit::new(77);
        assert_eq!(
            split.stream_indexed(5).next_u64(),
            split.stream(&[5]).next_u64()
        );
    }
}
