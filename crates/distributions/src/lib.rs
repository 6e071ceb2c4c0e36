//! Equivalence-class size distributions and their analysis.
//!
//! Section 4 of the paper studies equivalence class sorting when the class of
//! each element is drawn independently from a known distribution `D` over a
//! countable set of classes. The paper works with four concrete families —
//! discrete uniform, geometric, Poisson, and zeta — and with two derived
//! distributions:
//!
//! * `D_N`, the *rank* distribution: classes renumbered `0, 1, 2, …` from most
//!   likely to least likely;
//! * `D_N(n)`, the rank distribution *cut off* at `n`: all tail mass
//!   `Pr[rank ≥ n]` is piled onto the single value `n`.
//!
//! Theorem 7 bounds the comparisons of the round-robin algorithm by twice the
//! sum of `n` draws from `D_N(n)`; Theorems 8–9 instantiate that bound for the
//! concrete families. This crate implements the distributions, their samplers,
//! the rank/cut-off constructions, and the tail bounds used in those theorems,
//! so the experiments of Section 5 can be regenerated and checked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class_distribution;
pub mod cutoff;
mod inversion;
pub mod poisson;
pub mod tail_bounds;
pub mod zeta;

pub use class_distribution::{
    ClassDistribution, DistributionKind, GeometricClasses, PoissonClasses, UniformClasses,
    ZetaClasses,
};
pub use cutoff::{CutoffDistribution, RankDistribution};
pub use zeta::riemann_zeta;

use ecs_rng::EcsRng;

/// Samples class labels for `n` elements, each drawn independently from the
/// given distribution. The returned labels are raw class indices (not ranks).
pub fn sample_labels<D: ClassDistribution, R: EcsRng + ?Sized>(
    dist: &D,
    n: usize,
    rng: &mut R,
) -> Vec<usize> {
    dist.sample_classes(n, rng)
}

/// Counts how many elements landed in each class, returning a dense map from
/// class index to count (indices never observed are absent).
pub fn class_histogram(labels: &[usize]) -> std::collections::BTreeMap<usize, usize> {
    let mut hist = std::collections::BTreeMap::new();
    for &label in labels {
        *hist.entry(label).or_insert(0usize) += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};

    #[test]
    fn sample_labels_length_and_histogram_total() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let dist = UniformClasses::new(5);
        let labels = sample_labels(&dist, 1000, &mut rng);
        assert_eq!(labels.len(), 1000);
        let hist = class_histogram(&labels);
        assert_eq!(hist.values().sum::<usize>(), 1000);
        assert!(hist.keys().all(|&k| k < 5));
    }

    #[test]
    fn histogram_of_empty_labels_is_empty() {
        assert!(class_histogram(&[]).is_empty());
    }
}
