//! # parallel-ecs
//!
//! A reproduction of *Parallel Equivalence Class Sorting: Algorithms, Lower
//! Bounds, and Distribution-Based Analysis* (Devanny, Goodrich, Jetviroj;
//! SPAA 2016) as a Rust workspace.
//!
//! The **equivalence class sorting (ECS)** problem: `n` elements belong to `k`
//! hidden equivalence classes; the only operation is a pairwise test that
//! reveals whether two elements share a class (a "secret handshake"). Classify
//! every element using few total comparisons and few parallel comparison
//! rounds in Valiant's model.
//!
//! This facade crate re-exports the workspace members so applications can use
//! a single dependency:
//!
//! * [`rng`] — deterministic PRNG substrate ([`ecs_rng`]).
//! * [`graph`] — union-find, packed bitsets, Hamiltonian-cycle unions
//!   ([`ecs_graph`]).
//! * [`distributions`] — the class-size distributions of Section 4
//!   ([`ecs_distributions`]).
//! * [`model`] — instances, oracles, and the Valiant comparison-model cost
//!   accounting ([`ecs_model`]).
//! * [`algorithms`] — the paper's parallel algorithms and sequential baselines
//!   ([`ecs_core`]).
//! * [`adversary`] — the Section 3 lower-bound adversaries ([`ecs_adversary`]).
//! * [`analysis`] — statistics, regression, and the Section 5 experiment
//!   runners ([`ecs_analysis`]).
//! * [`service`] — equivalence-sorting as a service: the async session
//!   daemon over the throughput pool ([`ecs_service`]).
//!
//! # Example
//!
//! ```
//! use parallel_ecs::prelude::*;
//!
//! // 1 000 conference attendees in 8 secret parties.
//! let mut rng = Xoshiro256StarStar::seed_from_u64(7);
//! let instance = Instance::balanced(1_000, 8, &mut rng);
//! let oracle = InstanceOracle::new(&instance);
//!
//! // Classify them in O(k + log log n) concurrent-read rounds.
//! let run = CrCompoundMerge::new(8).sort(&oracle);
//! assert!(instance.verify(&run.partition));
//! assert!(run.metrics.rounds() < 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ecs_adversary as adversary;
pub use ecs_analysis as analysis;
pub use ecs_core as algorithms;
pub use ecs_distributions as distributions;
pub use ecs_graph as graph;
pub use ecs_model as model;
pub use ecs_rng as rng;
pub use ecs_service as service;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ecs_adversary::{
        EqualSizeAdversary, LowerBoundAdversary, SearchReport, SmallestClassAdversary,
        SmallestClassSearch,
    };
    pub use ecs_analysis::{
        dominance_experiment, figure5_series, DominanceConfig, Figure5Config, LinearFit, Summary,
        Table,
    };
    pub use ecs_core::{
        CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
        RepresentativeScan, RoundRobin,
    };
    pub use ecs_distributions::{
        class_distribution::AnyDistribution, ClassDistribution, CutoffDistribution,
        GeometricClasses, PoissonClasses, UniformClasses, ZetaClasses,
    };
    pub use ecs_graph::{HamiltonianUnion, UnionFind};
    pub use ecs_model::{
        ComparisonSession, EquivalenceOracle, ExecutionBackend, Instance, InstanceOracle,
        LabelOracle, Metrics, Partition, PlanStats, ReadMode, RecordingOracle, RoundSizeHistogram,
        ThroughputPool, Transcript,
    };
    pub use ecs_rng::{EcsRng, SeedableEcsRng, SplitMix64, StreamSplit, Xoshiro256StarStar};
    pub use ecs_service::{Client, Daemon, DaemonConfig, JobSpec, Request, Response};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let instance = Instance::balanced(60, 3, &mut rng);
        let oracle = InstanceOracle::new(&instance);
        let run = ErMergeSort::new().sort(&oracle);
        assert!(instance.verify(&run.partition));
    }
}
