//! Parallel equivalence class sorting algorithms.
//!
//! This crate implements the contribution of *Parallel Equivalence Class
//! Sorting: Algorithms, Lower Bounds, and Distribution-Based Analysis*
//! (Devanny, Goodrich, Jetviroj; SPAA 2016):
//!
//! * [`CrCompoundMerge`] — the concurrent-read algorithm of **Theorem 1**,
//!   solving ECS in `O(k + log log n)` comparison rounds with `n` processors
//!   via the two-phased compounding-comparison technique.
//! * [`ErMergeSort`] — the exclusive-read algorithm of **Theorem 2**, solving
//!   ECS in `O(k log n)` rounds by repeated pairwise merging with bipartite
//!   round-robin schedules.
//! * [`ErConstantRound`] — the exclusive-read algorithm of **Theorem 4**,
//!   solving ECS in `O(1)` rounds when the smallest class has size at least
//!   `λn`, by testing the edges of a union of random Hamiltonian cycles and
//!   then pivoting on the large components it induces; whatever its one
//!   attempt leaves goes to an er-merge finish that asks no settled pair.
//! * Sequential baselines: [`RoundRobin`] (the algorithm of Jayapaul et al.
//!   that Sections 4–5 analyse under class-size distributions),
//!   [`RepresentativeScan`] (compare against one representative per known
//!   class), and [`NaiveAllPairs`] (the brute-force test oracle).
//!
//! Every algorithm runs against an [`ecs_model::EquivalenceOracle`] through an
//! [`ecs_model::ComparisonSession`], which enforces the exclusive-read /
//! concurrent-read disciplines and counts comparisons and rounds in Valiant's
//! parallel comparison model. Round evaluation is pluggable: pass an
//! [`ecs_model::ExecutionBackend`] to [`EcsAlgorithm::sort_with_backend`] to
//! evaluate large rounds as shards on a pool of OS threads; partitions
//! and metrics are bit-identical across backends.
//!
//! # Quick start
//!
//! ```
//! use ecs_core::{CrCompoundMerge, EcsAlgorithm};
//! use ecs_model::{Instance, InstanceOracle};
//! use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(2016);
//! let instance = Instance::balanced(1_000, 8, &mut rng);
//! let oracle = InstanceOracle::new(&instance);
//!
//! let run = CrCompoundMerge::new(8).sort(&oracle);
//! assert!(instance.verify(&run.partition));
//! println!(
//!     "classified {} elements into {} classes in {} rounds ({} comparisons)",
//!     instance.n(),
//!     run.partition.num_classes(),
//!     run.metrics.rounds(),
//!     run.metrics.comparisons()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answer;
pub mod parallel;
pub mod run;
pub mod sequential;

pub use parallel::constant_round::ErConstantRound;
pub use parallel::cr_compound::CrCompoundMerge;
pub use parallel::er_merge::ErMergeSort;
pub use run::{EcsAlgorithm, EcsRun};
pub use sequential::naive::NaiveAllPairs;
pub use sequential::representative_scan::RepresentativeScan;
pub use sequential::round_robin::RoundRobin;
