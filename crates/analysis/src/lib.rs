//! Statistics, regression, and experiment running for the reproduction of the
//! paper's Section 5 experiments.
//!
//! The paper's experimental section runs the round-robin algorithm of
//! Jayapaul et al. on inputs whose class sizes are drawn from uniform,
//! geometric, Poisson, and zeta distributions, plots total comparisons against
//! `n`, and fits least-squares lines wherever Section 4 proves linear
//! behaviour. This crate supplies the statistical machinery (summary
//! statistics, least-squares fits with `R²`), the experiment runners that
//! regenerate each panel of Figure 5 and the Theorem 7 dominance check, and
//! plain-text/CSV/Markdown rendering for the benchmark binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod regression;
pub mod report;
pub mod stats;

pub use experiment::{
    dominance_experiment, dominance_grid, figure5_grid, figure5_series, DominanceConfig,
    DominanceResult, Figure5Config, Figure5Point, Figure5Series,
};
pub use regression::LinearFit;
pub use report::Table;
pub use stats::Summary;
