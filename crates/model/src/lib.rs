//! The Valiant parallel comparison model for equivalence class sorting.
//!
//! The paper measures algorithms in Valiant's parallel comparison model: an
//! algorithm proceeds in synchronous rounds, each round performs at most `p`
//! pairwise equivalence tests (`p = n` processors throughout the paper), and
//! *only comparisons are charged* — all bookkeeping between rounds is free.
//! Two read disciplines are studied:
//!
//! * **exclusive-read (ER)** — an element may take part in at most one
//!   comparison per round (the agents themselves shake hands);
//! * **concurrent-read (CR)** — an element may appear in any number of
//!   comparisons per round.
//!
//! This crate supplies everything an algorithm needs to be charged correctly:
//!
//! * [`Instance`] — a hidden ground-truth assignment of elements to classes,
//!   generated from explicit sizes, a target class count, or one of the
//!   distributions of Section 4.
//! * [`Partition`] — the canonical representation of a (claimed or true)
//!   classification, with equality testing.
//! * [`EquivalenceOracle`] — the only window an algorithm has onto the truth,
//!   with a batched [`EquivalenceOracle::same_batch`] request-wave path for
//!   oracles whose cost is dominated by per-request overhead.
//! * [`ExecutionBackend`] — where comparisons physically run: sequentially
//!   on the calling thread, sharded across a work-stealing pool of OS
//!   threads, or submitted as `same_batch` waves
//!   ([`ExecutionBackend::Batched`]); [`ExecutionBackend::auto`] is the
//!   sequential one. Answers are always collected in submission order.
//! * [`ComparisonSession`] — counts comparisons and rounds, enforces the ER /
//!   CR disciplines and the processor budget, and evaluates large comparison
//!   batches through the selected [`ExecutionBackend`].
//! * [`ThroughputPool`] — multi-session throughput mode: many independent
//!   `(instance, algorithm, backend)` jobs drained through the one shared
//!   pool with round-robin fairness across sessions, per-job metrics
//!   isolation, and results bit-identical to the serial loop; the `try_run`
//!   paths add per-job fault isolation and `spawn` feeds detached daemon
//!   jobs into the same FIFO discipline.
//! * [`CancellableOracle`] / [`CancellationToken`] — cooperative
//!   cancellation delivered through the oracle, checked at round boundaries
//!   and queries on every backend.
//! * [`schedule`] — helpers that decompose arbitrary comparison sets into
//!   legal ER rounds (greedy edge colouring).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batching;
pub mod cancellation;
pub mod instance;
pub mod metrics;
pub mod oracle;
pub mod partition;
pub mod schedule;
pub mod session;
pub mod throughput;
pub mod transcript;

pub use backend::ExecutionBackend;
pub use cancellation::{CancellableOracle, CancellationToken, Cancelled};
pub use instance::Instance;
pub use metrics::{Metrics, PlanStats, RoundSizeHistogram};
pub use oracle::{EquivalenceOracle, InstanceOracle, LabelOracle};
pub use partition::Partition;
pub use session::{ComparisonSession, ReadMode};
pub use throughput::ThroughputPool;
pub use transcript::{RecordingOracle, Transcript};
