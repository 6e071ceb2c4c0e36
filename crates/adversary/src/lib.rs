//! Lower-bound adversaries for equivalence class sorting (Section 3 of the
//! paper).
//!
//! The paper proves two improved lower bounds with a coloring adversary:
//!
//! * **Theorem 5** — if every equivalence class has the same size `f`, any
//!   algorithm needs `Ω(n²/f)` equivalence tests (improving the `Ω(n²/f²)`
//!   bound of Jayapaul et al.);
//! * **Theorem 6** — finding one element of the smallest class, of size `ℓ`,
//!   needs `Ω(n²/ℓ)` tests (improving `Ω(n²/ℓ²)`).
//!
//! The adversary maintains a weighted equitable coloring of the algorithm's
//! knowledge graph: vertices are the groups discovered so far (weights are
//! group sizes), color classes are the eventual equivalence classes, and an
//! edge joins two vertices that were answered "not equal". Unmarked elements
//! are kept flexible — when an algorithm probes two same-colored unmarked
//! elements the adversary tries to *swap* one of them with an unrelated
//! unmarked vertex so it can keep answering "not equal"; only when an element
//! has accumulated high degree (`> n/4f`) or its color class has run out of
//! swap partners does the adversary mark it and commit. Lemma 3 converts a
//! count of marked elements into the comparison lower bound.
//!
//! Both adversaries run the **round-commit protocol** of [`round_commit`]:
//! when a comparison round opens, its pairs are replayed in canonical pair
//! order against the committed round-start state, merging their swap/mark
//! intents into one deterministic commit and pinning every pair's answer in
//! a plan; queries during the round are served from the plan. On the calling
//! thread a round arrives as one `same_batch` call, served from the plan
//! under one lock; on the pool its pairs arrive as scalar `same` calls in
//! any order. Answers do not depend on which, or on which OS thread asked
//! first, so the adversaries are bit-identical across
//! [`ecs_model::ExecutionBackend::Sequential`] and
//! [`ecs_model::ExecutionBackend::Threaded`], and inside
//! [`ecs_model::ThroughputPool`] jobs.
//!
//! This crate implements the adversaries as [`ecs_model::EquivalenceOracle`]s
//! so any algorithm from `ecs-core` can be run against them, plus helpers
//! that report the paper's bound for the chosen parameters so benchmark
//! tables can print "measured vs. `n²/(64f)`" side by side.
//!
//! The adversary state lives on the **packed bitset substrate** of
//! [`ecs_graph::bitset`] — the known-unequal relation is one bit per
//! unordered pair, marks and class filters are bit rows, and round plans
//! are packed triangles. The pre-bitset pointer implementation is retained
//! verbatim in [`legacy`]; the parity suite in `tests/substrate_parity.rs`
//! pins the two substrates bit-for-bit against each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core_state;
pub mod equal_size;
pub mod legacy;
pub mod round_commit;
pub mod search;
pub mod smallest_class;

pub use core_state::{AdversaryCore, AdversaryState, Mark};
pub use equal_size::EqualSizeAdversary;
pub use legacy::{LegacyAdversary, LegacyCore};
pub use round_commit::{RoundCommit, PACKED_PLAN_MAX_N};
pub use search::{SearchReport, SmallestClassSearch};
pub use smallest_class::SmallestClassAdversary;

use ecs_model::{EquivalenceOracle, Partition};

/// The interface the lower-bound experiment runners drive: either Section 3
/// adversary, seen uniformly as "an adaptive oracle with a paper bound".
pub trait LowerBoundAdversary: EquivalenceOracle {
    /// The bound's size parameter (`f` for Theorem 5, `ℓ` for Theorem 6).
    fn parameter(&self) -> usize;

    /// Comparisons the algorithm has been forced to perform so far.
    fn comparisons(&self) -> u64;

    /// Number of elements the adversary was forced to mark.
    fn marked_elements(&self) -> usize;

    /// Number of color swaps the adversary used to stay non-committal (a
    /// diagnostic of the swap/mark heuristic, pinned by the golden suite).
    fn swaps(&self) -> u64;

    /// The paper's lower bound with Lemma 3's explicit constant
    /// (`n²/(64f)` / `n²/(64ℓ)`).
    fn paper_lower_bound(&self) -> u64;

    /// The older bound the paper improves on (`n²/(64f²)` / `n²/(64ℓ²)`).
    fn previous_lower_bound(&self) -> u64;

    /// The partition the adversary has committed to.
    fn partition(&self) -> Partition;
}
