//! Graph substrate for parallel equivalence class sorting.
//!
//! The constant-round ER algorithm of the paper (Theorem 4) tests the edges of
//! `H_d`, a union of `d` random Hamiltonian cycles, and then works with the
//! strongly connected components induced by same-class edges. Same-class
//! answers are symmetric, so those components are the classes of a
//! [`UnionFind`] over the equal edges, and no directed-graph code is needed.
//! This crate provides those building blocks:
//!
//! * [`UnionFind`] — disjoint sets with union by size and path compression,
//!   the bookkeeping structure used to aggregate discovered equivalences.
//! * [`bitset`] — the packed substrates: [`PairBitset`], one bit per
//!   unordered pair in a flat upper-triangular word array, and [`BitRow`],
//!   a flat per-element bit set. The adversary knowledge graph, the
//!   union-find class views, and the word-parallel `same_row` oracle path
//!   are all built on these.
//! * [`HamiltonianUnion`] — the `H_d` construction together with its
//!   decomposition into exclusive-read comparison rounds, and [`Fragments`],
//!   the packed view of the components a tested `H_d` induces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod hamiltonian;
pub mod union_find;

pub use bitset::{coord_to_idx, BitRow, PairBitset};
pub use hamiltonian::{Fragments, HamiltonianUnion};
pub use union_find::UnionFind;
