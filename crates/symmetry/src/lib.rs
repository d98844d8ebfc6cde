//! # arcade-symmetry — isomorphic-subtree symmetry for Arcade structures
//!
//! Compositional lumping (the `arcade-lumping` crate) exploits the
//! interchangeability of *sibling leaves*: identical components under one
//! symmetric gate can be permuted without changing any measure, so only their
//! status multiset matters. This crate generalises that observation from
//! leaves to whole **subtrees** and from one chain to **products of chains**:
//!
//! * [`code`] computes AHU-style canonical codes for attributed structure
//!   trees: two subtrees carry the same code iff they are isomorphic as
//!   attributed trees (same gates, same leaf attributes — rates, costs,
//!   repair-unit identity, dispatch priority, spare involvement). All Arcade
//!   gates are symmetric functions of their children, so child codes are
//!   sorted before hashing.
//! * [`orbit`] supplies the tuple-level orbit machinery for products of
//!   interchangeable factors: canonical (sorted) tuples, orbit counting via
//!   the multiset closed form, and deterministic representative enumeration.
//! * [`chain`] fingerprints labelled CTMCs so a product layer can recognise
//!   factors that are interchangeable *as chains* (identical presentations —
//!   the sound, deterministic under-approximation of chain isomorphism that
//!   the deterministic composer actually produces for isomorphic models).
//!
//! The quotients induced by these orbits are ordinarily lumpable — the
//! permutations are chain automorphisms — so every measure evaluated on orbit
//! representatives equals its unreduced counterpart exactly (up to solver
//! tolerance). The consumers are `arcade_core::families` (subtree orbit
//! families explored directly by the canonical frontier) and
//! `arcade_lumping::product` (sorted-tuple folding of interchangeable product
//! factors before materialisation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod code;
pub mod orbit;

pub use chain::{chain_presentation_code, chains_identical, group_identical_chains};
pub use code::{subtree_code, CanonicalCode, LeafAttributes};
pub use orbit::{canonical_tuple, for_each_multiset, orbit_count, FactorClasses};
