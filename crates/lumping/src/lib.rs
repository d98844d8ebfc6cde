//! # arcade-lumping — exact (ordinary) lumping of labelled CTMCs
//!
//! The DSN 2010 Arcade paper keeps its water-treatment CTMCs tractable through
//! *compositional aggregation*: behaviourally equivalent states are merged
//! before the numerical solvers run. This crate supplies that reduction for
//! the explicit state spaces produced by the composer: it computes the
//! **coarsest ordinarily-lumpable partition** refining a user-supplied initial
//! partition, and builds the quotient chain together with the block ↔ state
//! maps needed to project measures back to the original model.
//!
//! # Algorithm
//!
//! The engine is a weight-based partition refinement in the style of
//! Valmari & Franceschinis (*Simple O(m log n) Time Markov Chain Lumping*,
//! TACAS 2010) and Derisavi, Hermanns & Sanders, without the splay trees of
//! the latter:
//!
//! 1. Start from the initial partition (for Arcade models: states grouped by
//!    atomic propositions, service level and reward rate) and put every block
//!    on a worklist of potential *splitters*.
//! 2. Pop a splitter block `C` and weight the states with generator
//!    semantics: a state `s ∉ C` by its cumulative rate into the splitter,
//!    `w(s, C) = Σ_{u ∈ C} R(s, u)` (over the transposed rate matrix), and a
//!    member `s ∈ C` by `−Σ_{u ∉ C} R(s, u)`, i.e. minus its rate *leaving*
//!    the splitter — ordinary lumpability does not constrain intra-block
//!    rates, and weighing members by raw rates into their own block would
//!    over-split. To keep the grouping exact under floating-point addition,
//!    the per-state contributions are sorted before summation, so symmetric
//!    states get bit-identical weights.
//! 3. Split every block containing a touched state into its subgroups of
//!    equal weight (states with no edge across the splitter boundary form
//!    the weight-zero subgroup). For each split, the largest subblock keeps
//!    the parent's identity and every other subblock joins the worklist
//!    (Hopcroft's "process the smaller half" rule, which bounds the total
//!    work by `O(m log n)`; moving touched states out of their block keeps
//!    each split proportional to the touched states, not the block).
//! 4. When the worklist runs dry, the partition is stable: all states of a
//!    block have identical cumulative rates into every *other* block. The
//!    quotient CTMC is read off a representative of each block.
//!
//! For an ordinarily lumpable partition the aggregated process is a Markov
//! chain for *every* initial distribution, so transient, steady-state, reward
//! and time-bounded-reachability measures evaluated on the quotient coincide
//! with the flat chain exactly (up to solver tolerance). The
//! [`LumpedCtmc::verify`] method re-checks stability directly and is used by
//! the property-test suites.
//!
//! The [`subchain`] module supplies the *compositional* counterpart: the
//! per-family sub-chain quotients (canonical role assignments and multiset
//! block counts) that a composer can aggregate **before** taking the cross
//! product, so the flat chain never needs to exist in the first place.
//!
//! The [`product`] module closes the loop at the system level: a lumped CTMC
//! is itself a composable component. [`QuotientProduct`] forms the joint
//! chain of independent sub-models (states as tuples of block ids, generator
//! as the Kronecker sum) either materialised or as a matrix-free
//! [`KroneckerSum`] operator for the exec SpMV kernels.
//!
//! # Example
//!
//! Two parallel, identical, independently repaired pumps: the four flat states
//! `{up,down}²` lump into three blocks (0, 1 or 2 pumps down).
//!
//! ```
//! # use ctmc::CtmcBuilder;
//! # use arcade_lumping::{InitialPartition, lump};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CtmcBuilder::new(4); // bit i of the index = pump i failed
//! for (state, pump_bit) in [(0b00, 1), (0b00, 2), (0b01, 2), (0b10, 1)] {
//!     b.add_transition(state, state | pump_bit, 0.001)?; // failure
//!     b.add_transition(state | pump_bit, state, 0.5)?; // repair
//! }
//! b.add_label_mask("down", vec![false, true, true, true])?;
//! let chain = b.build()?;
//!
//! let initial = InitialPartition::from_labels(&chain);
//! let lumped = lump(&chain, &initial)?;
//! assert_eq!(lumped.num_blocks(), 3);
//! assert_eq!(lumped.block_of(0b01), lumped.block_of(0b10));
//! lumped.verify(&chain, 1e-12)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod partition;
pub mod product;
pub mod quotient;
pub mod refine;
pub mod subchain;

pub use error::LumpError;
pub use partition::InitialPartition;
pub use product::{KroneckerSum, ProductOrbit, QuotientProduct};
pub use quotient::LumpedCtmc;
pub use refine::lump;
pub use subchain::{canonical_roles, SubchainQuotient};
