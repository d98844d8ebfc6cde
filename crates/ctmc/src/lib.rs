//! Sparse continuous-time Markov chain (CTMC) numerics.
//!
//! This crate provides the numerical substrate used by the Arcade dependability
//! framework: a compressed sparse row matrix, labelled CTMCs, transient analysis
//! via uniformisation with Fox–Glynn Poisson weights, time-bounded reachability,
//! a steady-state solver (Gauss–Seidel with bottom strongly-connected-component
//! (BSCC) analysis for a chain; restarted GMRES with a damped-Jacobi fallback
//! for a matrix-free rate operator), and Markov reward models with
//! instantaneous and accumulated expected-reward measures.
//!
//! There is one solver per job: [`SteadyStateSolver`] and [`TransientSolver`]
//! each take either a [`Ctmc`] or a [`LinearOperator`] plus exit rates.
//!
//! The algorithms are the same ones used by stochastic model checkers such as
//! PRISM in CTMC mode, so the results obtained here are directly comparable to
//! the CSL/CSRL queries of the DSN 2010 water-treatment paper.
//!
//! # Example
//!
//! Build a two-state repairable component (failure rate 1/1000 per hour, repair
//! rate 1 per hour) and compute its unavailability at `t = 100` hours and in the
//! long run:
//!
//! ```
//! # use ctmc::{CtmcBuilder, TransientSolver, SteadyStateSolver};
//! # fn main() -> Result<(), ctmc::CtmcError> {
//! let mut b = CtmcBuilder::new(2);
//! b.add_transition(0, 1, 1.0 / 1000.0)?; // up -> down
//! b.add_transition(1, 0, 1.0)?;          // down -> up
//! b.set_initial_state(0)?;
//! let chain = b.build()?;
//!
//! let transient = TransientSolver::new(&chain).probabilities_at(100.0)?;
//! assert!(transient[1] < 0.01);
//!
//! let steady = SteadyStateSolver::new(&chain).solve()?;
//! assert!((steady[1] - 1.0 / 1001.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dtmc;
pub mod error;
pub mod exec;
pub mod foxglynn;
pub mod graph;
pub mod markov;
pub mod ops;
pub mod rewards;
pub mod sparse;
pub mod steady_state;
pub mod transient;

pub use dtmc::Dtmc;
pub use error::CtmcError;
pub use exec::ExecOptions;
pub use foxglynn::FoxGlynn;
pub use graph::{bottom_sccs, reachable_from, strongly_connected_components};
pub use markov::{Ctmc, CtmcBuilder, StateIndex};
pub use ops::LinearOperator;
pub use rewards::{RewardSolver, RewardStructure};
pub use sparse::{SparseMatrix, SparseMatrixBuilder};
pub use steady_state::SteadyStateSolver;
pub use transient::{TransientOptions, TransientSolver};

/// Default convergence tolerance used by the iterative solvers in this crate.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;

/// Default iteration cap for the iterative solvers in this crate.
pub const DEFAULT_MAX_ITERATIONS: usize = 1_000_000;

/// Tests of the matrix-free input of [`SteadyStateSolver`]: restarted GMRES,
/// its damped-Jacobi fallback and the balance-residual certificate. The chain
/// input is tested in [`steady_state`].
#[cfg(test)]
mod operator_steady_state {
    mod tests;
}
