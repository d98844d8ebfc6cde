//! Matrix-free linear operators for the exec SpMV kernels.
//!
//! The iterative solvers in this crate only ever touch a matrix through two
//! kernels: `y = x * A` (left multiply, distribution propagation) and
//! `y = A * x` (right multiply, value backpropagation). [`LinearOperator`]
//! abstracts exactly those two kernels plus the dimensions, so a structured
//! matrix — such as the Kronecker sum of per-line quotient generators built
//! by `arcade_lumping::product` — can feed the same sharded, bit-deterministic
//! code paths without ever materialising its entries.
//!
//! Implementations must uphold the workspace determinism contract: for a
//! fixed input, the output is bit-identical for every thread count of
//! [`ExecOptions`]. The [`SparseMatrix`] implementation delegates to the
//! row/column-sharded CSR kernels that already guarantee this.

use std::fmt::Debug;

use crate::error::CtmcError;
use crate::exec::ExecOptions;
use crate::markov::Ctmc;
use crate::sparse::SparseMatrix;

/// A linear operator exposing the two sharded SpMV kernels the solvers use.
///
/// `left_multiply_exec` computes `y = x * A` (a row vector times the
/// operator); `right_multiply_exec` computes `y = A * x` (the operator times
/// a column vector). Both must be bit-identical for every thread count.
pub trait LinearOperator: Debug {
    /// Number of rows (the length of `x` in `x * A` and of `y` in `A * x`).
    fn num_rows(&self) -> usize;

    /// Number of columns (the length of `y` in `x * A` and of `x` in `A * x`).
    fn num_cols(&self) -> usize;

    /// Computes `y = x * A` on the workers of `exec`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if `x.len() != num_rows()` or
    /// `y.len() != num_cols()`.
    fn left_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError>;

    /// Computes `y = A * x` on the workers of `exec`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if `x.len() != num_cols()` or
    /// `y.len() != num_rows()`.
    fn right_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError>;
}

impl LinearOperator for SparseMatrix {
    fn num_rows(&self) -> usize {
        SparseMatrix::num_rows(self)
    }

    fn num_cols(&self) -> usize {
        SparseMatrix::num_cols(self)
    }

    fn left_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        SparseMatrix::left_multiply_exec(self, x, y, exec)
    }

    fn right_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        SparseMatrix::right_multiply_exec(self, x, y, exec)
    }
}

/// What a solver runs on: a materialised chain, or a matrix-free rate
/// operator `R` plus the per-state exit rates `E`. Either way the generator
/// is `Q = R − diag(E)`.
#[derive(Debug, Clone)]
pub(crate) enum Generator<'a> {
    /// A labelled chain with its CSR rate matrix.
    Chain(&'a Ctmc),
    /// A rate operator that is never materialised (e.g. a Kronecker sum).
    Operator {
        rates: &'a dyn LinearOperator,
        exit_rates: Vec<f64>,
    },
}

impl<'a> Generator<'a> {
    /// A validated matrix-free generator.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if the operator is not square
    /// or `exit_rates` has the wrong length, and
    /// [`CtmcError::InvalidArgument`] for negative or non-finite exits.
    pub(crate) fn operator(
        rates: &'a dyn LinearOperator,
        exit_rates: Vec<f64>,
    ) -> Result<Self, CtmcError> {
        if rates.num_rows() != rates.num_cols() {
            return Err(CtmcError::DimensionMismatch {
                expected: rates.num_rows(),
                actual: rates.num_cols(),
            });
        }
        if exit_rates.len() != rates.num_rows() {
            return Err(CtmcError::DimensionMismatch {
                expected: rates.num_rows(),
                actual: exit_rates.len(),
            });
        }
        if exit_rates.iter().any(|&e| !e.is_finite() || e < 0.0) {
            return Err(CtmcError::InvalidArgument {
                reason: "exit rates must be non-negative and finite".to_string(),
            });
        }
        Ok(Generator::Operator { rates, exit_rates })
    }

    /// Number of states.
    pub(crate) fn num_states(&self) -> usize {
        self.exit_rates().len()
    }

    /// The off-diagonal rates `R`.
    pub(crate) fn rates(&self) -> &'a dyn LinearOperator {
        match self {
            Generator::Chain(chain) => chain.rate_matrix(),
            Generator::Operator { rates, .. } => *rates,
        }
    }

    /// The exit rates `E(s) = Σ_{s'} R[s][s']`.
    pub(crate) fn exit_rates(&self) -> &[f64] {
        match self {
            Generator::Chain(chain) => chain.exit_rates(),
            Generator::Operator { exit_rates, .. } => exit_rates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseMatrixBuilder;

    /// Generic SpMV through the trait object must match the inherent kernels.
    #[test]
    fn sparse_matrix_implements_the_operator_kernels() {
        let mut b = SparseMatrixBuilder::new(2, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(1, 1, 3.0);
        let m = b.build();
        let op: &dyn LinearOperator = &m;
        assert_eq!(op.num_rows(), 2);
        assert_eq!(op.num_cols(), 3);

        let exec = ExecOptions::serial();
        let mut left = vec![0.0; 3];
        op.left_multiply_exec(&[1.0, 2.0], &mut left, &exec)
            .unwrap();
        assert_eq!(left, vec![1.0, 6.0, 2.0]);

        let mut right = vec![0.0; 2];
        op.right_multiply_exec(&[1.0, 1.0, 1.0], &mut right, &exec)
            .unwrap();
        assert_eq!(right, vec![3.0, 3.0]);

        assert!(op.left_multiply_exec(&[1.0], &mut left, &exec).is_err());
        assert!(op.right_multiply_exec(&[1.0], &mut right, &exec).is_err());
    }
}
