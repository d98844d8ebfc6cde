//! Compressed sparse row (CSR) matrices.
//!
//! The CTMC generator matrices produced by the Arcade state-space composer are
//! extremely sparse (a handful of transitions per state), so all numerical
//! algorithms in this crate operate on a CSR representation built through
//! [`SparseMatrixBuilder`].

use serde::{Deserialize, Serialize};

use crate::error::CtmcError;
use crate::exec::ExecOptions;

/// Column-tile width of the cache-blocked scatter kernel.
///
/// `x * A` scatters into the output vector at the column indices of each row,
/// which for a large matrix walks the whole output between consecutive rows.
/// Restricting the scatter to one tile of this many columns at a time keeps
/// the active output slice (32 KiB of `f64`) resident in L1 while every row
/// streams past. Accumulation order per output column is unchanged —
/// increasing row order — so blocking never changes a single bit.
pub const SPMV_TILE_COLS: usize = 4096;

/// A single non-zero entry of a sparse matrix, used when iterating rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Column index of the entry.
    pub col: usize,
    /// Value of the entry.
    pub value: f64,
}

/// An immutable sparse matrix in compressed sparse row format.
///
/// Rows are stored contiguously; [`SparseMatrix::row`] returns the non-zero
/// entries of a row as a slice. The matrix is not required to be square, though
/// all CTMC uses in this crate are square.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseMatrix {
    num_rows: usize,
    num_cols: usize,
    row_offsets: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Creates an empty matrix with the given dimensions and no non-zero entries.
    pub fn zeros(num_rows: usize, num_cols: usize) -> Self {
        SparseMatrix {
            num_rows,
            num_cols,
            row_offsets: vec![0; num_rows + 1],
            cols: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Wraps CSR arrays whose invariants the caller has checked: `row_offsets`
    /// runs non-decreasing from 0 to `cols.len() == values.len()`, and every
    /// row's columns are strictly increasing and below `num_cols`.
    pub(crate) fn from_checked_csr(
        num_cols: usize,
        row_offsets: Vec<usize>,
        cols: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        SparseMatrix {
            num_rows: row_offsets.len() - 1,
            num_cols,
            row_offsets,
            cols,
            values,
        }
    }

    /// Creates an identity matrix of the given size.
    pub fn identity(n: usize) -> Self {
        let mut builder = SparseMatrixBuilder::new(n, n);
        for i in 0..n {
            builder.push(i, i, 1.0);
        }
        builder.build()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of explicitly stored (non-zero) entries.
    pub fn num_entries(&self) -> usize {
        self.values.len()
    }

    /// Returns the non-zero entries of row `row` as parallel slices of column
    /// indices and values.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows()`.
    pub fn row(&self, row: usize) -> (&[usize], &[f64]) {
        let start = self.row_offsets[row];
        let end = self.row_offsets[row + 1];
        (&self.cols[start..end], &self.values[start..end])
    }

    /// Returns an iterator over the entries of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows()`.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = Entry> + '_ {
        let (cols, values) = self.row(row);
        cols.iter()
            .zip(values.iter())
            .map(|(&col, &value)| Entry { col, value })
    }

    /// Looks up the entry at `(row, col)`, returning `0.0` if it is not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        if row >= self.num_rows {
            return 0.0;
        }
        let (cols, values) = self.row(row);
        match cols.binary_search(&col) {
            Ok(idx) => values[idx],
            Err(_) => 0.0,
        }
    }

    /// Computes `y = x * A` (row-vector times matrix) and stores the result in `y`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if `x.len() != num_rows()` or
    /// `y.len() != num_cols()`.
    pub fn left_multiply(&self, x: &[f64], y: &mut [f64]) -> Result<(), CtmcError> {
        if x.len() != self.num_rows {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_rows,
                actual: x.len(),
            });
        }
        if y.len() != self.num_cols {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_cols,
                actual: y.len(),
            });
        }
        y.iter_mut().for_each(|v| *v = 0.0);
        for (row, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, values) = self.row(row);
            for (c, v) in cols.iter().zip(values.iter()) {
                y[*c] += xi * v;
            }
        }
        Ok(())
    }

    /// Computes `y = x * A` with the cache-blocked scatter kernel.
    ///
    /// Bit-identical to [`SparseMatrix::left_multiply`] for every input: the
    /// kernel tiles the output columns ([`SPMV_TILE_COLS`] at a time) and
    /// streams all rows through each tile with monotone per-row cursors, so
    /// each output column still accumulates its contributions in increasing
    /// row order. Worth it once the output no longer fits in L1; for small
    /// matrices prefer the plain kernel.
    ///
    /// # Errors
    ///
    /// Same dimension checks as [`SparseMatrix::left_multiply`].
    pub fn left_multiply_blocked(&self, x: &[f64], y: &mut [f64]) -> Result<(), CtmcError> {
        if x.len() != self.num_rows {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_rows,
                actual: x.len(),
            });
        }
        if y.len() != self.num_cols {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_cols,
                actual: y.len(),
            });
        }
        self.scatter_columns(x, y, 0);
        Ok(())
    }

    /// Scatter kernel shared by the blocked serial path and the column shards
    /// of the exec paths: fills `shard` (output columns
    /// `c0 .. c0 + shard.len()`) with the matching slice of `x * A`,
    /// tile by tile so the active output stays cache-resident.
    ///
    /// Every row's slice inside the shard's column range is located with one
    /// binary search up front; after that the per-row cursors only ever
    /// advance, so tiling costs O(rows) per tile on top of the entries
    /// actually scattered. Per output column the accumulation order is
    /// increasing row order — exactly the serial kernel — for any `c0`,
    /// shard width or tile width.
    fn scatter_columns(&self, x: &[f64], shard: &mut [f64], c0: usize) {
        shard.iter_mut().for_each(|v| *v = 0.0);
        let c1 = c0 + shard.len();
        // Per-row cursor into the entries of the row at column >= the current
        // tile start; rows are sorted by column so one search suffices.
        let mut cursor: Vec<usize> = (0..self.num_rows)
            .map(|row| {
                let start = self.row_offsets[row];
                let end = self.row_offsets[row + 1];
                start + self.cols[start..end].partition_point(|&c| c < c0)
            })
            .collect();
        let mut t0 = c0;
        while t0 < c1 {
            let t1 = (t0 + SPMV_TILE_COLS).min(c1);
            for (row, &xi) in x.iter().enumerate() {
                let mut idx = cursor[row];
                let end = self.row_offsets[row + 1];
                if xi == 0.0 {
                    // Matches the serial kernel's skip; the cursor still has
                    // to move past this tile.
                    while idx < end && self.cols[idx] < t1 {
                        idx += 1;
                    }
                } else {
                    while idx < end && self.cols[idx] < t1 {
                        shard[self.cols[idx] - c0] += xi * self.values[idx];
                        idx += 1;
                    }
                }
                cursor[row] = idx;
            }
            t0 = t1;
        }
    }

    /// Computes `y = A * x` (matrix times column-vector) and stores the result in `y`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DimensionMismatch`] if `x.len() != num_cols()` or
    /// `y.len() != num_rows()`.
    pub fn right_multiply(&self, x: &[f64], y: &mut [f64]) -> Result<(), CtmcError> {
        if x.len() != self.num_cols {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_cols,
                actual: x.len(),
            });
        }
        if y.len() != self.num_rows {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_rows,
                actual: y.len(),
            });
        }
        for (row, out) in y.iter_mut().enumerate() {
            let (cols, values) = self.row(row);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(values.iter()) {
                acc += v * x[*c];
            }
            *out = acc;
        }
        Ok(())
    }

    /// Computes `y = x * A` sharded across the workers of `exec`.
    ///
    /// Each worker owns a contiguous range of *output columns* and accumulates
    /// every column of its range in increasing row order — exactly the
    /// accumulation order of the serial kernel — so the result is
    /// bit-identical to [`SparseMatrix::left_multiply`] for any thread count.
    /// Small matrices (fewer than [`crate::exec::MIN_PARALLEL_WORK`] stored
    /// entries) take the serial path directly.
    ///
    /// # Errors
    ///
    /// Same dimension checks as [`SparseMatrix::left_multiply`].
    pub fn left_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        let workers = exec.workers_for(self.num_entries()).min(self.num_cols);
        if workers <= 1 {
            if self.num_cols > SPMV_TILE_COLS {
                return self.left_multiply_blocked(x, y);
            }
            return self.left_multiply(x, y);
        }
        if x.len() != self.num_rows {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_rows,
                actual: x.len(),
            });
        }
        if y.len() != self.num_cols {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_cols,
                actual: y.len(),
            });
        }
        crate::exec::for_each_shard(y, workers, |c0, shard| self.scatter_columns(x, shard, c0));
        Ok(())
    }

    /// Computes `y = A * x` sharded across the workers of `exec`.
    ///
    /// Rows are independent in this product, so each worker takes a
    /// contiguous row range and fills its slice of `y`; per-row accumulation
    /// order is untouched and the result is bit-identical to
    /// [`SparseMatrix::right_multiply`] for any thread count.
    ///
    /// # Errors
    ///
    /// Same dimension checks as [`SparseMatrix::right_multiply`].
    pub fn right_multiply_exec(
        &self,
        x: &[f64],
        y: &mut [f64],
        exec: &ExecOptions,
    ) -> Result<(), CtmcError> {
        let workers = exec.workers_for(self.num_entries()).min(self.num_rows);
        if workers <= 1 {
            return self.right_multiply(x, y);
        }
        if x.len() != self.num_cols {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_cols,
                actual: x.len(),
            });
        }
        if y.len() != self.num_rows {
            return Err(CtmcError::DimensionMismatch {
                expected: self.num_rows,
                actual: y.len(),
            });
        }
        crate::exec::for_each_shard(y, workers, |start, shard| {
            for (r, out) in shard.iter_mut().enumerate() {
                let (cols, values) = self.row(start + r);
                let mut acc = 0.0;
                for (c, v) in cols.iter().zip(values.iter()) {
                    acc += v * x[*c];
                }
                *out = acc;
            }
        });
        Ok(())
    }

    /// Returns the transpose of this matrix.
    ///
    /// Built CSR→CSC style in two counting passes (count column occupancy,
    /// prefix-sum into offsets, scatter) instead of re-sorting triplets
    /// through a builder; within every transposed row the entries stay in
    /// increasing original-row order.
    pub fn transpose(&self) -> SparseMatrix {
        let mut row_offsets = vec![0usize; self.num_cols + 1];
        for &c in &self.cols {
            row_offsets[c + 1] += 1;
        }
        for i in 0..self.num_cols {
            row_offsets[i + 1] += row_offsets[i];
        }
        let mut next = row_offsets[..self.num_cols].to_vec();
        let mut cols = vec![0usize; self.values.len()];
        let mut values = vec![0.0; self.values.len()];
        for row in 0..self.num_rows {
            let (rc, rv) = self.row(row);
            for (c, v) in rc.iter().zip(rv.iter()) {
                let slot = next[*c];
                next[*c] += 1;
                cols[slot] = row;
                values[slot] = *v;
            }
        }
        SparseMatrix {
            num_rows: self.num_cols,
            num_cols: self.num_rows,
            row_offsets,
            cols,
            values,
        }
    }

    /// Returns the sum of each row as a vector.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.num_rows)
            .map(|r| self.row(r).1.iter().sum())
            .collect()
    }

    /// Returns a new matrix where every stored value has been scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> SparseMatrix {
        let mut out = self.clone();
        out.values.iter_mut().for_each(|v| *v *= factor);
        out
    }

    /// Iterates over all stored entries as `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.num_rows).flat_map(move |row| {
            let (cols, values) = self.row(row);
            cols.iter()
                .zip(values.iter())
                .map(move |(&c, &v)| (row, c, v))
        })
    }
}

/// Incremental builder for [`SparseMatrix`].
///
/// Entries may be pushed in any order; duplicate `(row, col)` pairs are summed
/// when the matrix is built, which is convenient when accumulating rates of
/// parallel transitions between the same pair of states.
#[derive(Debug, Clone, Default)]
pub struct SparseMatrixBuilder {
    num_rows: usize,
    num_cols: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl SparseMatrixBuilder {
    /// Creates a builder for a matrix with the given dimensions.
    pub fn new(num_rows: usize, num_cols: usize) -> Self {
        SparseMatrixBuilder {
            num_rows,
            num_cols,
            triplets: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`. Values pushed to the same coordinates are summed.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds; the caller is expected to have
    /// validated indices (the higher-level [`crate::CtmcBuilder`] returns errors
    /// instead of panicking).
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.num_rows,
            "row {row} out of bounds ({} rows)",
            self.num_rows
        );
        assert!(
            col < self.num_cols,
            "col {col} out of bounds ({} cols)",
            self.num_cols
        );
        self.triplets.push((row, col, value));
    }

    /// Number of triplets pushed so far (before duplicate merging).
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// Returns `true` if no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Builds the CSR matrix, merging duplicate coordinates by summation and
    /// dropping entries that cancel to exactly zero.
    pub fn build(mut self) -> SparseMatrix {
        self.triplets.sort_unstable_by_key(|a| (a.0, a.1));

        let mut row_offsets = vec![0usize; self.num_rows + 1];
        let mut cols = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.triplets.len());

        let mut idx = 0;
        let triplets = &self.triplets;
        for row in 0..self.num_rows {
            while idx < triplets.len() && triplets[idx].0 == row {
                let col = triplets[idx].1;
                let mut value = 0.0;
                while idx < triplets.len() && triplets[idx].0 == row && triplets[idx].1 == col {
                    value += triplets[idx].2;
                    idx += 1;
                }
                if value != 0.0 {
                    cols.push(col);
                    values.push(value);
                }
            }
            row_offsets[row + 1] = cols.len();
        }

        SparseMatrix {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            row_offsets,
            cols,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_2x2() -> SparseMatrix {
        let mut b = SparseMatrixBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 2.0);
        b.push(1, 0, 3.0);
        b.push(1, 1, 4.0);
        b.build()
    }

    #[test]
    fn builds_and_reads_entries() {
        let m = matrix_2x2();
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 2);
        assert_eq!(m.num_entries(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(1, 5), 0.0);
    }

    #[test]
    fn duplicate_entries_are_summed() {
        let mut b = SparseMatrixBuilder::new(2, 2);
        b.push(0, 1, 1.5);
        b.push(0, 1, 2.5);
        b.push(1, 0, 1.0);
        let m = b.build();
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.num_entries(), 2);
    }

    #[test]
    fn sorted_triplets_with_duplicates_are_summed_in_push_order() {
        // Already in (row, col) order, which the sort keeps; every duplicate
        // run collapses to one entry, summed in push order: (1e16 + 1) + 1
        // rounds to 1e16, while 1 + 1 + 1e16 would not.
        let mut b = SparseMatrixBuilder::new(3, 3);
        b.push(0, 1, 1e16);
        b.push(0, 1, 1.0);
        b.push(0, 1, 1.0);
        b.push(0, 2, 1.0);
        b.push(2, 0, 0.5);
        b.push(2, 0, 0.25);
        let m = b.build();
        assert_eq!(m.num_entries(), 3);
        assert_eq!(m.get(0, 1), 1e16);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(2, 0), 0.75);
        assert_eq!(m.row(1).0.len(), 0);
    }

    #[test]
    fn entries_that_cancel_are_dropped() {
        let mut b = SparseMatrixBuilder::new(1, 2);
        b.push(0, 0, 2.0);
        b.push(0, 0, -2.0);
        b.push(0, 1, 1.0);
        let m = b.build();
        assert_eq!(m.num_entries(), 1);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut b = SparseMatrixBuilder::new(4, 4);
        b.push(0, 3, 1.0);
        b.push(3, 0, 2.0);
        let m = b.build();
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.row(2).0.len(), 0);
        assert_eq!(m.get(0, 3), 1.0);
        assert_eq!(m.get(3, 0), 2.0);
    }

    #[test]
    fn left_multiply_matches_dense() {
        let m = matrix_2x2();
        let x = [1.0, 2.0];
        let mut y = [0.0, 0.0];
        m.left_multiply(&x, &mut y).unwrap();
        // [1,2] * [[1,2],[3,4]] = [7, 10]
        assert_eq!(y, [7.0, 10.0]);
    }

    #[test]
    fn right_multiply_matches_dense() {
        let m = matrix_2x2();
        let x = [1.0, 2.0];
        let mut y = [0.0, 0.0];
        m.right_multiply(&x, &mut y).unwrap();
        // [[1,2],[3,4]] * [1,2]^T = [5, 11]^T
        assert_eq!(y, [5.0, 11.0]);
    }

    #[test]
    fn multiply_dimension_mismatch_is_an_error() {
        let m = matrix_2x2();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0, 0.0];
        assert!(m.left_multiply(&x, &mut y).is_err());
        assert!(m.right_multiply(&x, &mut y).is_err());
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut b = SparseMatrixBuilder::new(2, 3);
        b.push(0, 2, 5.0);
        b.push(1, 0, 7.0);
        let m = b.build();
        let t = m.transpose();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 7.0);
    }

    #[test]
    fn identity_and_zeros() {
        let i = SparseMatrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        let z = SparseMatrix::zeros(2, 5);
        assert_eq!(z.num_entries(), 0);
        assert_eq!(z.num_cols(), 5);
    }

    #[test]
    fn row_sums_and_scaled() {
        let m = matrix_2x2();
        assert_eq!(m.row_sums(), vec![3.0, 7.0]);
        let s = m.scaled(2.0);
        assert_eq!(s.get(1, 1), 8.0);
    }

    #[test]
    fn iter_yields_all_triplets() {
        let m = matrix_2x2();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets.len(), 4);
        assert!(triplets.contains(&(1, 0, 3.0)));
    }

    #[test]
    fn get_binary_searches_sorted_rows() {
        // A row with many columns: `get` must find every stored entry and
        // return zero for the gaps (the builder sorts each row by column, so
        // lookups binary-search rather than scan).
        let mut b = SparseMatrixBuilder::new(2, 1000);
        for c in (0..1000).step_by(7) {
            b.push(0, c, c as f64 + 1.0);
        }
        let m = b.build();
        for c in 0..1000 {
            let expected = if c % 7 == 0 { c as f64 + 1.0 } else { 0.0 };
            assert_eq!(m.get(0, c), expected, "col {c}");
        }
        // Out-of-range coordinates are simply absent.
        assert_eq!(m.get(0, 5000), 0.0);
        assert_eq!(m.get(7, 0), 0.0);
    }

    /// Deterministic pseudo-random sparse matrix large enough to clear the
    /// parallel-work threshold.
    fn large_random_matrix(rows: usize, cols: usize, seed: u64) -> SparseMatrix {
        let mut b = SparseMatrixBuilder::new(rows, cols);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..(crate::exec::MIN_PARALLEL_WORK * 2) {
            let r = next() as usize % rows;
            let c = next() as usize % cols;
            let v = (next() % 1000) as f64 / 499.0 - 1.0;
            b.push(r, c, v);
        }
        b.build()
    }

    #[test]
    fn exec_kernels_are_bit_identical_to_serial() {
        let m = large_random_matrix(300, 240, 42);
        let x_left: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin()).collect();
        let x_right: Vec<f64> = (0..240).map(|i| (i as f64 * 0.11).cos()).collect();

        let mut serial_left = vec![0.0; 240];
        m.left_multiply(&x_left, &mut serial_left).unwrap();
        let mut serial_right = vec![0.0; 300];
        m.right_multiply(&x_right, &mut serial_right).unwrap();

        for threads in [1usize, 2, 3, 4, 8] {
            let exec = ExecOptions::with_threads(threads);
            let mut y = vec![f64::NAN; 240];
            m.left_multiply_exec(&x_left, &mut y, &exec).unwrap();
            assert_eq!(y, serial_left, "left, {threads} threads");
            let mut y = vec![f64::NAN; 300];
            m.right_multiply_exec(&x_right, &mut y, &exec).unwrap();
            assert_eq!(y, serial_right, "right, {threads} threads");
        }
    }

    #[test]
    fn exec_kernels_share_the_dimension_checks() {
        let m = matrix_2x2();
        let exec = ExecOptions::with_threads(4);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0, 0.0];
        assert!(m.left_multiply_exec(&x, &mut y, &exec).is_err());
        assert!(m.right_multiply_exec(&x, &mut y, &exec).is_err());
        let big = large_random_matrix(128, 96, 7);
        let mut wrong = vec![0.0; 95];
        assert!(big
            .left_multiply_exec(&vec![0.0; 128], &mut wrong, &exec)
            .is_err());
        assert!(big
            .right_multiply_exec(&vec![0.0; 96], &mut vec![0.0; 127], &exec)
            .is_err());
    }

    #[test]
    fn transpose_counting_pass_keeps_rows_sorted() {
        let m = large_random_matrix(150, 220, 99);
        let t = m.transpose();
        assert_eq!(t.num_rows(), 220);
        assert_eq!(t.num_cols(), 150);
        assert_eq!(t.num_entries(), m.num_entries());
        // Every transposed row is sorted by column (= original row), which the
        // exec kernels and `get` rely on.
        for r in 0..t.num_rows() {
            let (cols, _) = t.row(r);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} not sorted");
        }
        // Entry-wise equality with the definition, and an involution.
        for (r, c, v) in m.iter() {
            assert_eq!(t.get(c, r), v);
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn blocked_left_multiply_is_bit_identical_across_tiles() {
        // Wide enough that the blocked kernel runs several column tiles.
        let cols = SPMV_TILE_COLS * 3 + 123;
        let m = large_random_matrix(500, cols, 1234);
        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.29).sin()).collect();
        let mut reference = vec![0.0; cols];
        m.left_multiply(&x, &mut reference).unwrap();
        let mut blocked = vec![f64::NAN; cols];
        m.left_multiply_blocked(&x, &mut blocked).unwrap();
        assert_eq!(blocked, reference);
        // The exec path routes serial large multiplies through the blocked
        // kernel and shards wide ones over it; all stay bit-identical.
        for threads in [1usize, 2, 3, 4, 8] {
            let exec = ExecOptions::with_threads(threads);
            let mut y = vec![f64::NAN; cols];
            m.left_multiply_exec(&x, &mut y, &exec).unwrap();
            assert_eq!(y, reference, "{threads} threads");
        }
    }

    #[test]
    fn row_entries_iterator() {
        let m = matrix_2x2();
        let entries: Vec<_> = m.row_entries(1).collect();
        assert_eq!(
            entries,
            vec![Entry { col: 0, value: 3.0 }, Entry { col: 1, value: 4.0 }]
        );
    }
}
