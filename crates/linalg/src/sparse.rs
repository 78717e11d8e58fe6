//! Compressed sparse row (CSR) matrices.
//!
//! The backward transition matrix `Q` of the paper (row-normalised transpose
//! of the adjacency matrix, `[Q]_{i,j} = 1/|I(i)|` iff edge `j → i` exists)
//! is stored in CSR so that the kernels of Algorithm 1 — `Q·x`, `Qᵀ·x`,
//! per-row dot products `[Q]_{b,:}·x`, and the batch kernel `Q·S` — all run
//! in `O(nnz)`.

use crate::dense::DenseMatrix;
use crate::vecops;

/// A sparse `rows × cols` matrix in compressed sparse row format.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[i]..indptr[i+1]` indexes the entries of row `i`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<u32>,
    /// Nonzero values, parallel to `indices`.
    values: Vec<f64>,
}

/// Coordinate-format builder that assembles a [`CsrMatrix`].
///
/// Duplicate `(row, col)` entries are summed, matching the usual sparse
/// assembly convention.
#[derive(Clone, Debug, Default)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    /// Creates a builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `v` at `(i, j)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "CooBuilder::push out of bounds"
        );
        self.entries.push((i as u32, j as u32, v));
    }

    /// Number of accumulated (possibly duplicate) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assembles the CSR matrix, summing duplicates and dropping exact zeros.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let mut indptr = vec![0usize; self.rows + 1];
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut last: Option<(u32, u32)> = None;
        for (i, j, v) in self.entries {
            if last == Some((i, j)) {
                *values.last_mut().expect("non-empty on duplicate") += v;
            } else {
                indptr[i as usize + 1] += 1;
                indices.push(j);
                values.push(v);
                last = Some((i, j));
            }
        }
        for i in 0..self.rows {
            indptr[i + 1] += indptr[i];
        }
        let mut csr = CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        };
        csr.drop_zeros(0.0);
        csr
    }
}

impl CsrMatrix {
    /// Creates an empty (all-zero) `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix directly from per-row `(col, value)` lists.
    ///
    /// # Panics
    /// Panics if any column index is out of range or a row is unsorted.
    pub fn from_rows(rows: usize, cols: usize, row_entries: &[Vec<(u32, f64)>]) -> Self {
        assert_eq!(row_entries.len(), rows, "from_rows: row count mismatch");
        let nnz: usize = row_entries.iter().map(Vec::len).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for row in row_entries {
            let mut prev: Option<u32> = None;
            for &(j, v) in row {
                assert!((j as usize) < cols, "from_rows: column out of range");
                assert!(prev.is_none_or(|p| p < j), "from_rows: unsorted row");
                prev = Some(j);
                indices.push(j);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The `(column, value)` entries of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let span = self.indptr[i]..self.indptr[i + 1];
        self.indices[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Value at `(i, j)` (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let span = self.indptr[i]..self.indptr[i + 1];
        match self.indices[span.clone()].binary_search(&(j as u32)) {
            Ok(pos) => self.values[span.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `y = A·x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.rows, "matvec: y length mismatch");
        for i in 0..self.rows {
            let span = self.indptr[i]..self.indptr[i + 1];
            let mut acc = 0.0;
            for (&j, &v) in self.indices[span.clone()].iter().zip(&self.values[span]) {
                acc += v * x[j as usize];
            }
            y[i] = acc;
        }
    }

    /// Transposed sparse matrix–vector product `y = Aᵀ·x`.
    pub fn matvec_t(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t: y length mismatch");
        vecops::zero(y);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let span = self.indptr[i]..self.indptr[i + 1];
            for (&j, &v) in self.indices[span.clone()].iter().zip(&self.values[span]) {
                y[j as usize] += v * xi;
            }
        }
    }

    /// Dot product of row `i` with a dense vector: `[A]_{i,:}·x`.
    ///
    /// This is the `[Q]_{b,:}·[S]_{:,i}` memoisation of Algorithm 2, line 3.
    /// The sum starts at `+0.0`, so an empty row gives `+0.0` (an `f64`
    /// `.sum()` of nothing is `-0.0`).
    #[inline]
    pub fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let span = self.indptr[i]..self.indptr[i + 1];
        self.indices[span.clone()]
            .iter()
            .zip(&self.values[span])
            .fold(0.0, |acc, (&j, &v)| acc + v * x[j as usize])
    }

    /// Sparse–dense product `C = A·B` (`B`, `C` dense), row-parallel when
    /// `threads > 1`.
    ///
    /// This is the batch-SimRank kernel: with `A = Q` and `B = S` it computes
    /// one half of `Q·S·Qᵀ` in `O(nnz(Q)·n)`.
    pub fn mul_dense(&self, b: &DenseMatrix, threads: usize) -> DenseMatrix {
        assert_eq!(self.cols, b.rows(), "mul_dense: inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.rows, b.cols());
        let cols = b.cols();
        if threads <= 1 || self.rows < 64 {
            for i in 0..self.rows {
                let span = self.indptr[i]..self.indptr[i + 1];
                let c_row = c.row_mut(i);
                for (&j, &v) in self.indices[span.clone()].iter().zip(&self.values[span]) {
                    vecops::axpy(v, b.row(j as usize), c_row);
                }
            }
            return c;
        }
        let chunk_rows = self.rows.div_ceil(threads);
        std::thread::scope(|scope| {
            for (start_row, chunk) in c.par_row_chunks_mut(chunk_rows) {
                let nrows = chunk.len() / cols;
                scope.spawn(move || {
                    for local in 0..nrows {
                        let i = start_row + local;
                        let span = self.indptr[i]..self.indptr[i + 1];
                        let c_row = &mut chunk[local * cols..(local + 1) * cols];
                        for (&j, &v) in self.indices[span.clone()].iter().zip(&self.values[span]) {
                            vecops::axpy(v, b.row(j as usize), c_row);
                        }
                    }
                });
            }
        });
        c
    }

    /// Materialises the transpose in CSR form.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j as usize + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.rows {
            let span = self.indptr[i]..self.indptr[i + 1];
            for (&j, &v) in self.indices[span.clone()].iter().zip(&self.values[span]) {
                let pos = next[j as usize];
                indices[pos] = i as u32;
                values[pos] = v;
                next[j as usize] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Converts to a dense matrix (test/debug helper; `O(rows·cols)`).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                d.add_to(i, j as usize, v);
            }
        }
        d
    }

    /// Removes stored entries with `|value| <= tol`.
    pub fn drop_zeros(&mut self, tol: f64) {
        let mut indptr = vec![0usize; self.rows + 1];
        let mut w = 0usize;
        let mut read = 0usize;
        for i in 0..self.rows {
            let end = self.indptr[i + 1];
            while read < end {
                if self.values[read].abs() > tol {
                    self.indices[w] = self.indices[read];
                    self.values[w] = self.values[read];
                    w += 1;
                }
                read += 1;
            }
            indptr[i + 1] = w;
        }
        self.indices.truncate(w);
        self.values.truncate(w);
        self.indptr = indptr;
    }

    /// Frobenius norm of the stored entries.
    pub fn norm_fro(&self) -> f64 {
        vecops::norm2(&self.values)
    }

    /// Heap bytes held (for the paper's memory experiment).
    pub fn heap_bytes(&self) -> usize {
        self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }
}

impl crate::svd::LinOp for CsrMatrix {
    fn nrows(&self) -> usize {
        self.rows
    }
    fn ncols(&self) -> usize {
        self.cols
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
    fn apply_t(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_t(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(2, 0, 3.0);
        b.push(2, 1, 4.0);
        b.build()
    }

    #[test]
    fn builder_assembles_sorted_rows() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn builder_sums_duplicates_and_drops_zeros() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.0);
        b.push(1, 1, 5.0);
        b.push(1, 1, -5.0);
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1, "exact-zero sum should be dropped");
    }

    #[test]
    fn matvec_and_transpose_agree_with_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, -2.0, 0.5];
        let mut ys = vec![0.0; 3];
        let mut yd = vec![0.0; 3];
        m.matvec(&x, &mut ys);
        d.matvec(&x, &mut yd);
        assert_eq!(ys, yd);

        let mut ts = vec![0.0; 3];
        let mut td = vec![0.0; 3];
        m.matvec_t(&x, &mut ts);
        d.matvec_t(&x, &mut td);
        assert_eq!(ts, td);

        assert_eq!(m.transpose().to_dense(), d.transpose());
        // Transposing twice round-trips.
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_dot_matches_dense_row() {
        let m = sample();
        let x = [2.0, 1.0, -1.0];
        assert_eq!(m.row_dot(0, &x), 1.0 * 2.0 + -2.0);
        assert_eq!(m.row_dot(1, &x), 0.0);
        assert_eq!(m.row_dot(2, &x), 3.0 * 2.0 + 4.0 * 1.0);
        // An empty row sums to +0.0, not the -0.0 of an empty `.sum()`.
        assert!(m.row_dot(1, &x).is_sign_positive());
    }

    #[test]
    fn mul_dense_single_and_multi_thread_agree() {
        let m = sample();
        let b = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let c1 = m.mul_dense(&b, 1);
        let expected = m.to_dense().matmul(&b);
        assert!(c1.max_abs_diff(&expected) < 1e-14);
        // The threaded path needs >= 64 rows; build a bigger random-ish case.
        let n = 130;
        let mut builder = CooBuilder::new(n, n);
        for i in 0..n {
            builder.push(i, (i * 7 + 3) % n, 1.0 + i as f64 * 0.01);
            builder.push(i, (i * 13 + 1) % n, -0.5);
        }
        let big = builder.build();
        let mut dense = DenseMatrix::zeros(n, 4);
        for i in 0..n {
            for j in 0..4 {
                dense.set(i, j, ((i * 4 + j) % 11) as f64 - 5.0);
            }
        }
        let seq = big.mul_dense(&dense, 1);
        let par = big.mul_dense(&dense, 4);
        assert!(seq.max_abs_diff(&par) < 1e-12);
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = CsrMatrix::from_rows(2, 3, &[vec![(0, 1.0), (2, 2.0)], vec![(1, -1.0)]]);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), -1.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "unsorted row")]
    fn from_rows_rejects_unsorted() {
        let _ = CsrMatrix::from_rows(1, 3, &[vec![(2, 1.0), (0, 1.0)]]);
    }

    #[test]
    fn drop_zeros_removes_small_entries() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1e-15);
        b.push(1, 1, 1.0);
        let mut m = b.build();
        assert_eq!(m.nnz(), 2);
        m.drop_zeros(1e-12);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1), 1.0);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CsrMatrix::zeros(3, 3);
        assert_eq!(m.nnz(), 0);
        let mut y = vec![1.0; 3];
        m.matvec(&[1.0; 3], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }
}
