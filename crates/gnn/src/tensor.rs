//! Dense row-major matrices with the handful of ops a small GNN needs.
//!
//! The matmul kernels are row-parallel: each output row keeps exactly the
//! serial loop's accumulation order, so results are bit-identical to the
//! sequential implementation at any `CP_THREADS` setting.

/// Output rows per parallel chunk in the matmul kernels.
const ROW_CHUNK: usize = 8;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Runs `f(row_index, row_slice)` over every row, parallel over fixed
    /// row chunks. Rows are disjoint, so this is the deterministic
    /// backbone of the matmul kernels below (and of CSR propagation in
    /// [`crate::sparse`]).
    pub(crate) fn for_each_row_mut(&mut self, f: impl Fn(usize, &mut [f64]) + Sync) {
        let cols = self.cols;
        if cols == 0 || self.rows == 0 {
            return;
        }
        cp_parallel::par_chunks_mut(&mut self.data, cols * ROW_CHUNK, |_, offset, slice| {
            for (k, row) in slice.chunks_mut(cols).enumerate() {
                f(offset / cols + k, row);
            }
        });
    }

    /// `self · other` (`rows × other.cols`).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must match");
        let mut out = Matrix::zeros(self.rows, other.cols);
        out.for_each_row_mut(|i, out_row| {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for (j, &b) in other.row(k).iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        });
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must match");
        let mut out = Matrix::zeros(self.cols, other.cols);
        out.for_each_row_mut(|i, out_row| {
            for r in 0..self.rows {
                let a = self.get(r, i);
                if a == 0.0 {
                    continue;
                }
                for (j, &b) in other.row(r).iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        });
        out
    }

    /// `self · otherᵀ`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column counts must match");
        let mut out = Matrix::zeros(self.rows, other.rows);
        out.for_each_row_mut(|i, out_row| {
            let a = self.row(i);
            for (j, oj) in out_row.iter_mut().enumerate() {
                let b = other.row(j);
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += a[k] * b[k];
                }
                *oj = acc;
            }
        });
        out
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales all elements.
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Mean of each column (length `cols`).
    pub fn column_means(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out[c] += v;
            }
        }
        let n = self.rows.max(1) as f64;
        for v in &mut out {
            *v /= n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.matmul_tn(&b); // aᵀ (2×3) × b (3×2)
        assert_eq!(c.rows, 2);
        assert_eq!(c.cols, 2);
        // aᵀ = [[1,3,5],[2,4,6]]; aᵀb = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(c.data(), &[6.0, 8.0, 8.0, 10.0]);
    }

    #[test]
    fn matmul_nt_matches() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        // a × bᵀ = [[1*5+2*6, 1*7+2*8],[3*5+4*6, 3*7+4*8]]
        assert_eq!(a.matmul_nt(&b).data(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn column_means() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 10.0, 3.0, 20.0]);
        assert_eq!(a.column_means(), vec![2.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_is_thread_count_invariant() {
        let a = Matrix::from_fn(37, 23, |r, c| {
            ((r * 31 + c * 17) % 101) as f64 * 0.013 - 0.5
        });
        let b = Matrix::from_fn(23, 29, |r, c| ((r * 13 + c * 7) % 97) as f64 * 0.021 - 1.0);
        let seq = cp_parallel::with_threads(1, || (a.matmul(&b), a.matmul_tn(&a), a.matmul_nt(&a)));
        let par = cp_parallel::with_threads(4, || (a.matmul(&b), a.matmul_tn(&a), a.matmul_nt(&a)));
        assert_eq!(seq, par);
    }
}
