//! Dense complex matrices sized for few-qubit unitaries.
//!
//! Row-major storage; all hot paths (`matmul`, `kron`, `dagger`) are written
//! against flat slices so the optimizer can vectorize them. Dimensions in
//! this workspace are small powers of two (2–32), so `O(n³)` kernels are
//! entirely adequate and cache-friendly.

use crate::complex::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use paqoc_math::{C64, Matrix};
/// let x = Matrix::from_rows(&[
///     &[C64::ZERO, C64::ONE],
///     &[C64::ONE, C64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert_eq!(&x * &x, Matrix::identity(2));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a square matrix from a flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a perfect square.
    pub fn from_flat(data: Vec<C64>) -> Self {
        let n = (data.len() as f64).sqrt().round() as usize;
        assert_eq!(n * n, data.len(), "flat data must form a square matrix");
        Matrix {
            rows: n,
            cols: n,
            data,
        }
    }

    /// Builds a diagonal matrix from the given entries.
    pub fn diag(entries: &[C64]) -> Self {
        let mut m = Matrix::zeros(entries.len(), entries.len());
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
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

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Flat row-major view of the entries.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable flat row-major view of the entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Creates a zeroed matrix that a caller keeps as reusable kernel
    /// output or scratch (the `_into` kernels write into it), counted as
    /// one `mathkit.workspace` allocation so scratch accounting covers
    /// caller-owned buffers too.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn workspace(rows: usize, cols: usize) -> Self {
        paqoc_telemetry::kernel_alloc(
            "mathkit.workspace",
            1,
            (rows * cols * std::mem::size_of::<C64>()) as u64,
        );
        Matrix::zeros(rows, cols)
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.dagger_into(&mut out);
        out
    }

    /// Writes the conjugate transpose `A†` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `cols × rows`.
    pub fn dagger_into(&self, out: &mut Matrix) {
        assert!(
            out.rows == self.cols && out.cols == self.rows,
            "dagger output shape mismatch"
        );
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Matrix {
        let data = self.data.iter().map(|z| z.conj()).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Matrix trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Scales every entry by a complex factor.
    pub fn scaled(&self, s: C64) -> Matrix {
        let data = self.data.iter().map(|&z| z * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += other * s`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: C64, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "axpy shape mismatch");
        assert_eq!(self.cols, other.cols, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = a.mul_add(*b, s);
        }
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        paqoc_telemetry::kernel_alloc(
            "mathkit.matmul",
            1,
            (self.rows * rhs.cols * std::mem::size_of::<C64>()) as u64,
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhs` written into `out`, allocating
    /// nothing. Square operands of dimension 2, 4 or 8 run a
    /// fixed-dimension instantiation of the same kernel; every
    /// instantiation produces the same bits.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or `out` is not
    /// `self.rows() × rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul inner dimensions must agree ({}×{} · {}×{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert!(
            out.rows == self.rows && out.cols == rhs.cols,
            "matmul output must be {}×{}, got {}×{}",
            self.rows,
            rhs.cols,
            out.rows,
            out.cols
        );
        match (self.rows, self.cols, rhs.cols) {
            (2, 2, 2) => self.matmul_n::<2>(rhs, out),
            (4, 4, 4) => self.matmul_n::<4>(rhs, out),
            (8, 8, 8) => self.matmul_n::<8>(rhs, out),
            _ => self.matmul_n::<0>(rhs, out),
        }
    }

    /// The probed matmul kernel at compile-time dimension `N` (`0`: the
    /// run-time shape). Shapes are the caller's to check.
    #[inline(always)]
    pub(crate) fn matmul_n<const N: usize>(&self, rhs: &Matrix, out: &mut Matrix) {
        paqoc_telemetry::kernel_probe!("mathkit.matmul", self.rows);
        let (rows, inner, cols) = (dim::<N>(self.rows), dim::<N>(self.cols), dim::<N>(rhs.cols));
        let a = &self.data[..rows * inner];
        let b = &rhs.data[..inner * cols];
        let out = &mut out.data[..rows * cols];
        out.fill(C64::ZERO);
        // i-k-j loop order: streams over the output row and the rhs row,
        // which is the cache-friendly order for row-major data.
        for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
            for (k, &x) in a_row.iter().enumerate() {
                if x.re == 0.0 && x.im == 0.0 {
                    continue;
                }
                for (o, &y) in out_row.iter_mut().zip(&b[k * cols..(k + 1) * cols]) {
                    *o = o.mul_add(x, y);
                }
            }
        }
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Induced 1-norm (maximum absolute column sum), used by `expm` scaling.
    pub fn one_norm(&self) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.cols {
            let s: f64 = (0..self.rows).map(|i| self[(i, j)].abs()).sum();
            best = best.max(s);
        }
        best
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// `true` when `‖A†A − I‖_max ≤ tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let p = self.dagger().matmul(self);
        let mut dev = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                let expect = if i == j { C64::ONE } else { C64::ZERO };
                dev = dev.max((p[(i, j)] - expect).abs());
            }
        }
        dev <= tol
    }

    /// `true` when `‖A − A†‖_max ≤ tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..=i {
                if (self[(i, j)] - self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum entry-wise distance to another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "max_diff shape mismatch");
        assert_eq!(self.cols, other.cols, "max_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Applies `self` to a state vector.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.cols()`.
    pub fn apply(&self, state: &[C64]) -> Vec<C64> {
        assert_eq!(state.len(), self.cols, "state length must equal cols");
        let mut out = vec![C64::ZERO; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = C64::ZERO;
            for (a, s) in row.iter().zip(state) {
                acc = acc.mul_add(*a, *s);
            }
            *o = acc;
        }
        out
    }

    /// Solves `A·X = B` by Gaussian elimination with partial pivoting.
    ///
    /// Allocating wrapper over [`Matrix::solve_in_place`] on copies of
    /// both operands. Returns `None` when the system is singular to
    /// working precision.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        paqoc_telemetry::kernel_alloc(
            "mathkit.solve",
            2,
            ((self.data.len() + b.data.len()) * std::mem::size_of::<C64>()) as u64,
        );
        let mut a = self.clone();
        let mut x = b.clone();
        a.solve_in_place(&mut x).then_some(x)
    }

    /// Solves `A·X = B` in place: `b` is overwritten with `X` and `self`
    /// with the eliminated (upper-triangular) system. Used by the Padé
    /// step of [`crate::expm_into`]; allocates nothing. Returns `false`
    /// when the system is singular to working precision, leaving both
    /// operands partially eliminated.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `b` has a different row count.
    pub fn solve_in_place(&mut self, b: &mut Matrix) -> bool {
        assert!(self.is_square(), "solve requires a square matrix");
        assert_eq!(self.rows, b.rows, "solve shape mismatch");
        match (self.rows, b.cols) {
            (2, 2) => self.solve_n::<2>(b),
            (4, 4) => self.solve_n::<4>(b),
            (8, 8) => self.solve_n::<8>(b),
            _ => self.solve_n::<0>(b),
        }
    }

    /// The probed elimination kernel at compile-time dimension `N` (`0`:
    /// the run-time shape). Shapes are the caller's to check.
    #[inline(always)]
    pub(crate) fn solve_n<const N: usize>(&mut self, b: &mut Matrix) -> bool {
        paqoc_telemetry::kernel_probe!("mathkit.solve", self.rows);
        let (n, m) = (dim::<N>(self.rows), dim::<N>(b.cols));
        let a = &mut self.data[..n * n];
        let x = &mut b.data[..n * m];
        for col in 0..n {
            // Partial pivot.
            let mut piv = col;
            let mut piv_mag = a[col * n + col].abs();
            for r in (col + 1)..n {
                let mag = a[r * n + col].abs();
                if mag > piv_mag {
                    piv = r;
                    piv_mag = mag;
                }
            }
            if piv_mag < 1e-300 {
                return false;
            }
            if piv != col {
                for j in 0..n {
                    a.swap(col * n + j, piv * n + j);
                }
                for j in 0..m {
                    x.swap(col * m + j, piv * m + j);
                }
            }
            let inv = a[col * n + col].recip();
            for r in (col + 1)..n {
                let f = a[r * n + col] * inv;
                if f.re == 0.0 && f.im == 0.0 {
                    continue;
                }
                for j in col..n {
                    let v = a[col * n + j];
                    a[r * n + j] = a[r * n + j].mul_add(-f, v);
                }
                for j in 0..m {
                    let v = x[col * m + j];
                    x[r * m + j] = x[r * m + j].mul_add(-f, v);
                }
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let inv = a[col * n + col].recip();
            for j in 0..m {
                let mut acc = x[col * m + j];
                for k in (col + 1)..n {
                    acc = acc.mul_add(-a[col * n + k], x[k * m + j]);
                }
                x[col * m + j] = acc * inv;
            }
        }
        true
    }
}

/// Dimension of a const-generic kernel instantiation: `N`, or the
/// run-time `n` when `N == 0`. A constant lets the compiler unroll and
/// drop bounds checks; the arithmetic is the same source either way, so
/// fixed and run-time paths agree bit for bit.
#[inline(always)]
pub(crate) fn dim<const N: usize>(n: usize) -> usize {
    if N == 0 {
        n
    } else {
        N
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>24}", format!("{}", self[(i, j)]))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "add shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a + *b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "sub shape mismatch");
        assert_eq!(self.cols, rhs.cols, "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a - *b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(C64::real(-1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_gate() -> Matrix {
        Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
    }

    fn h_gate() -> Matrix {
        let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        Matrix::from_rows(&[&[s, s], &[s, -s]])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let h = h_gate();
        let i2 = Matrix::identity(2);
        assert!(h.matmul(&i2).max_diff(&h) < 1e-15);
        assert!(i2.matmul(&h).max_diff(&h) < 1e-15);
    }

    #[test]
    fn x_is_self_inverse() {
        let x = x_gate();
        assert!(x.matmul(&x).max_diff(&Matrix::identity(2)) < 1e-15);
    }

    #[test]
    fn hadamard_is_unitary_and_hermitian() {
        let h = h_gate();
        assert!(h.is_unitary(1e-12));
        assert!(h.is_hermitian(1e-12));
    }

    #[test]
    fn dagger_reverses_products() {
        let h = h_gate();
        let x = x_gate();
        let lhs = h.matmul(&x).dagger();
        let rhs = x.dagger().matmul(&h.dagger());
        assert!(lhs.max_diff(&rhs) < 1e-14);
    }

    #[test]
    fn kron_shapes_and_identity() {
        let i2 = Matrix::identity(2);
        let k = i2.kron(&i2);
        assert_eq!(k.rows(), 4);
        assert!(k.max_diff(&Matrix::identity(4)) < 1e-15);
    }

    #[test]
    fn kron_of_x_and_identity() {
        let x = x_gate();
        let k = x.kron(&Matrix::identity(2));
        // X⊗I maps |00> -> |10>, i.e. column 0 has a 1 at row 2.
        assert_eq!(k[(2, 0)], C64::ONE);
        assert_eq!(k[(0, 0)], C64::ZERO);
        assert!(k.is_unitary(1e-12));
    }

    #[test]
    fn trace_of_identity() {
        assert_eq!(Matrix::identity(5).trace(), C64::real(5.0));
    }

    #[test]
    fn solve_recovers_rhs() {
        // A = H (unitary, well conditioned); X should satisfy H X = B.
        let h = h_gate();
        let b = x_gate();
        let x = h.solve(&b).expect("H is invertible");
        assert!(h.matmul(&x).max_diff(&b) < 1e-12);
    }

    #[test]
    fn solve_detects_singularity() {
        let singular = Matrix::from_rows(&[&[C64::ONE, C64::ONE], &[C64::ONE, C64::ONE]]);
        assert!(singular.solve(&Matrix::identity(2)).is_none());
    }

    #[test]
    fn apply_matches_matmul_column() {
        let h = h_gate();
        let state = vec![C64::ONE, C64::ZERO];
        let out = h.apply(&state);
        assert!((out[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-14);
        assert!((out[1].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-14);
    }

    #[test]
    fn norms_agree_on_identity() {
        let i4 = Matrix::identity(4);
        assert!((i4.frobenius_norm() - 2.0).abs() < 1e-14);
        assert!((i4.one_norm() - 1.0).abs() < 1e-14);
        assert!((i4.max_abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn axpy_accumulates() {
        let mut m = Matrix::identity(2);
        m.axpy(C64::real(2.0), &x_gate());
        assert_eq!(m[(0, 1)], C64::real(2.0));
        assert_eq!(m[(0, 0)], C64::ONE);
    }

    #[test]
    #[should_panic(expected = "matmul inner dimensions")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
