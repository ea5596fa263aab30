//! Matrix exponential via Padé approximation with scaling and squaring.
//!
//! This is the inner kernel of GRAPE time-slice propagation: every slice
//! computes `exp(-i·dt·H)` for a small Hermitian `H`. We use the classic
//! Higham [13/13] scaling-and-squaring scheme, simplified to a fixed [6/6]
//! Padé with norm-based scaling, which is more than accurate enough for
//! the step norms this workspace produces (`‖A‖ ≲ 1`).

use crate::complex::C64;
use crate::matrix::Matrix;

/// Padé [6/6] numerator coefficients for `exp`.
const PADE6: [f64; 7] = [
    1.0,
    1.0 / 2.0,
    5.0 / 44.0,
    1.0 / 66.0,
    1.0 / 792.0,
    1.0 / 15840.0,
    1.0 / 665280.0,
];

/// Reusable scratch for [`expm_into`]: the seven `n×n` temporaries of
/// the Padé step (scaled argument, `A²`, `A⁴`, `A⁶`, the even part `V`,
/// the odd part's inner sum and the odd part `U`). Build one per
/// dimension and pass it to every call; the squaring phase ping-pongs
/// between the output and a spent temporary.
#[derive(Debug)]
pub struct ExpmScratch {
    a: Matrix,
    a2: Matrix,
    a4: Matrix,
    a6: Matrix,
    v: Matrix,
    w: Matrix,
    u: Matrix,
}

impl ExpmScratch {
    /// Allocates scratch for `n × n` exponentials, counted as seven
    /// `mathkit.expm` scratch allocations.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        paqoc_telemetry::kernel_alloc(
            "mathkit.expm",
            7,
            (7 * n * n * std::mem::size_of::<C64>()) as u64,
        );
        let z = Matrix::zeros(n, n);
        ExpmScratch {
            a: z.clone(),
            a2: z.clone(),
            a4: z.clone(),
            a6: z.clone(),
            v: z.clone(),
            w: z.clone(),
            u: z,
        }
    }
}

/// Computes the matrix exponential `e^A` of a square complex matrix.
///
/// Allocating wrapper over [`expm_into`] with fresh scratch; hot loops
/// should keep an [`ExpmScratch`] and call [`expm_into`] instead.
///
/// # Panics
///
/// Panics if `a` is not square or the internal linear solve fails (which
/// cannot happen for finite input, as the Padé denominator is nonsingular
/// for `‖A‖ < ln 2` after scaling).
///
/// # Examples
///
/// ```
/// use paqoc_math::{expm, C64, Matrix};
/// // exp(iθX) = cos(θ)·I + i·sin(θ)·X
/// let theta = 0.3;
/// let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
/// let u = expm(&x.scaled(C64::I * theta));
/// assert!((u[(0, 0)].re - theta.cos()).abs() < 1e-12);
/// assert!((u[(0, 1)].im - theta.sin()).abs() < 1e-12);
/// ```
pub fn expm(a: &Matrix) -> Matrix {
    assert!(a.is_square(), "expm requires a square matrix");
    let n = a.rows();
    let mut scratch = ExpmScratch::new(n);
    // The result is the eighth allocation of a one-off call.
    paqoc_telemetry::kernel_alloc(
        "mathkit.expm",
        1,
        (n * n * std::mem::size_of::<C64>()) as u64,
    );
    let mut out = Matrix::zeros(n, n);
    expm_into(a, &mut out, &mut scratch);
    out
}

/// Computes `e^A` into `out` without allocating.
///
/// Uses a [6/6] Padé approximant with scaling and squaring; the number of
/// squarings is chosen so the scaled norm is below `0.5`. Dimensions 2, 4
/// and 8 run fixed-dimension instantiations of the same kernel, which
/// agree with the run-time-sized path bit for bit.
///
/// # Panics
///
/// Panics if `a` is not square, `out` does not have the shape of `a`,
/// `scratch` serves another dimension, or the Padé solve fails (see
/// [`expm`]).
pub fn expm_into(a: &Matrix, out: &mut Matrix, scratch: &mut ExpmScratch) {
    assert!(a.is_square(), "expm requires a square matrix");
    let n = a.rows();
    assert!(
        out.rows() == n && out.cols() == n,
        "expm output must be {n}×{n}, got {}×{}",
        out.rows(),
        out.cols()
    );
    assert_eq!(scratch.a.rows(), n, "expm scratch dimension mismatch");
    match n {
        2 => expm_n::<2>(a, out, scratch),
        4 => expm_n::<4>(a, out, scratch),
        8 => expm_n::<8>(a, out, scratch),
        _ => expm_n::<0>(a, out, scratch),
    }
}

/// The probed Padé kernel at compile-time dimension `N` (`0`: the
/// run-time shape). Shapes are the caller's to check.
pub(crate) fn expm_n<const N: usize>(a: &Matrix, out: &mut Matrix, s: &mut ExpmScratch) {
    paqoc_telemetry::kernel_probe!("mathkit.expm", a.rows());
    let norm = a.one_norm();
    let squarings = if norm <= 0.5 {
        0
    } else {
        (norm / 0.5).log2().ceil() as u32
    };
    let scale = C64::real(1.0 / f64::powi(2.0, squarings as i32));
    for (o, &z) in s.a.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *o = z * scale;
    }

    // Horner-style evaluation of even/odd power series:
    //   N = Σ c_k A^k split into U (odd) and V (even) so that
    //   exp(A) ≈ (V - U)^{-1} (V + U).
    s.a.matmul_n::<N>(&s.a, &mut s.a2);
    s.a2.matmul_n::<N>(&s.a2, &mut s.a4);
    s.a2.matmul_n::<N>(&s.a4, &mut s.a6);

    // V = c0 I + c2 A² + c4 A⁴ + c6 A⁶ (even part)
    set_scaled_identity(&mut s.v, PADE6[0]);
    s.v.axpy(C64::real(PADE6[2]), &s.a2);
    s.v.axpy(C64::real(PADE6[4]), &s.a4);
    s.v.axpy(C64::real(PADE6[6]), &s.a6);

    // U = A (c1 I + c3 A² + c5 A⁴) (odd part)
    set_scaled_identity(&mut s.w, PADE6[1]);
    s.w.axpy(C64::real(PADE6[3]), &s.a2);
    s.w.axpy(C64::real(PADE6[5]), &s.a4);
    s.a.matmul_n::<N>(&s.w, &mut s.u);

    // out = V + U (the right-hand side), then V becomes V − U.
    for ((o, v), &u) in out
        .as_mut_slice()
        .iter_mut()
        .zip(s.v.as_mut_slice())
        .zip(s.u.as_slice())
    {
        *o = *v + u;
        *v -= u;
    }
    assert!(
        s.v.solve_n::<N>(out),
        "Padé denominator is nonsingular after scaling"
    );

    for _ in 0..squarings {
        out.matmul_n::<N>(out, &mut s.a2);
        std::mem::swap(out, &mut s.a2);
    }
}

/// `m = c·I`, computed as `I * c` entry by entry like `identity(n).scaled(c)`.
fn set_scaled_identity(m: &mut Matrix, c: f64) {
    let n = m.cols();
    for (idx, z) in m.as_mut_slice().iter_mut().enumerate() {
        let e = if idx / n == idx % n {
            C64::ONE
        } else {
            C64::ZERO
        };
        *z = e * C64::real(c);
    }
}

/// Computes `exp(-i·t·H)` — the unitary propagator of a Hamiltonian `H`
/// over time `t`.
///
/// # Panics
///
/// Panics if `h` is not square.
pub fn propagator(h: &Matrix, t: f64) -> Matrix {
    expm(&h.scaled(C64::new(0.0, -t)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_z() -> Matrix {
        Matrix::diag(&[C64::ONE, C64::real(-1.0)])
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let z = Matrix::zeros(3, 3);
        assert!(expm(&z).max_diff(&Matrix::identity(3)) < 1e-14);
    }

    #[test]
    fn exp_of_diagonal_matches_scalar_exp() {
        let d = Matrix::diag(&[C64::new(0.2, 0.3), C64::new(-1.0, 0.5)]);
        let e = expm(&d);
        assert!((e[(0, 0)] - C64::new(0.2, 0.3).exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - C64::new(-1.0, 0.5).exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn exp_of_large_norm_uses_squaring() {
        // diag with norm ≈ 8 forces multiple squarings.
        let d = Matrix::diag(&[C64::real(8.0), C64::real(-8.0)]);
        let e = expm(&d);
        assert!((e[(0, 0)].re - 8.0f64.exp()).abs() / 8.0f64.exp() < 1e-10);
        assert!((e[(1, 1)].re - (-8.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn propagator_of_hermitian_is_unitary() {
        // H = Z + 0.5 X is Hermitian.
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let mut h = pauli_z();
        h.axpy(C64::real(0.5), &x);
        let u = propagator(&h, 1.7);
        assert!(u.is_unitary(1e-10));
    }

    #[test]
    fn propagator_composes_additively_in_time() {
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let u1 = propagator(&x, 0.4);
        let u2 = propagator(&x, 0.6);
        let u_total = propagator(&x, 1.0);
        assert!(u2.matmul(&u1).max_diff(&u_total) < 1e-10);
    }

    #[test]
    fn exp_z_rotation_matches_closed_form() {
        // exp(-iθZ/2) = diag(e^{-iθ/2}, e^{iθ/2})
        let theta = 0.9;
        let u = propagator(&pauli_z().scaled(C64::real(0.5)), theta);
        assert!((u[(0, 0)] - C64::cis(-theta / 2.0)).abs() < 1e-12);
        assert!((u[(1, 1)] - C64::cis(theta / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn exp_commuting_sum_factorizes() {
        // Z and Z² commute trivially; exp(A+B) = exp(A)exp(B) for commuting A,B.
        let a = pauli_z().scaled(C64::new(0.0, 0.3));
        let b = pauli_z().scaled(C64::new(0.1, 0.0));
        let lhs = expm(&(&a + &b));
        let rhs = expm(&a).matmul(&expm(&b));
        assert!(lhs.max_diff(&rhs) < 1e-11);
    }
}
