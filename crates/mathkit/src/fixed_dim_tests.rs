//! The fixed-dimension kernel instantiations (`N ∈ {2, 4, 8}`) must
//! agree bit for bit with the run-time-sized instantiation (`N = 0`), and
//! the allocating wrappers with the `_into` kernels, on inputs that
//! include exact and signed zeros. d = 3 and d = 16 have no fixed path
//! and check the dispatch and wrappers alone.

use crate::expm::{expm_n, ExpmScratch};
use crate::{expm, expm_into, Matrix, Rng, C64};

const DIMS: [usize; 5] = [2, 3, 4, 8, 16];

/// One component: an exact `+0.0` or `-0.0` a quarter of the time each
/// (so whole entries are zero often enough to take the zero-skip), else
/// uniform in `[-scale, scale)`.
fn component(rng: &mut Rng, scale: f64) -> f64 {
    match rng.random_range(0..4u32) {
        0 => 0.0,
        1 => -0.0,
        _ => (rng.random::<f64>() * 2.0 - 1.0) * scale,
    }
}

fn random_matrix(n: usize, scale: f64, rng: &mut Rng) -> Matrix {
    let data = (0..n * n)
        .map(|_| C64::new(component(rng, scale), component(rng, scale)))
        .collect();
    Matrix::from_flat(data)
}

fn bits(m: &Matrix) -> Vec<(u64, u64)> {
    m.as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

#[test]
fn matmul_into_matches_the_run_time_kernel_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0x6d61_746d);
    for n in DIMS {
        for _ in 0..20 {
            let a = random_matrix(n, 2.0, &mut rng);
            let b = random_matrix(n, 2.0, &mut rng);
            let mut fixed = Matrix::from_flat(vec![C64::new(7.0, -7.0); n * n]);
            a.matmul_into(&b, &mut fixed);
            let mut generic = Matrix::zeros(n, n);
            a.matmul_n::<0>(&b, &mut generic);
            assert_eq!(bits(&fixed), bits(&generic), "matmul d={n}");
            assert_eq!(bits(&a.matmul(&b)), bits(&fixed), "matmul wrapper d={n}");
        }
    }
}

#[test]
fn solve_in_place_matches_the_run_time_kernel_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0x736f_6c76);
    for n in DIMS {
        for _ in 0..20 {
            let a = random_matrix(n, 1.0, &mut rng);
            let b = random_matrix(n, 1.0, &mut rng);
            let (mut fa, mut fx) = (a.clone(), b.clone());
            let fixed_ok = fa.solve_in_place(&mut fx);
            let (mut ga, mut gx) = (a.clone(), b.clone());
            let generic_ok = ga.solve_n::<0>(&mut gx);
            assert_eq!(fixed_ok, generic_ok, "solve singularity d={n}");
            assert_eq!(bits(&fx), bits(&gx), "solve X d={n}");
            assert_eq!(bits(&fa), bits(&ga), "solve eliminated A d={n}");
            if fixed_ok {
                let wrapped = a.solve(&b).expect("the in-place solve succeeded");
                assert_eq!(bits(&wrapped), bits(&fx), "solve wrapper d={n}");
            }
        }
    }
}

#[test]
fn expm_into_matches_the_run_time_kernel_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0x6578_706d);
    for n in DIMS {
        let mut scratch = ExpmScratch::new(n);
        let mut generic_scratch = ExpmScratch::new(n);
        // Scales from below the 0.5 norm threshold (no squaring) to
        // several squarings.
        for scale in [0.01, 0.1, 0.5, 2.0] {
            for _ in 0..5 {
                let a = random_matrix(n, scale, &mut rng);
                let mut fixed = Matrix::zeros(n, n);
                expm_into(&a, &mut fixed, &mut scratch);
                let mut generic = Matrix::zeros(n, n);
                expm_n::<0>(&a, &mut generic, &mut generic_scratch);
                assert_eq!(bits(&fixed), bits(&generic), "expm d={n} scale={scale}");
                assert_eq!(bits(&expm(&a)), bits(&fixed), "expm wrapper d={n}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "matmul output must be")]
fn matmul_into_rejects_a_wrong_output_shape() {
    let a = Matrix::identity(4);
    a.matmul_into(&a, &mut Matrix::zeros(4, 2));
}

#[test]
#[should_panic(expected = "matmul inner dimensions")]
fn matmul_into_rejects_mismatched_operands() {
    let a = Matrix::zeros(2, 3);
    a.matmul_into(&Matrix::zeros(2, 3), &mut Matrix::zeros(2, 3));
}

#[test]
#[should_panic(expected = "expm output must be")]
fn expm_into_rejects_a_wrong_output_shape() {
    let a = Matrix::identity(4);
    expm_into(&a, &mut Matrix::zeros(2, 2), &mut ExpmScratch::new(4));
}

#[test]
#[should_panic(expected = "expm scratch dimension mismatch")]
fn expm_into_rejects_scratch_of_another_dimension() {
    let a = Matrix::identity(4);
    expm_into(&a, &mut Matrix::zeros(4, 4), &mut ExpmScratch::new(8));
}

#[test]
#[should_panic(expected = "expm requires a square matrix")]
fn expm_into_rejects_a_non_square_argument() {
    let a = Matrix::zeros(2, 4);
    expm_into(&a, &mut Matrix::zeros(2, 4), &mut ExpmScratch::new(2));
}

#[test]
#[should_panic(expected = "solve shape mismatch")]
fn solve_in_place_rejects_a_mismatched_right_hand_side() {
    Matrix::identity(4).solve_in_place(&mut Matrix::zeros(2, 4));
}

#[test]
#[should_panic(expected = "solve requires a square matrix")]
fn solve_in_place_rejects_a_non_square_system() {
    Matrix::zeros(2, 4).solve_in_place(&mut Matrix::zeros(2, 2));
}
