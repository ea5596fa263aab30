//! Golden-bit regression test for the GRAPE optimizer.
//!
//! Performance work on the optimizer and the `paqoc-math` kernels must not
//! move a single output bit: every pulse amplitude, every fidelity and
//! every iteration count below is folded into an FNV-1a hash and compared
//! with a value recorded before any such work. The cases cover d = 2 and
//! d = 4 control systems, converging and non-converging step counts, and
//! a warm start. A failure prints the new hash; update the constant only
//! for a change that is meant to alter the numerics, and say so. It sits
//! with the root package's tests so a plain `cargo test` at the
//! repository root runs it.

use paqoc_device::{transmon_xy_controls, ControlSet, HardwareSpec};
use paqoc_grape::{optimize, propagate, GrapeOptions, GrapeResult};
use paqoc_math::{random_unitary_seeded, Matrix};

/// Hash of every `optimize` output (amplitude bits, fidelity bits,
/// iteration count) over [`cases`].
const GOLDEN_OPTIMIZE: u64 = 0x970d_5385_46d9_071e;
/// Hash of the bits of every re-propagated pulse unitary over [`cases`].
const GOLDEN_PROPAGATE: u64 = 0x4267_8d75_4424_a718;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        for z in m.as_slice() {
            self.word(z.re.to_bits());
            self.word(z.im.to_bits());
        }
    }
}

fn controls(qubits: usize) -> ControlSet {
    let edges: &[(usize, usize)] = if qubits == 2 { &[(0, 1)] } else { &[] };
    transmon_xy_controls(qubits, edges, &HardwareSpec::transmon_xy())
}

/// `(controls, target, steps, options, warm-start case?)` for every case.
fn cases() -> Vec<(ControlSet, Matrix, usize, GrapeOptions, bool)> {
    let opts = |max_iters, seed| GrapeOptions {
        max_iters,
        restarts: 2,
        seed,
        ..GrapeOptions::default()
    };
    let mut out = Vec::new();
    // d = 2: 1 and 6 steps cannot converge, 12 converges.
    for (i, steps) in [1usize, 6, 12].into_iter().enumerate() {
        let target = random_unitary_seeded(2, 0x51 + i as u64);
        out.push((controls(1), target, steps, opts(150, 3 + i as u64), false));
    }
    // d = 4 (five channels, the size most compiled gates have): 4 steps
    // cannot converge, 24 converges on the second restart, 40 on the first.
    for (i, steps) in [4usize, 24, 40].into_iter().enumerate() {
        let target = random_unitary_seeded(4, 0x400 + i as u64);
        out.push((controls(2), target, steps, opts(200, 17 + i as u64), false));
    }
    // A warm start from the d = 2 converged case's own pulse.
    let target = random_unitary_seeded(2, 0x53);
    out.push((controls(1), target, 12, opts(150, 5), true));
    out
}

fn run(
    controls: &ControlSet,
    target: &Matrix,
    steps: usize,
    opts: &GrapeOptions,
    warm: bool,
) -> GrapeResult {
    if warm {
        let cold = optimize(target, controls, steps, opts, None);
        optimize(target, controls, steps, opts, Some(&cold.pulse))
    } else {
        optimize(target, controls, steps, opts, None)
    }
}

#[test]
fn optimize_and_propagate_outputs_are_bit_identical_to_the_recorded_hashes() {
    let mut opt_hash = Fnv::new();
    let mut prop_hash = Fnv::new();
    let mut summary = Vec::new();
    for (controls, target, steps, opts, warm) in cases() {
        let r = run(&controls, &target, steps, &opts, warm);
        opt_hash.word(steps as u64);
        opt_hash.word(r.iterations as u64);
        opt_hash.word(r.fidelity.to_bits());
        for row in &r.pulse.amplitudes {
            for a in row {
                opt_hash.word(a.to_bits());
            }
        }
        prop_hash.matrix(&propagate(&r.pulse, &controls));
        summary.push((controls.dim(), steps, r.iterations, r.fidelity));
    }
    // The cases must include both outcomes, or the hash pins less than
    // it claims.
    let converged = summary.iter().filter(|s| s.3 >= 0.999).count();
    assert!(
        converged > 0 && converged < summary.len(),
        "cases must mix converging and non-converging runs: {summary:?}"
    );
    assert_eq!(
        (opt_hash.0, prop_hash.0),
        (GOLDEN_OPTIMIZE, GOLDEN_PROPAGATE),
        "GRAPE output bits changed (got optimize {:#018x}, propagate {:#018x}); cases: {summary:?}",
        opt_hash.0,
        prop_hash.0
    );
}
