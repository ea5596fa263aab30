//! GRAPE: gradient-ascent pulse engineering with ADAM.
//!
//! Piecewise-constant controls over `N` steps; each step's propagator is
//! `U_j = exp(-i·2π·dt·Σ_k α_k[j]·H_k)`. The process fidelity
//! `F = |Tr(U_target† · U_N⋯U_1)|²/d²` is maximized by ADAM over squashed
//! amplitude parameters (`α = a_max·tanh(θ)` keeps the paper's field
//! limits exactly). The gradient uses the standard first-order GRAPE
//! approximation `∂U_j/∂α ≈ −i·2π·dt·H_k·U_j`, which is accurate for the
//! small step norms used here.

use crate::sim::load_step_generator;
use paqoc_device::ControlSet;
use paqoc_math::{expm_into, ExpmScratch, Matrix, Rng, C64};

/// A piecewise-constant control schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Pulse {
    /// Duration of each step in nanoseconds.
    pub step_ns: f64,
    /// Channel names, aligned with the inner index of `amplitudes`.
    pub channel_names: Vec<String>,
    /// `amplitudes[j][k]`: amplitude of channel `k` during step `j`, GHz.
    pub amplitudes: Vec<Vec<f64>>,
}

impl Pulse {
    /// Total pulse duration in nanoseconds.
    pub fn duration_ns(&self) -> f64 {
        self.step_ns * self.amplitudes.len() as f64
    }

    /// Number of time steps.
    pub fn num_steps(&self) -> usize {
        self.amplitudes.len()
    }
}

/// Tunable knobs of the optimizer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GrapeOptions {
    /// Control step length in nanoseconds.
    pub step_ns: f64,
    /// Maximum ADAM iterations per optimization.
    pub max_iters: usize,
    /// ADAM learning rate on the squashed parameters.
    pub learning_rate: f64,
    /// Stop as soon as this fidelity is reached.
    pub target_fidelity: f64,
    /// RNG seed for the initial guess.
    pub seed: u64,
    /// Independent random restarts if the target is not reached.
    pub restarts: usize,
}

impl Default for GrapeOptions {
    fn default() -> Self {
        GrapeOptions {
            step_ns: 0.5,
            max_iters: 300,
            learning_rate: 0.08,
            target_fidelity: 0.999,
            seed: 0x9a0c,
            restarts: 2,
        }
    }
}

/// The outcome of one GRAPE optimization at a fixed duration.
#[derive(Clone, Debug)]
pub struct GrapeResult {
    /// The optimized control schedule.
    pub pulse: Pulse,
    /// Fidelity reached against the target unitary.
    pub fidelity: f64,
    /// ADAM iterations actually executed (across restarts).
    pub iterations: usize,
}

/// Optimizes a pulse of exactly `steps` steps toward `target`.
///
/// Returns the best result across restarts; stops early once
/// `opts.target_fidelity` is reached. The initial guess may be seeded
/// from `warm_start` amplitudes (cropped or zero-padded to `steps`),
/// mirroring AccQOC's similarity-based warm starting.
///
/// # Panics
///
/// Panics if `target` is not `controls.dim()`-dimensional or `steps == 0`.
pub fn optimize(
    target: &Matrix,
    controls: &ControlSet,
    steps: usize,
    opts: &GrapeOptions,
    warm_start: Option<&Pulse>,
) -> GrapeResult {
    assert!(steps > 0, "pulse must have at least one step");
    assert_eq!(
        target.rows(),
        controls.dim(),
        "target dimension must match the control system"
    );
    let mut ws = Workspace::new(target, controls, steps);
    let mut total_iters = 0usize;
    let mut run_restart = |restart: usize, total_iters: &mut usize| -> GrapeResult {
        paqoc_telemetry::counter("grape.restarts", 1);
        let mut rng = Rng::seed_from_u64(opts.seed.wrapping_add(restart as u64));
        initial_theta(&mut ws.theta, warm_start, controls, &mut rng);
        let (fid, iters) = adam_loop(&mut ws, controls, opts);
        *total_iters += iters;
        paqoc_telemetry::counter("grape.iterations", iters as u64);
        paqoc_telemetry::observe("grape.iterations_per_restart", iters as f64);
        paqoc_telemetry::event!(
            "grape.restart",
            restart = restart as u64,
            iterations = iters as u64,
            fidelity = fid,
        );
        GrapeResult {
            pulse: theta_to_pulse(&ws.theta, steps, controls, opts.step_ns),
            fidelity: fid,
            iterations: *total_iters,
        }
    };

    // The first restart always runs, so `best` is never absent: no
    // Option on the hot path.
    let mut best = run_restart(0, &mut total_iters);
    for restart in 1..opts.restarts.max(1) {
        if best.fidelity >= opts.target_fidelity {
            break;
        }
        let result = run_restart(restart, &mut total_iters);
        if result.fidelity > best.fidelity {
            best = result;
        }
    }
    best.iterations = total_iters;
    if best.fidelity < opts.target_fidelity {
        paqoc_telemetry::counter("grape.convergence_failures", 1);
    }
    best
}

/// Every buffer the ADAM loop touches, sized once per [`optimize`] call
/// and reused by all its iterations and restarts, so the loop itself
/// allocates nothing. Parameter vectors are flat: entry `j·channels + k`
/// belongs to channel `k` of step `j`.
struct Workspace {
    /// Squashed control parameters being optimized.
    theta: Vec<f64>,
    /// ADAM first-moment estimates.
    m: Vec<f64>,
    /// ADAM second-moment estimates.
    v: Vec<f64>,
    /// Parameters of the best fidelity seen in the current restart.
    best_theta: Vec<f64>,
    /// Step generator `−i·2π·dt·H_j`, rebuilt for each step.
    h: Matrix,
    /// `props[j] = U_j`, the step propagators.
    props: Vec<Matrix>,
    /// `fwd[j] = U_j ⋯ U_1` (prefix products).
    fwd: Vec<Matrix>,
    /// `bwd[j] = U_N ⋯ U_{j+1}`; the last entry stays the identity.
    bwd: Vec<Matrix>,
    /// `U_target†`, fixed for the whole call.
    tdag: Matrix,
    /// `U_target† · U_total` for the overlap, then `U_target† · B_j`.
    left: Matrix,
    /// `H_k · F_j` for the gradient.
    hk_right: Matrix,
    /// Padé scratch for the step exponentials.
    expm: ExpmScratch,
}

impl Workspace {
    fn new(target: &Matrix, controls: &ControlSet, steps: usize) -> Self {
        let dim = controls.dim();
        let params = steps * controls.channels.len();
        let matrices = |count: usize| -> Vec<Matrix> {
            (0..count).map(|_| Matrix::workspace(dim, dim)).collect()
        };
        let mut tdag = Matrix::workspace(dim, dim);
        target.dagger_into(&mut tdag);
        let mut bwd = matrices(steps);
        for i in 0..dim {
            bwd[steps - 1][(i, i)] = C64::ONE;
        }
        Workspace {
            theta: vec![0.0; params],
            m: vec![0.0; params],
            v: vec![0.0; params],
            best_theta: vec![0.0; params],
            h: Matrix::workspace(dim, dim),
            props: matrices(steps),
            fwd: matrices(steps),
            bwd,
            tdag,
            left: Matrix::workspace(dim, dim),
            hk_right: Matrix::workspace(dim, dim),
            expm: ExpmScratch::new(dim),
        }
    }
}

/// Squash parameter → bounded amplitude.
#[inline]
fn squash(theta: f64, a_max: f64) -> f64 {
    a_max * theta.tanh()
}

/// d(amplitude)/d(theta).
#[inline]
fn squash_grad(theta: f64, a_max: f64) -> f64 {
    let t = theta.tanh();
    a_max * (1.0 - t * t)
}

fn initial_theta(
    theta: &mut [f64],
    warm_start: Option<&Pulse>,
    controls: &ControlSet,
    rng: &mut Rng,
) {
    let num_channels = controls.channels.len();
    match warm_start {
        Some(p) if p.amplitudes.first().map(Vec::len) == Some(num_channels) => {
            for (i, t) in theta.iter_mut().enumerate() {
                let (j, k) = (i / num_channels, i % num_channels);
                let src = &p.amplitudes[j.min(p.amplitudes.len() - 1)];
                let a_max = controls.channels[k].max_amp;
                let ratio = (src[k] / a_max).clamp(-0.999, 0.999);
                *t = ratio.atanh();
            }
        }
        _ => {
            for t in theta.iter_mut() {
                *t = (rng.random::<f64>() - 0.5) * 1.2;
            }
        }
    }
}

fn theta_to_pulse(theta: &[f64], steps: usize, controls: &ControlSet, step_ns: f64) -> Pulse {
    let num_channels = controls.channels.len();
    Pulse {
        step_ns,
        channel_names: controls.channels.iter().map(|c| c.name.clone()).collect(),
        amplitudes: (0..steps)
            .map(|j| {
                theta[j * num_channels..(j + 1) * num_channels]
                    .iter()
                    .zip(&controls.channels)
                    .map(|(&t, ch)| squash(t, ch.max_amp))
                    .collect()
            })
            .collect(),
    }
}

/// Runs ADAM from `ws.theta`, leaving the best parameters there; returns
/// (best fidelity, iterations used).
fn adam_loop(ws: &mut Workspace, controls: &ControlSet, opts: &GrapeOptions) -> (f64, usize) {
    let Workspace {
        theta,
        m,
        v,
        best_theta,
        h,
        props,
        fwd,
        bwd,
        tdag,
        left,
        hk_right,
        expm,
    } = ws;
    let steps = props.len();
    let num_channels = controls.channels.len();
    let dim = controls.dim();
    let d = dim as f64;
    let two_pi_dt = 2.0 * std::f64::consts::PI * opts.step_ns;

    m.fill(0.0);
    v.fill(0.0);
    let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
    let mut best_fid = 0.0f64;
    let mut have_best = false;

    for iter in 1..=opts.max_iters {
        // Forward pass: per-step propagators and cumulative products.
        let propagation = paqoc_telemetry::kernel_enter("grape.propagation", dim);
        for (j, u) in props.iter_mut().enumerate() {
            let row = &theta[j * num_channels..(j + 1) * num_channels];
            load_step_generator(h, controls, two_pi_dt, |k| {
                squash(row[k], controls.channels[k].max_amp)
            });
            expm_into(h, u, expm);
        }
        fwd[0].as_mut_slice().copy_from_slice(props[0].as_slice());
        for j in 1..steps {
            let (done, rest) = fwd.split_at_mut(j);
            props[j].matmul_into(&done[j - 1], &mut rest[0]);
        }
        for j in (0..steps.saturating_sub(1)).rev() {
            let (head, tail) = bwd.split_at_mut(j + 1);
            tail[0].matmul_into(&props[j + 1], &mut head[j]);
        }

        drop(propagation);

        tdag.matmul_into(&fwd[steps - 1], left);
        let overlap = left.trace();
        let fid = (overlap.norm_sqr() / (d * d)).min(1.0);
        if !fid.is_finite() {
            // A numerically diverged step (overflowed propagator, NaN in
            // the gradient) would silently poison every remaining
            // iteration — and the table's supervisor can only catch
            // *panics*, not quiet NaN fixpoints. Abort the loop and
            // return the best finite state instead.
            paqoc_telemetry::counter("grape.nan_aborts", 1);
            if have_best {
                theta.copy_from_slice(best_theta);
            }
            return (best_fid, iter);
        }
        if fid > best_fid {
            best_fid = fid;
            best_theta.copy_from_slice(theta);
            have_best = true;
        }
        // Convergence series for the event journal: sampled so a full
        // optimization adds a handful of records, not one per iteration.
        if iter % 32 == 0 {
            paqoc_telemetry::event!(
                "grape.converge",
                iter = iter as u64,
                fidelity = best_fid,
                steps = steps as u64,
            );
        }
        if fid >= opts.target_fidelity {
            if have_best {
                theta.copy_from_slice(best_theta);
            }
            return (best_fid, iter);
        }

        // Gradient: dg/dα_{kj} = Tr(U_t† · B_j · (−i·2π·dt·H_k) · F_j)
        // with F_j the prefix *including* step j (first-order GRAPE).
        paqoc_telemetry::kernel_probe!("grape.gradient", dim);
        let bias1 = 1.0 - beta1.powi(iter as i32);
        let bias2 = 1.0 - beta2.powi(iter as i32);
        for j in 0..steps {
            // M_j = U_t† · B_j ; row-product with (−i 2π dt H_k) F_j.
            tdag.matmul_into(&bwd[j], left);
            let right = &fwd[j];
            for (k, ch) in controls.channels.iter().enumerate() {
                // dg = Tr(left · (−i 2π dt H_k) · right)
                ch.operator.matmul_into(right, hk_right);
                let mut dg = C64::ZERO;
                for r in 0..dim {
                    for c in 0..dim {
                        dg = dg.mul_add(left[(r, c)], hk_right[(c, r)]);
                    }
                }
                let dg = dg * C64::new(0.0, -two_pi_dt);
                // dF/dα = 2·Re(conj(g)·dg)/d²  (maximize → ascend)
                let dfda = 2.0 * (overlap.conj() * dg).re / (d * d);
                let p = j * num_channels + k;
                let grad = dfda * squash_grad(theta[p], ch.max_amp);

                // ADAM ascent step.
                m[p] = beta1 * m[p] + (1.0 - beta1) * grad;
                v[p] = beta2 * v[p] + (1.0 - beta2) * grad * grad;
                let mc = m[p] / bias1;
                let vc = v[p] / bias2;
                theta[p] += opts.learning_rate * mc / (vc.sqrt() + eps);
            }
        }
    }
    if have_best {
        theta.copy_from_slice(best_theta);
    }
    (best_fid, opts.max_iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::GateKind;
    use paqoc_device::{transmon_xy_controls, HardwareSpec};
    use paqoc_math::trace_fidelity;

    fn controls1() -> ControlSet {
        transmon_xy_controls(1, &[], &HardwareSpec::transmon_xy())
    }

    fn controls2() -> ControlSet {
        transmon_xy_controls(2, &[(0, 1)], &HardwareSpec::transmon_xy())
    }

    #[test]
    fn reaches_x_gate() {
        let target = GateKind::X.unitary(&[]);
        // X needs a π rotation at 0.1 GHz → ≈5 ns → 10 steps of 0.5 ns.
        let r = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        assert!(r.fidelity > 0.999, "fidelity {}", r.fidelity);
    }

    #[test]
    fn reaches_hadamard() {
        let target = GateKind::H.unitary(&[]);
        let r = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        assert!(r.fidelity > 0.999, "fidelity {}", r.fidelity);
    }

    #[test]
    fn too_short_pulse_fails() {
        // 1 step of 0.5 ns cannot produce a π rotation at 0.1 GHz.
        let target = GateKind::X.unitary(&[]);
        let r = optimize(&target, &controls1(), 1, &GrapeOptions::default(), None);
        assert!(r.fidelity < 0.9, "fidelity {}", r.fidelity);
    }

    #[test]
    fn reaches_cx_gate() {
        let target = GateKind::Cx.unitary(&[]);
        // CX content π/4 at 0.02 GHz ≈ 6.25 ns → 16 steps of 0.5 ns.
        let opts = GrapeOptions {
            max_iters: 600,
            ..GrapeOptions::default()
        };
        let r = optimize(&target, &controls2(), 32, &opts, None);
        assert!(r.fidelity > 0.99, "fidelity {}", r.fidelity);
    }

    #[test]
    fn pulse_respects_amplitude_limits() {
        let target = GateKind::X.unitary(&[]);
        let r = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        for row in &r.pulse.amplitudes {
            for (k, &amp) in row.iter().enumerate() {
                let lim = controls1().channels[k].max_amp;
                assert!(amp.abs() <= lim + 1e-12, "channel {k} amp {amp}");
            }
        }
    }

    #[test]
    fn optimization_is_deterministic() {
        let target = GateKind::H.unitary(&[]);
        let a = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        let b = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        assert_eq!(a.pulse, b.pulse);
        assert_eq!(a.fidelity, b.fidelity);
    }

    #[test]
    fn warm_start_from_own_solution_converges_instantly() {
        let target = GateKind::X.unitary(&[]);
        let cold = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        let warm = optimize(
            &target,
            &controls1(),
            12,
            &GrapeOptions::default(),
            Some(&cold.pulse),
        );
        assert!(warm.fidelity > 0.999);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn optimized_pulse_propagates_to_target() {
        // Re-propagate the pulse independently and compare unitaries.
        let target = GateKind::H.unitary(&[]);
        let controls = controls1();
        let r = optimize(&target, &controls, 12, &GrapeOptions::default(), None);
        let u = crate::sim::propagate(&r.pulse, &controls);
        let f = trace_fidelity(&target, &u);
        assert!((f - r.fidelity).abs() < 1e-9, "{f} vs {}", r.fidelity);
    }
}
