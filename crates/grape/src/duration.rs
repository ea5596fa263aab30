//! Minimum-duration pulse search.
//!
//! The paper (Section V-B): "It calculates the minimum duration of the
//! control pulses of a customized gate by binary search." We bracket the
//! feasible duration by doubling from an initial guess, then binary
//! search for the shortest step count that still reaches the fidelity
//! target.

use crate::optimizer::{optimize, GrapeOptions, GrapeResult, Pulse};
use paqoc_device::ControlSet;
use paqoc_math::Matrix;

/// Hard cap on pulse length, in steps (guards against unreachable
/// targets spinning the search forever).
const MAX_STEPS: usize = 1024;

/// The outcome of a minimum-duration search.
#[derive(Clone, Debug)]
pub struct DurationSearch {
    /// The shortest successful optimization.
    pub result: GrapeResult,
    /// Steps of the successful pulse.
    pub steps: usize,
    /// Number of GRAPE optimizations executed.
    pub trials: usize,
    /// Total ADAM iterations across all trials (the compile-cost driver).
    pub total_iterations: usize,
}

/// Finds the minimum-duration pulse reaching `opts.target_fidelity`.
///
/// `initial_steps` seeds the bracket (a good prior, e.g. from the
/// analytic latency model, saves trials); `warm_start` is forwarded to
/// every trial.
///
/// Returns `None` when even `MAX_STEPS` cannot reach the target.
///
/// # Panics
///
/// Panics if the target dimension disagrees with the control system.
pub fn minimize_duration(
    target: &Matrix,
    controls: &ControlSet,
    opts: &GrapeOptions,
    initial_steps: usize,
    warm_start: Option<&Pulse>,
) -> Option<DurationSearch> {
    let mut trials = 0usize;
    let mut total_iterations = 0usize;
    let (steps, result) = shortest_feasible(initial_steps, |steps| {
        trials += 1;
        let r = optimize(target, controls, steps, opts, warm_start);
        total_iterations += r.iterations;
        (r.fidelity >= opts.target_fidelity).then_some(r)
    })?;
    Some(DurationSearch {
        steps,
        result,
        trials,
        total_iterations,
    })
}

/// Brackets then bisects for the shortest step count at which `probe`
/// succeeds (returns `Some`), assuming success is monotone in the step
/// count. Doubling from `initial_steps` (clamped to `2..=MAX_STEPS`)
/// brackets the boundary; the bisection then only probes above the
/// longest step count known to fail, so it never re-probes that range
/// and never returns a step count shorter than a failed probe — even
/// when the last doubling was clamped at `MAX_STEPS`. Returns `None`
/// when `MAX_STEPS` fails.
fn shortest_feasible<T>(
    initial_steps: usize,
    mut probe: impl FnMut(usize) -> Option<T>,
) -> Option<(usize, T)> {
    // `lo` is the longest step count known to fail; 1 when nothing
    // below the first probe was tried (one step is never probed).
    let mut lo = 1;
    let mut hi = initial_steps.clamp(2, MAX_STEPS);
    let mut best = loop {
        match probe(hi) {
            Some(r) => break (hi, r),
            None if hi >= MAX_STEPS => return None,
            None => {
                lo = hi;
                hi = (hi * 2).min(MAX_STEPS);
            }
        }
    };
    // Binary search in (lo, best.0].
    while lo + 1 < best.0 {
        let mid = (lo + best.0) / 2;
        match probe(mid) {
            Some(r) => best = (mid, r),
            None => lo = mid,
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::GateKind;
    use paqoc_device::{transmon_xy_controls, HardwareSpec};

    fn controls1() -> ControlSet {
        transmon_xy_controls(1, &[], &HardwareSpec::transmon_xy())
    }

    #[test]
    fn finds_minimum_near_theoretical_bound() {
        // X gate: π rotation at 2π·0.1 GHz → 5 ns → 10 steps of 0.5 ns.
        let target = GateKind::X.unitary(&[]);
        let opts = GrapeOptions {
            target_fidelity: 0.995,
            ..GrapeOptions::default()
        };
        let search = minimize_duration(&target, &controls1(), &opts, 12, None).expect("feasible");
        assert!(
            (9..=13).contains(&search.steps),
            "steps {} should be near the 10-step bound",
            search.steps
        );
        assert!(search.result.fidelity >= 0.995);
    }

    #[test]
    fn brackets_upward_from_a_low_guess() {
        let target = GateKind::X.unitary(&[]);
        let opts = GrapeOptions {
            target_fidelity: 0.995,
            ..GrapeOptions::default()
        };
        let search = minimize_duration(&target, &controls1(), &opts, 2, None).expect("feasible");
        assert!(search.steps >= 9, "steps {}", search.steps);
        assert!(search.trials >= 3); // had to double at least twice
    }

    /// The step counts `shortest_feasible` probes, in order, and its answer.
    fn probes(initial: usize, feasible: impl Fn(usize) -> bool) -> (Vec<usize>, Option<usize>) {
        let mut seen = Vec::new();
        let found = shortest_feasible(initial, |steps| {
            seen.push(steps);
            feasible(steps).then_some(())
        });
        (seen, found.map(|(steps, ())| steps))
    }

    #[test]
    fn bisection_starts_above_the_last_failed_probe_after_capped_doubling() {
        // 300 and 600 fail, doubling clamps at 1024; the boundary is 700.
        let (seen, found) = probes(300, |s| s >= 700);
        assert_eq!(found, Some(700));
        assert_eq!(
            seen,
            [300, 600, 1024, 812, 706, 653, 679, 692, 699, 702, 700],
            "no probe may fall at or below the failed 600"
        );
        // GRAPE's success is not monotone in the step count. Bisecting
        // from 512 would probe 768, 640 and 576 here and return 576,
        // shorter than the failed 600.
        let (seen, found) = probes(300, |s| s >= 700 || s == 640 || s == 576);
        assert_eq!(found, Some(700));
        assert!(seen[2..].iter().all(|&s| s > 600), "probed {seen:?}");
    }

    #[test]
    fn uncapped_doubling_bisects_between_the_last_two_probes() {
        let (seen, found) = probes(10, |s| s >= 33);
        assert_eq!(found, Some(33));
        assert_eq!(seen, [10, 20, 40, 30, 35, 32, 33]);
    }

    #[test]
    fn a_feasible_first_guess_bisects_down_to_two_steps() {
        let (seen, found) = probes(12, |s| s >= 5);
        assert_eq!(found, Some(5));
        assert_eq!(seen, [12, 6, 3, 4, 5]);
        // One step is never probed: two is the floor.
        assert_eq!(probes(4, |_| true), (vec![4, 2], Some(2)));
    }

    #[test]
    fn infeasible_at_the_cap_returns_none() {
        let (seen, found) = probes(600, |_| false);
        assert_eq!(found, None);
        assert_eq!(seen, [600, 1024]);
        assert_eq!(probes(5000, |_| false), (vec![1024], None));
    }

    #[test]
    fn identity_needs_minimal_steps() {
        let target = Matrix::identity(2);
        let opts = GrapeOptions::default();
        let search = minimize_duration(&target, &controls1(), &opts, 4, None).expect("feasible");
        assert!(search.steps <= 2, "steps {}", search.steps);
    }
}
