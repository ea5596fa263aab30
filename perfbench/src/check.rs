//! Output checks, run outside every timed window.
//!
//! Each check recomputes what it can from the compiled schedule itself
//! rather than trusting the result's own summary fields.

use crate::inputs::{rng, Stream};
use paqoc_circuit::{apply_gate_to_state, combined_unitary, Circuit};
use paqoc_core::CompilationResult;
use paqoc_device::Device;
use paqoc_math::C64;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

/// Largest touched register the state-vector check simulates.
pub const MAX_SIM_QUBITS: usize = 16;
/// Fidelity target of `GrapeFactory::fast()`.
pub const GRAPE_TARGET_FIDELITY: f64 = 0.99;
/// Random input states simulated per schedule.
const SIM_STATES: usize = 2;

pub struct Checker {
    device: Device,
    grape: bool,
    seed: u64,
    /// Fingerprints of schedules already simulated: a later compile
    /// that produced the identical schedule needs no second simulation.
    simulated: HashSet<u64>,
}

impl Checker {
    pub fn new(device: Device, grape: bool, seed: u64) -> Checker {
        Checker {
            device,
            grape,
            seed,
            simulated: HashSet::new(),
        }
    }

    /// Checks one compile result; `Err` says what is wrong.
    pub fn check(&mut self, r: &CompilationResult) -> Result<(), String> {
        if r.partial || !r.degradations.is_empty() {
            return Err(format!(
                "partial={} with {} degradation(s)",
                r.partial,
                r.degradations.len()
            ));
        }
        let physical = r.physical.instructions();
        let ids = r.grouped.group_ids();

        // Every physical instruction lies in exactly one group.
        let mut owner = vec![usize::MAX; physical.len()];
        for (slot, &id) in ids.iter().enumerate() {
            let g = r.grouped.group(id);
            if g.indices.len() != g.instructions.len() || g.indices.is_empty() {
                return Err(format!("group {id} has mismatched or empty indices"));
            }
            let mut qubits = BTreeSet::new();
            for (inst, &i) in g.instructions.iter().zip(&g.indices) {
                if i >= physical.len() || owner[i] != usize::MAX {
                    return Err(format!("instruction {i} is out of range or in two groups"));
                }
                if physical[i] != *inst {
                    return Err(format!(
                        "group {id} holds a copy of instruction {i} that differs"
                    ));
                }
                owner[i] = slot;
                qubits.extend(inst.qubits().iter().copied());
            }
            if qubits != g.qubits {
                return Err(format!(
                    "group {id} qubit set disagrees with its instructions"
                ));
            }
        }
        if let Some(i) = owner.iter().position(|&o| o == usize::MAX) {
            return Err(format!("instruction {i} lies in no group"));
        }

        // Group dependences from per-qubit program order, then the
        // makespan as the longest path over a topological order.
        let n = ids.len();
        let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut last: Vec<Option<usize>> = vec![None; r.physical.num_qubits()];
        for (i, inst) in physical.iter().enumerate() {
            for &q in inst.qubits() {
                if let Some(p) = last[q] {
                    if p != owner[i] {
                        succs[p].insert(owner[i]);
                    }
                }
                last[q] = Some(owner[i]);
            }
        }
        let mut indegree = vec![0usize; n];
        for s in &succs {
            for &t in s {
                indegree[t] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut finish = vec![0.0f64; n];
        let mut start = vec![0.0f64; n];
        while let Some(v) = ready.pop() {
            order.push(v);
            finish[v] = start[v] + r.grouped.group(ids[v]).latency_ns;
            for &t in &succs[v] {
                start[t] = start[t].max(finish[v]);
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    ready.push(t);
                }
            }
        }
        if order.len() != n {
            return Err("group dependences are cyclic".to_string());
        }
        let makespan = finish.iter().copied().fold(0.0, f64::max);
        if !close(makespan, r.latency_ns) {
            return Err(format!(
                "latency_ns {} but the group schedule's makespan is {makespan}",
                r.latency_ns
            ));
        }
        if r.latency_dt != self.device.spec().ns_to_dt(r.latency_ns) {
            return Err(format!(
                "latency_dt {} disagrees with latency_ns",
                r.latency_dt
            ));
        }

        // ESP is the product of group fidelities and lies in (0, 1].
        let mut esp = 1.0;
        for &id in &ids {
            let f = r.grouped.group(id).fidelity;
            if !(f > 0.0 && f <= 1.0) {
                return Err(format!("group {id} fidelity {f} outside (0, 1]"));
            }
            if self.grape && f < GRAPE_TARGET_FIDELITY {
                return Err(format!(
                    "group {id} fidelity {f} below the GRAPE target {GRAPE_TARGET_FIDELITY}"
                ));
            }
            esp *= f;
        }
        if !(r.esp > 0.0 && r.esp <= 1.0 && close(esp, r.esp)) {
            return Err(format!("esp {} (product of group fidelities {esp})", r.esp));
        }

        self.simulate(r, &ids, &order)
    }

    /// Applying each group's combined unitary in topological order must
    /// equal applying the physical circuit gate by gate, on seeded
    /// random states over the touched qubits.
    fn simulate(
        &mut self,
        r: &CompilationResult,
        ids: &[usize],
        order: &[usize],
    ) -> Result<(), String> {
        let touched: BTreeSet<usize> = r
            .physical
            .iter()
            .flat_map(|i| i.qubits().iter().copied())
            .collect();
        if touched.len() > MAX_SIM_QUBITS {
            return Ok(());
        }
        let fingerprint = schedule_fingerprint(&r.physical, r, ids, order);
        if self.simulated.contains(&fingerprint) {
            return Ok(());
        }
        let local = |qs: &[usize]| -> Vec<usize> {
            qs.iter()
                .map(|q| touched.iter().position(|t| t == q).expect("touched qubit"))
                .collect()
        };
        let mut rng = rng(self.seed, Stream::States, fingerprint);
        for _ in 0..SIM_STATES {
            let dim = 1usize << touched.len();
            let mut psi: Vec<C64> = (0..dim)
                .map(|_| C64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5))
                .collect();
            let norm = psi.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            psi.iter_mut().for_each(|a| *a = *a / norm);
            let mut by_gate = psi.clone();
            for inst in r.physical.iter() {
                apply_gate_to_state(&inst.unitary(), &local(inst.qubits()), &mut by_gate);
            }
            let mut by_group = psi;
            for &slot in order {
                let g = r.grouped.group(ids[slot]);
                let qubits: Vec<usize> = g.qubits.iter().copied().collect();
                let u = combined_unitary(&g.instructions, &qubits);
                // `combined_unitary` makes `qubits[0]` the least
                // significant bit of its index; `apply_gate_to_state`
                // reads the first listed qubit as the most significant.
                let mut msb_first = local(&qubits);
                msb_first.reverse();
                apply_gate_to_state(&u, &msb_first, &mut by_group);
            }
            let err = by_gate
                .iter()
                .zip(&by_group)
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f64>()
                .sqrt();
            if err.is_nan() || err >= 1e-8 {
                return Err(format!(
                    "grouped schedule differs from the physical circuit by {err:e} on a random state"
                ));
            }
        }
        self.simulated.insert(fingerprint);
        Ok(())
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn schedule_fingerprint(
    physical: &Circuit,
    r: &CompilationResult,
    ids: &[usize],
    order: &[usize],
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{:?}", physical.instructions()).hash(&mut h);
    for &slot in order {
        r.grouped.group(ids[slot]).indices.hash(&mut h);
    }
    h.finish()
}
