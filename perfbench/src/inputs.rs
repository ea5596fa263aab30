//! Seeded inputs. The seed is the only thing that varies between runs
//! of one workload: it relabels the logical qubits of every circuit and,
//! for `serve-open`, draws the request order, tenants and arrival times.
//! The program under test only ever sees the generated circuits.

use paqoc_circuit::Circuit;
use paqoc_math::Rng;
use paqoc_workloads::all_benchmarks;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Circuits `serve-open` never draws: each compiles in more than 0.4 s
/// (analytic source, M=inf), so one of them would dominate any window.
pub const SERVE_EXCLUDED: [&str; 3] = ["qft", "majority_239", "dnn"];

/// The `grape-small` circuits: the Table-I circuits whose GRAPE pass
/// fits a run (`mod5d2_64` alone takes about 36 s).
pub const GRAPE_SMALL: [&str; 2] = ["bb84", "simon"];

/// A Table-I circuit after the seeded relabeling.
#[derive(Clone, Debug)]
pub struct NamedCircuit {
    pub name: &'static str,
    pub circuit: Circuit,
}

/// Independent seeded streams, so adding a draw to one input does not
/// shift another.
#[derive(Clone, Copy)]
pub enum Stream {
    Relabel = 1,
    Schedule = 2,
    States = 3,
}

/// The `index`-th generator of a stream (one per pass, schedule, …).
pub fn rng(seed: u64, stream: Stream, index: u64) -> Rng {
    let mut rng = Rng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    Rng::seed_from_u64(rng.next_u64() ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// Applies a uniformly random permutation to the circuit's qubits.
fn relabel(circuit: &Circuit, rng: &mut Rng) -> Circuit {
    let n = circuit.num_qubits();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    let mut out = Circuit::new(n);
    for inst in circuit.iter() {
        out.push(inst.remapped(|q| perm[q]));
    }
    out
}

/// The Table-I circuits `keep` selects, in the paper's order, each
/// relabeled by the `draw`-th relabeling of the seed.
pub fn table1(seed: u64, draw: u64, keep: impl Fn(&str) -> bool) -> Vec<NamedCircuit> {
    let mut rng = rng(seed, Stream::Relabel, draw);
    all_benchmarks()
        .into_iter()
        .map(|b| NamedCircuit {
            name: b.name,
            // Every benchmark draws its permutation, kept or not, so a
            // circuit's relabeling does not depend on the selection.
            circuit: relabel(&(b.build)(), &mut rng),
        })
        .filter(|c| keep(c.name))
        .collect()
}

/// One scheduled `serve-open` request.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// When the request is due, from the start of its phase.
    pub due: Duration,
    /// Index into the deck of circuits.
    pub circuit: usize,
    /// Index of the tenant it bills.
    pub tenant: usize,
}

/// `count` arrivals over `window` at an exact rate: request `i` falls due
/// at a uniformly random time inside its own slot `[i, i + 1) * window /
/// count`. Pure Poisson arrivals let the p95 of a few dozen requests swing
/// by a quarter from seed to seed on bursts alone; one arrival per slot
/// keeps the randomness but bounds the bursts. Payloads are dealt in
/// rounds from a deck of `circuits` circuits in `draws` relabelings
/// (payload `draw * circuits + c`): round `k` holds every circuit once,
/// in seeded order, in relabeling `k mod draws`, so every seed offers the
/// same circuit mix. Tenants are drawn uniformly.
pub fn arrivals(
    rng: &mut Rng,
    count: usize,
    window: Duration,
    circuits: usize,
    draws: usize,
    tenants: usize,
) -> Vec<Arrival> {
    let slot = window.as_secs_f64() / count as f64;
    let due: Vec<f64> = (0..count)
        .map(|i| (i as f64 + rng.random::<f64>()) * slot)
        .collect();
    let mut order = Vec::with_capacity(count);
    for round in 0.. {
        if order.len() >= count {
            break;
        }
        let mut deal: Vec<usize> = (0..circuits).collect();
        for i in (1..circuits).rev() {
            deal.swap(i, rng.random_range(0..=i));
        }
        order.extend(deal.into_iter().map(|c| (round % draws) * circuits + c));
    }
    due.into_iter()
        .zip(order)
        .map(|(d, circuit)| Arrival {
            due: Duration::from_secs_f64(d),
            circuit,
            tenant: rng.random_range(0..tenants),
        })
        .collect()
}

/// A scratch directory under the working directory for pulse stores
/// and the server socket, removed when dropped. Relative paths keep the
/// socket path short and every file inside the checkout.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let path = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}
