//! Per-layer measurement for the traced run.
//!
//! Each layer is timed from outside, by calling its public functions:
//! the pipeline's prefix (`decompose`, `try_sabre_map`, the miner) is
//! replayed on the same input before the traced compile, and the pulse
//! source is wrapped in a timing meter. The counters and the `group` /
//! `generate` / `exec.batch` spans the crates already publish are read
//! from `paqoc_telemetry::snapshot()`; kernel call counts come from
//! `CompilationResult::kernel_calls`. Nothing is added inside a crate.

use crate::stats::{mean, median, percentile, ratio};
use crate::Report;
use paqoc_circuit::{decompose, Basis, Circuit, Instruction};
use paqoc_core::{try_compile_batch, CompilationResult, PipelineOptions};
use paqoc_device::{Device, PulseEstimate, PulseGenError, PulseSource};
use paqoc_exec::PulseSourceFactory;
use paqoc_mapping::try_sabre_map;
use paqoc_mining::{mine_frequent_subcircuits, select_apa_basis, MinerOptions};
use paqoc_telemetry::{FieldValue, Snapshot};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// Time and calls inside the pulse source, split by whether the call ran
/// on the compiling thread or on an exec worker.
#[derive(Default)]
struct SourceMeter {
    calls: AtomicU64,
    ns: AtomicU64,
    caller_ns: AtomicU64,
}

/// A factory whose sources time every generation they perform.
struct MeteredFactory {
    inner: Arc<dyn PulseSourceFactory>,
    meter: Arc<SourceMeter>,
    caller: ThreadId,
}

impl PulseSourceFactory for MeteredFactory {
    fn make(&self, seed: u64) -> Box<dyn PulseSource + Send> {
        Box::new(MeteredSource {
            inner: self.inner.make(seed),
            meter: self.meter.clone(),
            caller: self.caller,
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct MeteredSource {
    inner: Box<dyn PulseSource + Send>,
    meter: Arc<SourceMeter>,
    caller: ThreadId,
}

impl MeteredSource {
    fn record(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.meter.calls.fetch_add(1, Ordering::Relaxed);
        self.meter.ns.fetch_add(ns, Ordering::Relaxed);
        if std::thread::current().id() == self.caller {
            self.meter.caller_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

impl PulseSource for MeteredSource {
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let t = Instant::now();
        let est = self
            .inner
            .generate(group, device, target_fidelity, warm_start);
        self.record(t);
        est
    }

    // Forwarded, not defaulted: GRAPE overrides `try_generate` with its
    // retry ladder, which the wrapper must not bypass.
    fn try_generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> Result<PulseEstimate, PulseGenError> {
        let t = Instant::now();
        let est = self
            .inner
            .try_generate(group, device, target_fidelity, warm_start);
        self.record(t);
        est
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        self.inner.typical_latency_ns(num_qubits, device)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One traced pass over a workload's circuits, summed over circuits.
#[derive(Clone, Debug, Default)]
pub struct LayerPass {
    lower_ns: u64,
    map_ns: u64,
    mine_ns: u64,
    group_ns: u64,
    search_ns: u64,
    source_ns: u64,
    kernel_ns: u64,
    /// Wall time of the traced `try_compile_batch` calls.
    pub compile_ns: u64,
    counts: BTreeMap<&'static str, f64>,
    queue_wait_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
}

impl LayerPass {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn arm(on: bool) {
    paqoc_telemetry::set_enabled(on);
    paqoc_telemetry::set_kernel_probes(Some(on));
}

/// Replays the pipeline's prefix layer by layer, then runs the traced
/// compile on a metered factory, adding everything to `pass`.
pub fn traced_compile(
    circuit: &Circuit,
    device: &Device,
    factory: &Arc<dyn PulseSourceFactory>,
    opts: &PipelineOptions,
    pass: &mut LayerPass,
) -> Result<CompilationResult, String> {
    paqoc_telemetry::reset();
    arm(true);

    // The same calls, options and order as the pipeline's prefix.
    let t = Instant::now();
    let lowered = decompose(circuit, Basis::Extended);
    pass.lower_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mapped = try_sabre_map(&lowered, device.topology(), &opts.sabre);
    pass.map_ns += t.elapsed().as_nanos() as u64;
    let mapped = mapped.map_err(|e| {
        arm(false);
        e.to_string()
    })?;
    let t = Instant::now();
    let physical = decompose(&mapped.circuit, Basis::Extended);
    pass.lower_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let miner_opts = MinerOptions {
        max_qubits: opts.generator.max_qubits,
        ..opts.miner
    };
    let patterns = mine_frequent_subcircuits(&physical, &miner_opts);
    let cover = select_apa_basis(&patterns, opts.apa_budget, physical.len());
    pass.mine_ns += t.elapsed().as_nanos() as u64;
    std::hint::black_box(&cover);
    let prefix = paqoc_telemetry::snapshot();
    pass.add("circuit.physical_gates", physical.len() as f64);
    pass.add("mapping.swaps", mapped.swaps_inserted as f64);
    pass.add("mining.patterns_found", patterns.len() as f64);
    pass.add(
        "mining.extensions_tried",
        counter(&prefix, "miner.extensions_tried"),
    );

    paqoc_telemetry::reset();
    let meter = Arc::new(SourceMeter::default());
    let metered: Arc<dyn PulseSourceFactory> = Arc::new(MeteredFactory {
        inner: factory.clone(),
        meter: meter.clone(),
        caller: std::thread::current().id(),
    });
    let t = Instant::now();
    let result = try_compile_batch(circuit, device, metered, opts);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let snap = paqoc_telemetry::snapshot();
    arm(false);
    let r = result.map_err(|e| e.to_string())?;
    if r.physical != physical {
        return Err("the layer replay and the pipeline lowered to different circuits".to_string());
    }

    pass.compile_ns += wall_ns;
    pass.compile_ms.push(r.wall_seconds * 1e3);
    pass.overhead_ms
        .push((wall_ns as f64 / 1e6 - r.wall_seconds * 1e3).max(0.0));
    pass.group_ns += span_ns(&snap, "group");

    // Search time: the `generate` span minus the pulse-source time it
    // contains — exec batches (which only generate pulses) and source
    // calls made directly on the compiling thread.
    let mut search_ns = 0u64;
    for g in snap.spans.iter().filter(|s| s.name == "generate") {
        let end = g.start_ns + g.duration_ns;
        let batches: u64 = snap
            .spans
            .iter()
            .filter(|s| {
                s.name == "exec.batch"
                    && s.thread == g.thread
                    && s.start_ns >= g.start_ns
                    && s.start_ns < end
            })
            .map(|s| s.duration_ns)
            .sum();
        search_ns += g.duration_ns.saturating_sub(batches);
    }
    pass.search_ns += search_ns.saturating_sub(meter.caller_ns.load(Ordering::Relaxed));
    pass.source_ns += meter.ns.load(Ordering::Relaxed);
    pass.add("source.calls", meter.calls.load(Ordering::Relaxed) as f64);
    pass.queue_wait_ms.extend(exec_queue_waits_ms(&snap));

    let accepted = counter(&snap, "apa.accepted");
    pass.add("apa.accepted", accepted);
    pass.add(
        "apa.tried",
        accepted
            + counter(&snap, "apa.rejected_acyclic")
            + counter(&snap, "apa.rejected_critical_path"),
    );
    pass.add("core.search_iterations", r.report.iterations as f64);
    pass.add(
        "core.candidates_evaluated",
        counter(&snap, "generator.candidates_evaluated"),
    );
    pass.add("core.contractions", counter(&snap, "group.contractions"));
    pass.add("criticality_merges", r.report.criticality_merges as f64);
    pass.add("cache_hits", r.stats.cache_hits as f64);
    pass.add("core.pulses_generated", r.stats.pulses_generated as f64);
    pass.add("core.cost_units", r.stats.cost_units);
    for name in [
        "grape.iterations",
        "grape.restarts",
        "grape.convergence_failures",
    ] {
        pass.add(name, counter(&snap, name));
    }
    for (kernel, metric) in [
        ("mathkit.matmul", "mathkit.matmul_calls"),
        ("mathkit.expm", "mathkit.expm_calls"),
        ("mathkit.eig", "mathkit.eig_calls"),
        ("mathkit.solve", "mathkit.solve_calls"),
    ] {
        pass.add(
            metric,
            r.kernel_calls.get(kernel).copied().unwrap_or(0) as f64,
        );
    }
    for (_, k) in snap
        .kernels
        .iter()
        .filter(|(n, _)| n.starts_with("mathkit."))
    {
        pass.kernel_ns += k.self_ns;
        pass.add("mathkit.scratch_allocs", k.allocs as f64);
        pass.add("mathkit.alloc_bytes", k.alloc_bytes as f64);
    }
    Ok(r)
}

fn span_ns(snap: &Snapshot, name: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns)
        .sum()
}

/// How long each exec job waited in its batch before a worker took it:
/// job start (its `exec.job` event time minus its busy time) minus the
/// start of the enclosing `exec.batch` span.
fn exec_queue_waits_ms(snap: &Snapshot) -> Vec<f64> {
    let spans: BTreeMap<u64, &paqoc_telemetry::SpanRecord> =
        snap.spans.iter().map(|s| (s.id, s)).collect();
    snap.events
        .iter()
        .filter(|e| e.name == "exec.job")
        .filter_map(|e| {
            let wall_us = e.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("wall_us", FieldValue::U64(us)) => Some(*us),
                _ => None,
            })?;
            let worker = spans.get(&e.span?)?;
            let batch = spans.get(&worker.parent?)?;
            let started = e.ts_ns.saturating_sub(wall_us * 1_000);
            Some(started.saturating_sub(batch.start_ns) as f64 / 1e6)
        })
        .collect()
}

/// Time to open a fresh pulse store for `device`: the median of five
/// opens, each on a new file.
pub fn store_open_ms(dir: &Path, device: &Device) -> Result<f64, String> {
    let mut ms = Vec::new();
    for i in 0..5 {
        let path = dir.join(format!("open-probe-{i}.db"));
        let t = Instant::now();
        let store = paqoc_store::PulseStore::open(&path, device.fingerprint())
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(store);
    }
    Ok(median(&ms))
}

/// Writes every per-layer metric the traced passes measured: times are
/// means per pass, work counts come from the first pass alone (how many
/// passes fit depends on speed; the first pass's input only on the seed).
pub fn fill(report: &mut Report, passes: &[LayerPass]) {
    let per_pass = |f: &dyn Fn(&LayerPass) -> u64| {
        mean(&passes.iter().map(|p| f(p) as f64 / 1e6).collect::<Vec<_>>())
    };
    report.set("circuit.lower_ms", per_pass(&|p| p.lower_ns));
    report.set("mapping.map_ms", per_pass(&|p| p.map_ns));
    report.set("mining.mine_ms", per_pass(&|p| p.mine_ns));
    report.set("core.group_ms", per_pass(&|p| p.group_ns));
    report.set("core.search_ms", per_pass(&|p| p.search_ns));
    report.set("source.ms", per_pass(&|p| p.source_ns));
    report.set("mathkit.kernel_ms", per_pass(&|p| p.kernel_ns));
    let first = passes.first().expect("at least one traced pass");
    for name in [
        "circuit.physical_gates",
        "mapping.swaps",
        "mining.extensions_tried",
        "mining.patterns_found",
        "core.search_iterations",
        "core.candidates_evaluated",
        "core.contractions",
        "core.pulses_generated",
        "core.cost_units",
        "source.calls",
        "grape.iterations",
        "grape.restarts",
        "grape.convergence_failures",
        "mathkit.matmul_calls",
        "mathkit.expm_calls",
        "mathkit.eig_calls",
        "mathkit.solve_calls",
        "mathkit.scratch_allocs",
    ] {
        report.set(name, first.count(name));
    }
    report.set("mathkit.alloc_mb", first.count("mathkit.alloc_bytes") / 1e6);
    report.set(
        "core.apa_accept_ratio",
        ratio(first.count("apa.accepted"), first.count("apa.tried")),
    );
    report.set(
        "core.merge_yield",
        ratio(
            first.count("criticality_merges"),
            first.count("core.candidates_evaluated"),
        ),
    );
    let hit_rate = ratio(
        first.count("cache_hits"),
        first.count("cache_hits") + first.count("core.pulses_generated"),
    );
    report.set("core.table_hit_rate", hit_rate);

    // The in-process caller stands in for the serve layer: compile time
    // as the pipeline reports it, and the call's time outside it.
    let all = |f: &dyn Fn(&LayerPass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    report.set(
        "exec.queue_wait_p95_ms",
        percentile(&all(&|p| &p.queue_wait_ms), 0.95),
    );
    report.set(
        "serve.compile_p50_ms",
        percentile(&all(&|p| &p.compile_ms), 0.5),
    );
    report.set(
        "serve.overhead_p95_ms",
        percentile(&all(&|p| &p.overhead_ms), 0.95),
    );
    report.set("serve.table_hit_rate", hit_rate);
}
