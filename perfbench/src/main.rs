//! The repository benchmark.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-search|grape-small|serve-open --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with
//! telemetry and kernel probes disarmed; with `--trace 1` it measures the
//! per-layer metrics (and the tracing overhead). Every compile's output
//! is checked outside the timed window. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `BENCHMARK.json` at the repository root lists the workloads and
//! metrics; `perfbench/METRICS.md` says what each metric measures and
//! which end-to-end metric each layer metric should move.

mod batch;
mod check;
mod inputs;
mod layers;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), in output order, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("latency_dt_geomean", "dt"),
    ("esp_geomean", "ratio"),
    ("ok_ratio", "ratio"),
    ("serve_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    ("serve_rps_at_slo", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.lower_ms", "ms"),
    ("circuit.physical_gates", "count"),
    ("mapping.map_ms", "ms"),
    ("mapping.swaps", "count"),
    ("mining.mine_ms", "ms"),
    ("mining.extensions_tried", "count"),
    ("mining.patterns_found", "count"),
    ("core.group_ms", "ms"),
    ("core.apa_accept_ratio", "ratio"),
    ("core.search_ms", "ms"),
    ("core.search_iterations", "count"),
    ("core.candidates_evaluated", "count"),
    ("core.contractions", "count"),
    ("core.merge_yield", "ratio"),
    ("core.table_hit_rate", "ratio"),
    ("core.pulses_generated", "count"),
    ("core.cost_units", "units"),
    ("source.calls", "count"),
    ("source.ms", "ms"),
    ("grape.iterations", "count"),
    ("grape.restarts", "count"),
    ("grape.convergence_failures", "count"),
    ("mathkit.matmul_calls", "count"),
    ("mathkit.expm_calls", "count"),
    ("mathkit.eig_calls", "count"),
    ("mathkit.solve_calls", "count"),
    ("mathkit.scratch_allocs", "count"),
    ("mathkit.alloc_mb", "MB"),
    ("mathkit.kernel_ms", "ms"),
    ("exec.queue_wait_p95_ms", "ms"),
    ("serve.compile_p50_ms", "ms"),
    ("serve.overhead_p95_ms", "ms"),
    ("serve.table_hit_rate", "ratio"),
    ("store.appends", "count"),
    ("store.hits", "count"),
    ("store.bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("bench.gen_lag_p95_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Environment variables the crates read that would turn a run warm,
/// traced, multi-threaded or sampled behind the benchmark's back.
const PINNED_ENV: [&str; 6] = [
    "PAQOC_TRACE",
    "PAQOC_KERNEL_PROBES",
    "PAQOC_PULSE_DB",
    "PAQOC_PULSE_DB_MAX_BYTES",
    "PAQOC_THREADS",
    "PAQOC_METRICS_MS",
];

/// The workloads (see `BENCHMARK.json` for why each was chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All 17 Table-I circuits, analytic source, one thread.
    Table1Search,
    /// Small circuits through real GRAPE on two exec workers.
    GrapeSmall,
    /// An in-process compile server under open-loop load.
    ServeOpen,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "table1-search" => Some(Workload::Table1Search),
            "grape-small" => Some(Workload::GrapeSmall),
            "serve-open" => Some(Workload::ServeOpen),
            _ => None,
        }
    }
}

/// Command-line arguments.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Output-check failures; empty means `correct`.
    pub errors: Vec<String>,
    /// Operations attempted (compiles or requests).
    pub attempted: u64,
    /// Operations that failed (see `METRICS.md` for what counts).
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records an output-check failure (the first few are echoed to
    /// stderr so a wrong run says why).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("perfbench: check failed: {msg}");
        }
        self.errors.push(msg);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn to_json(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Restarts the peak-RSS count (`VmHWM`) from the current RSS, so the
/// peak read after the measured work excludes the set-up before it.
/// Best effort: without a writable `/proc/self/clear_refs` the peak
/// covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    // Pin the environment before any crate reads it (the telemetry and
    // probe switches are latched on first use) and before any thread
    // exists, so a stray variable cannot make a run warm or traced.
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    paqoc_telemetry::set_enabled(false);
    paqoc_telemetry::set_kernel_probes(Some(false));

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workdir = match inputs::WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload {
        Workload::Table1Search | Workload::GrapeSmall => batch::run(&args, &workdir),
        Workload::ServeOpen => serve::run(&args, &workdir),
    };
    drop(workdir);
    match outcome {
        Ok(report) => {
            let names = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", report.to_json(names));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
