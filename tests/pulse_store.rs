//! End-to-end tests of the persistent pulse store through the pipeline:
//! cold→warm double compilation of all 17 embedded benchmarks (the warm
//! pass must perform **zero** pulse generations, sequential and batched
//! alike), warm-start of the real GRAPE source, panic-storm isolation,
//! pulse reuse through a caller's shared table, persistence of a failed
//! compile's pulses, and graceful degradation when the store path is
//! unusable.
//!
//! Every compilation in this binary passes an explicit
//! `PipelineOptions::pulse_db` (or sets it to an unwritable path), so
//! the one test that exercises the `PAQOC_PULSE_DB` environment
//! fallback cannot contaminate its neighbours.

use paqoc::circuit::Circuit;
use paqoc::core::{
    try_compile, try_compile_batch, CompilationResult, CompileError, Degradation, PipelineOptions,
};
use paqoc::device::{AnalyticModel, Device, FaultConfig, FaultySource};
use paqoc::exec::{AnalyticFactory, FaultyAnalyticFactory, SharedPulseTable};
use paqoc::grape::GrapeSource;
use paqoc::store::PulseStore;
use paqoc::workloads::all_benchmarks;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp_db(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paqoc-pulse-store-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn opts_with_db(db: PathBuf) -> PipelineOptions {
    PipelineOptions {
        pulse_db: Some(db),
        ..PipelineOptions::m_inf()
    }
}

/// How [`compile_all`] drives the pipeline.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// `try_compile` with one `AnalyticModel` per benchmark.
    Sequential,
    /// `try_compile_batch` on one worker with the `AnalyticFactory`.
    Batch,
}

fn compile_all(db: &Path, mode: Mode) -> Vec<(&'static str, CompilationResult)> {
    let device = Device::grid5x5();
    let opts = PipelineOptions {
        threads: Some(1),
        ..opts_with_db(db.to_path_buf())
    };
    all_benchmarks()
        .iter()
        .map(|b| {
            let circuit = (b.build)();
            let r = match mode {
                Mode::Sequential => {
                    let mut source = AnalyticModel::new();
                    try_compile(&circuit, &device, &mut source, &opts)
                }
                Mode::Batch => {
                    try_compile_batch(&circuit, &device, Arc::new(AnalyticFactory), &opts)
                }
            }
            .unwrap_or_else(|e| panic!("{} ({mode:?}) failed: {e}", b.name));
            (b.name, r)
        })
        .collect()
}

/// The tentpole acceptance criterion: after one cold compilation of all
/// 17 benchmarks, a second compilation of the same set performs zero
/// pulse generations — every estimate is served from the store — and
/// produces identical schedules. The sequential and the batch compile
/// paths must read the one store identically.
#[test]
fn warm_pass_over_all_benchmarks_generates_zero_pulses() {
    let db = tmp_db("warm_all.db");
    let cold = compile_all(&db, Mode::Sequential);
    assert!(
        cold.iter().any(|(_, r)| r.stats.pulses_generated > 0),
        "cold pass should have generated at least one pulse"
    );

    for mode in [Mode::Sequential, Mode::Batch] {
        let warm = compile_all(&db, mode);
        for ((name, c), (_, w)) in cold.iter().zip(&warm) {
            assert_eq!(
                w.stats.pulses_generated, 0,
                "{name} ({mode:?}): warm pass generated {} pulses",
                w.stats.pulses_generated
            );
            assert!(
                w.stats.store_hits > 0,
                "{name} ({mode:?}): warm pass never hit the store"
            );
            assert!(
                w.degradations.is_empty(),
                "{name} ({mode:?}): warm pass degraded: {:?}",
                w.degradations
            );
            assert_eq!(
                w.latency_dt, c.latency_dt,
                "{name} ({mode:?}): warm latency differs"
            );
            assert_eq!(w.esp, c.esp, "{name} ({mode:?}): warm esp differs");
        }
    }
}

/// A sequential `try_compile` runs over the caller's shared table: a
/// second compile over it is served entirely from pulses the first one
/// published there, without touching the store.
#[test]
fn sequential_compile_reuses_a_callers_shared_table() {
    let db = tmp_db("shared_sequential.db");
    let device = Device::grid5x5();
    let circuit = (all_benchmarks()[0].build)();
    let shared = Arc::new(SharedPulseTable::new());
    let opts = PipelineOptions {
        shared_table: Some(shared.clone()),
        ..opts_with_db(db)
    };
    let mut s1 = AnalyticModel::new();
    let first = try_compile(&circuit, &device, &mut s1, &opts).expect("first compile");
    assert!(first.stats.pulses_generated > 0);
    assert!(shared.has_store(), "the shared table owns the store");
    assert_eq!(shared.len(), first.pulse_table.len());

    let mut s2 = AnalyticModel::new();
    let second = try_compile(&circuit, &device, &mut s2, &opts).expect("second compile");
    assert_eq!(second.stats.pulses_generated, 0);
    assert!(second.stats.cache_hits > 0);
    assert_eq!(
        second.stats.store_hits, 0,
        "hits must come from the shared shards, not the store"
    );
    assert_eq!(second.latency_dt, first.latency_dt);
    assert_eq!(second.pulse_table, first.pulse_table);
}

/// A compile that fails after generating some pulses (a convergence
/// storm with estimator fallback disabled) still flushes what it
/// generated, sequential and batched alike: every pulse it published
/// to its shared table is in the store on reopen.
#[test]
fn failed_compile_still_persists_its_generated_pulses() {
    let device = Device::grid5x5();
    let circuit = (all_benchmarks()[0].build)();
    let storm = FaultConfig::convergence_storm(1, 0.3);
    for mode in [Mode::Sequential, Mode::Batch] {
        let db = tmp_db(&format!("failed_compile_{mode:?}.db"));
        let shared = Arc::new(SharedPulseTable::new());
        let opts = PipelineOptions {
            allow_estimator_fallback: false,
            pulse_retries: 0,
            threads: Some(1),
            shared_table: Some(shared.clone()),
            ..opts_with_db(db.clone())
        };
        let result = match mode {
            Mode::Sequential => {
                let mut source = FaultySource::new(AnalyticModel::new(), storm);
                try_compile(&circuit, &device, &mut source, &opts)
            }
            Mode::Batch => try_compile_batch(
                &circuit,
                &device,
                Arc::new(FaultyAnalyticFactory::new(storm)),
                &opts,
            ),
        };
        let err = result.expect_err("a singleton convergence failure without fallback is an error");
        assert!(
            matches!(err, CompileError::PulseSource { .. }),
            "{mode:?}: unexpected error: {err}"
        );
        let generated = shared.len();
        assert!(
            generated > 0,
            "{mode:?}: the storm left no clean generation"
        );
        drop(opts);
        drop(shared);

        let store = PulseStore::open(&db, device.fingerprint()).expect("reopen");
        assert_eq!(
            store.len(),
            generated,
            "{mode:?}: every pulse generated before the failure must be persisted"
        );
    }
}

/// Same criterion against the real optimizer: a fresh `GrapeSource`
/// reading a warmed store performs zero GRAPE optimizations.
#[test]
fn warm_pass_skips_grape_entirely() {
    let db = tmp_db("warm_grape.db");
    let device = Device::line(3);
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.3);
    let opts = PipelineOptions {
        skip_mapping: true,
        pulse_db: Some(db),
        ..PipelineOptions::m0()
    };

    let mut cold_grape = GrapeSource::fast();
    let cold = try_compile(&c, &device, &mut cold_grape, &opts).expect("cold compile");
    assert!(cold.stats.pulses_generated > 0);
    assert!(
        cold_grape.cache_len() > 0,
        "cold pass should have run GRAPE"
    );

    let mut warm_grape = GrapeSource::fast();
    let warm = try_compile(&c, &device, &mut warm_grape, &opts).expect("warm compile");
    assert_eq!(warm.stats.pulses_generated, 0);
    assert_eq!(
        warm_grape.cache_len(),
        0,
        "warm pass must not invoke GRAPE at all"
    );
    assert_eq!(warm.latency_dt, cold.latency_dt);
}

/// A pulse source that panics on every call must degrade — typed
/// `Degradation::SourcePanic` entries, analytic estimates — not abort
/// the process, and nothing it touched may be cached persistently.
#[test]
fn panic_storm_degrades_instead_of_aborting() {
    let db = tmp_db("panic_storm.db");
    let device = Device::grid5x5();
    let circuit = (all_benchmarks()[0].build)();
    let mut source = FaultySource::new(AnalyticModel::new(), FaultConfig::panic_storm(7, 1.0));
    let r = try_compile(&circuit, &device, &mut source, &opts_with_db(db.clone()))
        .expect("panic storm must not abort compilation");

    assert!(r.stats.source_panics > 0, "no panic was recorded");
    assert!(
        r.degradations
            .iter()
            .any(|d| matches!(d, Degradation::SourcePanic { .. })),
        "degradations carry no SourcePanic: {:?}",
        r.degradations
    );
    assert!(r.latency_dt > 0);
    assert!(r.esp.is_finite());

    // Nothing produced under panic quarantine may have been persisted:
    // a later clean compilation must regenerate everything.
    let mut clean = AnalyticModel::new();
    let r2 = try_compile(&circuit, &device, &mut clean, &opts_with_db(db))
        .expect("clean compile after storm");
    assert_eq!(
        r2.stats.store_hits, 0,
        "quarantined pulses leaked into the store"
    );
}

/// A store path that cannot be opened (here: an existing directory)
/// degrades to in-memory compilation with a `StoreUnavailable` entry —
/// never an error.
#[test]
fn unusable_store_path_degrades_to_in_memory() {
    let dir = std::env::temp_dir().join(format!("paqoc-store-as-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dir");
    let device = Device::grid5x5();
    let circuit = (all_benchmarks()[0].build)();
    let mut source = AnalyticModel::new();
    let r = try_compile(&circuit, &device, &mut source, &opts_with_db(dir))
        .expect("compile with unusable store");
    assert!(
        r.degradations
            .iter()
            .any(|d| matches!(d, Degradation::StoreUnavailable { .. })),
        "expected StoreUnavailable, got {:?}",
        r.degradations
    );
    assert!(
        r.stats.pulses_generated > 0,
        "must fall back to live generation"
    );
    assert_eq!(r.stats.store_hits, 0);
}

/// The `PAQOC_PULSE_DB` environment variable is the zero-code way to
/// turn persistence on; `PipelineOptions::pulse_db = None` consults it.
#[test]
fn env_var_fallback_warm_starts() {
    let db = tmp_db("env_fallback.db");
    let device = Device::grid5x5();
    let circuit = (all_benchmarks()[1].build)();
    let opts = PipelineOptions::m_inf(); // pulse_db: None → env fallback
    std::env::set_var("PAQOC_PULSE_DB", &db);

    let mut s1 = AnalyticModel::new();
    let cold = try_compile(&circuit, &device, &mut s1, &opts).expect("cold env compile");
    let mut s2 = AnalyticModel::new();
    let warm = try_compile(&circuit, &device, &mut s2, &opts).expect("warm env compile");
    std::env::remove_var("PAQOC_PULSE_DB");

    assert!(cold.stats.pulses_generated > 0);
    assert_eq!(warm.stats.pulses_generated, 0);
    assert!(warm.stats.store_hits > 0);
}

/// Two different devices sharing one logical workload must not share a
/// store file: the second device's fingerprint rejects the first's
/// records and rotates the file rather than serving wrong pulses.
#[test]
fn foreign_device_store_is_rotated_not_reused() {
    let db = tmp_db("foreign_device.db");
    let circuit = (all_benchmarks()[2].build)();

    let grid = Device::grid5x5();
    let mut s1 = AnalyticModel::new();
    let r1 = try_compile(&circuit, &grid, &mut s1, &opts_with_db(db.clone())).expect("grid");
    assert!(r1.stats.pulses_generated > 0);

    let line = Device::line(25);
    let mut s2 = AnalyticModel::new();
    let r2 = try_compile(&circuit, &line, &mut s2, &opts_with_db(db)).expect("line");
    assert_eq!(r2.stats.store_hits, 0, "foreign pulses must not be served");
    assert!(r2.stats.pulses_generated > 0);
}
