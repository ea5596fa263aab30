//! Tests of the benchmark itself, run against the built binary:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use paqoc_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

/// Variables the benchmark must pin; set here to values that would
/// change a run if they leaked through.
const STRAY_ENV: [(&str, &str); 4] = [
    ("PAQOC_TRACE", "1"),
    ("PAQOC_KERNEL_PROBES", "0"),
    ("PAQOC_THREADS", "7"),
    ("PAQOC_METRICS_MS", "1"),
];

/// Runs one benchmark invocation and returns its result object.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    run_in(workload, seed, trace, &[])
}

fn run_in(workload: &str, seed: u64, trace: bool, env: &[(&str, &str)]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .envs(env.iter().copied())
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_num),
        Some(0.0),
        "{last}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_num)
            .unwrap_or(0.0)
            >= 1.0
    );
    result
}

fn metrics(result: &Value) -> &BTreeMap<String, Value> {
    match result.get("metrics") {
        Some(Value::Obj(m)) => m,
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn value(result: &Value, name: &str) -> f64 {
    metrics(result)
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("no value for {name}"))
}

/// Work counters that depend only on the input, never on timing.
const DETERMINISTIC: [&str; 9] = [
    "core.candidates_evaluated",
    "core.contractions",
    "core.pulses_generated",
    "grape.iterations",
    "mathkit.matmul_calls",
    "mathkit.expm_calls",
    "mathkit.eig_calls",
    "mathkit.solve_calls",
    "source.calls",
];

#[test]
fn work_counters_repeat_for_a_seed_and_move_with_it() {
    let a = run("grape-small", 1, true);
    // Stray settings in the environment must not change the work done.
    let b = run_in("grape-small", 1, true, &STRAY_ENV);
    for name in DETERMINISTIC {
        assert_eq!(
            value(&a, name),
            value(&b, name),
            "{name} differs across runs of seed 1"
        );
    }
    assert!(value(&a, "grape.iterations") > 0.0);
    // The small GRAPE circuits often map to the same schedule under two
    // relabelings; the Table-I set never does.
    let c = run("table1-search", 1, true);
    let d = run("table1-search", 2, true);
    assert!(
        DETERMINISTIC.iter().any(|n| value(&c, n) != value(&d, n)),
        "a second seed left every work counter unchanged"
    );
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(result: &Value) -> Vec<(String, String)> {
    metrics(result)
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Value::as_num).is_some(),
                "{name} has no value"
            );
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let mut end_to_end = declared("end_to_end");
    let mut per_layer = declared("per_layer");
    end_to_end.sort();
    per_layer.sort();
    for workload in ["table1-search", "grape-small", "serve-open"] {
        let e2e = run(workload, 3, false);
        assert_eq!(emitted(&e2e), end_to_end, "{workload} end-to-end metrics");
        for (name, _) in &end_to_end {
            assert!(value(&e2e, name) > 0.0, "{workload}: {name} is zero");
        }
    }
    let traced = run("serve-open", 3, true);
    assert_eq!(emitted(&traced), per_layer, "serve-open per-layer metrics");
}
