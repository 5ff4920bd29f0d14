//! Runs every workload for one second in both modes and checks the
//! result contract against `BENCHMARK.json`: every metric it names is
//! printed with its unit, nothing fails, and the inputs digest depends
//! on the seed and only on it.
//!
//! Slow (it generates the full workloads): run with
//! `cargo test --release --manifest-path e2e_bench/Cargo.toml`.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = list.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Serializes runs: the test harness runs tests on parallel threads, and
/// two benchmarks sharing the two cores would miss the open-loop
/// schedule (the generator-lateness check fails such a phase).
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs the benchmark in a scratch directory; returns its stdout.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .current_dir(&dir)
        .output()
        .expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn digest(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|line| {
            line.split_once(" inputs_digest ")
                .map(|(_, rest)| rest.to_string())
        })
        .expect("an inputs_digest line")
}

#[test]
fn every_workload_reports_every_metric_and_fails_nothing() {
    let bench = benchmark();
    let Some(Value::Array(workloads)) = bench.get("workloads") else {
        panic!("no workloads");
    };
    for workload in workloads {
        let workload = workload
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, 1, trace);
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::from_str(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: {stdout}"
            );
            assert_eq!(
                result.get("failed"),
                Some(&Value::Number(0.0)),
                "{workload}"
            );
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in names(&bench, key) {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|line| line.starts_with(&format!("{workload} {name} "))),
                    "{workload}: {name} not printed"
                );
            }
        }
    }
}

#[test]
fn inputs_digest_depends_on_the_seed_only() {
    let first = digest(&run("serve_batch", 3, 0));
    assert_eq!(
        first,
        digest(&run("serve_batch", 3, 0)),
        "same seed, same inputs"
    );
    assert_ne!(
        first,
        digest(&run("serve_batch", 4, 0)),
        "another seed, other inputs"
    );
}
