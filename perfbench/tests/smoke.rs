//! Smoke runs of every workload at tiny size: the result line names every
//! metric `BENCHMARK.json` lists, with its unit, and the traced and
//! untraced runs of a workload render the same results.

use serde::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["backlog", "month-slice", "sweep-mix"];

/// The benchmark definition at the repository root.
fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny pass; returns the parsed result line and standard error.
fn run(workload: &str, trace: u8) -> (Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--size", "tiny", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    (
        serde_json::from_str(last).expect("the result line is JSON"),
        stderr,
    )
}

fn str_of<'a>(value: &'a Value, key: &str) -> &'a str {
    match value.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// Asserts that `result` is correct and reports exactly the metrics of
/// `BENCHMARK.json`'s `section`, each with its unit.
fn assert_reports(result: &Value, section: &str, what: &str) {
    assert!(
        matches!(result.get("correct"), Some(Value::Bool(true))),
        "{what}: not correct"
    );
    assert!(
        matches!(result.get("failed"), Some(Value::Int(0))),
        "{what}: failures"
    );
    assert!(
        matches!(result.get("attempted"), Some(Value::Int(n)) if *n >= 1),
        "{what}: attempted"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_map)
        .expect("a metrics map");
    let listed = benchmark();
    let listed = listed
        .get(section)
        .and_then(Value::as_seq)
        .expect("a metric list");
    assert_eq!(metrics.len(), listed.len(), "{what}: metric count");
    for spec in listed {
        let name = str_of(spec, "name");
        let (_, reported) = metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            str_of(reported, "unit"),
            str_of(spec, "unit"),
            "{what}: {name} unit"
        );
        assert!(
            matches!(reported.get("value"), Some(Value::Int(_) | Value::Float(_))),
            "{what}: {name} value"
        );
    }
}

/// The digest of the run's results at the workload's own seed, as
/// printed on standard error.
fn digest(stderr: &str) -> String {
    let line = stderr
        .lines()
        .find(|l| l.contains("digest "))
        .expect("a digest line");
    let rest = &line[line.find("digest ").expect("digest") + "digest ".len()..];
    rest.split_whitespace()
        .next()
        .expect("a digest")
        .to_string()
}

#[test]
fn every_workload_reports_every_metric_and_agrees_traced_and_untraced() {
    for workload in WORKLOADS {
        let (plain, plain_err) = run(workload, 0);
        assert_reports(&plain, "end_to_end", &format!("{workload} untraced"));
        let (traced, traced_err) = run(workload, 1);
        assert_reports(&traced, "per_layer", &format!("{workload} traced"));
        assert_eq!(
            digest(&plain_err),
            digest(&traced_err),
            "{workload}: digests"
        );
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"],
        &["--workload", "backlog", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("perfbench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
