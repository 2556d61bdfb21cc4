//! Self-tests of the benchmark: a tiny pass of every workload prints
//! every metric `BENCHMARK.json` names, with a finite value, and a
//! corrupted expectation makes the command fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["clean_long", "late_long", "session_churn"];

fn run(workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .args(extra)
        .output()
        .expect("the benchmark runs")
}

/// The metric names of one list (`end_to_end` or `per_layer`) in
/// `BENCHMARK.json`.
fn names(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// The value printed for metric `name` in the result line.
fn value(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {result}"))
        + key.len();
    let rest = &result[at..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .unwrap_or_else(|e| panic!("metric {name} is not a number: {e}"))
}

fn check_tiny_pass(workload: &str, trace: u8) {
    let out = run(workload, trace, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(result.contains("\"failed\": 0,"));
    let list = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    let names = names(list);
    assert!(!names.is_empty());
    for name in &names {
        let v = value(result, name);
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
    assert_eq!(result.matches("\"value\"").count(), names.len(), "{result}");
    if trace == 1 {
        let exact = value(result, "engine.exact_stream_share");
        let expected = if workload == "session_churn" {
            1.0
        } else {
            0.0
        };
        assert_eq!(exact, expected, "{workload} exact-engine share");
        assert_eq!(value(result, "pool.ring_bytes_per_stream"), 80.0 * 1024.0);
        assert_eq!(value(result, "fail_rate"), 0.0);
    }
}

#[test]
fn tiny_untraced_pass_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        check_tiny_pass(w, 0);
    }
}

#[test]
fn tiny_traced_pass_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        check_tiny_pass(w, 1);
    }
}

#[test]
fn a_corrupted_expected_violation_count_fails_the_run() {
    let out = run("late_long", 0, &["--inject-mismatch"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": false, "), "{result}");
    assert!(result.contains("\"failed\": 1,"), "{result}");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
