//! Tests of the harness itself, at the `--smoke` size (n <= 32, or 27 for
//! section 6): every workload, every check and the trace writer run in a few
//! seconds. They drive the built binary, as the driver does.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_mesh-benchmark");

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array(v: &Value, field: &str) -> Vec<Value> {
    match v.field(field).expect("an object") {
        Value::Array(items) => items.clone(),
        other => panic!("{field} is {}", other.kind()),
    }
}

fn string(v: &Value, field: &str) -> String {
    match v.field(field).expect("an object") {
        Value::String(s) => s.clone(),
        other => panic!("{field} is {}", other.kind()),
    }
}

fn names(v: &Value, field: &str) -> Vec<String> {
    array(v, field).iter().map(|m| string(m, "name")).collect()
}

/// Runs the binary; returns whether it succeeded and what it printed.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("the binary starts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// One workload at the smoke size; returns the parsed result line.
fn smoke(workload: &str, seed: u64, trace: bool) -> Value {
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let (ok, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "0.05",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert!(ok, "{workload} failed:\n{stdout}");
    let last = stdout.trim_end().lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn metric(result: &Value, name: &str) -> f64 {
    let entry = result.field("metrics").unwrap().field(name).unwrap();
    match entry.field("value").unwrap() {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        other => panic!("{name} is {}", other.kind()),
    }
}

fn metric_names(result: &Value) -> Vec<String> {
    match result.field("metrics").unwrap() {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is {}", other.kind()),
    }
}

/// Host time and resident memory: the two end-to-end metrics that may
/// differ between two runs of one seed.
const MEASURED: [&str; 2] = ["setup_s", "peak_rss_mb"];

#[test]
fn benchmark_json_is_the_binary_s_manifest_and_names_are_well_formed() {
    let (ok, manifest) = run(&["manifest"]);
    assert!(ok);
    let committed = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .unwrap();
    assert_eq!(
        manifest, committed,
        "regenerate with `mesh-benchmark manifest`"
    );

    let json = benchmark_json();
    let all = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|f| names(&json, f))
        .collect::<Vec<_>>();
    for name in &all {
        let well_formed = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(well_formed, "{name:?}");
        assert_eq!(
            all.iter().filter(|n| *n == name).count(),
            1,
            "{name} is used twice"
        );
    }
    assert!(names(&json, "end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn gated_runs_print_the_end_to_end_metrics_and_repeat_for_a_seed() {
    let json = benchmark_json();
    for workload in names(&json, "workloads") {
        let (first, again, other) = (
            smoke(&workload, 1, false),
            smoke(&workload, 1, false),
            smoke(&workload, 2, false),
        );
        assert_eq!(
            metric_names(&first),
            names(&json, "end_to_end"),
            "{workload}"
        );
        assert_eq!(first.field("correct").unwrap(), &Value::Bool(true));
        assert_eq!(first.field("failed").unwrap(), &Value::U64(0), "{workload}");
        for m in names(&json, "end_to_end") {
            assert!(metric(&first, &m) > 0.0, "{workload}/{m} is zero");
            if !MEASURED.contains(&m.as_str()) {
                assert_eq!(
                    metric(&first, &m),
                    metric(&again, &m),
                    "{workload}/{m} for one seed"
                );
            }
        }
        // The adversary's construction takes no random input.
        if workload != "lowerbound" {
            assert_ne!(
                metric(&first, "sim_moves"),
                metric(&other, "sim_moves"),
                "{workload}: another seed must give another problem"
            );
        }
    }
}

#[test]
fn traced_runs_print_the_per_layer_metrics_and_write_whole_span_files() {
    let json = benchmark_json();
    let check_span_file = |workload: &str| {
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.json"));
        let file: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = array(&file, "spans");
        let int = |v: &Value, f: &str| match v.field(f).unwrap() {
            Value::U64(x) => *x,
            other => panic!("{f} is {}", other.kind()),
        };
        // Self time: duration minus the children's durations.
        let mut own: Vec<i128> = spans
            .iter()
            .map(|s| int(s, "end_ns") as i128 - int(s, "start_ns") as i128)
            .collect();
        for s in &spans {
            assert_eq!(string(s, "workload"), workload);
            if let Value::U64(parent) = s.field("parent").unwrap() {
                own[*parent as usize] -= int(s, "end_ns") as i128 - int(s, "start_ns") as i128;
            }
        }
        assert!(
            own.iter().all(|&t| t >= 0),
            "{workload}: a child outlasts its parent"
        );
        let (sum, wall) = (
            own.iter().sum::<i128>() as f64,
            int(&file, "traced_wall_ns") as f64,
        );
        assert!(
            (sum - wall).abs() <= 0.05 * wall,
            "{workload}: self times {sum} of {wall} ns"
        );
    };
    for workload in names(&json, "workloads") {
        let result = smoke(&workload, 1, true);
        assert_eq!(
            metric_names(&result),
            names(&json, "per_layer"),
            "{workload}"
        );
        let entered = metric_names(&result)
            .iter()
            .filter(|m| metric(&result, m) != 0.0)
            .count();
        assert!(
            entered >= 7,
            "{workload} entered too few layers: {entered} metrics"
        );
        check_span_file(&workload);
    }
    // The subcommand that runs them all, one child each.
    let (ok, stdout) = run(&["trace", "--smoke"]);
    assert!(ok, "{stdout}");
    for workload in names(&json, "workloads") {
        check_span_file(&workload);
    }
}

#[test]
fn run_prints_every_metric_by_name_with_its_unit() {
    let json = benchmark_json();
    let (ok, stdout) = run(&["run", "--smoke", "--seconds", "0.05"]);
    assert!(ok, "{stdout}");
    for workload in names(&json, "workloads") {
        assert!(
            stdout.contains(&format!("{workload}  (seed 1, gated)")),
            "{workload}"
        );
    }
    for m in array(&json, "end_to_end") {
        let (name, unit) = (string(&m, "name"), string(&m, "unit"));
        let printed = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(&name) && l.ends_with(&unit))
            .count();
        assert_eq!(printed, 7, "{name} [{unit}] once per workload");
    }
}

#[test]
fn a_wrong_expectation_fails_the_gate() {
    // Theorem 15 runs with k = 2 and fills its queues; expecting 1 is wrong.
    let (ok, stdout) = run(&[
        "--workload",
        "perm-packed",
        "--seed",
        "1",
        "--seconds",
        "0.05",
        "--trace",
        "0",
        "--smoke",
        "--expect-queue-bound",
        "1",
    ]);
    assert!(!ok, "the gate let a violated bound through");
    assert!(
        !stdout.contains("\"correct\""),
        "a failed run must print no result"
    );
    let (ok, _) = run(&[
        "--workload",
        "no-such-workload",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
}
