//! The two binaries reject what they do not understand: an unknown flag or
//! an unparseable value is one `error:` line naming the flag and exit
//! code 2, never a silent default.

use std::process::{Command, Output};

fn mesh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mesh"))
        .args(args)
        .output()
        .expect("run mesh")
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

/// Exit code 2 and a single `error:` line on stderr that names `flag`.
fn assert_usage_error(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "stderr: {stderr}");
    assert!(errors[0].contains(flag), "stderr: {stderr}");
}

/// `mesh route theorem15 --workload random --n 8` plus `extra`.
fn mesh_route(extra: &[&str]) -> Output {
    let base = ["route", "theorem15", "--workload", "random", "--n", "8"];
    mesh(&[&base[..], extra].concat())
}

#[test]
fn mesh_routes_a_valid_line() {
    let out = mesh_route(&["--k", "2"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("delivered=64/64"), "stdout: {stdout}");
}

#[test]
fn mesh_rejects_unknown_flags() {
    let out = mesh_route(&["--k", "2", "--bogus-flag", "7", "--cap", "notanumber"]);
    assert_usage_error(&out, "--bogus-flag");
    assert_usage_error(&mesh_route(&["--tile-threads", "2"]), "--tile-threads");
    // A flag of another subcommand is unknown here.
    let out = mesh(&["workload", "random", "--n", "8", "--k", "2"]);
    assert_usage_error(&out, "--k");
}

#[test]
fn mesh_rejects_unparseable_values() {
    assert_usage_error(&mesh_route(&["--k", "abc"]), "--k");
    assert_usage_error(&mesh_route(&["--cap", "notanumber"]), "--cap");
    // A numeric flag with no value at all.
    assert_usage_error(&mesh_route(&["--k"]), "--k");
}

#[test]
fn experiments_rejects_unknown_flags() {
    let out = experiments(&["perf", "--tile-threads", "2"]);
    assert_usage_error(&out, "--tile-threads");
    assert_usage_error(&experiments(&["--bogus", "e2"]), "--bogus");
    // One pool, one knob: the across-experiments worker count is gone.
    assert_usage_error(&experiments(&["--jobs", "2", "e2"]), "--jobs");
}

fn stdout_lines(out: &Output, prefix: &str) -> usize {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().filter(|l| l.starts_with(prefix)).count()
}

#[test]
fn route_statistics_come_with_the_one_route_line() {
    let out = mesh_route(&["--k", "2", "--latency", "--heatmap"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout_lines(&out, "theorem15(k=2) on "), 1);
    assert_eq!(stdout_lines(&out, "latency:"), 1);
    // One route line, one latency line and an 8-row map.
    assert!(stdout_lines(&out, "") >= 10);

    let section6 = ["route", "section6", "--workload", "random", "--n", "9"];
    let out = mesh(&[&section6[..], &["--latency", "--heatmap"]].concat());
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout_lines(&out, "section6 on "), 1);
    assert_eq!(stdout_lines(&out, "latency:"), 0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("engine-router features"), "{stderr}");

    // The statistics need the live run: refused, not silently dropped.
    let out = mesh_route(&["--latency", "--checkpoint-every", "4"]);
    assert_usage_error(&out, "--latency");
}

#[test]
fn mesh_checks_workload_parameters() {
    let out = mesh(&["workload", "bit-reversal", "--n", "9"]);
    assert_usage_error(&out, "--n");
    let out = mesh(&["workload", "partial", "--n", "8", "--load", "1.5"]);
    assert_usage_error(&out, "--load");
}

/// Out-of-range values are refused where they arrive, before a library
/// assert can panic on them.
#[test]
fn mesh_rejects_out_of_range_values() {
    let cases = [
        ("route theorem15 --lambda -1 --n 8", "--lambda"),
        ("route dim-order --lambda nan --n 8", "--lambda"),
        (
            "route theorem15 --lambda 0.1 --n 8 --windows 0",
            "--windows",
        ),
        ("route theorem15 --lambda 0.1 --n 8 --window 0", "--window"),
        ("route theorem15 --workload random --n 8 --k 0", "--k"),
        ("route theorem15 --workload random --n 0", "--n"),
    ];
    for (line, flag) in cases {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = mesh(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert_usage_error(&out, flag);
    }
}

/// The names the usage text lists after `heading` (the list may wrap onto
/// indented lines).
fn usage_names(usage: &str, heading: &str) -> Vec<String> {
    let list = &usage[usage.find(heading).expect(heading) + heading.len()..];
    let lines = list.lines().enumerate();
    lines
        .take_while(|(i, l)| *i == 0 || l.starts_with(' '))
        .flat_map(|(_, l)| l.split_whitespace())
        .map(String::from)
        .collect()
}

#[test]
fn every_name_the_usage_lists_is_accepted() {
    let usage = String::from_utf8_lossy(&mesh(&[]).stderr).into_owned();
    let algorithms = usage_names(&usage, "algorithms:");
    assert_eq!(algorithms.len(), 11, "{algorithms:?}");
    for algo in &algorithms {
        // n = 9 so the §6 schedulers run too.
        let out = mesh(&["route", algo, "--workload", "random", "--n", "9"]);
        assert_eq!(out.status.code(), Some(0), "route {algo}");
    }
    let workloads = usage_names(&usage, "workloads:");
    assert_eq!(workloads.len(), 9, "{workloads:?}");
    for kind in &workloads {
        // n = 8 so bit-reversal runs too.
        let out = mesh(&["workload", kind, "--n", "8"]);
        assert_eq!(out.status.code(), Some(0), "workload {kind}");
    }
}
