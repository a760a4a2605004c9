//! The two binaries reject what they do not understand: an unknown flag or
//! an unparseable value is one `error:` line naming the flag and exit
//! code 2, never a silent default. A problem file the engine cannot run, or
//! a damaged checkpoint, is one line naming what is wrong and exit code 1.
//! What they accept they run end to end: a killed run resumes byte for
//! byte, and `--json-out` writes its documents. Scratch files go under
//! `CARGO_TARGET_TMPDIR`.

use mesh_routing::engine::Snapshot;
use std::path::{Path, PathBuf};
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
    // So is a flag of the other form of `mesh route`: a steady run has no
    // step cap, a closed one no measurement windows.
    let steady = ["route", "theorem15", "--lambda", "0.1", "--n", "8"];
    assert_usage_error(&mesh(&[&steady[..], &["--cap", "100"]].concat()), "--cap");
    assert_usage_error(&mesh_route(&["--windows", "3"]), "--windows");
    // A resume takes its problem from the snapshot.
    let resume = [
        "route",
        "theorem15",
        "--resume-from",
        "ckpt_8.json",
        "--n",
        "8",
    ];
    assert_usage_error(&mesh(&resume), "--n");
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

    // Every engine run is the live run the statistics come from,
    // checkpointed or not.
    let dir = scratch("statistics");
    let every = ["--latency", "--checkpoint-every", "4", "--checkpoint-dir"];
    let out = mesh_route(&[&every[..], &[dir.to_str().unwrap()]].concat());
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout_lines(&out, "theorem15(k=4) on "), 1);
    assert_eq!(stdout_lines(&out, "latency:"), 1);
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
        (
            "route theorem15 --lambda 0.1 --n 8 --k 2 --warmup 18446744073709551615",
            "--warmup",
        ),
        (
            "route theorem15 --lambda 0.1 --n 8 --window 18446744073709551615",
            "--window",
        ),
        ("route theorem15 --workload random --n 8 --k 0", "--k"),
        (
            "route theorem15 --lambda 0.1 --n 8 --watchdog 0",
            "--watchdog",
        ),
        (
            "route theorem15 --workload random --n 8 --checkpoint-every 0",
            "--checkpoint-every",
        ),
        ("route theorem15 --workload random --n 0", "--n"),
        ("construct general --n 216 --k 0", "--k"),
        ("construct dimorder --n 216 --k 0", "--k"),
        ("construct farthest --n 216 --k 0", "--k"),
        ("construct general --n 600 --k 4 --h 0", "--h"),
        ("construct general --n 0", "--n"),
        ("workload hotspot --n 1", "--n"),
        ("route theorem15 --workload hotspot --n 1", "--n"),
    ];
    for (line, flag) in cases {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = mesh(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert_usage_error(&out, flag);
    }
}

/// A one-packet problem file: side `n`, packet id `id`, `src` to `dst`.
fn problem_file(name: &str, n: u32, id: u32, src: (u32, u32), dst: (u32, u32)) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_problems");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.json"));
    let packet = format!(
        r#"{{"id":{id},"src":{{"x":{},"y":{}}},"dst":{{"x":{},"y":{}}},"inject_at":0,"state":0}}"#,
        src.0, src.1, dst.0, dst.1
    );
    let text = format!(r#"{{"n":{n},"packets":[{packet}],"label":"{name}"}}"#);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

/// A problem the engine cannot run is refused by `RoutingProblem::validate`
/// before any grid is built: one line naming the file, exit 1. Without it an
/// off-grid endpoint panics, or (a source, in release) routes to a wrong
/// answer; side 0 panics; sparse ids are routed as if dense. Under §6 the
/// same files fail the same way, and so does a side past its limit.
#[test]
fn mesh_refuses_problems_the_engine_cannot_run() {
    let engine = ["theorem15", "dim-order"];
    let both = ["theorem15", "section6"];
    let all = ["theorem15", "dim-order", "section6"];
    let cases = [
        (
            problem_file("dst_off_grid", 4, 0, (0, 0), (1, 9)),
            &engine[..],
        ),
        (
            problem_file("src_off_grid", 4, 0, (9, 0), (1, 1)),
            &engine[..],
        ),
        (problem_file("side_zero", 0, 0, (0, 0), (0, 0)), &all[..]),
        (
            problem_file("sparse_ids", 4, 5, (0, 0), (1, 1)),
            &engine[..],
        ),
        (
            problem_file("s6_sparse_ids", 9, 5, (0, 0), (1, 1)),
            &both[..],
        ),
        (
            problem_file("s6_dst", 9, 0, (0, 0), (1, 12)),
            &["section6"][..],
        ),
        (
            problem_file("s6_src", 9, 0, (14, 0), (1, 1)),
            &["section6"][..],
        ),
        // A valid problem on a side past `section6::MAX_SIDE`, whose node
        // count overflows a u32.
        (
            problem_file("s6_huge_side", 177_147, 0, (0, 0), (1, 1)),
            &["section6"][..],
        ),
    ];
    for (path, algorithms) in &cases {
        for algo in *algorithms {
            let out = mesh(&["route", algo, "--problem", path]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{algo} {path}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{algo} {path}: {stderr}");
            assert!(stderr.contains(path.as_str()), "{stderr}");
            assert!(out.stdout.is_empty(), "{algo} {path} printed a route");
        }
    }
    // A valid problem on a side past the engine's limit: refused by the
    // build, after a step cap computed without overflow.
    let huge = problem_file("huge_side", 4_000_000_000, 0, (0, 0), (1, 1));
    let out = mesh(&["route", "theorem15", "--problem", &huge]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("exceeds the engine's"), "{stderr}");
    let ok = problem_file("on_grid", 4, 0, (0, 0), (3, 3));
    let out = mesh(&["route", "theorem15", "--problem", &ok]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("delivered=1/1"));
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

/// An empty scratch directory of this test binary's own.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli_runs")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `mesh` with a whitespace-separated argument line plus `extra`; it must
/// exit 0. Its stdout.
fn mesh_ok(line: &str, extra: &[&str]) -> Vec<u8> {
    let args: Vec<&str> = line
        .split_whitespace()
        .chain(extra.iter().copied())
        .collect();
    let out = mesh(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "mesh {args:?}: {stderr}");
    out.stdout
}

/// Runs `route <algo> <flags>` with a checkpoint every `every` steps and a
/// crash at step `halt`; the checkpoint written at the crash.
fn halted_checkpoint(dir: &Path, algo: &str, flags: &str, every: u64, halt: u64) -> PathBuf {
    let line = format!("route {algo} {flags} --checkpoint-every {every} --halt-at {halt}");
    mesh_ok(&line, &["--checkpoint-dir", dir.to_str().unwrap()]);
    let ckpt = dir.join(format!("ckpt_{halt}.json"));
    assert!(ckpt.is_file(), "{line}: no {}", ckpt.display());
    ckpt
}

const RANDOM_16: &str = "--workload random --n 16 --seed 7";
/// A steady soak under deadline admission, the committed reference's run.
const STEADY_REFERENCE: &str = "--lambda 0.3 --n 8 --seed 5 --admission deadline --deadline 32 \
                                --warmup 16 --window 16 --windows 2";

/// A run killed at a checkpoint and resumed from it prints the `--json` of
/// the run that never stopped, byte for byte. The resume passes only the
/// algorithm (and the watchdog, which a snapshot does not carry): the
/// snapshot carries the run. One row per queue discipline (per-inlink
/// minimal, non-minimal, central queue); a steady soak killed mid-overload
/// whose checkpoint's environment block supplies λ, the window schedule and
/// the admission policy; and a wedged run killed and resumed inside one
/// watchdog window, so the restored timers decide the step of the verdict.
/// Two rows also print the latency line and the congestion map, whose peak
/// loads the snapshot carries across the kill.
#[test]
fn a_resumed_run_prints_the_uninterrupted_json() {
    let steady = "--lambda 0.4 --n 12 --seed 9 --admission deadline --deadline 48 --warmup 32 \
                  --window 32 --windows 3";
    let stats = "--latency --heatmap";
    let cases = [
        ("theorem15 --k 2", RANDOM_16, stats, 4, 16),
        ("hot-potato", RANDOM_16, "", 4, 16),
        ("dim-order --k 4", RANDOM_16, stats, 4, 16),
        ("theorem15 --k 2", steady, "", 8, 40),
        // Last activity at step 27, deadlock verdict at 35.
        ("dim-order --k 2 --watchdog 8", RANDOM_16, "", 4, 32),
    ];
    for (i, (algo, flags, out, every, halt)) in cases.into_iter().enumerate() {
        let full = mesh_ok(&format!("route {algo} {flags} {out} --json"), &[]);
        let dir = scratch(&format!("resume_{i}"));
        let ckpt = halted_checkpoint(&dir, algo, flags, every, halt);
        let resume = format!("route {algo} {out} --json --resume-from");
        let resumed = mesh_ok(&resume, &[ckpt.to_str().unwrap()]);
        assert!(full == resumed, "{algo} {flags}: the resumed run differs");
    }
}

/// A halt is a simulated crash, not a failure: it keeps its checkpoints
/// and writes no post-mortem, closed or steady. A run the step cap stops
/// still leaves its `diag_<step>.json` beside its checkpoints.
#[test]
fn a_halt_leaves_checkpoints_and_no_post_mortem() {
    let dir = scratch("halt");
    let files = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let closed = dir.join("closed");
    halted_checkpoint(&closed, "theorem15 --k 2", RANDOM_16, 4, 16);
    let ckpts = ["ckpt_12.json", "ckpt_16.json", "ckpt_4.json", "ckpt_8.json"];
    assert_eq!(files(&closed), ckpts);
    let steady = dir.join("steady");
    halted_checkpoint(&steady, "theorem15 --k 2", STEADY_REFERENCE, 8, 24);
    assert_eq!(
        files(&steady),
        ["ckpt_16.json", "ckpt_24.json", "ckpt_8.json"]
    );
    let capped = dir.join("capped");
    let line = format!("route theorem15 --k 2 {RANDOM_16} --checkpoint-every 4 --cap 16");
    mesh_ok(&line, &["--checkpoint-dir", capped.to_str().unwrap()]);
    let mut with_diag = ckpts.to_vec();
    with_diag.push("diag_16.json");
    assert_eq!(files(&capped), with_diag);
}

/// The steady soak's `--json` cannot drift from the committed reference.
#[test]
fn the_steady_reference_is_what_the_engine_prints() {
    let printed = mesh_ok(
        &format!("route theorem15 --k 2 {STEADY_REFERENCE} --json"),
        &[],
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/steady_resumed_reference.json"
    );
    assert!(printed == std::fs::read(path).unwrap(), "{path} differs");
}

/// A damaged checkpoint is one `cannot …` line and exit 1, never a
/// backtrace: a truncated file fails to parse; a flipped digit in a queue
/// length fails the restore's structural pass, as do a steady checkpoint
/// with an empty window schedule and one whose protocol slot is not the
/// observer's state.
#[test]
fn a_damaged_checkpoint_is_refused_in_one_line() {
    let dir = scratch("damaged");
    let closed = halted_checkpoint(&dir.join("closed"), "theorem15 --k 2", RANDOM_16, 4, 16);
    let steady = halted_checkpoint(
        &dir.join("steady"),
        "theorem15 --k 2",
        STEADY_REFERENCE,
        8,
        24,
    );
    let text = |path: &Path| std::fs::read_to_string(path).unwrap();
    let truncated = |path: &Path| {
        let text = text(path);
        text[..text.len() / 2].to_string()
    };
    let flip_lens_digit = |path: &Path| {
        let text = text(path);
        let lens = text.find("\"lens\"").unwrap();
        let at = lens + text[lens..].find('1').unwrap();
        let mut bytes = text.into_bytes();
        bytes[at] ^= 2;
        String::from_utf8(bytes).unwrap()
    };
    let edit = |path: &Path, change: fn(&mut Snapshot)| {
        let mut snap = Snapshot::read_from(path).unwrap();
        change(&mut snap);
        snap.to_json()
    };
    let cases = [
        ("truncated", truncated(&closed), "cannot load snapshot"),
        ("flipped", flip_lens_digit(&closed), "cannot resume"),
        (
            "window0",
            edit(&steady, |s| s.steady.as_mut().unwrap().config.window = 0),
            "cannot resume",
        ),
        (
            "protocol",
            edit(&steady, |s| {
                s.protocol = Some(serde_json::from_str(r#"{"bogus": 1}"#).unwrap())
            }),
            "cannot resume",
        ),
    ];
    for (name, damaged, refusal) in cases {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, damaged).unwrap();
        let out = mesh(&[
            "route",
            "theorem15",
            "--k",
            "2",
            "--resume-from",
            path.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        let refusals: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("cannot "))
            .collect();
        assert_eq!(refusals.len(), 1, "{name}: {stderr}");
        assert!(refusals[0].starts_with(refusal), "{name}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
            "{name}: {stderr}"
        );
    }
}

/// `--json-out DIR` writes each experiment's document and its timing
/// sidecar.
#[test]
fn experiments_json_out_writes_the_doc_and_its_timing_sidecar() {
    let dir = scratch("json_out");
    let args = ["reliable", "--trials", "2", "--threads", "2", "--json-out"];
    let out = experiments(&[&args[..], &[dir.to_str().unwrap()]].concat());
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for file in ["BENCH_reliable.json", "BENCH_reliable.timing.json"] {
        let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
        assert!(len > 0, "{file} is missing or empty");
    }
}
