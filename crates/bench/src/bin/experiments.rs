//! Experiment runner: regenerates the per-theorem tables of the
//! reproduction (see DESIGN.md §3 and EXPERIMENTS.md).
//!
//! ```sh
//! experiments [--full] [--csv DIR] [--threads N] [--trials N]
//!             [--json-out [DIR]] [all | e1 … e13 a1 a2 perf chaos reliable crashrec overload]
//! ```
//!
//! Every `(experiment, cell, trial)` unit of the requested experiments runs
//! on one pool of `--threads` workers (default: the available parallelism;
//! see `mesh_bench::runner`). `BENCH_<id>.json` is byte-identical for any
//! `--threads`; wall-clock goes to the `BENCH_<id>.timing.json` sidecar. An
//! experiment whose trial panicked prints an `EXPERIMENT FAILED` table in
//! place of its own, writes no JSON, and makes the exit code 1 once every
//! experiment has printed.

use mesh_bench::experiments::{build, REGISTRY};
use mesh_bench::runner::{run_suite, RunnerConfig};
use mesh_bench::table::emit;
use std::path::PathBuf;
use std::str::FromStr;

fn known(id: &str) -> bool {
    REGISTRY.iter().any(|(known, _)| *known == id)
}

fn is_flag_or_id(arg: &str) -> bool {
    arg.starts_with("--") || arg == "all" || known(arg)
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The operand of a count flag: a number >= 1, or a usage error.
fn at_least_one<N: FromStr + PartialOrd + From<u8>>(flag: &str, operand: Option<String>) -> N {
    operand
        .and_then(|s| s.parse().ok())
        .filter(|t| *t >= N::from(1))
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a number >= 1")))
}

fn main() {
    let mut full = false;
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut threads = RunnerConfig::default().threads;
    let mut trials: u64 = 1;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => full = true,
            "--csv" => {
                csv_dir = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage_error("--csv needs a directory")),
                ))
            }
            "--json-out" => {
                // Directory operand is optional: `--json-out e1` means
                // "emit into the current directory".
                json_dir = Some(match args.peek() {
                    Some(next) if !is_flag_or_id(next) => PathBuf::from(args.next().unwrap()),
                    _ => PathBuf::from("."),
                });
            }
            "--threads" => threads = at_least_one("--threads", args.next()),
            "--trials" => trials = at_least_one("--trials", args.next()),
            "all" => ids.extend(REGISTRY.iter().map(|(id, _)| id.to_string())),
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag '{flag}'")),
            other => {
                if known(other) {
                    ids.push(other.to_string());
                } else {
                    let valid: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
                    eprintln!("unknown experiment '{other}'; valid: {valid:?}");
                    std::process::exit(2);
                }
            }
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [--full] [--csv DIR] [--threads N] [--trials N] \
             [--json-out [DIR]] \
             [all | e1 … e13 a1 a2 perf chaos reliable crashrec overload]"
        );
        std::process::exit(2);
    }
    ids.dedup();

    let exps = ids
        .iter()
        .map(|id| build(id, full).expect("validated id"))
        .collect();
    let runs = run_suite(exps, &RunnerConfig { threads, trials });
    let failed = emit(runs, csv_dir.as_deref(), json_dir.as_deref())
        .expect("write the --csv/--json-out documents");
    if failed > 0 {
        eprintln!("error: {failed} experiment(s) failed");
        std::process::exit(1);
    }
}
