//! Experiment runner: regenerates the per-theorem tables of the
//! reproduction (see DESIGN.md §3 and EXPERIMENTS.md).
//!
//! ```sh
//! experiments [--full] [--csv DIR] [--threads N] [--trials N]
//!             [--json-out [DIR]] [all | e1 e2 … a3]
//! ```
//!
//! Every `(experiment, cell, trial)` unit of the requested experiments runs
//! on one pool of `--threads` workers (default: the available parallelism;
//! see `mesh_bench::runner`). `BENCH_<id>.json` is byte-identical for any
//! `--threads`; wall-clock goes to the `BENCH_<id>.timing.json` sidecar.

use mesh_bench::experiments::{build, REGISTRY};
use mesh_bench::runner::{run_suite, ExperimentRun, RunnerConfig};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

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
             [--json-out [DIR]] [all | e1 … a3]"
        );
        std::process::exit(2);
    }
    ids.dedup();

    let exps = ids
        .iter()
        .map(|id| build(id, full).expect("validated id"))
        .collect();
    for result in run_suite(exps, &RunnerConfig { threads, trials }) {
        let (doc, timing) = match result {
            Ok(ExperimentRun { doc, timing }) => {
                let elapsed = Duration::from_secs_f64(timing.elapsed_ms / 1e3);
                eprintln!("[{} done in {elapsed:.1?}]", doc.experiment);
                (doc, Some(timing))
            }
            Err(failed) => {
                eprintln!("[{} FAILED after {:.1?}]", failed.id, failed.elapsed);
                (failed.doc(), None)
            }
        };
        println!("{}", doc.markdown());
        if let Some(dir) = &csv_dir {
            doc.write_csv(dir).expect("csv write");
        }
        if let (Some(dir), Some(timing)) = (&json_dir, timing) {
            std::fs::create_dir_all(dir).expect("create --json-out directory");
            let id = &doc.experiment;
            let path = dir.join(format!("BENCH_{id}.json"));
            let json = serde_json::to_string_pretty(&doc).expect("serialize BenchDoc");
            std::fs::write(&path, json + "\n").expect("write BENCH json");
            let json = serde_json::to_string_pretty(&timing).expect("serialize TimingDoc");
            std::fs::write(dir.join(format!("BENCH_{id}.timing.json")), json + "\n")
                .expect("write timing json");
            eprintln!("[{id} json -> {}]", path.display());
        }
    }
}
