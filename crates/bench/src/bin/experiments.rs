//! Experiment runner: regenerates the per-theorem tables of the
//! reproduction (see DESIGN.md §3 and EXPERIMENTS.md).
//!
//! ```sh
//! experiments [--full] [--csv DIR] [--jobs N] [--threads N] [--trials N]
//!             [--json-out [DIR]] [all | e1 e2 … a3]
//! ```
//!
//! `--jobs` parallelises *across* experiments; `--threads` sizes the
//! per-experiment trial pool (see `mesh_bench::runner`). `BENCH_<id>.json`
//! is byte-identical for any `--threads`; wall-clock goes to the
//! `BENCH_<id>.timing.json` sidecar.

use mesh_bench::experiments;
use mesh_bench::runner::{run_experiment, ExperimentRun, RunnerConfig};
use mesh_bench::Table;
use std::path::PathBuf;
use std::sync::Mutex;

struct JobResult {
    table: Table,
    /// Present on success when `--json-out` was requested.
    run: Option<ExperimentRun>,
}

fn is_flag_or_id(arg: &str) -> bool {
    arg.starts_with("--") || arg == "all" || experiments::ALL.contains(&arg)
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut full = false;
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut threads: usize = 1;
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
            "--jobs" => {
                jobs = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage_error("--jobs needs a number")),
                )
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| usage_error("--threads needs a number >= 1"))
            }
            "--trials" => {
                trials = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| usage_error("--trials needs a number >= 1"))
            }
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag '{flag}'")),
            other => {
                if experiments::ALL.contains(&other) {
                    ids.push(other.to_string());
                } else {
                    eprintln!(
                        "unknown experiment '{other}'; valid: {:?}",
                        experiments::ALL
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [--full] [--csv DIR] [--jobs N] [--threads N] \
             [--trials N] [--json-out [DIR]] [all | e1 … a3]"
        );
        std::process::exit(2);
    }
    ids.dedup();

    // With an explicit trial pool the pool is the parallelism; otherwise
    // parallelise across experiments as before.
    let jobs = jobs.unwrap_or_else(|| {
        if threads > 1 {
            1
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        }
    });
    let config = RunnerConfig { threads, trials };
    let want_json = json_dir.is_some();

    // Run experiments in parallel (each deterministic regardless of its own
    // pool size), print in requested order.
    let results: Mutex<Vec<Option<JobResult>>> = Mutex::new((0..ids.len()).map(|_| None).collect());
    let next: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let put = |i: usize, result: JobResult| {
        results
            .lock()
            .expect("no worker panics holding the results lock")[i] = Some(result);
    };
    let worker = || loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if i >= ids.len() {
            break;
        }
        let id = &ids[i];
        let t0 = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(|| {
            let exp = experiments::build(id, full).expect("validated id");
            run_experiment(exp, &config)
        });
        match outcome {
            Ok(run) => {
                eprintln!("[{id} done in {:.1?}]", t0.elapsed());
                let table = run.table.clone();
                let run = want_json.then_some(run);
                put(i, JobResult { table, run });
            }
            Err(_) => {
                eprintln!("[{id} FAILED after {:.1?}]", t0.elapsed());
                let mut table = Table::new(
                    id,
                    "EXPERIMENT FAILED",
                    "a panic occurred; see stderr",
                    &["status"],
                );
                table.row(vec!["failed".to_string()]);
                put(i, JobResult { table, run: None });
            }
        }
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.max(1).min(ids.len()))
            .map(|_| s.spawn(worker))
            .collect();
        for w in workers {
            w.join().expect("experiment thread panicked");
        }
    });

    for result in results
        .into_inner()
        .expect("no worker panics holding the results lock")
        .into_iter()
        .flatten()
    {
        println!("{}", result.table.markdown());
        if let Some(dir) = &csv_dir {
            result.table.write_csv(dir).expect("csv write");
        }
        if let (Some(dir), Some(run)) = (&json_dir, result.run) {
            std::fs::create_dir_all(dir).expect("create --json-out directory");
            let id = &run.doc.experiment;
            let doc = serde_json::to_string_pretty(&run.doc).expect("serialize BenchDoc");
            std::fs::write(dir.join(format!("BENCH_{id}.json")), doc + "\n")
                .expect("write BENCH json");
            let timing = serde_json::to_string_pretty(&run.timing).expect("serialize TimingDoc");
            std::fs::write(dir.join(format!("BENCH_{id}.timing.json")), timing + "\n")
                .expect("write timing json");
            eprintln!(
                "[{id} json -> {}]",
                dir.join(format!("BENCH_{id}.json")).display()
            );
        }
    }
}
