//! # mesh-bench
//!
//! The experiment harness of the reproduction: every theorem of the paper
//! has an experiment that regenerates its quantitative content as a table
//! (see DESIGN.md §3 for the index, EXPERIMENTS.md for recorded results).
//!
//! Run them with the `experiments` binary:
//!
//! ```sh
//! cargo run --release -p mesh-bench --bin experiments -- all
//! cargo run --release -p mesh-bench --bin experiments -- e1 e6
//! cargo run --release -p mesh-bench --bin experiments -- --full e1
//! ```
//!
//! Wall-clock and memory of the *simulator itself* are measured by the
//! repo benchmark (`BENCHMARK.json`, `benchmark/`), not here.
//!
//! ## The parallel trial runner
//!
//! Every experiment is a flat list of independent cells; the [`runner`]
//! executes every unit of every requested experiment on one scoped thread
//! pool:
//!
//! ```sh
//! cargo run --release -p mesh-bench --bin experiments -- \
//!     e1 --threads 8 --trials 5 --json-out out/
//! ```
//!
//! - `--threads N` — worker threads of that pool (default: all cores).
//!   Results are **bit-identical for any N**: every trial has its own
//!   derived seed and a pre-assigned output slot.
//! - `--trials N` — repetitions per *seeded* cell (random workloads);
//!   deterministic cells (adversary constructions, fixed permutations)
//!   always run once. Trial 0 uses the historical seed, so the recorded
//!   tables in EXPERIMENTS.md are unchanged by this feature.
//! - `--json-out [DIR]` — write `BENCH_<id>.json` (rows per trial +
//!   mean/min/max/stddev aggregates; timing-free and therefore
//!   thread-count-invariant) and `BENCH_<id>.timing.json` (wall-clock per
//!   cell — machine-dependent, hence a sidecar).
//!
//! See [`runner::BenchDoc`] / [`runner::TimingDoc`] for the schemas.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod runner;
pub mod sweep;
pub mod table;

pub use runner::{BenchDoc, Experiment, ExperimentRun, RunnerConfig, TimingDoc};
pub use table::Table;
