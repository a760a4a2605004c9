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
//! ## Layout
//!
//! - [`experiments`]: the 21 experiments, each a table head plus cells;
//! - [`sweep`]: the workload axis and the cell formatting helpers;
//! - [`runner`]: one scoped thread pool for every `(experiment, cell,
//!   trial)` unit, and the `BENCH_<id>.json` document ([`BenchDoc`]) and
//!   timing sidecar ([`TimingDoc`]) it assembles;
//! - [`table`]: a document's markdown and CSV renderings;
//! - [`pair`]: the `pair` binary's reading of two benchmark builds' runs,
//!   interleaved, into one comparison row per metric.
//! - [`smoke`]: the `smoke` binary's counted-metric gate of every
//!   benchmark workload against `.github/smoke-baseline.json`.
//!
//! `--threads N` sets the pool's size and never changes a document;
//! `--trials N` re-runs every seeded cell, trial 0 on its historical seed.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod pair;
pub mod runner;
pub mod smoke;
pub mod sweep;
pub mod table;

pub use runner::{BenchDoc, Experiment, ExperimentRun, RunnerConfig, TimingDoc};
