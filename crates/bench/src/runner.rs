//! Deterministic parallel trial runner.
//!
//! Every experiment is a flat list of **cells** — independent
//! `(algorithm, workload, n, …)` points, each with a closure that runs one
//! trial. The runner fans `(cell, trial)` units across a scoped
//! thread pool and collects outputs into slots indexed by `(cell, trial)`,
//! so results are **bit-identical regardless of thread count or
//! scheduling**: no trial ever observes another's RNG or ordering.
//!
//! Seeding: a trial closure receives only its 0-based trial index. Seeded
//! cells derive their workload seed via [`derive_seed`], which returns the
//! experiment's historical seed at trial 0 (so recorded table values are
//! preserved) and a SplitMix64-mixed seed for later trials.
//!
//! Output channels per experiment:
//!
//! - a [`Table`] (trial 0 of every cell) — the same text tables as before;
//! - a [`BenchDoc`] (`BENCH_<id>.json`): all trial rows plus per-cell
//!   [`ReportAggregate`] statistics (mean/min/max/stddev across trials).
//!   Contains **no timing**, so it is byte-identical across thread counts;
//! - a [`TimingDoc`] (`BENCH_<id>.timing.json`): wall-clock per cell and
//!   for the whole experiment, which is inherently machine- and
//!   thread-dependent and therefore lives in a sidecar.

use crate::table::Table;
use mesh_routing::engine::{ReportAggregate, SimReport};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one trial of one cell produced: a table row, and optionally the
/// engine report backing it (aggregated across trials in the JSON sweep).
pub struct TrialOutput {
    pub row: Vec<String>,
    pub report: Option<SimReport>,
}

impl TrialOutput {
    pub fn new(row: Vec<String>) -> TrialOutput {
        TrialOutput { row, report: None }
    }

    pub fn with_report(row: Vec<String>, report: SimReport) -> TrialOutput {
        TrialOutput {
            row,
            report: Some(report),
        }
    }
}

/// One independent experiment point.
pub struct Cell {
    pub label: String,
    /// Seeded cells run `trials` times with varied seeds; unseeded cells are
    /// deterministic in their inputs and run exactly once.
    pub seeded: bool,
    run: Box<dyn Fn(u64) -> TrialOutput + Send + Sync>,
}

impl Cell {
    /// A deterministic cell: always one trial.
    pub fn fixed(
        label: impl Into<String>,
        run: impl Fn(u64) -> TrialOutput + Send + Sync + 'static,
    ) -> Cell {
        Cell {
            label: label.into(),
            seeded: false,
            run: Box::new(run),
        }
    }

    /// A seed-parameterised cell: runs once per requested trial, with the
    /// trial index passed to the closure.
    pub fn seeded(
        label: impl Into<String>,
        run: impl Fn(u64) -> TrialOutput + Send + Sync + 'static,
    ) -> Cell {
        Cell {
            label: label.into(),
            seeded: true,
            run: Box::new(run),
        }
    }
}

/// Workload seed for a trial: the historical seed at trial 0 (preserving
/// recorded table values), a SplitMix64 mix of `(historical, trial)` after.
pub fn derive_seed(historical: u64, trial: u64) -> u64 {
    if trial == 0 {
        return historical;
    }
    let mut z = historical ^ trial.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How to execute an experiment's cells.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Worker threads for the trial pool (1 = run inline on the caller).
    pub threads: usize,
    /// Trials per seeded cell (unseeded cells always run once).
    pub trials: u64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            trials: 1,
        }
    }
}

impl RunnerConfig {
    /// Single-threaded, single-trial: the configuration whose outputs the
    /// historical serial tables were recorded under.
    pub fn serial() -> RunnerConfig {
        RunnerConfig {
            threads: 1,
            trials: 1,
        }
    }
}

/// All trials of one cell, in trial order, plus its total wall-clock.
pub struct CellResult {
    pub label: String,
    pub seeded: bool,
    pub trials: Vec<TrialOutput>,
    pub wall: Duration,
}

/// Runs every `(cell, trial)` unit across a scoped thread pool and returns
/// per-cell results in declaration order, trial-indexed — independent of
/// thread count and scheduling.
pub fn run_cells(cells: Vec<Cell>, config: &RunnerConfig) -> Vec<CellResult> {
    // Flatten to work units; slot index = position here.
    let mut units: Vec<(usize, u64)> = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        let trials = if cell.seeded { config.trials.max(1) } else { 1 };
        for trial in 0..trials {
            units.push((ci, trial));
        }
    }

    let mut slots: Vec<Option<(TrialOutput, Duration)>> = (0..units.len()).map(|_| None).collect();
    let threads = config.threads.max(1).min(units.len().max(1));
    if threads == 1 {
        for (slot, &(ci, trial)) in slots.iter_mut().zip(units.iter()) {
            let t0 = Instant::now();
            let out = (cells[ci].run)(trial);
            *slot = Some((out, t0.elapsed()));
        }
    } else {
        let shared = Mutex::new(&mut slots);
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= units.len() {
                break;
            }
            let (ci, trial) = units[i];
            let t0 = Instant::now();
            let out = (cells[ci].run)(trial);
            let mut slots = shared
                .lock()
                .expect("no worker panics holding the slot lock");
            slots[i] = Some((out, t0.elapsed()));
        };
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            for w in workers {
                w.join().expect("trial worker panicked");
            }
        });
    }

    // Fold flat slots back into per-cell results, preserving both orders.
    let mut results: Vec<CellResult> = cells
        .into_iter()
        .map(|c| CellResult {
            label: c.label,
            seeded: c.seeded,
            trials: Vec::new(),
            wall: Duration::ZERO,
        })
        .collect();
    for ((ci, _trial), slot) in units.into_iter().zip(slots) {
        let (out, wall) = slot.expect("every unit was executed");
        results[ci].trials.push(out);
        results[ci].wall += wall;
    }
    results
}

// ---- experiment plumbing ----

/// An experiment: table metadata plus its independent cells.
pub struct Experiment {
    pub id: String,
    pub title: String,
    pub expectation: String,
    pub headers: Vec<String>,
    pub cells: Vec<Cell>,
}

impl Experiment {
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        expectation: impl Into<String>,
        headers: &[&str],
    ) -> Experiment {
        Experiment {
            id: id.into(),
            title: title.into(),
            expectation: expectation.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            cells: Vec::new(),
        }
    }

    /// Adds a deterministic cell.
    pub fn fixed(
        &mut self,
        label: impl Into<String>,
        run: impl Fn(u64) -> TrialOutput + Send + Sync + 'static,
    ) {
        self.cells.push(Cell::fixed(label, run));
    }

    /// Adds a seed-parameterised cell.
    pub fn seeded(
        &mut self,
        label: impl Into<String>,
        run: impl Fn(u64) -> TrialOutput + Send + Sync + 'static,
    ) {
        self.cells.push(Cell::seeded(label, run));
    }
}

/// Per-cell record of the JSON sweep: all trial rows, plus aggregate
/// statistics over the trials that attached a [`SimReport`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellDoc {
    pub label: String,
    pub seeded: bool,
    pub trials: usize,
    /// Table rows per trial, under the experiment's `headers`.
    pub rows: Vec<Vec<String>>,
    /// Mean/min/max/stddev across trial reports (absent if no trial
    /// attached a report).
    pub aggregate: Option<ReportAggregate>,
}

/// The `BENCH_<experiment>.json` document. Deliberately timing-free: for a
/// fixed experiment and `--trials`, it is byte-identical across `--threads`
/// values (timing goes to the [`TimingDoc`] sidecar).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchDoc {
    pub experiment: String,
    pub title: String,
    pub expectation: String,
    /// Trials requested per seeded cell.
    pub trials: u64,
    pub headers: Vec<String>,
    pub cells: Vec<CellDoc>,
}

/// Wall-clock of one cell (all its trials), for the timing sidecar.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellTiming {
    pub label: String,
    pub wall_ms: f64,
}

/// The `BENCH_<experiment>.timing.json` sidecar: machine-dependent
/// measurements, separated so the main document stays deterministic.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimingDoc {
    pub experiment: String,
    pub threads: usize,
    pub trials: u64,
    /// End-to-end wall-clock of the experiment (pool setup included).
    pub elapsed_ms: f64,
    /// Sum of per-trial wall-clocks (CPU-bound work actually done).
    pub busy_ms: f64,
    pub cells: Vec<CellTiming>,
}

/// Everything one experiment run produces.
pub struct ExperimentRun {
    pub table: Table,
    pub doc: BenchDoc,
    pub timing: TimingDoc,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Executes an experiment under `config`: runs the cells on the pool, then
/// assembles the table (trial 0 of every cell), the deterministic JSON
/// document, and the timing sidecar.
pub fn run_experiment(exp: Experiment, config: &RunnerConfig) -> ExperimentRun {
    let t0 = Instant::now();
    let Experiment {
        id,
        title,
        expectation,
        headers,
        cells,
    } = exp;
    let results = run_cells(cells, config);
    let elapsed = t0.elapsed();

    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&id, &title, &expectation, &header_refs);
    let mut docs = Vec::with_capacity(results.len());
    let mut timings = Vec::with_capacity(results.len());
    let mut busy = Duration::ZERO;
    for cell in results {
        if let Some(first) = cell.trials.first() {
            table.row(first.row.clone());
        }
        let reports: Vec<SimReport> = cell
            .trials
            .iter()
            .filter_map(|t| t.report.clone())
            .collect();
        docs.push(CellDoc {
            label: cell.label.clone(),
            seeded: cell.seeded,
            trials: cell.trials.len(),
            rows: cell.trials.into_iter().map(|t| t.row).collect(),
            aggregate: (!reports.is_empty()).then(|| SimReport::aggregate(&reports)),
        });
        busy += cell.wall;
        timings.push(CellTiming {
            label: cell.label,
            wall_ms: ms(cell.wall),
        });
    }

    ExperimentRun {
        table,
        doc: BenchDoc {
            experiment: id.clone(),
            title,
            expectation,
            trials: config.trials.max(1),
            headers,
            cells: docs,
        },
        timing: TimingDoc {
            experiment: id,
            threads: config.threads.max(1),
            trials: config.trials.max(1),
            elapsed_ms: ms(elapsed),
            busy_ms: ms(busy),
            cells: timings,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_experiment() -> Experiment {
        let mut e = Experiment::new("t", "title", "expect", &["cell", "trial"]);
        for i in 0..5 {
            e.seeded(format!("cell{i}"), move |trial| {
                TrialOutput::new(vec![format!("cell{i}"), trial.to_string()])
            });
        }
        e.fixed("fixed", |trial| {
            TrialOutput::new(vec!["fixed".into(), trial.to_string()])
        });
        e
    }

    #[test]
    fn slots_are_ordered_regardless_of_threads() {
        for threads in [1, 2, 8] {
            let cfg = RunnerConfig { threads, trials: 3 };
            let results = run_cells(counting_experiment().cells, &cfg);
            assert_eq!(results.len(), 6);
            for (i, cell) in results.iter().take(5).enumerate() {
                assert_eq!(cell.label, format!("cell{i}"));
                assert_eq!(cell.trials.len(), 3);
                for (t, out) in cell.trials.iter().enumerate() {
                    assert_eq!(out.row, vec![format!("cell{i}"), t.to_string()]);
                }
            }
            // The unseeded cell ran exactly once despite trials = 3.
            assert_eq!(results[5].trials.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "trial worker panicked")]
    fn a_panicking_trial_fails_the_pooled_run() {
        let mut e = counting_experiment();
        e.fixed("boom", |_| panic!("trial blew up"));
        run_cells(
            e.cells,
            &RunnerConfig {
                threads: 2,
                trials: 1,
            },
        );
    }

    #[test]
    fn experiment_json_is_thread_count_invariant() {
        let make = |threads| {
            let cfg = RunnerConfig { threads, trials: 4 };
            let run = run_experiment(counting_experiment(), &cfg);
            serde_json::to_string_pretty(&run.doc).unwrap()
        };
        let serial = make(1);
        assert_eq!(serial, make(3));
        assert_eq!(serial, make(16));
    }

    #[test]
    fn table_rows_come_from_trial_zero() {
        let run = run_experiment(
            counting_experiment(),
            &RunnerConfig {
                threads: 4,
                trials: 2,
            },
        );
        // Six cells → six table rows, each cell contributing trial 0 only;
        // the JSON document still carries both trials.
        assert_eq!(run.table.rows.len(), 6);
        for row in &run.table.rows {
            assert_eq!(row[1], "0");
        }
        assert_eq!(run.doc.cells[0].rows.len(), 2);
        assert_eq!(run.doc.cells[0].rows[1][1], "1");
    }

    #[test]
    fn derive_seed_is_historical_at_trial_zero() {
        assert_eq!(derive_seed(42, 0), 42);
        assert_ne!(derive_seed(42, 1), 42);
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
    }

    #[test]
    fn timing_sidecar_counts_every_cell() {
        let run = run_experiment(counting_experiment(), &RunnerConfig::serial());
        assert_eq!(run.timing.cells.len(), 6);
        assert_eq!(run.timing.threads, 1);
        assert!(run.timing.busy_ms >= 0.0);
    }
}
