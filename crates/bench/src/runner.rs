//! Deterministic parallel trial runner.
//!
//! Every experiment is a flat list of **cells** — independent
//! `(algorithm, workload, n, …)` points, each with a closure that runs one
//! trial. The runner fans the `(experiment, cell, trial)` units of a whole
//! suite across one scoped thread pool and collects outputs into slots
//! indexed by unit, so results are **bit-identical regardless of thread
//! count or scheduling**: no trial ever observes another's RNG or ordering.
//!
//! Seeding: a trial closure receives only its 0-based trial index. Seeded
//! cells derive their workload seed via [`derive_seed`], which returns the
//! experiment's historical seed at trial 0 (so recorded table values are
//! preserved) and a SplitMix64-mixed seed for later trials.
//!
//! Output channels per experiment:
//!
//! - a [`BenchDoc`] (`BENCH_<id>.json`): all trial rows plus per-cell
//!   [`ReportAggregate`] statistics (mean/min/max/stddev across trials).
//!   Contains **no timing**, so it is byte-identical across thread counts.
//!   Its trial-0 rows are the printed table ([`crate::table`]);
//! - a [`TimingDoc`] (`BENCH_<id>.timing.json`): wall-clock per cell and
//!   from the experiment's first unit starting to its last ending, which is
//!   inherently machine- and thread-dependent and therefore lives in a
//!   sidecar.

use mesh_routing::engine::{ReportAggregate, SimReport};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Worker threads of the one pool every unit of the suite runs on.
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

/// All trials of one cell, in trial order, plus when they ran.
pub struct CellResult {
    pub label: String,
    pub seeded: bool,
    /// The trials that returned. A trial that panicked is missing (its
    /// message went to stderr through the panic hook) and sets `failed`.
    pub trials: Vec<TrialOutput>,
    pub failed: bool,
    /// Sum of the cell's per-trial wall-clocks.
    pub wall: Duration,
    /// Start of the cell's first unit and end of its last.
    pub span: (Instant, Instant),
}

/// Runs every `(cell, trial)` unit across a scoped thread pool and returns
/// per-cell results in declaration order, trial-indexed — independent of
/// thread count and scheduling. A panicking trial fails its own cell only.
pub fn run_cells(cells: Vec<Cell>, config: &RunnerConfig) -> Vec<CellResult> {
    // Flatten to work units; slot index = position here.
    let trials_of = |cell: &Cell| if cell.seeded { config.trials.max(1) } else { 1 };
    let units: Vec<(usize, u64)> = cells
        .iter()
        .enumerate()
        .flat_map(|(ci, cell)| (0..trials_of(cell)).map(move |trial| (ci, trial)))
        .collect();

    type Slot = Option<(Option<TrialOutput>, Instant, Instant)>;
    let slots: Mutex<Vec<Slot>> = Mutex::new((0..units.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= units.len() {
            break;
        }
        let (ci, trial) = units[i];
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| (cells[ci].run)(trial))).ok();
        slots.lock().expect("units panic outside the slot lock")[i] =
            Some((out, t0, Instant::now()));
    };
    std::thread::scope(|s| {
        for _ in 0..config.threads.clamp(1, units.len().max(1)) {
            s.spawn(worker);
        }
    });

    // Fold flat slots back into per-cell results, preserving both orders.
    let mut slots = slots
        .into_inner()
        .expect("units panic outside the slot lock")
        .into_iter()
        .map(|slot| slot.expect("every unit was executed"));
    cells
        .into_iter()
        .map(|cell| {
            let ran: Vec<_> = slots.by_ref().take(trials_of(&cell) as usize).collect();
            CellResult {
                label: cell.label,
                seeded: cell.seeded,
                failed: ran.iter().any(|(out, ..)| out.is_none()),
                wall: ran.iter().map(|&(_, t0, t1)| t1 - t0).sum(),
                span: (
                    ran.iter().map(|u| u.1).min().expect("a cell has a trial"),
                    ran.iter().map(|u| u.2).max().expect("a cell has a trial"),
                ),
                trials: ran.into_iter().filter_map(|(out, ..)| out).collect(),
            }
        })
        .collect()
}

// ---- experiment plumbing ----

/// An experiment: the head of its document (id, title, expectation and
/// headers, with no cells yet) plus its independent cells.
pub struct Experiment {
    pub doc: BenchDoc,
    pub cells: Vec<Cell>,
}

impl Experiment {
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        expectation: impl Into<String>,
        headers: &[&str],
    ) -> Experiment {
        let doc = BenchDoc {
            experiment: id.into(),
            title: title.into(),
            expectation: expectation.into(),
            trials: 1,
            headers: headers.iter().map(|h| h.to_string()).collect(),
            cells: Vec::new(),
        };
        Experiment {
            doc,
            cells: Vec::new(),
        }
    }

    /// Adds a deterministic cell: always one trial.
    pub fn fixed(
        &mut self,
        label: impl Into<String>,
        run: impl Fn(u64) -> TrialOutput + Send + Sync + 'static,
    ) {
        self.cells.push(Cell {
            label: label.into(),
            seeded: false,
            run: Box::new(run),
        });
    }

    /// Adds a seed-parameterised cell: one run per requested trial, with
    /// the trial index passed to the closure.
    pub fn seeded(
        &mut self,
        label: impl Into<String>,
        run: impl Fn(u64) -> TrialOutput + Send + Sync + 'static,
    ) {
        self.cells.push(Cell {
            label: label.into(),
            seeded: true,
            run: Box::new(run),
        });
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
    /// From the start of the experiment's first unit to the end of its last
    /// (other experiments' units may share the pool in between).
    pub elapsed_ms: f64,
    /// Sum of per-trial wall-clocks (CPU-bound work actually done).
    pub busy_ms: f64,
    pub cells: Vec<CellTiming>,
}

/// Everything one experiment run produces.
pub struct ExperimentRun {
    pub doc: BenchDoc,
    pub timing: TimingDoc,
}

/// An experiment one of whose trials panicked, or returned a row whose
/// width differs from the headers: no documents.
pub struct FailedExperiment {
    pub id: String,
    /// First unit start → last unit end, as in [`TimingDoc::elapsed_ms`].
    pub elapsed: Duration,
}

impl FailedExperiment {
    /// The one-row table printed in place of the experiment's own.
    pub fn doc(&self) -> BenchDoc {
        let title = "EXPERIMENT FAILED";
        let mut doc =
            Experiment::new(&self.id, title, "a panic occurred; see stderr", &["status"]).doc;
        doc.cells.push(CellDoc {
            label: "failed".into(),
            seeded: false,
            trials: 1,
            rows: vec![vec!["failed".into()]],
            aggregate: None,
        });
        doc
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Executes a suite under `config`: every `(experiment, cell, trial)` unit
/// runs on the one pool of [`run_cells`], then each experiment's
/// deterministic document and timing sidecar are assembled from its own
/// cells. A panicking trial, or a row whose width differs from the
/// headers, fails its experiment only.
pub fn run_suite(
    exps: Vec<Experiment>,
    config: &RunnerConfig,
) -> Vec<Result<ExperimentRun, FailedExperiment>> {
    let mut cells = Vec::new();
    let mut heads = Vec::with_capacity(exps.len());
    for exp in exps {
        heads.push((exp.doc, exp.cells.len()));
        cells.extend(exp.cells);
    }
    let mut results = run_cells(cells, config).into_iter();
    heads
        .into_iter()
        .map(|(mut doc, len)| {
            let results: Vec<CellResult> = results.by_ref().take(len).collect();
            let id = doc.experiment.clone();
            doc.trials = config.trials.max(1);
            let first = results.iter().map(|c| c.span.0).min();
            let last = results.iter().map(|c| c.span.1).max();
            let elapsed = first.zip(last).map_or(Duration::ZERO, |(t0, t1)| t1 - t0);
            let width = doc.headers.len();
            let ragged = results
                .iter()
                .flat_map(|c| &c.trials)
                .find(|t| t.row.len() != width);
            if let Some(t) = ragged {
                eprintln!("{id}: a row of {} cells under {width} headers", t.row.len());
            }
            if ragged.is_some() || results.iter().any(|c| c.failed) {
                return Err(FailedExperiment { id, elapsed });
            }

            let mut timings = Vec::with_capacity(results.len());
            let mut busy = Duration::ZERO;
            for cell in results {
                let reports: Vec<SimReport> = cell
                    .trials
                    .iter()
                    .filter_map(|t| t.report.clone())
                    .collect();
                doc.cells.push(CellDoc {
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

            Ok(ExperimentRun {
                doc,
                timing: TimingDoc {
                    experiment: id,
                    threads: config.threads.max(1),
                    trials: config.trials.max(1),
                    elapsed_ms: ms(elapsed),
                    busy_ms: ms(busy),
                    cells: timings,
                },
            })
        })
        .collect()
}

/// [`run_suite`] for one experiment; a panicking trial panics the caller.
pub fn run_experiment(exp: Experiment, config: &RunnerConfig) -> ExperimentRun {
    match run_suite(vec![exp], config).pop() {
        Some(Ok(run)) => run,
        _ => panic!("trial worker panicked"),
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
        run_experiment(
            e,
            &RunnerConfig {
                threads: 2,
                trials: 1,
            },
        );
    }

    #[test]
    fn a_panicking_trial_fails_its_own_experiment_only() {
        let bad = || {
            let mut e = counting_experiment();
            e.doc.experiment = "bad".into();
            e.fixed("boom", |_| panic!("trial blew up"));
            e
        };
        for threads in [1, 3] {
            let cfg = RunnerConfig { threads, trials: 2 };
            let mut runs = run_suite(vec![counting_experiment(), bad()], &cfg);
            assert_eq!(runs.pop().unwrap().err().unwrap().id, "bad");
            let good = runs.pop().unwrap().ok().expect("the other experiment ran");
            let alone = run_experiment(counting_experiment(), &cfg);
            assert_eq!(good.doc.cells.len(), alone.doc.cells.len());
            assert_eq!(good.doc.markdown(), alone.doc.markdown());
        }
    }

    #[test]
    fn a_row_of_the_wrong_width_fails_its_experiment() {
        let mut ragged = counting_experiment();
        ragged.doc.experiment = "ragged".into();
        ragged.fixed("wide", |_| TrialOutput::new(vec!["a".into(); 3]));
        let runs = run_suite(vec![ragged, counting_experiment()], &RunnerConfig::serial());
        assert!(runs[1].is_ok());
        let failed = runs[0]
            .as_ref()
            .err()
            .expect("the ragged experiment failed");
        assert_eq!(failed.id, "ragged");
        assert!(failed.doc().markdown().contains("EXPERIMENT FAILED"));
        // `experiments` exits 1 on the count `emit` returns; the failed
        // experiment writes no JSON, the other one does.
        let dir = std::env::temp_dir().join("mesh-bench-ragged");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(crate::table::emit(runs, None, Some(&dir)).unwrap(), 1);
        assert!(!dir.join("BENCH_ragged.json").exists());
        assert!(dir.join("BENCH_t.json").exists());
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
        assert_eq!(run.doc.table_rows().count(), 6);
        for row in run.doc.table_rows() {
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
