//! Shared sweep-cell helpers for the experiments: the workload axis
//! ([`Workload`], registered with [`Experiment::over`]) and the few ways
//! every experiment in [`crate::experiments`] formats a cell (ratios to the
//! bound at three decimals, per-`n` figures at one decimal, `-` for an
//! absent value, the watchdog verdict of a faulty run). Each is stated
//! here once, so a tweak cannot silently fork between tables. All helpers
//! are byte-stable: the recorded `BENCH_*.json` documents and
//! EXPERIMENTS.md tables were produced through them.

use crate::runner::{derive_seed, Experiment, TrialOutput};
use mesh_routing::prelude::{
    workloads, Algorithm, RouteOutcome, RoutingProblem, Section6Router, SimError,
};
use std::fmt::Display;

/// One entry of a workload axis: the name its cells are labelled with, its
/// historical seed (`None` for a fixed workload, which runs once), and its
/// builder from `(n, seed)`.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub seed: Option<u64>,
    pub build: fn(u32, u64) -> RoutingProblem,
}

impl Workload {
    pub const fn new(
        name: &'static str,
        seed: Option<u64>,
        build: fn(u32, u64) -> RoutingProblem,
    ) -> Workload {
        Workload { name, seed, build }
    }
}

pub const TRANSPOSE: Workload = Workload::new("transpose", None, |n, _| workloads::transpose(n));
pub const COLUMN_FUNNEL: Workload =
    Workload::new("column-funnel", None, |n, _| workloads::column_funnel(n));

/// A random permutation, historical seed `seed`.
pub const fn random_permutation(seed: u64) -> Workload {
    Workload::new(
        "random-permutation",
        Some(seed),
        workloads::random_permutation,
    )
}

impl Experiment {
    /// Adds the cell `label` over workload `w` at side `n`: seeded exactly
    /// when `w` is, with `run` handed each trial's problem (built from
    /// [`derive_seed`], or from seed 0 for a fixed workload).
    pub fn over(
        &mut self,
        label: impl Into<String>,
        w: Workload,
        n: u32,
        run: impl Fn(RoutingProblem) -> TrialOutput + Send + Sync + 'static,
    ) {
        match w.seed {
            Some(seed) => self.seeded(label, move |trial| {
                run((w.build)(n, derive_seed(seed, trial)))
            }),
            None => self.fixed(label, move |_| run((w.build)(n, 0))),
        }
    }
}

/// `a / b` at three decimals — the "measured over bound" cell.
pub fn ratio(a: u64, b: f64) -> String {
    format!("{:.3}", a as f64 / b)
}

/// `x / n` at one decimal — the "steps per n" cell.
pub fn per_n(x: u64, n: u32) -> String {
    format!("{:.1}", x as f64 / n as f64)
}

/// The workload family name without its parameter list: the part of the
/// problem label before the first `(`.
pub fn short_label(pb: &RoutingProblem) -> String {
    pb.label.split('(').next().unwrap_or("?").to_string()
}

/// A value as a cell, or `-` where there is none: the steps of a run that
/// hit the cap (stalling is a finding, the impossibility the paper proves,
/// not an error), or a column a layer or a failed run does not have.
pub fn or_dash(value: Option<impl Display>) -> String {
    value.map_or_else(|| "-".into(), |v| v.to_string())
}

/// The outcome cell of a watchdogged run: `completed`, or the error kind
/// (`deadlock` / `livelock` / `step-cap`).
pub fn outcome_tag<T>(res: &Result<T, SimError>) -> &'static str {
    match res {
        Ok(_) => "completed",
        Err(err) => err.kind(),
    }
}

/// The step cap for matrix cells whose routers may stall: `8n²` burns a
/// bounded amount of time on a deadlocked run while staying far beyond
/// any completing run in these sweeps.
pub fn stall_cap(n: u32) -> u64 {
    8 * (n as u64) * (n as u64)
}

/// The `section6 =>` arm of a cell whose table only lists engine routers.
pub fn engine_only(algo: Algorithm) -> ! {
    panic!("{} does not run through the engine", algo.name())
}

/// A routed cell: the row plus the run's report (when the route captured
/// one) for the JSON sidecar.
pub fn routed(row: Vec<String>, out: RouteOutcome) -> TrialOutput {
    TrialOutput {
        row,
        report: out.report,
    }
}

/// The §6 router at either constant: base `q = 408` or the §6.4 improved
/// `q = 102`.
pub fn section6_router(improved: bool) -> Section6Router {
    if improved {
        Section6Router::improved()
    } else {
        Section6Router::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_is_byte_stable() {
        assert_eq!(ratio(7, 2.0), "3.500");
        assert_eq!(per_n(10, 4), "2.5");
        assert_eq!(or_dash(Some(42)), "42");
        assert_eq!(or_dash(None::<u64>), "-");
        assert_eq!(stall_cap(10), 800);
        let ok: Result<u64, SimError> = Ok(3);
        assert_eq!(outcome_tag(&ok), "completed");
    }

    #[test]
    fn short_label_strips_parameters() {
        let pb = mesh_routing::prelude::workloads::transpose(8);
        assert_eq!(short_label(&pb), pb.label.split('(').next().unwrap());
    }
}
