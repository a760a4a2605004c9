//! Shared sweep-cell helpers for the experiments.
//!
//! Every experiment in [`crate::experiments`] formats its table cells the
//! same few ways: ratios to the theoretical bound at three decimals,
//! per-`n` figures at one decimal, `-` for runs that stalled at the step
//! cap, the watchdog verdict of a faulty run, and so on. Those idioms
//! live here once, so a formatting tweak cannot silently fork between
//! tables. All helpers are byte-stable: the recorded `BENCH_*.json`
//! documents and EXPERIMENTS.md tables were produced through them.

use crate::runner::TrialOutput;
use mesh_routing::prelude::{Algorithm, RouteOutcome, RoutingProblem, Section6Router, SimError};

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

/// Steps as a cell, or `-` for a run that hit the cap: stalling is a
/// finding (the impossibility the paper proves), not an error.
pub fn steps_or_dash(completed: bool, steps: u64) -> String {
    if completed {
        steps.to_string()
    } else {
        "-".into()
    }
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
        assert_eq!(steps_or_dash(true, 42), "42");
        assert_eq!(steps_or_dash(false, 42), "-");
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
