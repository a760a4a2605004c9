//! One-call routing API over every algorithm in the reproduction.

use crate::section6::{Section6Error, Section6Report, Section6Router};
use mesh_engine::{
    DirectorySink, Dx, MemorySink, Sim, SimConfig, SimError, Snapshot, SteadyConfig, SteadyReport,
};
use mesh_routers::{
    AltAdaptive, BoundedDeflect, DimOrder, FarthestFirst, HotPotato, Theorem15, WestFirst,
};
use mesh_topo::Mesh;
use mesh_traffic::RoutingProblem;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The algorithms of the paper (and this reproduction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Destination-exchangeable XY dimension order, central queue size `k`
    /// (§1.1/§2; may deadlock on adversarial traffic — bounded-queue
    /// minimal routing is allowed to be slow, which is the point of the
    /// lower bounds).
    DimOrder { k: u32 },
    /// Column-first variant.
    DimOrderYx { k: u32 },
    /// The §2 alternating minimal-adaptive example, central queue size `k`.
    AltAdaptive { k: u32 },
    /// Theorem 15: `O(n²/k + n)` dimension order, four inlink queues of
    /// size `k`. Always delivers.
    Theorem15 { k: u32 },
    /// Farthest-first dimension order, central queue size `k` (not
    /// destination-exchangeable).
    FarthestFirst { k: u32 },
    /// Farthest-first with effectively unbounded queues: the classic
    /// `2n − 2` greedy router (§1.1).
    GreedyUnbounded,
    /// Hot-potato deflection routing: destination-exchangeable but
    /// **nonminimal**, with one-slot buffers (§5's nonminimal discussion).
    HotPotato,
    /// δ-bounded deflection (§5's nonminimal-extensions class): stays within
    /// `delta` of the shortest-path rectangle; `delta = 0` is minimal.
    BoundedDeflect { k: u32, delta: u8 },
    /// West-first turn-model minimal adaptive routing (the §2-cited
    /// planar-adaptive family), central queue size `k`.
    WestFirst { k: u32 },
    /// The §6 `O(n)`-time, `O(1)`-queue minimal adaptive algorithm
    /// (requires `n` to be a power of 3).
    Section6,
    /// §6 with the improved `q = 102` refinement (§6.4; 564n bound).
    Section6Improved,
}

impl Algorithm {
    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            Algorithm::DimOrder { k } => format!("dim-order(k={k})"),
            Algorithm::DimOrderYx { k } => format!("dim-order-yx(k={k})"),
            Algorithm::AltAdaptive { k } => format!("alt-adaptive(k={k})"),
            Algorithm::Theorem15 { k } => format!("theorem15(k={k})"),
            Algorithm::FarthestFirst { k } => format!("farthest-first(k={k})"),
            Algorithm::GreedyUnbounded => "greedy-unbounded".into(),
            Algorithm::HotPotato => "hot-potato".into(),
            Algorithm::BoundedDeflect { k, delta } => {
                format!("bounded-deflect(k={k},d={delta})")
            }
            Algorithm::WestFirst { k } => format!("west-first(k={k})"),
            Algorithm::Section6 => "section6".into(),
            Algorithm::Section6Improved => "section6-improved".into(),
        }
    }

    /// Whether the algorithm is destination-exchangeable (§2) — i.e. within
    /// the scope of the Theorem 14 lower bound.
    pub fn is_destination_exchangeable(&self) -> bool {
        matches!(
            self,
            Algorithm::DimOrder { .. }
                | Algorithm::DimOrderYx { .. }
                | Algorithm::AltAdaptive { .. }
                | Algorithm::Theorem15 { .. }
                | Algorithm::HotPotato
                | Algorithm::BoundedDeflect { .. }
                | Algorithm::WestFirst { .. }
        )
    }
}

/// Normalized result of routing one problem with one algorithm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouteOutcome {
    pub algorithm: String,
    pub workload: String,
    pub n: u32,
    /// Steps to deliver everything (for §6: the provable *scheduled* figure;
    /// the quiescent figure is in `section6`).
    pub steps: u64,
    /// False if the step cap was reached first (bounded-queue minimal
    /// routers may stall — that is a *finding*, not an error).
    pub completed: bool,
    /// Largest per-queue occupancy (engine routers) or per-node load (§6).
    pub max_queue: u32,
    pub total_moves: u64,
    pub delivered: usize,
    pub total_packets: usize,
    /// The full engine report (engine-simulated algorithms only; the §6
    /// scheduler does not run through the engine and reports via `section6`).
    pub report: Option<mesh_engine::SimReport>,
    /// The full §6 report, when applicable.
    pub section6: Option<Section6Report>,
}

/// Routes `problem` with `algorithm` on the mesh, with a generous default
/// step cap of `64·n² + 4096`.
pub fn route(algorithm: Algorithm, problem: &RoutingProblem) -> RouteOutcome {
    let n = problem.n as u64;
    route_with_cap(algorithm, problem, 64 * n * n + 4096)
}

/// [`route`] with an explicit step cap (ignored by §6, which always
/// terminates by construction). Panics on input [`try_route_with_cap`]
/// rejects.
pub fn route_with_cap(algorithm: Algorithm, problem: &RoutingProblem, cap: u64) -> RouteOutcome {
    try_route_with_cap(algorithm, problem, cap)
        .unwrap_or_else(|e| panic!("cannot route with {}: {e}", algorithm.name()))
}

/// [`route_with_cap`], with a problem the algorithm cannot route reported as
/// an error. Only the §6 schedulers reject input: they need a static problem
/// on a mesh whose side is a power of 3.
pub fn try_route_with_cap(
    algorithm: Algorithm,
    problem: &RoutingProblem,
    cap: u64,
) -> Result<RouteOutcome, Section6Error> {
    let topo = Mesh::new(problem.n);
    Ok(match algorithm {
        Algorithm::DimOrder { k } => engine_route(
            algorithm,
            Sim::new(&topo, Dx::new(DimOrder::new(k)), problem),
            cap,
        ),
        Algorithm::DimOrderYx { k } => engine_route(
            algorithm,
            Sim::new(&topo, Dx::new(DimOrder::yx(k)), problem),
            cap,
        ),
        Algorithm::AltAdaptive { k } => engine_route(
            algorithm,
            Sim::new(&topo, Dx::new(AltAdaptive::new(k)), problem),
            cap,
        ),
        Algorithm::Theorem15 { k } => engine_route(
            algorithm,
            Sim::new(&topo, Dx::new(Theorem15::new(k)), problem),
            cap,
        ),
        Algorithm::FarthestFirst { k } => engine_route(
            algorithm,
            Sim::new(&topo, FarthestFirst::new(k), problem),
            cap,
        ),
        Algorithm::GreedyUnbounded => engine_route(
            algorithm,
            Sim::new(&topo, FarthestFirst::unbounded(problem.n), problem),
            cap,
        ),
        Algorithm::HotPotato => engine_route(
            algorithm,
            Sim::new(&topo, Dx::new(HotPotato::new(problem.n)), problem),
            cap,
        ),
        Algorithm::BoundedDeflect { k, delta } => engine_route(
            algorithm,
            Sim::new(
                &topo,
                Dx::new(BoundedDeflect::new(problem.n, k, delta)),
                problem,
            ),
            cap,
        ),
        Algorithm::WestFirst { k } => engine_route(
            algorithm,
            Sim::new(&topo, Dx::new(WestFirst::new(k)), problem),
            cap,
        ),
        Algorithm::Section6 | Algorithm::Section6Improved => {
            let router = if algorithm == Algorithm::Section6 {
                Section6Router::new()
            } else {
                Section6Router::improved()
            };
            let r = router.try_route(problem)?;
            RouteOutcome {
                algorithm: algorithm.name(),
                workload: problem.label.clone(),
                n: problem.n,
                steps: r.scheduled_steps,
                completed: true,
                max_queue: r.max_node_load,
                total_moves: r.total_moves,
                delivered: r.delivered,
                total_packets: r.total_packets,
                report: None,
                section6: Some(r),
            }
        }
    })
}

fn engine_route<R: mesh_engine::Router>(
    algorithm: Algorithm,
    mut sim: Sim<'_, Mesh, R>,
    cap: u64,
) -> RouteOutcome {
    let _ = sim.run(cap);
    engine_outcome(algorithm, sim.report())
}

fn engine_outcome(algorithm: Algorithm, r: mesh_engine::SimReport) -> RouteOutcome {
    RouteOutcome {
        algorithm: algorithm.name(),
        workload: r.workload.clone(),
        n: r.n,
        steps: r.steps,
        completed: r.completed,
        max_queue: r.max_queue,
        total_moves: r.total_moves,
        delivered: r.delivered,
        total_packets: r.total_packets,
        report: Some(r),
        section6: None,
    }
}

/// Dispatches an engine algorithm to its concrete router value and runs
/// `$body` with it bound; the §6 schedulers do not run through the engine
/// and make the enclosing function return an error.
macro_rules! with_engine_router {
    ($algo:expr, $n:expr, |$router:ident| $body:expr) => {
        match $algo {
            Algorithm::DimOrder { k } => {
                let $router = Dx::new(DimOrder::new(k));
                $body
            }
            Algorithm::DimOrderYx { k } => {
                let $router = Dx::new(DimOrder::yx(k));
                $body
            }
            Algorithm::AltAdaptive { k } => {
                let $router = Dx::new(AltAdaptive::new(k));
                $body
            }
            Algorithm::Theorem15 { k } => {
                let $router = Dx::new(Theorem15::new(k));
                $body
            }
            Algorithm::FarthestFirst { k } => {
                let $router = FarthestFirst::new(k);
                $body
            }
            Algorithm::GreedyUnbounded => {
                let $router = FarthestFirst::unbounded($n);
                $body
            }
            Algorithm::HotPotato => {
                let $router = Dx::new(HotPotato::new($n));
                $body
            }
            Algorithm::BoundedDeflect { k, delta } => {
                let $router = Dx::new(BoundedDeflect::new($n, k, delta));
                $body
            }
            Algorithm::WestFirst { k } => {
                let $router = Dx::new(WestFirst::new(k));
                $body
            }
            Algorithm::Section6 | Algorithm::Section6Improved => {
                return Err(format!(
                    "{} does not run through the engine; checkpoint/resume needs an engine algorithm",
                    $algo.name()
                ))
            }
        }
    };
}

/// [`route_with_cap`] writing a cadenced checkpoint stream (`ckpt_<step>.json`,
/// plus `diag_<step>.json` on a watchdog trip) to `dir`. Checkpointing is a
/// pure observer: the outcome is byte-identical to an uncheckpointed run.
/// Returns the outcome and the path of the last checkpoint written, if any.
/// Engine algorithms only — the §6 schedulers yield `Err`.
pub fn route_checkpointed(
    algorithm: Algorithm,
    problem: &RoutingProblem,
    cap: u64,
    every: u64,
    dir: &Path,
) -> Result<(RouteOutcome, Option<PathBuf>), String> {
    let topo = Mesh::new(problem.n);
    let config = SimConfig {
        checkpoint_every: Some(every),
        ..SimConfig::default()
    };
    with_engine_router!(algorithm, problem.n, |router| {
        let mut sim = Sim::with_config(&topo, router, problem, config);
        let mut sink = DirectorySink::new(dir).map_err(|e| e.to_string())?;
        let _ = sim.run_checkpointed(cap, &mut sink);
        if let Some(err) = sink.error {
            return Err(err.to_string());
        }
        let last = sink.last_checkpoint().map(Path::to_path_buf);
        Ok((engine_outcome(algorithm, sim.report()), last))
    })
}

/// Restores a run from `snap` and drives it to completion (or `cap`),
/// producing the same [`RouteOutcome`] an uninterrupted [`route_with_cap`]
/// of the whole problem would — bit-identical, per the engine's
/// crash-recovery guarantee (DESIGN.md §11). The algorithm must match the
/// one the snapshot was taken under.
pub fn resume_route(
    algorithm: Algorithm,
    snap: &Snapshot,
    cap: u64,
) -> Result<RouteOutcome, String> {
    let topo = Mesh::new(snap.n);
    with_engine_router!(algorithm, snap.n, |router| {
        let mut sim = Sim::restore(&topo, router, SimConfig::default(), None, snap)
            .map_err(|e| e.to_string())?;
        let _ = sim.run(cap);
        Ok(engine_outcome(algorithm, sim.report()))
    })
}

/// Outcome of an open-system steady-state run (`mesh route --lambda`):
/// the windowed measurement frames plus the final engine report, which
/// carries the shed/expired admission-control totals.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SteadyOutcome {
    pub algorithm: String,
    pub workload: String,
    pub n: u32,
    /// Offered load, packets per node per step.
    pub lambda: f64,
    /// The measurement schedule the run followed.
    pub schedule: SteadyConfig,
    pub steady: SteadyReport,
    pub report: mesh_engine::SimReport,
}

fn steady_outcome(
    algorithm: Algorithm,
    lambda: f64,
    schedule: SteadyConfig,
    steady: SteadyReport,
    report: mesh_engine::SimReport,
) -> SteadyOutcome {
    SteadyOutcome {
        algorithm: algorithm.name(),
        workload: report.workload.clone(),
        n: report.n,
        lambda,
        schedule,
        steady,
        report,
    }
}

/// Maps a steady driver result: a step-cap stop is the *expected* outcome
/// of a `--halt-at` crash simulation (`Ok(None)`), any other failure is a
/// real error.
fn finish_steady(
    res: Result<SteadyReport, SimError>,
    halted: bool,
) -> Result<Option<SteadyReport>, String> {
    match res {
        Ok(rep) => Ok(Some(rep)),
        Err(SimError::StepCap(_)) if halted => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs `problem` (typically an open Bernoulli source) under `algorithm`
/// on the steady-state measurement `schedule`. Engine algorithms only.
pub fn steady_route(
    algorithm: Algorithm,
    problem: &RoutingProblem,
    lambda: f64,
    schedule: SteadyConfig,
    config: SimConfig,
) -> Result<SteadyOutcome, String> {
    let topo = Mesh::new(problem.n);
    with_engine_router!(algorithm, problem.n, |router| {
        let mut sim = Sim::with_config(&topo, router, problem, config);
        let rep = sim.run_steady(schedule).map_err(|e| e.to_string())?;
        Ok(steady_outcome(
            algorithm,
            lambda,
            schedule,
            rep,
            sim.report(),
        ))
    })
}

/// [`steady_route`] writing a cadenced checkpoint stream to `dir`
/// (cadence from `config.checkpoint_every`). `halt_at` simulates a crash:
/// the run stops there with `Ok((None, last_checkpoint))`; resume it with
/// [`resume_steady_route`] for a byte-identical final outcome.
pub fn steady_route_checkpointed(
    algorithm: Algorithm,
    problem: &RoutingProblem,
    lambda: f64,
    schedule: SteadyConfig,
    config: SimConfig,
    dir: &Path,
    halt_at: Option<u64>,
) -> Result<(Option<SteadyOutcome>, Option<PathBuf>), String> {
    let topo = Mesh::new(problem.n);
    with_engine_router!(algorithm, problem.n, |router| {
        let mut sim = Sim::with_config(&topo, router, problem, config);
        let mut sink = DirectorySink::new(dir).map_err(|e| e.to_string())?;
        let res = sim.run_steady_checkpointed(schedule, lambda, None, &mut sink, halt_at);
        if let Some(err) = sink.error {
            return Err(err.to_string());
        }
        let last = sink.last_checkpoint().map(Path::to_path_buf);
        let rep = finish_steady(res, halt_at.is_some())?;
        Ok((
            rep.map(|r| steady_outcome(algorithm, lambda, schedule, r, sim.report())),
            last,
        ))
    })
}

/// Restores a steady-state run from `snap` and drives the remaining
/// schedule. The measurement schedule and offered-load label come from
/// the snapshot's own `steady` environment block (recorded since
/// snapshot format v2), so a resume re-passes nothing; a snapshot without
/// one (a v1 file, or a closed-system checkpoint) is rejected. The
/// observer's windowed measurement state rides the snapshot's `protocol`
/// slot, so frames and the final report are byte-identical to a run that
/// never stopped. `config.admission` must match the policy the snapshot
/// was taken under (the restore rejects a mismatch with a typed error).
/// Checkpointing continues into `dir` when `config.checkpoint_every` is
/// set.
pub fn resume_steady_route(
    algorithm: Algorithm,
    snap: &Snapshot,
    config: SimConfig,
    dir: &Path,
    halt_at: Option<u64>,
) -> Result<(Option<SteadyOutcome>, Option<PathBuf>), String> {
    let Some(env) = snap.steady else {
        return Err(
            "snapshot records no steady-state environment (a closed-system run, or a \
             pre-v2 checkpoint); resume it as a plain route or re-pass the steady flags"
                .to_string(),
        );
    };
    let (lambda, schedule) = (env.lambda, env.config);
    let topo = Mesh::new(snap.n);
    let cadenced = config.checkpoint_every.is_some();
    with_engine_router!(algorithm, snap.n, |router| {
        let mut sim = Sim::restore(&topo, router, config, None, snap).map_err(|e| e.to_string())?;
        let state = snap.protocol.as_ref();
        let (res, last) = if cadenced {
            let mut sink = DirectorySink::new(dir).map_err(|e| e.to_string())?;
            let res = sim.run_steady_checkpointed(schedule, lambda, state, &mut sink, halt_at);
            if let Some(err) = sink.error {
                return Err(err.to_string());
            }
            (res, sink.last_checkpoint().map(Path::to_path_buf))
        } else {
            let mut sink = MemorySink::default();
            (
                sim.run_steady_checkpointed(schedule, lambda, state, &mut sink, halt_at),
                None,
            )
        };
        let rep = finish_steady(res, halt_at.is_some())?;
        Ok((
            rep.map(|r| steady_outcome(algorithm, lambda, schedule, r, sim.report())),
            last,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_traffic::workloads;

    #[test]
    fn all_engine_algorithms_route_a_small_permutation() {
        let pb = workloads::random_permutation(16, 4);
        for algo in [
            Algorithm::DimOrder { k: 64 },
            Algorithm::DimOrderYx { k: 64 },
            Algorithm::AltAdaptive { k: 64 },
            Algorithm::Theorem15 { k: 2 },
            Algorithm::FarthestFirst { k: 64 },
            Algorithm::GreedyUnbounded,
            Algorithm::HotPotato,
            Algorithm::WestFirst { k: 64 },
            Algorithm::BoundedDeflect { k: 64, delta: 2 },
        ] {
            let out = route(algo, &pb);
            assert!(out.completed, "{} failed", out.algorithm);
            assert_eq!(out.delivered, 256);
        }
    }

    #[test]
    fn section6_via_api() {
        let pb = workloads::random_permutation(27, 9);
        let out = route(Algorithm::Section6, &pb);
        assert!(out.completed);
        assert!(out.section6.is_some());
        assert!(out.steps <= 972 * 27);
    }

    #[test]
    fn steady_route_halt_and_resume_is_byte_identical() {
        let schedule = SteadyConfig {
            warmup: 16,
            window: 16,
            windows: 3,
        };
        let pb = workloads::open_bernoulli(8, 0.4, schedule.horizon(), 5);
        let config = || SimConfig {
            admission: mesh_engine::AdmissionPolicy::DeadlineExpiry { ttl: 24 },
            checkpoint_every: Some(8),
            watchdog: Some(64),
            ..SimConfig::default()
        };
        let algo = Algorithm::DimOrder { k: 4 };
        let dir = std::env::temp_dir().join("mesh-api-steady-test");
        let _ = std::fs::remove_dir_all(&dir);

        // Uninterrupted reference run.
        let full = steady_route(algo, &pb, 0.4, schedule, config()).unwrap();
        let full_json = serde_json::to_string(&full).unwrap();

        // Crash mid-soak, then resume from the last checkpoint.
        let (halted, last) =
            steady_route_checkpointed(algo, &pb, 0.4, schedule, config(), &dir, Some(30)).unwrap();
        assert!(halted.is_none(), "halt-at 30 must stop before the horizon");
        let last = last.expect("cadence 8 must leave a checkpoint behind");
        let snap = Snapshot::read_from(&last).unwrap();
        // The snapshot itself carries the steady environment (format v2):
        // the resume re-passes neither lambda nor the schedule.
        let env = snap.steady.expect("steady checkpoints record their env");
        assert_eq!(env.lambda, 0.4);
        assert_eq!(env.config, schedule);
        let (resumed, _) = resume_steady_route(algo, &snap, config(), &dir, None).unwrap();
        let resumed = resumed.expect("resumed run must complete the schedule");
        assert_eq!(serde_json::to_string(&resumed).unwrap(), full_json);

        // A mismatched admission policy is a typed refusal, not divergence.
        let bad = SimConfig {
            admission: mesh_engine::AdmissionPolicy::RejectNew,
            ..config()
        };
        let err = resume_steady_route(algo, &snap, bad, &dir, None).unwrap_err();
        assert!(
            err.contains("admission policy"),
            "expected a typed admission mismatch, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dx_classification() {
        assert!(Algorithm::DimOrder { k: 1 }.is_destination_exchangeable());
        assert!(Algorithm::Theorem15 { k: 1 }.is_destination_exchangeable());
        assert!(!Algorithm::FarthestFirst { k: 1 }.is_destination_exchangeable());
        assert!(!Algorithm::Section6.is_destination_exchangeable());
        // Hot potato is destination-exchangeable but nonminimal — the §5
        // combination that escapes Theorem 14.
        assert!(Algorithm::HotPotato.is_destination_exchangeable());
    }
}
