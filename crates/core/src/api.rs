//! One-call routing API over every algorithm in the reproduction.

use crate::section6::{Section6Report, Section6Router};
use mesh_engine::{
    DirectorySink, Router, Sim, SimConfig, SimError, Snapshot, SnapshotError, SteadyConfig,
    SteadyReport, SteadySnap,
};
use mesh_topo::Mesh;
use mesh_traffic::RoutingProblem;
use serde::{Deserialize, Serialize, Value};
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

impl RouteOutcome {
    /// The outcome of an engine run, from the report of the simulation that
    /// made it.
    pub fn engine(algorithm: Algorithm, r: mesh_engine::SimReport) -> RouteOutcome {
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
}

/// The one place an [`Algorithm`] becomes a concrete engine router type.
///
/// Evaluates `$body` with `$router` bound to a *constructor* of the
/// algorithm's router on a side-`$n` grid — call it once per router the
/// body needs (an adversary construction and its replay need two; wrap the
/// result in `FaultAware` inside the body). The §6 schedulers do not run
/// through the engine, so the caller says what happens for them in the
/// `section6 =>` arm. The match has no wildcard: a new `Algorithm` variant
/// without an arm here is a compile error at every use.
#[macro_export]
macro_rules! with_engine_router {
    ($algo:expr, $n:expr, |$router:ident| $body:expr, section6 => $section6:expr) => {
        match $algo {
            $crate::Algorithm::DimOrder { k } => {
                let $router = || $crate::engine::Dx::new($crate::routers::DimOrder::new(k));
                $body
            }
            $crate::Algorithm::DimOrderYx { k } => {
                let $router = || $crate::engine::Dx::new($crate::routers::DimOrder::yx(k));
                $body
            }
            $crate::Algorithm::AltAdaptive { k } => {
                let $router = || $crate::engine::Dx::new($crate::routers::AltAdaptive::new(k));
                $body
            }
            $crate::Algorithm::Theorem15 { k } => {
                let $router = || $crate::engine::Dx::new($crate::routers::Theorem15::new(k));
                $body
            }
            $crate::Algorithm::FarthestFirst { k } => {
                let $router = || $crate::routers::FarthestFirst::new(k);
                $body
            }
            $crate::Algorithm::GreedyUnbounded => {
                let $router = || $crate::routers::FarthestFirst::unbounded($n);
                $body
            }
            $crate::Algorithm::HotPotato => {
                let $router = || $crate::engine::Dx::new($crate::routers::HotPotato::new($n));
                $body
            }
            $crate::Algorithm::BoundedDeflect { k, delta } => {
                let $router =
                    || $crate::engine::Dx::new($crate::routers::BoundedDeflect::new($n, k, delta));
                $body
            }
            $crate::Algorithm::WestFirst { k } => {
                let $router = || $crate::engine::Dx::new($crate::routers::WestFirst::new(k));
                $body
            }
            $crate::Algorithm::Section6 | $crate::Algorithm::Section6Improved => $section6,
        }
    };
}

/// The error of every checkpoint/steady entry point for the §6 schedulers.
fn not_an_engine_algorithm(algorithm: Algorithm) -> String {
    format!(
        "{} does not run through the engine; checkpoint/resume needs an engine algorithm",
        algorithm.name()
    )
}

/// The mesh a problem runs on, once the problem passes
/// [`RoutingProblem::validate`] (a side-0 problem has none).
fn mesh_of(problem: &RoutingProblem) -> Result<Mesh, String> {
    problem.validate()?;
    Ok(Mesh::new(problem.n))
}

/// The mesh a snapshot was taken on. No run has side 0, so a snapshot
/// claiming it is corrupt.
fn mesh_of_snapshot(snap: &Snapshot) -> Result<Mesh, String> {
    if snap.n == 0 {
        return Err(SnapshotError::Corrupt("side 0".into()).to_string());
    }
    Ok(Mesh::new(snap.n))
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
/// an error: one that fails [`RoutingProblem::validate`], for every
/// algorithm, and for the §6 schedulers one that is not static or whose
/// side is not a power of 3.
pub fn try_route_with_cap(
    algorithm: Algorithm,
    problem: &RoutingProblem,
    cap: u64,
) -> Result<RouteOutcome, String> {
    with_engine_router!(algorithm, problem.n, |router| {
        let topo = mesh_of(problem)?;
        let mut sim = Sim::try_build(&topo, router(), problem, SimConfig::default(), None)?;
        let _ = sim.run(cap);
        Ok(RouteOutcome::engine(algorithm, sim.report()))
    }, section6 => {
        let router = if algorithm == Algorithm::Section6 {
            Section6Router::new()
        } else {
            Section6Router::improved()
        };
        let r = router.try_route(problem).map_err(|e| e.to_string())?;
        Ok(RouteOutcome {
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
        })
    })
}

/// Closes a run's checkpoint sink: the first write error it met, else the
/// path of the last checkpoint it wrote.
fn last_checkpoint(sink: Option<DirectorySink>) -> Result<Option<PathBuf>, String> {
    match sink {
        Some(DirectorySink { error: Some(e), .. }) => Err(e.to_string()),
        Some(sink) => Ok(sink.last_checkpoint().map(Path::to_path_buf)),
        None => Ok(None),
    }
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
    let config = SimConfig {
        checkpoint_every: Some(every),
        ..SimConfig::default()
    };
    with_engine_router!(algorithm, problem.n, |router| {
        let topo = mesh_of(problem)?;
        let mut sim = Sim::try_build(&topo, router(), problem, config, None)?;
        let mut sink = Some(DirectorySink::new(dir).map_err(|e| e.to_string())?);
        let _ = sim.run_checkpointed(cap, &mut sink);
        let last = last_checkpoint(sink)?;
        Ok((RouteOutcome::engine(algorithm, sim.report()), last))
    }, section6 => Err(not_an_engine_algorithm(algorithm)))
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
    let topo = mesh_of_snapshot(snap)?;
    with_engine_router!(algorithm, snap.n, |router| {
        let mut sim = Sim::restore(&topo, router(), SimConfig::default(), None, snap)
            .map_err(|e| e.to_string())?;
        let _ = sim.run(cap);
        Ok(RouteOutcome::engine(algorithm, sim.report()))
    }, section6 => Err(not_an_engine_algorithm(algorithm)))
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

/// What a steady entry point returns: the outcome (`None` when `halt_at`
/// stopped the run first) and the last checkpoint written, if any.
pub type SteadyRun = (Option<SteadyOutcome>, Option<PathBuf>);

/// Drives `sim` through the remaining steady schedule of `env`, fresh
/// (`state` = `None`) or restored. Checkpoints go to `sink_dir` when there
/// is one; without, nothing is written.
fn drive_steady<R: Router>(
    algorithm: Algorithm,
    mut sim: Sim<'_, Mesh, R>,
    env: SteadySnap,
    state: Option<&Value>,
    sink_dir: Option<&Path>,
    halt_at: Option<u64>,
) -> Result<SteadyRun, String>
where
    R::NodeState: Serialize,
{
    let mut sink = match sink_dir {
        Some(dir) => Some(DirectorySink::new(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    let res = sim.run_steady_checkpointed(env.config, env.lambda, state, &mut sink, halt_at);
    let last = last_checkpoint(sink)?;
    let steady = match res {
        Ok(rep) => rep,
        // A step-cap stop is the expected outcome of a `halt_at` crash
        // simulation; any other failure is a real error.
        Err(SimError::StepCap(_)) if halt_at.is_some() => return Ok((None, last)),
        Err(e) => return Err(e.to_string()),
    };
    let report = sim.report();
    let outcome = SteadyOutcome {
        algorithm: algorithm.name(),
        workload: report.workload.clone(),
        n: report.n,
        lambda: env.lambda,
        schedule: env.config,
        steady,
        report,
    };
    Ok((Some(outcome), last))
}

/// Runs `problem` (typically an open Bernoulli source) under `algorithm`
/// on the steady-state measurement `schedule`. Engine algorithms only.
///
/// When `config.checkpoint_every` is set, a cadenced checkpoint stream goes
/// to `dir`; without a cadence `dir` is not touched. `halt_at` simulates a
/// crash: the run stops there with `Ok((None, last_checkpoint))`; resume it
/// with [`resume_steady_route`] for a byte-identical final outcome.
pub fn steady_route(
    algorithm: Algorithm,
    problem: &RoutingProblem,
    lambda: f64,
    schedule: SteadyConfig,
    config: SimConfig,
    dir: &Path,
    halt_at: Option<u64>,
) -> Result<SteadyRun, String> {
    let env = SteadySnap {
        lambda,
        config: schedule,
    };
    let sink_dir = config.checkpoint_every.map(|_| dir);
    with_engine_router!(algorithm, problem.n, |router| {
        let topo = mesh_of(problem)?;
        let sim = Sim::try_build(&topo, router(), problem, config, None)?;
        drive_steady(algorithm, sim, env, None, sink_dir, halt_at)
    }, section6 => Err(not_an_engine_algorithm(algorithm)))
}

/// Restores a steady-state run from `snap` and drives the remaining
/// schedule. The measurement schedule and offered-load label come from
/// the snapshot's own `steady` environment block, so a resume re-passes
/// nothing; a snapshot without one (a closed-system checkpoint) is
/// rejected. The observer's windowed measurement state rides the
/// snapshot's `protocol` slot, so frames and the final report are
/// byte-identical to a run that never stopped. `config.admission` must
/// match the policy the snapshot was taken under (the restore rejects a
/// mismatch with a typed error). Checkpointing continues into `dir` when
/// `config.checkpoint_every` is set.
pub fn resume_steady_route(
    algorithm: Algorithm,
    snap: &Snapshot,
    config: SimConfig,
    dir: &Path,
    halt_at: Option<u64>,
) -> Result<SteadyRun, String> {
    let Some(env) = snap.steady else {
        return Err(
            "snapshot records no steady-state environment (a closed-system run); \
             resume it as a plain route or re-pass the steady flags"
                .to_string(),
        );
    };
    let topo = mesh_of_snapshot(snap)?;
    let sink_dir = config.checkpoint_every.map(|_| dir);
    with_engine_router!(algorithm, snap.n, |router| {
        let sim =
            Sim::restore(&topo, router(), config, None, snap).map_err(|e| e.to_string())?;
        drive_steady(algorithm, sim, env, snap.protocol.as_ref(), sink_dir, halt_at)
    }, section6 => Err(not_an_engine_algorithm(algorithm)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_traffic::workloads;

    const ENGINE_ALGORITHMS: [Algorithm; 9] = [
        Algorithm::DimOrder { k: 64 },
        Algorithm::DimOrderYx { k: 64 },
        Algorithm::AltAdaptive { k: 64 },
        Algorithm::Theorem15 { k: 2 },
        Algorithm::FarthestFirst { k: 64 },
        Algorithm::GreedyUnbounded,
        Algorithm::HotPotato,
        Algorithm::WestFirst { k: 64 },
        Algorithm::BoundedDeflect { k: 64, delta: 2 },
    ];

    #[test]
    fn all_engine_algorithms_route_a_small_permutation() {
        let pb = workloads::random_permutation(16, 4);
        for algo in ENGINE_ALGORITHMS {
            let out = route(algo, &pb);
            assert!(out.completed, "{} failed", out.algorithm);
            assert_eq!(out.delivered, 256);
        }
    }

    #[test]
    fn every_engine_algorithm_resumes_to_the_uninterrupted_outcome() {
        let pb = workloads::random_permutation(16, 4);
        let dir = std::env::temp_dir().join("mesh-api-resume-test");
        for algo in ENGINE_ALGORITHMS {
            let _ = std::fs::remove_dir_all(&dir);
            let full = serde_json::to_string(&route_with_cap(algo, &pb, 10_000)).unwrap();
            // Crash at step 9, after the cadence-4 checkpoints of steps 4 and 8.
            let (halted, last) = route_checkpointed(algo, &pb, 9, 4, &dir).unwrap();
            assert!(
                !halted.completed,
                "{} finished before the halt",
                algo.name()
            );
            let snap = Snapshot::read_from(&last.expect("a checkpoint at step 8")).unwrap();
            assert_eq!(snap.step, 8);
            let resumed = resume_route(algo, &snap, 10_000).unwrap();
            assert_eq!(serde_json::to_string(&resumed).unwrap(), full);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn section6_is_a_typed_error_at_every_engine_entry_point() {
        let pb = workloads::random_permutation(9, 1);
        let dir = std::env::temp_dir().join("mesh-api-s6-test");
        let schedule = SteadyConfig::default();
        let snap = {
            let topo = Mesh::new(9);
            Sim::new(&topo, crate::routers::theorem15(2), &pb).snapshot()
        };
        for algo in [Algorithm::Section6, Algorithm::Section6Improved] {
            let errors = [
                route_checkpointed(algo, &pb, 100, 4, &dir).unwrap_err(),
                resume_route(algo, &snap, 100).unwrap_err(),
                steady_route(algo, &pb, 0.1, schedule, SimConfig::default(), &dir, None)
                    .unwrap_err(),
            ];
            for err in errors {
                assert!(err.contains("does not run through the engine"), "{err}");
            }
        }
        assert!(!dir.exists(), "a refused run must not create its sink");
    }

    /// Input the engine cannot run is an error at every entry point, for
    /// engine and §6 algorithms alike, and a refused run writes nothing.
    #[test]
    fn invalid_input_is_an_error_at_every_entry_point() {
        let dir = std::env::temp_dir().join("mesh-api-invalid-test");
        let mut off_grid = workloads::random_permutation(9, 1);
        off_grid.packets[0].src.x = 14;
        for algo in [Algorithm::Theorem15 { k: 2 }, Algorithm::Section6] {
            let err = try_route_with_cap(algo, &off_grid, 100).unwrap_err();
            assert!(err.contains("out of the 9x9 grid"), "{err}");
        }
        let mut side0 = off_grid.clone();
        side0.n = 0;
        let err = try_route_with_cap(Algorithm::DimOrder { k: 1 }, &side0, 100).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");

        let pb = workloads::random_permutation(9, 1);
        let algo = Algorithm::Theorem15 { k: 2 };
        let err = route_checkpointed(algo, &pb, 100, 0, &dir).unwrap_err();
        assert!(err.contains("checkpoint_every"), "{err}");
        let mut snap = {
            let topo = Mesh::new(9);
            Sim::new(&topo, crate::routers::theorem15(2), &pb).snapshot()
        };
        snap.n = 0;
        let err = resume_route(algo, &snap, 100).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        assert!(!dir.exists(), "a refused run must not create its sink");
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
        let uncadenced = SimConfig {
            checkpoint_every: None,
            ..config()
        };
        let (full, last) = steady_route(algo, &pb, 0.4, schedule, uncadenced, &dir, None).unwrap();
        assert!(last.is_none() && !dir.exists(), "no cadence, no sink");
        let full_json = serde_json::to_string(&full.expect("no halt")).unwrap();

        // Crash mid-soak, then resume from the last checkpoint.
        let (halted, last) =
            steady_route(algo, &pb, 0.4, schedule, config(), &dir, Some(30)).unwrap();
        assert!(halted.is_none(), "halt-at 30 must stop before the horizon");
        let last = last.expect("cadence 8 must leave a checkpoint behind");
        let snap = Snapshot::read_from(&last).unwrap();
        // The snapshot itself carries the steady environment: the resume
        // re-passes neither lambda nor the schedule.
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
