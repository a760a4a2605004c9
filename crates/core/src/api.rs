//! One-call routing API over every algorithm in the reproduction.

use crate::section6::{Section6Report, Section6Router};
use mesh_engine::{
    CheckpointSink, DirectorySink, Distribution, NodeField, Sim, SimConfig, SimError, Snapshot,
    SnapshotError, SteadyConfig, SteadyReport, SteadySnap,
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
/// body needs (an adversary construction and its replay need two). To steer
/// around faults, wrap the result in `FaultAware::new` inside the body: it
/// reads the plan the body hands the engine. The §6 schedulers do not run
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

/// The mesh a problem runs on, once it passes
/// [`RoutingProblem::validate_side`] (a side-0 problem has none); the rest
/// of [`RoutingProblem::validate`] is [`Sim::try_build`]'s to apply.
fn mesh_of(problem: &RoutingProblem) -> Result<Mesh, String> {
    problem.validate_side()?;
    Ok(Mesh::new(problem.n))
}

/// The default step cap on a side-`n` grid, `64·n² + 4096`, saturating: a
/// file may claim a side the engine refuses.
fn default_cap(n: u32) -> u64 {
    u64::from(n).pow(2).saturating_mul(64).saturating_add(4096)
}

/// Routes `problem` with `algorithm` on the mesh, with a generous default
/// step cap of `64·n² + 4096`.
pub fn route(algorithm: Algorithm, problem: &RoutingProblem) -> RouteOutcome {
    route_with_cap(algorithm, problem, default_cap(problem.n))
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

/// Where a [`drive`]n run starts.
#[derive(Clone, Copy, Debug)]
pub enum Start<'a> {
    /// A fresh run of a problem, built with [`Sim::try_build`].
    Problem(&'a RoutingProblem),
    /// The run a checkpoint was taken of, rebuilt with [`Sim::restore`]: its
    /// remaining steps are bit-identical to the uninterrupted run's
    /// (DESIGN.md §11). A steady checkpoint carries its own environment.
    Resume(&'a Snapshot),
}

/// How a [`drive`]n run goes. Every field means the same for every run:
/// fresh or resumed, closed or steady.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    /// Step cap of a closed run; `None` is [`route`]'s `64·n² + 4096`. A
    /// steady run ends at its schedule's horizon.
    pub cap: Option<u64>,
    /// A simulated crash: the run stops at this step if it has not ended,
    /// keeping its checkpoints. A halt is not a failure: it leaves no
    /// `diag_<step>.json`.
    pub halt_at: Option<u64>,
    /// The engine config: watchdog, checkpoint cadence, admission policy.
    pub config: SimConfig,
    /// The environment of a fresh steady run; `None` runs the problem
    /// closed. A resumed run takes its environment from its snapshot and
    /// does not read this.
    pub steady: Option<SteadySnap>,
    /// Where `ckpt_<step>.json` (and `diag_<step>.json` when the step cap
    /// or the watchdog stops the run) go when `config.checkpoint_every` is
    /// set; without a cadence nothing is created.
    pub checkpoint_dir: PathBuf,
    /// The statistics of the simulation [`Run`] carries.
    pub stats: Stats,
}

/// Which statistics of the simulation a [`drive`]n run returns. Each is a
/// pass over every delivered packet or every node, so a run computes only
/// the ones asked for.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// The delivery latencies, [`Run::latency`].
    pub latency: bool,
    /// The per-node peak occupancy, [`Run::congestion`].
    pub congestion: bool,
}

/// What a run drove to.
#[derive(Clone, Debug)]
pub enum Outcome {
    Closed(RouteOutcome),
    Steady(SteadyOutcome),
}

/// What [`drive`] returns.
pub struct Run {
    /// `None` only for a steady run stopped before its schedule ended (by
    /// `halt_at` or the watchdog): a steady report needs every window.
    pub outcome: Option<Outcome>,
    /// Why the engine stopped the run short, if it did: the step cap (a
    /// closed run's cap, or `halt_at`) or the watchdog's verdict.
    pub stop: Option<SimError>,
    /// The last checkpoint written, if any.
    pub last_checkpoint: Option<PathBuf>,
    /// The delivery latencies of the simulation that made the outcome,
    /// when [`Stats::latency`] asks for them; always `None` for the §6
    /// schedulers, which do not run through the engine.
    pub latency: Option<Distribution>,
    /// Its per-node peak occupancy, when [`Stats::congestion`] asks for
    /// it; always `None` for the §6 schedulers.
    pub congestion: Option<NodeField>,
}

/// Runs `algorithm` from `start` as `plan` says: the one entry for every
/// run of `mesh route`. A fresh run and a resumed one differ only in how
/// the simulation is built; a run is steady when `plan.steady` (fresh) or
/// the snapshot (resumed) gives it an environment, and closed otherwise.
/// Checkpointing is a pure observer: the outcome is byte-identical to an
/// uncheckpointed run's, and a resumed run's to the uninterrupted one's.
///
/// A run the step cap or the watchdog stops leaves its post-mortem,
/// `diag_<step>.json`, beside its checkpoints; a run stopped by
/// `plan.halt_at` leaves only the checkpoints.
///
/// `Err` is a run that cannot start (input the engine refuses, a snapshot
/// that does not restore under `algorithm` and `plan.config`) or a failed
/// checkpoint write. The §6 schedulers do not run through the engine: they
/// take only a fresh, closed, uncheckpointed, unhalted run.
pub fn drive(algorithm: Algorithm, start: Start<'_>, plan: &Plan) -> Result<Run, String> {
    let (n, steady, state) = match start {
        Start::Problem(pb) => (pb.n, plan.steady, None),
        Start::Resume(snap) => (snap.n, snap.steady, snap.protocol.as_ref()),
    };
    let cap = plan.cap.unwrap_or_else(|| default_cap(n));
    with_engine_router!(algorithm, n, |router| {
        let topo;
        let mut sim = match start {
            Start::Problem(pb) => {
                topo = mesh_of(pb)?;
                Sim::try_build(&topo, router(), pb, plan.config, None)?
            }
            Start::Resume(snap) => {
                // No run has side 0: a snapshot claiming it is corrupt.
                if snap.n == 0 {
                    return Err(SnapshotError::Corrupt("side 0".into()).to_string());
                }
                topo = Mesh::new(snap.n);
                Sim::restore(&topo, router(), plan.config, None, snap)
                    .map_err(|e| e.to_string())?
            }
        };
        if let Some(env) = steady {
            env.config.validate()?;
        }
        let dir = plan.config.checkpoint_every.map(|_| &plan.checkpoint_dir);
        let mut sink = dir.map(DirectorySink::new).transpose().map_err(|e| e.to_string())?;
        let mut checkpoints = Checkpoints(&mut sink);
        let (outcome, stop) = match steady {
            None => {
                let cap = plan.halt_at.map_or(cap, |h| h.min(cap));
                let stop = sim.run_checkpointed(cap, &mut checkpoints).err();
                (Some(Outcome::Closed(RouteOutcome::engine(algorithm, sim.report()))), stop)
            }
            Some(env) => {
                let (lambda, schedule, halt_at) = (env.lambda, env.config, plan.halt_at);
                match sim.run_steady_checkpointed(schedule, lambda, state, &mut checkpoints, halt_at)
                {
                    Ok(steady) => {
                        let report = sim.report();
                        let out = SteadyOutcome {
                            algorithm: algorithm.name(),
                            workload: report.workload.clone(),
                            n: report.n,
                            lambda,
                            schedule,
                            steady,
                            report,
                        };
                        (Some(Outcome::Steady(out)), None)
                    }
                    Err(e) => (None, Some(e)),
                }
            }
        };
        let halted = |e: &SimError| {
            matches!(e, SimError::StepCap(_)) && plan.halt_at == Some(e.snapshot().step)
        };
        if let Some(e) = stop.as_ref().filter(|e| !halted(e)) {
            sink.on_failure(e.snapshot().step, e.snapshot());
        }
        let last_checkpoint = match sink {
            Some(DirectorySink { error: Some(e), .. }) => return Err(e.to_string()),
            Some(sink) => sink.last_checkpoint().map(Path::to_path_buf),
            None => None,
        };
        Ok(Run {
            outcome,
            stop,
            last_checkpoint,
            latency: plan.stats.latency.then(|| sim.latency_distribution()),
            congestion: plan.stats.congestion.then(|| sim.congestion_map()),
        })
    }, section6 => match start {
        Start::Problem(pb)
            if steady.is_none()
                && plan.config.checkpoint_every.is_none()
                && plan.halt_at.is_none() =>
        {
            Ok(Run {
                outcome: Some(Outcome::Closed(try_route_with_cap(algorithm, pb, cap)?)),
                stop: None,
                last_checkpoint: None,
                latency: None,
                congestion: None,
            })
        }
        _ => Err(format!(
            "{} does not run through the engine; a checkpointed, halted, resumed or steady run \
             needs an engine algorithm",
            algorithm.name()
        )),
    })
}

/// The sink a [`drive`]n run hands the engine: checkpoints pass through
/// to the run's sink, the failure report does not. `drive` files the
/// post-mortem itself, once it knows the stop was not the halt.
struct Checkpoints<'s, S>(&'s mut S);

impl<S: CheckpointSink> CheckpointSink for Checkpoints<'_, S> {
    fn on_checkpoint(&mut self, snap: &Snapshot) {
        self.0.on_checkpoint(snap);
    }
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

    /// A closed plan: the given cap, cadence and checkpoint directory.
    fn closed(cap: u64, every: Option<u64>, dir: &Path) -> Plan {
        Plan {
            cap: Some(cap),
            config: SimConfig {
                checkpoint_every: every,
                ..SimConfig::default()
            },
            checkpoint_dir: dir.to_path_buf(),
            ..Plan::default()
        }
    }

    fn closed_outcome(run: Run) -> RouteOutcome {
        match run.outcome {
            Some(Outcome::Closed(out)) => out,
            other => panic!("expected a closed outcome, got {other:?}"),
        }
    }

    fn steady_outcome(run: Run) -> Option<SteadyOutcome> {
        match run.outcome {
            Some(Outcome::Steady(out)) => Some(out),
            None => None,
            Some(other) => panic!("expected a steady outcome, got {other:?}"),
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
            let run = drive(algo, Start::Problem(&pb), &closed(9, Some(4), &dir)).unwrap();
            let last = run.last_checkpoint.clone();
            let halted = closed_outcome(run);
            assert!(
                !halted.completed,
                "{} finished before the halt",
                algo.name()
            );
            let snap = Snapshot::read_from(&last.expect("a checkpoint at step 8")).unwrap();
            assert_eq!(snap.step, 8);
            let resumed = drive(algo, Start::Resume(&snap), &closed(10_000, None, &dir)).unwrap();
            let resumed = closed_outcome(resumed);
            assert_eq!(serde_json::to_string(&resumed).unwrap(), full);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn section6_is_a_typed_error_at_every_engine_entry_point() {
        let pb = workloads::random_permutation(9, 1);
        let dir = std::env::temp_dir().join("mesh-api-s6-test");
        let steady = Plan {
            steady: Some(SteadySnap {
                lambda: 0.1,
                config: SteadyConfig::default(),
            }),
            ..Plan::default()
        };
        let snap = {
            let topo = Mesh::new(9);
            Sim::new(&topo, crate::routers::theorem15(2), &pb).snapshot()
        };
        for algo in [Algorithm::Section6, Algorithm::Section6Improved] {
            let errors = [
                drive(algo, Start::Problem(&pb), &closed(100, Some(4), &dir)),
                drive(algo, Start::Resume(&snap), &closed(100, None, &dir)),
                drive(algo, Start::Problem(&pb), &steady),
            ];
            for err in errors.map(|r| r.err().expect("refused")) {
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
        let err = drive(algo, Start::Problem(&pb), &closed(100, Some(0), &dir))
            .err()
            .expect("cadence 0 is refused");
        assert!(err.contains("checkpoint_every"), "{err}");
        let mut snap = {
            let topo = Mesh::new(9);
            Sim::new(&topo, crate::routers::theorem15(2), &pb).snapshot()
        };
        snap.n = 0;
        let err = drive(algo, Start::Resume(&snap), &closed(100, None, &dir))
            .err()
            .expect("side 0 is refused");
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
        let algo = Algorithm::DimOrder { k: 4 };
        let dir = std::env::temp_dir().join("mesh-api-steady-test");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = |halt_at| Plan {
            halt_at,
            config: SimConfig {
                admission: mesh_engine::AdmissionPolicy::DeadlineExpiry { ttl: 24 },
                checkpoint_every: Some(8),
                watchdog: Some(64),
                ..SimConfig::default()
            },
            steady: Some(SteadySnap {
                lambda: 0.4,
                config: schedule,
            }),
            checkpoint_dir: dir.clone(),
            ..Plan::default()
        };

        // Uninterrupted reference run.
        let mut uncadenced = plan(None);
        uncadenced.config.checkpoint_every = None;
        let full = drive(algo, Start::Problem(&pb), &uncadenced).unwrap();
        assert!(
            full.last_checkpoint.is_none() && !dir.exists(),
            "no cadence, no sink"
        );
        let full_json = serde_json::to_string(&steady_outcome(full).expect("no halt")).unwrap();

        // Crash mid-soak, then resume from the last checkpoint.
        let halted = drive(algo, Start::Problem(&pb), &plan(Some(30))).unwrap();
        let last = halted.last_checkpoint.clone();
        assert!(
            steady_outcome(halted).is_none(),
            "halt-at 30 must stop before the horizon"
        );
        let last = last.expect("cadence 8 must leave a checkpoint behind");
        let snap = Snapshot::read_from(&last).unwrap();
        // The snapshot itself carries the steady environment: the resume
        // re-passes neither lambda nor the schedule.
        let env = snap.steady.expect("steady checkpoints record their env");
        assert_eq!(env.lambda, 0.4);
        assert_eq!(env.config, schedule);
        let resume = Plan {
            steady: None,
            ..plan(None)
        };
        let resumed = drive(algo, Start::Resume(&snap), &resume).unwrap();
        let resumed = steady_outcome(resumed).expect("resumed run must complete the schedule");
        assert_eq!(serde_json::to_string(&resumed).unwrap(), full_json);

        // A mismatched admission policy is a typed refusal, not divergence.
        let mut bad = resume.clone();
        bad.config.admission = mesh_engine::AdmissionPolicy::RejectNew;
        let err = drive(algo, Start::Resume(&snap), &bad)
            .err()
            .expect("a mismatched admission policy is refused");
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
