//! The seven workloads as the gated (untraced) run executes them: a set-up
//! that builds every object the timed region needs from the seed, the timed
//! region itself (one call into the library's public API per problem), and
//! the correctness gate that turns the region's output into the simulated
//! statistics. The product code receives only generated problems; the seed
//! never reaches it.

use crate::heap;
use crate::host::{HostDelta, HostSample};
use mesh_routing::adversary::dimorder::DimOrderConstruction;
use mesh_routing::adversary::{verify_lower_bound, DimOrderParams, LowerBoundReport};
use mesh_routing::engine::{
    AdmissionPolicy, DirectorySink, Loc, Router, Sim, SimConfig, SimReport, Snapshot, SteadyConfig,
};
use mesh_routing::routers::{dim_order, hot_potato, theorem15};
use mesh_routing::topo::Mesh;
use mesh_routing::traffic::{workloads, PacketId, RoutingProblem};
use mesh_routing::{Section6Report, Section6Router};
use std::path::PathBuf;
use std::time::Instant;

/// Problem sizes. `FULL` is what `BENCHMARK.json` measures; `SMOKE` runs
/// every workload, check and trace span in well under a second each, for
/// the harness's own tests.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// `perm-packed` and `perm-tiled` (the same problem, by definition).
    pub packed_n: u32,
    pub view_n: u32,
    /// Queue size of Theorem 15's four inlink queues.
    pub k: u32,
    /// The occupancy the gate allows those queues: `k`, except in the
    /// harness's own test that a wrong expectation fails the run.
    pub queue_bound: u32,
    pub lowerbound_n: u32,
    pub steady_n: u32,
    pub steady_lambda: f64,
    pub steady_ttl: u64,
    pub steady_schedule: SteadyConfig,
    pub ckpt_n: u32,
    pub ckpt_cycles: u64,
    pub ckpt_every: u64,
    pub ckpt_crash_at: u64,
    pub s6_n: u32,
    pub s6_problems: u64,
    /// Complete set-ups a gated run makes, by workload in table order. One
    /// set-up takes from 0.4 ms (`ckpt`) to 5 s (`lowerbound`, whose set-up
    /// is the adversary's construction); the counts put about half a second
    /// of set-up into every run but that one. They are fixed, not timed, so
    /// that a run allocates the same on a fast and on a slow host.
    pub setup_reps: [usize; 7],
    /// Side of the traced run's router sweep.
    pub sweep_n: u32,
    /// Side of the smaller snapshot in the parse-scaling probe.
    pub scaling_n: u32,
    /// Steps of the traced two-thread comparison.
    pub speedup_steps: u64,
}

pub const FULL: Sizes = Sizes {
    packed_n: 384,
    view_n: 320,
    k: 2,
    queue_bound: 2,
    lowerbound_n: 288,
    steady_n: 64,
    // The knee is sharp: 0.040 expires nothing (p99 = 103 steps), 0.042
    // expires 143 packets, 0.045 expires 1.2 %. 0.038 keeps every seed on
    // the side where no offered packet fails.
    steady_lambda: 0.038,
    steady_ttl: 512,
    steady_schedule: SteadyConfig {
        warmup: 512,
        window: 512,
        windows: 10,
    },
    // Pinned at 64: `Snapshot::from_json` is quadratic in the file size
    // (2.6 s for this 1.2 MB checkpoint, 53 s at n = 128).
    ckpt_n: 64,
    ckpt_cycles: 3,
    ckpt_every: 16,
    ckpt_crash_at: 70,
    s6_n: 243,
    s6_problems: 8,
    setup_reps: [40, 60, 40, 1, 3, 200, 40],
    sweep_n: 128,
    scaling_n: 32,
    speedup_steps: 128,
};

pub const SMOKE: Sizes = Sizes {
    packed_n: 32,
    view_n: 32,
    k: 2,
    queue_bound: 2,
    lowerbound_n: 24,
    steady_n: 16,
    steady_lambda: 0.08,
    steady_ttl: 64,
    steady_schedule: SteadyConfig {
        warmup: 32,
        window: 32,
        windows: 4,
    },
    ckpt_n: 16,
    ckpt_cycles: 3,
    ckpt_every: 4,
    ckpt_crash_at: 10,
    s6_n: 27,
    s6_problems: 2,
    setup_reps: [3, 3, 3, 1, 3, 3, 3],
    sweep_n: 32,
    scaling_n: 8,
    speedup_steps: 16,
};

/// The step cap `mesh_routing::route` uses.
pub fn step_cap(n: u32) -> u64 {
    64 * n as u64 * n as u64 + 4096
}

pub const TILED: SimConfig = SimConfig {
    validate: true,
    watchdog: None,
    tile_threads: 1,
    tiles: Some((2, 2)),
    checkpoint_every: None,
    admission: AdmissionPolicy::DeferIndefinitely,
};

/// The simulated statistics of one timed region. They depend on the seed
/// and on nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Nodes of the mesh, `n²`.
    pub nodes: u64,
    pub steps: u64,
    pub moves: u64,
    pub max_queue: u64,
    pub offered: u64,
    pub delivered: u64,
    /// Offered packets the system gave up on: shed, expired or lost.
    pub failed: u64,
}

impl Counters {
    pub fn delivered_frac(&self) -> f64 {
        self.delivered as f64 / self.offered as f64
    }

    pub fn goodput_per_knode_step(&self) -> f64 {
        1000.0 * self.delivered as f64 / (self.nodes as f64 * self.steps as f64)
    }

    pub fn of_report(r: &SimReport) -> Counters {
        Counters {
            nodes: r.n as u64 * r.n as u64,
            steps: r.steps,
            moves: r.total_moves,
            max_queue: r.max_queue as u64,
            offered: r.total_packets as u64,
            delivered: r.delivered as u64,
            failed: (r.shed + r.expired + r.lost) as u64,
        }
    }

    /// The total of a multi-problem region (all on one mesh size).
    pub fn sum(parts: impl IntoIterator<Item = Counters>) -> Result<Counters, String> {
        parts
            .into_iter()
            .reduce(|total, part| Counters {
                nodes: total.nodes,
                steps: total.steps + part.steps,
                moves: total.moves + part.moves,
                max_queue: total.max_queue.max(part.max_queue),
                offered: total.offered + part.offered,
                delivered: total.delivered + part.delivered,
                failed: total.failed + part.failed,
            })
            .ok_or_else(|| "the region ran no problem".to_string())
    }
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// How much a gated run measures.
#[derive(Clone, Copy)]
pub struct Plan {
    /// `--seconds`.
    pub seconds: f64,
    pub setup_reps: usize,
}

/// What one gated run measured.
pub struct Measured {
    /// Wall time of each complete set-up, in seconds.
    pub setups: Vec<f64>,
    /// Wall time of each repetition of the timed region, in seconds.
    pub walls: Vec<f64>,
    pub counters: Counters,
    /// Allocations one repetition of the timed region made, and the bytes
    /// they asked for.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub host: HostDelta,
}

/// Sets up `setup_reps` times (the last one is kept), then times `region`.
/// `--seconds` buys one repetition of the fixed-size region per
/// `RUN_SECONDS`, at least one, so that a run is made of the same calls on
/// a fast and on a slow host. Every repetition starts from a fresh set-up,
/// passes `check`, and must reproduce the first one's counters exactly.
pub fn measure<R, O>(
    plan: Plan,
    mut setup: impl FnMut() -> R,
    mut region: impl FnMut(R) -> O,
    mut check: impl FnMut(O) -> Result<Counters, String>,
) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut timed_setup = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let ready = setup();
        setups.push(t.elapsed().as_secs_f64());
        ready
    };
    let mut ready = timed_setup(&mut setups);
    for _ in 1..plan.setup_reps {
        // Dropped first: two set-ups alive at once would double the peak.
        drop(ready);
        ready = timed_setup(&mut setups);
    }

    let reps = ((plan.seconds / crate::spec::RUN_SECONDS as f64) as usize).max(1);
    let mut walls: Vec<f64> = Vec::new();
    let mut host = HostDelta::default();
    let mut first: Option<(Counters, u64, u64)> = None;
    loop {
        let (host_before, heap_before) = (HostSample::now(), heap::sample());
        let t = Instant::now();
        let out = region(ready);
        walls.push(t.elapsed().as_secs_f64());
        let heap_after = heap::sample();
        host.add(host_before, HostSample::now());
        let now = (
            check(out)?,
            heap_after.allocs - heap_before.allocs,
            heap_after.bytes - heap_before.bytes,
        );
        let first = *first.get_or_insert(now);
        ensure(first == now, || {
            format!(
                "repetition {} differs from the first: {first:?} then {now:?}",
                walls.len()
            )
        })?;
        if walls.len() == reps {
            let (counters, allocs, alloc_bytes) = first;
            return Ok(Measured {
                setups,
                walls,
                counters,
                allocs,
                alloc_bytes,
                host,
            });
        }
        ready = timed_setup(&mut setups);
    }
}

// ---- perm-packed, perm-view, perm-tiled ----

/// A completed permutation run: everything delivered, queues within the
/// router's bound, and for a minimal router no move wasted.
pub fn check_perm(
    problem: &RoutingProblem,
    report: &SimReport,
    queue_bound: u32,
    minimal: bool,
) -> Result<Counters, String> {
    let n2 = problem.n as usize * problem.n as usize;
    ensure(report.completed && report.delivered == n2, || {
        format!(
            "delivered {} of {n2} in {} steps",
            report.delivered, report.steps
        )
    })?;
    ensure(report.max_queue <= queue_bound, || {
        format!(
            "max_queue {} exceeds the bound {queue_bound}",
            report.max_queue
        )
    })?;
    ensure(
        !minimal || report.total_moves == problem.total_work(),
        || {
            format!(
                "{} moves, but the shortest paths add up to {}",
                report.total_moves,
                problem.total_work()
            )
        },
    )?;
    Ok(Counters::of_report(report))
}

fn gated_perm<R: Router>(
    plan: Plan,
    n: u32,
    seed: u64,
    config: SimConfig,
    make_router: impl Fn() -> R,
    queue_bound: u32,
    minimal: bool,
) -> Result<Measured, String> {
    let topo = Mesh::new(n);
    measure(
        plan,
        || {
            let problem = workloads::random_permutation(n, seed);
            let sim = Sim::with_config(&topo, make_router(), &problem, config);
            (problem, sim)
        },
        |(problem, mut sim)| {
            let outcome = sim.run(step_cap(n));
            (problem, sim, outcome)
        },
        |(problem, sim, outcome)| {
            outcome.map_err(|e| format!("run failed: {}", e.kind()))?;
            check_perm(&problem, &sim.report(), queue_bound, minimal)
        },
    )
}

// ---- lowerbound ----

pub fn lowerbound_construction(n: u32) -> Result<DimOrderConstruction, String> {
    let params = DimOrderParams::new(n, 1).map_err(|e| format!("n = {n}: {e}"))?;
    Ok(DimOrderConstruction::new(params))
}

pub fn check_lowerbound(report: &LowerBoundReport) -> Result<Counters, String> {
    ensure(report.replay_matches_construction, || {
        "the replay's configuration at the bound differs from the construction's".to_string()
    })?;
    ensure(report.undelivered_at_bound > 0, || {
        "everything was delivered by the bound: no lower bound shown".to_string()
    })?;
    ensure(
        report
            .completion_steps
            .is_some_and(|c| c >= report.bound_steps),
        || {
            format!(
                "completion {:?} against bound {}",
                report.completion_steps, report.bound_steps
            )
        },
    )?;
    ensure(report.replay.max_queue <= 1, || {
        format!("max_queue {} exceeds k = 1", report.replay.max_queue)
    })?;
    Ok(Counters::of_report(&report.replay))
}

/// The adversary's construction takes no random input, so this is the one
/// workload the seed does not change.
fn gated_lowerbound(plan: Plan, sizes: &Sizes) -> Result<Measured, String> {
    let n = sizes.lowerbound_n;
    let topo = Mesh::new(n);
    let construction = lowerbound_construction(n)?;
    measure(
        plan,
        || construction.run(&topo, dim_order(1)),
        |outcome| verify_lower_bound(&topo, dim_order(1), &outcome, Some(step_cap(n))),
        |report| check_lowerbound(&report),
    )
}

// ---- steady-sat ----

pub fn steady_problem(sizes: &Sizes, seed: u64) -> RoutingProblem {
    workloads::open_bernoulli(
        sizes.steady_n,
        sizes.steady_lambda,
        sizes.steady_schedule.horizon(),
        seed,
    )
}

pub fn steady_config(sizes: &Sizes) -> SimConfig {
    SimConfig {
        admission: AdmissionPolicy::DeadlineExpiry {
            ttl: sizes.steady_ttl,
        },
        ..SimConfig::default()
    }
}

/// Packets inside the network or staged at its edge, counted from the
/// per-packet location table (not derived from the other counters).
pub fn steady_in_flight<R: Router>(sim: &Sim<'_, Mesh, R>) -> usize {
    let queued = (0..sim.num_packets() as u32)
        .filter(|&i| matches!(sim.loc(PacketId(i)), Loc::At(_)))
        .count();
    queued + sim.pending_injections()
}

pub fn check_steady<R: Router>(
    sim: &Sim<'_, Mesh, R>,
    queue_bound: u32,
) -> Result<Counters, String> {
    let report = sim.report();
    let accounted =
        report.delivered + steady_in_flight(sim) + report.shed + report.expired + report.lost;
    ensure(sim.offered() == accounted, || {
        format!("offered {} but {accounted} accounted for", sim.offered())
    })?;
    ensure(report.max_queue <= queue_bound, || {
        format!(
            "max_queue {} exceeds the bound {queue_bound}",
            report.max_queue
        )
    })?;
    Ok(Counters {
        offered: sim.offered() as u64,
        ..Counters::of_report(&report)
    })
}

fn gated_steady(plan: Plan, sizes: &Sizes, seed: u64) -> Result<Measured, String> {
    let topo = Mesh::new(sizes.steady_n);
    measure(
        plan,
        || {
            let problem = steady_problem(sizes, seed);
            Sim::with_config(&topo, theorem15(sizes.k), &problem, steady_config(sizes))
        },
        |mut sim| {
            let outcome = sim.run_steady(sizes.steady_schedule);
            (sim, outcome)
        },
        |(sim, outcome)| {
            outcome.map_err(|e| format!("run_steady failed: {}", e.kind()))?;
            check_steady(&sim, sizes.queue_bound)
        },
    )
}

// ---- ckpt ----

/// Checkpoint directory of this process; removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new() -> ScratchDir {
        // Fixed width: the path's length reaches the allocator counts.
        ScratchDir(crate::out_dir().join(format!("ckpt-{:010}", std::process::id())))
    }

    pub fn cycle(&self, cycle: u64) -> PathBuf {
        self.0.join(format!("cycle-{cycle}"))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn ckpt_config(sizes: &Sizes) -> SimConfig {
    SimConfig {
        checkpoint_every: Some(sizes.ckpt_every),
        ..SimConfig::default()
    }
}

/// The resumed run's report must be byte-identical to that of a run of the
/// same problem that never stopped (made here, untimed).
pub fn check_ckpt_cycle(
    topo: &Mesh,
    sizes: &Sizes,
    problem: &RoutingProblem,
    resumed: &SimReport,
) -> Result<(), String> {
    let mut reference = Sim::new(topo, theorem15(sizes.k), problem);
    reference
        .run(step_cap(problem.n))
        .map_err(|e| format!("reference run failed: {}", e.kind()))?;
    let render = |r: &SimReport| serde_json::to_string(r).expect("report serialization");
    ensure(render(resumed) == render(&reference.report()), || {
        "the resumed run's report differs from an uninterrupted run's".to_string()
    })?;
    check_perm(problem, resumed, sizes.queue_bound, true).map(|_| ())
}

fn read_last_checkpoint(sink: &DirectorySink) -> Result<Snapshot, String> {
    if let Some(e) = &sink.error {
        return Err(format!("checkpoint write failed: {e}"));
    }
    let path = sink
        .last_checkpoint()
        .ok_or("the run crashed before its first checkpoint")?;
    Snapshot::read_from(path).map_err(|e| e.to_string())
}

fn gated_ckpt(plan: Plan, sizes: &Sizes, seed: u64) -> Result<Measured, String> {
    let n = sizes.ckpt_n;
    let topo = Mesh::new(n);
    let scratch = ScratchDir::new();
    measure(
        plan,
        || {
            (0..sizes.ckpt_cycles)
                .map(|cycle| {
                    let problem = workloads::random_permutation(n, seed + cycle);
                    let sim =
                        Sim::with_config(&topo, theorem15(sizes.k), &problem, ckpt_config(sizes));
                    let sink = DirectorySink::new(scratch.cycle(cycle));
                    (problem, sim, sink)
                })
                .collect::<Vec<_>>()
        },
        |cycles| {
            cycles
                .into_iter()
                .map(|(problem, mut sim, sink)| {
                    let mut sink = sink.map_err(|e| e.to_string())?;
                    // The crash: the run stops at the cap and the process
                    // state is dropped; only the directory survives.
                    let _ = sim.run_checkpointed(sizes.ckpt_crash_at, &mut sink);
                    let crashed_at = sim.steps();
                    drop(sim);
                    let snap = read_last_checkpoint(&sink)?;
                    let mut resumed =
                        Sim::restore(&topo, theorem15(sizes.k), SimConfig::default(), None, &snap)
                            .map_err(|e| e.to_string())?;
                    resumed
                        .run(step_cap(n))
                        .map_err(|e| format!("resumed run failed: {}", e.kind()))?;
                    Ok((problem, crashed_at - snap.step, resumed.report()))
                })
                .collect::<Result<Vec<_>, String>>()
        },
        |cycles| {
            let mut checked = Vec::new();
            for (problem, replayed_steps, report) in cycles? {
                check_ckpt_cycle(&topo, sizes, &problem, &report)?;
                checked.push(Counters {
                    // The steps between the checkpoint and the crash ran twice.
                    steps: report.steps + replayed_steps,
                    ..Counters::of_report(&report)
                });
            }
            Counters::sum(checked)
        },
    )
}

// ---- s6-perm ----

pub fn s6_problems(sizes: &Sizes, seed: u64) -> Vec<RoutingProblem> {
    (0..sizes.s6_problems)
        .map(|i| workloads::random_permutation(sizes.s6_n, 1000 * seed + i))
        .collect()
}

/// Theorem 34: everything delivered within `972n` scheduled steps, never
/// more than 834 packets in a node; and the algorithm is minimal.
pub fn check_s6(problem: &RoutingProblem, report: &Section6Report) -> Result<Counters, String> {
    ensure(report.delivered == report.total_packets, || {
        format!("delivered {} of {}", report.delivered, report.total_packets)
    })?;
    ensure(report.scheduled_steps <= 972 * report.n as u64, || {
        format!("{} scheduled steps exceed 972n", report.scheduled_steps)
    })?;
    ensure(report.max_node_load <= 834, || {
        format!("node load {} exceeds 834", report.max_node_load)
    })?;
    ensure(report.total_moves == problem.total_work(), || {
        format!(
            "{} moves, but the shortest paths add up to {}",
            report.total_moves,
            problem.total_work()
        )
    })?;
    Ok(Counters {
        nodes: report.n as u64 * report.n as u64,
        steps: report.scheduled_steps,
        moves: report.total_moves,
        max_queue: report.max_node_load as u64,
        offered: report.total_packets as u64,
        delivered: report.delivered as u64,
        failed: 0,
    })
}

pub fn sum_s6(problems: &[RoutingProblem], reports: &[Section6Report]) -> Result<Counters, String> {
    let checked: Result<Vec<Counters>, String> = problems
        .iter()
        .zip(reports)
        .map(|(p, r)| check_s6(p, r))
        .collect();
    Counters::sum(checked?)
}

fn gated_s6(plan: Plan, sizes: &Sizes, seed: u64) -> Result<Measured, String> {
    let router = Section6Router::new();
    measure(
        plan,
        || s6_problems(sizes, seed),
        |problems| {
            let reports: Vec<Section6Report> = problems.iter().map(|p| router.route(p)).collect();
            (problems, reports)
        },
        |(problems, reports)| sum_s6(&problems, &reports),
    )
}

/// Runs workload `index` (into `spec::WORKLOADS`) untraced.
pub fn gated(index: usize, sizes: &Sizes, seed: u64, seconds: f64) -> Result<Measured, String> {
    let plan = Plan {
        seconds,
        setup_reps: sizes.setup_reps[index],
    };
    let (k, bound) = (sizes.k, sizes.queue_bound);
    match crate::spec::WORKLOADS[index].name {
        "perm-packed" => {
            let config = SimConfig::default();
            gated_perm(
                plan,
                sizes.packed_n,
                seed,
                config,
                || theorem15(k),
                bound,
                true,
            )
        }
        "perm-view" => {
            let (n, config) = (sizes.view_n, SimConfig::default());
            gated_perm(plan, n, seed, config, || hot_potato(n), 1, false)
        }
        "perm-tiled" => gated_perm(
            plan,
            sizes.packed_n,
            seed,
            TILED,
            || theorem15(k),
            bound,
            true,
        ),
        "lowerbound" => gated_lowerbound(plan, sizes),
        "steady-sat" => gated_steady(plan, sizes, seed),
        "ckpt" => gated_ckpt(plan, sizes, seed),
        "s6-perm" => gated_s6(plan, sizes, seed),
        other => unreachable!("workload {other} is in the table but not dispatched"),
    }
}
