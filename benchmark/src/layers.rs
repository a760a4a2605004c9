//! The traced run: each workload again, with a span around every call into
//! a layer's public function, and the per-layer metrics worked out from
//! those spans. Where the gated run calls `Sim::run`, the traced run drives
//! `Sim::step` itself, so that single steps can be told apart.

use crate::host;
use crate::spec::PER_LAYER;
use crate::trace::{median, percentile, Tracer};
use crate::workloads::{
    check_ckpt_cycle, check_lowerbound, check_perm, check_steady, ckpt_config,
    lowerbound_construction, s6_problems, steady_config, steady_in_flight, steady_problem,
    step_cap, sum_s6, Counters, ScratchDir, Sizes, TILED,
};
use mesh_routing::adversary::verify_lower_bound;
use mesh_routing::engine::{Dx, Router, Sim, SimConfig, Snapshot};
use mesh_routing::routers::{
    alt_adaptive, dim_order, hot_potato, theorem15, BoundedDeflect, FarthestFirst, WestFirst,
};
use mesh_routing::section6::state::S6State;
use mesh_routing::topo::{Mesh, Topology};
use mesh_routing::traffic::{workloads, RoutingProblem};
use mesh_routing::Section6Router;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-layer metric values of one traced run. Every name of
/// `spec::PER_LAYER` is present; a layer the workload never enters reads 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---- shared spans ----

fn traced_permutation(tr: &mut Tracer, layers: &mut Layers, n: u32, seed: u64) -> RoutingProblem {
    let (problem, secs) = tr.leaf("workloads::random_permutation", || {
        workloads::random_permutation(n, seed)
    });
    layers.set("traffic.gen_s", secs);
    layers.set(
        "traffic.gen_ns_per_packet",
        ratio(secs * 1e9, problem.len() as f64),
    );
    problem
}

/// One call of `Mesh::profitable` per packet of `problem`, repeated until
/// the span is long enough to read.
fn traced_profitable(tr: &mut Tracer, layers: &mut Layers, topo: &Mesh, problem: &RoutingProblem) {
    const PASSES: usize = 32;
    let (_, secs) = tr.leaf("Mesh::profitable", || {
        for _ in 0..PASSES {
            for p in &problem.packets {
                black_box(topo.profitable(black_box(p.src), black_box(p.dst)));
            }
        }
    });
    let calls = (PASSES * problem.len()) as f64;
    layers.set("topo.profitable_ns_per_call", ratio(secs * 1e9, calls));
}

/// A step loop driven from outside, one span per `Sim::step`.
struct StepLoop {
    /// Duration of every step, in microseconds, in order.
    step_us: Vec<f64>,
    moves: u64,
    /// Time and moves of the steps that began with at least half of the
    /// packets undelivered.
    dense_s: f64,
    dense_moves: u64,
    /// Time and count of the steps that began with under 1 % undelivered.
    tail_s: f64,
    tail_steps: u64,
}

impl StepLoop {
    fn total_s(&self) -> f64 {
        self.step_us.iter().sum::<f64>() / 1e6
    }

    fn prefix_s(&self, steps: usize) -> f64 {
        self.step_us.iter().take(steps).sum::<f64>() / 1e6
    }

    fn sorted_us(&self) -> Vec<f64> {
        let mut v = self.step_us.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Steps `sim` until it is done or has made `max_steps` steps. The share
/// of undelivered packets only falls in a closed problem, so the dense
/// phase is a prefix of the loop and the tail a suffix; the move counter is
/// read (through `Sim::report`, outside the step spans) where they end.
fn traced_steps<R: Router>(
    tr: &mut Tracer,
    sim: &mut Sim<'_, Mesh, R>,
    max_steps: u64,
) -> StepLoop {
    let total = sim.num_packets();
    let loop_span = tr.enter("step-loop");
    let mut out = StepLoop {
        step_us: Vec::new(),
        moves: 0,
        dense_s: 0.0,
        dense_moves: 0,
        tail_s: 0.0,
        tail_steps: 0,
    };
    let mut dense = true;
    let mut done = sim.done();
    while !done && (out.step_us.len() as u64) < max_steps {
        let undelivered = total - sim.delivered();
        if dense && undelivered * 2 < total {
            dense = false;
            out.dense_moves = sim.report().total_moves;
        }
        let tail = undelivered * 100 < total;
        let span = tr.enter("Sim::step");
        done = sim.step();
        let secs = tr.exit(span);
        out.step_us.push(secs * 1e6);
        if dense {
            out.dense_s += secs;
        }
        if tail {
            out.tail_s += secs;
            out.tail_steps += 1;
        }
    }
    out.moves = sim.report().total_moves;
    if dense {
        out.dense_moves = out.moves;
    }
    tr.exit(loop_span);
    out
}

fn set_step_metrics(layers: &mut Layers, steps: &StepLoop) {
    let sorted = steps.sorted_us();
    layers.set("sim.step.count", sorted.len() as f64);
    layers.set("sim.step.total_s", steps.total_s());
    layers.set("sim.step.p50_us", percentile(&sorted, 50.0));
    layers.set("sim.step.p95_us", percentile(&sorted, 95.0));
    layers.set("sim.step.max_us", sorted.last().copied().unwrap_or(0.0));
    layers.set(
        "sim.step.ns_per_move",
        ratio(steps.total_s() * 1e9, steps.moves as f64),
    );
    layers.set(
        "sim.step.dense_ns_per_move",
        ratio(steps.dense_s * 1e9, steps.dense_moves as f64),
    );
    layers.set(
        "sim.step.tail_us_per_step",
        ratio(steps.tail_s * 1e6, steps.tail_steps as f64),
    );
}

/// Construct, step to completion, report: the `mesh-engine::sim` layer on
/// a closed permutation problem. Returns the loop and the checked counters.
fn traced_sim<R: Router>(
    tr: &mut Tracer,
    layers: &mut Layers,
    topo: &Mesh,
    problem: &RoutingProblem,
    router: R,
    queue_bound: u32,
    minimal: bool,
) -> Result<(StepLoop, Counters), String> {
    let (mut sim, construct_s) = tr.leaf("Sim::with_config", || {
        Sim::with_config(topo, router, problem, SimConfig::default())
    });
    let steps = traced_steps(tr, &mut sim, step_cap(problem.n));
    let (report, report_s) = tr.leaf("Sim::report", || sim.report());
    let (latency, _) = tr.leaf("Sim::latency_distribution", || sim.latency_distribution());
    layers.set("sim.construct_s", construct_s);
    set_step_metrics(layers, &steps);
    layers.set("sim.report_s", report_s);
    layers.set("sim.p99_latency_steps", latency.p99 as f64);
    let counters = check_perm(problem, &report, queue_bound, minimal)?;
    Ok((steps, counters))
}

// ---- perm-packed ----

fn trace_perm_packed(
    tr: &mut Tracer,
    layers: &mut Layers,
    sizes: &Sizes,
    seed: u64,
) -> Result<Counters, String> {
    let n = sizes.packed_n;
    let topo = Mesh::new(n);
    let problem = traced_permutation(tr, layers, n, seed);
    traced_profitable(tr, layers, &topo, &problem);
    let (steps, counters) = traced_sim(
        tr,
        layers,
        &topo,
        &problem,
        theorem15(sizes.k),
        sizes.queue_bound,
        true,
    )?;

    // The same run through `Sim::run`, as the gated run makes it: the
    // difference is what the step spans cost.
    let (mut sim, _) = tr.leaf("Sim::with_config", || {
        Sim::with_config(&topo, theorem15(sizes.k), &problem, SimConfig::default())
    });
    let (outcome, run_s) = tr.leaf("Sim::run", || sim.run(step_cap(n)));
    outcome.map_err(|e| format!("untraced run failed: {}", e.kind()))?;
    layers.set(
        "sim.trace_overhead_frac",
        ratio(steps.total_s() - run_s, run_s),
    );
    layers.set("run.wall_s", steps.total_s());
    Ok(counters)
}

// ---- perm-view, and the router sweep it carries ----

/// `ns` per move of `router` on `problem`, for at most `4n` steps;
/// completion is not required. Returns (seconds, moves).
fn sweep_one<R: Router>(
    tr: &mut Tracer,
    layers: &mut Layers,
    metric: &str,
    topo: &Mesh,
    problem: &RoutingProblem,
    router: R,
) -> (f64, u64) {
    let (mut sim, _) = tr.leaf("Sim::with_config", || {
        Sim::with_config(topo, router, problem, SimConfig::default())
    });
    // A router that has not finished by the cap stops there: `Err(StepCap)`.
    let (_, secs) = tr.leaf("Sim::run", || sim.run(4 * problem.n as u64));
    let moves = sim.report().total_moves;
    layers.set(metric, ratio(secs * 1e9, moves as f64));
    (secs, moves)
}

/// Time and moves of a group of sweep runs.
#[derive(Default)]
struct SweepGroup {
    secs: f64,
    moves: u64,
}

impl SweepGroup {
    fn add(&mut self, (secs, moves): (f64, u64)) {
        self.secs += secs;
        self.moves += moves;
    }

    fn secs_per_move(&self) -> f64 {
        ratio(self.secs, self.moves as f64)
    }
}

/// The `mesh-routers` layer: every shipped router on one `sweep_n`
/// permutation. Central queues get `SWEEP_K` slots, enough for none of them
/// to wedge on a random permutation.
fn trace_router_sweep(tr: &mut Tracer, layers: &mut Layers, sizes: &Sizes, seed: u64) {
    const SWEEP_K: u32 = 8;
    let n = sizes.sweep_n;
    let topo = Mesh::new(n);
    let pb = workloads::random_permutation(n, seed);
    let span = tr.enter("router-sweep");

    // Routers with a packed fast path.
    let mut packed = SweepGroup::default();
    let router = theorem15(sizes.k);
    packed.add(sweep_one(
        tr,
        layers,
        "routers.theorem15.ns_per_move",
        &topo,
        &pb,
        router,
    ));
    let router = dim_order(SWEEP_K);
    packed.add(sweep_one(
        tr,
        layers,
        "routers.dimorder.ns_per_move",
        &topo,
        &pb,
        router,
    ));
    let router = Dx::new(WestFirst::new(SWEEP_K));
    packed.add(sweep_one(
        tr,
        layers,
        "routers.westfirst.ns_per_move",
        &topo,
        &pb,
        router,
    ));

    // Routers the engine serves through 40-byte views.
    let mut view = SweepGroup::default();
    let router = hot_potato(n);
    view.add(sweep_one(
        tr,
        layers,
        "routers.hotpotato.ns_per_move",
        &topo,
        &pb,
        router,
    ));
    let router = alt_adaptive(SWEEP_K);
    view.add(sweep_one(
        tr,
        layers,
        "routers.altadaptive.ns_per_move",
        &topo,
        &pb,
        router,
    ));
    let router = FarthestFirst::new(SWEEP_K);
    view.add(sweep_one(
        tr,
        layers,
        "routers.farthest.ns_per_move",
        &topo,
        &pb,
        router,
    ));
    let router = Dx::new(BoundedDeflect::new(n, SWEEP_K, 1));
    view.add(sweep_one(
        tr,
        layers,
        "routers.boundeddeflect.ns_per_move",
        &topo,
        &pb,
        router,
    ));

    layers.set(
        "routers.view_over_packed_ratio",
        ratio(view.secs_per_move(), packed.secs_per_move()),
    );
    tr.exit(span);
}

fn trace_perm_view(
    tr: &mut Tracer,
    layers: &mut Layers,
    sizes: &Sizes,
    seed: u64,
) -> Result<Counters, String> {
    let n = sizes.view_n;
    let topo = Mesh::new(n);
    let problem = traced_permutation(tr, layers, n, seed);
    traced_profitable(tr, layers, &topo, &problem);
    let (steps, counters) = traced_sim(tr, layers, &topo, &problem, hot_potato(n), 1, false)?;
    layers.set("run.wall_s", steps.total_s());
    trace_router_sweep(tr, layers, sizes, seed);
    Ok(counters)
}

// ---- perm-tiled ----

fn trace_perm_tiled(
    tr: &mut Tracer,
    layers: &mut Layers,
    sizes: &Sizes,
    seed: u64,
) -> Result<Counters, String> {
    let n = sizes.packed_n;
    let topo = Mesh::new(n);
    let problem = traced_permutation(tr, layers, n, seed);

    let tiled_span = tr.enter("tiled");
    let (mut sim, construct_s) = tr.leaf("Sim::with_config", || {
        Sim::with_config(&topo, theorem15(sizes.k), &problem, TILED)
    });
    let tiled = traced_steps(tr, &mut sim, step_cap(n));
    let counters = check_perm(&problem, &sim.report(), sizes.queue_bound, true)?;
    drop(sim);
    tr.exit(tiled_span);
    let sorted = tiled.sorted_us();
    layers.set("tiles.construct_s", construct_s);
    layers.set("tiles.step.p50_us", percentile(&sorted, 50.0));
    layers.set("tiles.step.p95_us", percentile(&sorted, 95.0));
    layers.set(
        "tiles.ns_per_move",
        ratio(tiled.total_s() * 1e9, tiled.moves as f64),
    );
    layers.set("run.wall_s", tiled.total_s());

    // The same problem through the sequential step loop: what perm-packed
    // runs. Its simulated statistics must be the tiled run's.
    let sequential_span = tr.enter("sequential");
    let (sequential, sequential_counters) = traced_sim(
        tr,
        layers,
        &topo,
        &problem,
        theorem15(sizes.k),
        sizes.queue_bound,
        true,
    )?;
    tr.exit(sequential_span);
    if counters != sequential_counters {
        return Err(format!(
            "tiled and sequential runs disagree: {counters:?} against {sequential_counters:?}"
        ));
    }
    layers.set(
        "tiles.staged_overhead_ratio",
        ratio(tiled.total_s(), sequential.total_s()),
    );

    // Two workers on the dense first steps, against the sequential loop's
    // same steps. Informational: this host has two shared virtual CPUs.
    let two_span = tr.enter("two-threads");
    let config = SimConfig {
        tile_threads: 2,
        ..SimConfig::default()
    };
    let (mut sim, _) = tr.leaf("Sim::with_config", || {
        Sim::with_config(&topo, theorem15(sizes.k), &problem, config)
    });
    let two = traced_steps(tr, &mut sim, sizes.speedup_steps);
    tr.exit(two_span);
    layers.set(
        "tiles.speedup_2t",
        ratio(sequential.prefix_s(two.step_us.len()), two.total_s()),
    );
    Ok(counters)
}

// ---- lowerbound ----

fn trace_lowerbound(
    tr: &mut Tracer,
    layers: &mut Layers,
    sizes: &Sizes,
) -> Result<Counters, String> {
    let n = sizes.lowerbound_n;
    let topo = Mesh::new(n);
    let construction = lowerbound_construction(n)?;
    let (outcome, construct_s) = tr.leaf("DimOrderConstruction::run", || {
        construction.run(&topo, dim_order(1))
    });
    let bound = outcome.bound_steps;
    let construct_us_per_step = ratio(construct_s * 1e6, bound as f64);
    layers.set("adversary.construct_s", construct_s);
    layers.set("adversary.construct_us_per_step", construct_us_per_step);
    layers.set("adversary.exchanges", outcome.exchanges as f64);
    layers.set("adversary.bound_steps", bound as f64);

    // The first `bound` steps of the replay, without the adversary's hook:
    // by Lemma 12 they pass through the construction's own configurations.
    let replay_span = tr.enter("replay");
    let (mut sim, construct_s) = tr.leaf("Sim::new", || {
        Sim::new(&topo, dim_order(1), &outcome.constructed)
    });
    let replay = traced_steps(tr, &mut sim, bound);
    tr.exit(replay_span);
    layers.set("sim.construct_s", construct_s);
    set_step_metrics(layers, &replay);
    let replay_us_per_step = ratio(replay.total_s() * 1e6, replay.step_us.len() as f64);
    layers.set("adversary.replay_us_per_step", replay_us_per_step);
    layers.set(
        "adversary.hook_overhead_ratio",
        ratio(construct_us_per_step, replay_us_per_step),
    );

    let (report, verify_s) = tr.leaf("verify_lower_bound", || {
        verify_lower_bound(&topo, dim_order(1), &outcome, Some(step_cap(n)))
    });
    let counters = check_lowerbound(&report)?;
    layers.set("adversary.verify_s", verify_s);
    layers.set("run.wall_s", verify_s);
    layers.set(
        "adversary.completion_steps",
        report.completion_steps.unwrap_or(0) as f64,
    );
    layers.set(
        "adversary.undelivered_at_bound",
        report.undelivered_at_bound as f64,
    );
    layers.set(
        "adversary.slowdown_vs_diameter",
        report.replay.slowdown_vs_diameter(),
    );
    Ok(counters)
}

// ---- steady-sat ----

fn trace_steady(
    tr: &mut Tracer,
    layers: &mut Layers,
    sizes: &Sizes,
    seed: u64,
) -> Result<Counters, String> {
    let topo = Mesh::new(sizes.steady_n);
    let (problem, gen_s) = tr.leaf("workloads::open_bernoulli", || steady_problem(sizes, seed));
    layers.set("traffic.gen_s", gen_s);
    layers.set(
        "traffic.gen_ns_per_packet",
        ratio(gen_s * 1e9, problem.len() as f64),
    );
    layers.set("steady.gen_s", gen_s);
    let (mut sim, construct_s) = tr.leaf("Sim::with_config", || {
        Sim::with_config(&topo, theorem15(sizes.k), &problem, steady_config(sizes))
    });
    layers.set("steady.construct_s", construct_s);

    let rss_before = host::rss_mb();
    let (outcome, run_s) = tr.leaf("Sim::run_steady", || sim.run_steady(sizes.steady_schedule));
    let rss_growth = host::rss_mb() - rss_before;
    let steady = outcome.map_err(|e| format!("run_steady failed: {}", e.kind()))?;
    let (report, _) = tr.leaf("Sim::report", || sim.report());
    let counters = check_steady(&sim, sizes.queue_bound)?;

    let offered = sim.offered() as f64;
    let goodputs = steady.frames.iter().map(|f| f.goodput);
    layers.set("steady.run_s", run_s);
    layers.set("run.wall_s", run_s);
    layers.set(
        "steady.us_per_step",
        ratio(run_s * 1e6, report.steps as f64),
    );
    layers.set(
        "steady.ns_per_move",
        ratio(run_s * 1e9, report.total_moves as f64),
    );
    layers.set("steady.offered", offered);
    layers.set("steady.delivered", report.delivered as f64);
    layers.set("steady.expired", report.expired as f64);
    layers.set("steady.shed", report.shed as f64);
    layers.set("steady.inflight_at_end", steady_in_flight(&sim) as f64);
    layers.set("steady.expired_frac", ratio(report.expired as f64, offered));
    layers.set(
        "steady.window_goodput_min",
        goodputs.clone().fold(f64::INFINITY, f64::min),
    );
    layers.set("steady.window_goodput_max", goodputs.fold(0.0, f64::max));
    layers.set("steady.p50_latency_steps", steady.latency.p50 as f64);
    layers.set("steady.p99_latency_steps", steady.latency.p99 as f64);
    layers.set("steady.p999_latency_steps", steady.latency.p999 as f64);
    layers.set("steady.rss_growth_mb", rss_growth);
    layers.set(
        "steady.bytes_per_offered_packet",
        ratio(host::rss_mb() * 1024.0 * 1024.0, offered),
    );
    Ok(counters)
}

// ---- ckpt ----

/// Seconds spent in each call of the snapshot layer, summed over cycles.
#[derive(Default)]
struct SnapshotTimes {
    precrash_run: f64,
    checkpoints: u64,
    capture: f64,
    to_json: f64,
    bytes: u64,
    write: f64,
    read_file: f64,
    from_json: f64,
    restore: f64,
    resume_run: f64,
}

/// One crash-recovery cycle with the sink's work made call by call:
/// step to the crash, checkpointing on the cadence; read the last
/// checkpoint back; restore; step to completion.
fn trace_ckpt_cycle(
    tr: &mut Tracer,
    times: &mut SnapshotTimes,
    topo: &Mesh,
    sizes: &Sizes,
    problem: &RoutingProblem,
    dir: &std::path::Path,
) -> Result<Counters, String> {
    let cycle_span = tr.enter("cycle");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (mut sim, _) = tr.leaf("Sim::with_config", || {
        Sim::with_config(topo, theorem15(sizes.k), problem, ckpt_config(sizes))
    });
    let mut last = None;
    while sim.steps() < sizes.ckpt_crash_at {
        let (_, secs) = tr.leaf("Sim::step", || sim.step());
        times.precrash_run += secs;
        if sim.steps() % sizes.ckpt_every == 0 {
            let (snap, secs) = tr.leaf("Sim::snapshot", || sim.snapshot());
            times.capture += secs;
            let (json, secs) = tr.leaf("Snapshot::to_json", || snap.to_json());
            times.to_json += secs;
            times.bytes = json.len() as u64;
            let path = dir.join(format!("ckpt_{}.json", snap.step));
            let (written, secs) = tr.leaf("Snapshot::write_to", || snap.write_to(&path));
            written.map_err(|e| e.to_string())?;
            times.write += secs;
            times.checkpoints += 1;
            last = Some(path);
        }
    }
    let crashed_at = sim.steps();
    drop(sim);

    let path = last.ok_or("the run crashed before its first checkpoint")?;
    let (text, secs) = tr.leaf("fs::read_to_string", || std::fs::read_to_string(&path));
    let text = text.map_err(|e| format!("read {}: {e}", path.display()))?;
    times.read_file += secs;
    let (snap, secs) = tr.leaf("Snapshot::from_json", || Snapshot::from_json(&text));
    let snap = snap.map_err(|e| e.to_string())?;
    times.from_json += secs;
    let (resumed, secs) = tr.leaf("Sim::restore", || {
        Sim::restore(topo, theorem15(sizes.k), SimConfig::default(), None, &snap)
    });
    let mut resumed = resumed.map_err(|e| e.to_string())?;
    times.restore += secs;
    while !resumed.done() && resumed.steps() < step_cap(problem.n) {
        let (_, secs) = tr.leaf("Sim::step", || resumed.step());
        times.resume_run += secs;
    }
    let report = resumed.report();
    tr.exit(cycle_span);
    check_ckpt_cycle(topo, sizes, problem, &report)?;
    Ok(Counters {
        steps: report.steps + crashed_at - snap.step,
        ..Counters::of_report(&report)
    })
}

/// (bytes, seconds) of parsing one checkpoint of a side-`n` run taken after
/// `n` steps, which is where the cycles' last checkpoint falls.
fn parse_probe(tr: &mut Tracer, sizes: &Sizes, n: u32, seed: u64) -> Result<(f64, f64), String> {
    let topo = Mesh::new(n);
    let problem = workloads::random_permutation(n, seed);
    let mut sim = Sim::new(&topo, theorem15(sizes.k), &problem);
    for _ in 0..n {
        sim.step();
    }
    let json = sim.snapshot().to_json();
    let (snap, secs) = tr.leaf("Snapshot::from_json", || Snapshot::from_json(&json));
    snap.map_err(|e| e.to_string())?;
    Ok((json.len() as f64, secs))
}

fn trace_ckpt(
    tr: &mut Tracer,
    layers: &mut Layers,
    sizes: &Sizes,
    seed: u64,
) -> Result<Counters, String> {
    let n = sizes.ckpt_n;
    let topo = Mesh::new(n);
    let scratch = ScratchDir::new();
    let mut times = SnapshotTimes::default();
    let mut cycles = Vec::new();
    for cycle in 0..sizes.ckpt_cycles {
        let problem = traced_permutation(tr, layers, n, seed + cycle);
        let dir = scratch.cycle(cycle);
        cycles.push(trace_ckpt_cycle(
            tr, &mut times, &topo, sizes, &problem, &dir,
        )?);
    }
    // What the gated run's timed region is made of (`to_json` is inside
    // `write_to` there, so the separate rendering is left out).
    let region = times.precrash_run
        + times.capture
        + times.write
        + times.read_file
        + times.from_json
        + times.restore
        + times.resume_run;
    let parsed_bytes = (times.bytes * sizes.ckpt_cycles) as f64;
    layers.set("run.wall_s", region);
    layers.set("snapshot.precrash_run_s", times.precrash_run);
    layers.set("snapshot.checkpoints_written", times.checkpoints as f64);
    layers.set("snapshot.capture_s", times.capture);
    layers.set("snapshot.to_json_s", times.to_json);
    layers.set("snapshot.bytes", times.bytes as f64);
    layers.set("snapshot.write_s", times.write);
    layers.set("snapshot.read_file_s", times.read_file);
    layers.set("snapshot.from_json_s", times.from_json);
    layers.set(
        "snapshot.parse_mb_per_s",
        ratio(parsed_bytes / 1e6, times.from_json),
    );
    layers.set("snapshot.from_json_share", ratio(times.from_json, region));
    layers.set("snapshot.restore_s", times.restore);
    layers.set("snapshot.resume_run_s", times.resume_run);

    // How parse time grows with file size: a smaller checkpoint against the
    // cycles' own (1 when linear, 2 when quadratic).
    let (small_bytes, small_s) = parse_probe(tr, sizes, sizes.scaling_n, seed)?;
    let (large_bytes, large_s) = (
        times.bytes as f64,
        times.from_json / sizes.ckpt_cycles as f64,
    );
    layers.set(
        "snapshot.parse_scaling_exp",
        ratio((large_s / small_s).ln(), (large_bytes / small_bytes).ln()),
    );
    Counters::sum(cycles)
}

// ---- s6-perm ----

fn trace_s6(
    tr: &mut Tracer,
    layers: &mut Layers,
    sizes: &Sizes,
    seed: u64,
) -> Result<Counters, String> {
    let (problems, gen_s) = tr.leaf("workloads::random_permutation", || s6_problems(sizes, seed));
    let packets: usize = problems.iter().map(RoutingProblem::len).sum();
    layers.set("traffic.gen_s", gen_s);
    layers.set(
        "traffic.gen_ns_per_packet",
        ratio(gen_s * 1e9, packets as f64),
    );
    let (_, state_new_s) = tr.leaf("S6State::new", || black_box(S6State::new(&problems[0])));
    layers.set("section6.state_new_s", state_new_s);

    let router = Section6Router::new();
    let mut route_s = Vec::new();
    let mut reports = Vec::new();
    for problem in &problems {
        let (report, secs) = tr.leaf("Section6Router::route", || router.route(problem));
        route_s.push(secs);
        reports.push(report);
    }
    let counters = sum_s6(&problems, &reports)?;
    let total_s: f64 = route_s.iter().sum();
    let quiescent: u64 = reports.iter().map(|r| r.quiescent_steps).sum();
    let base_case: u64 = reports
        .iter()
        .flat_map(|r| r.per_class.iter())
        .map(|c| c.base_case_steps)
        .sum();
    layers.set("run.wall_s", total_s);
    layers.set("section6.route_p50_s", median(&route_s));
    layers.set(
        "section6.ns_per_move",
        ratio(total_s * 1e9, counters.moves as f64),
    );
    layers.set(
        "section6.us_per_scheduled_kstep",
        ratio(total_s * 1e6, counters.steps as f64 / 1e3),
    );
    layers.set(
        "section6.quiescent_over_scheduled",
        ratio(quiescent as f64, counters.steps as f64),
    );
    layers.set("section6.base_case_steps", base_case as f64);
    layers.set("section6.max_node_load", counters.max_queue as f64);
    Ok(counters)
}

/// Runs workload `index` (into `spec::WORKLOADS`) traced, under one root
/// span named after the workload.
pub fn traced(
    index: usize,
    sizes: &Sizes,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Layers, Counters), String> {
    let mut layers = Layers::new();
    let name = crate::spec::WORKLOADS[index].name;
    let root = tr.enter(name);
    let counters = match name {
        "perm-packed" => trace_perm_packed(tr, &mut layers, sizes, seed),
        "perm-view" => trace_perm_view(tr, &mut layers, sizes, seed),
        "perm-tiled" => trace_perm_tiled(tr, &mut layers, sizes, seed),
        "lowerbound" => trace_lowerbound(tr, &mut layers, sizes),
        "steady-sat" => trace_steady(tr, &mut layers, sizes, seed),
        "ckpt" => trace_ckpt(tr, &mut layers, sizes, seed),
        "s6-perm" => trace_s6(tr, &mut layers, sizes, seed),
        other => unreachable!("workload {other} is in the table but not dispatched"),
    }?;
    tr.exit(root);
    let wall = layers.get("run.wall_s");
    layers.set("run.ksteps_per_s", ratio(counters.steps as f64 / 1e3, wall));
    layers.set("run.mmoves_per_s", ratio(counters.moves as f64 / 1e6, wall));
    Ok((layers, counters))
}
