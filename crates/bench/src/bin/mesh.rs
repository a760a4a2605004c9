//! `mesh` — command-line front end to the reproduction: generate a
//! workload, route it (closed-system, checkpointed, resumed, or as an
//! open-system steady-state soak), or run an adversary construction. The
//! subcommands, flags, workload kinds and algorithm names are listed once,
//! in [`USAGE`].

use mesh_routing::adversary::dimorder::DimOrderConstruction;
use mesh_routing::adversary::farthest::FarthestFirstConstruction;
use mesh_routing::prelude::*;
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!("{}", USAGE);
    exit(2);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

/// One line and exit 1: the input parsed but cannot be used.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    exit(1);
}

const USAGE: &str = "usage:
  mesh workload  <kind> --n N [--seed S] [--h H] [--load F] [-o FILE]
  mesh route     <algorithm> (--problem FILE | --workload KIND --n N | --resume-from CKPT) \\
                 [--k K] [--seed S] [--h H] [--load F] [--cap STEPS] [--json] [--latency] [--heatmap] \\
                 [--checkpoint-every N [--checkpoint-dir DIR] [--halt-at S]]
  mesh route     <algorithm> --lambda F --n N [--seed S] [--k K] [--json] \\
                 [--admission defer|reject-new|drop-oldest|deadline] \\
                 [--deadline TTL] [--max-deferred M] \\
                 [--warmup S] [--window S] [--windows W] [--watchdog S] \\
                 [--checkpoint-every N [--checkpoint-dir DIR] [--halt-at S] | --resume-from CKPT]
  mesh construct <general|dimorder|farthest> --n N --k K [--victim ALGO] [--h H] [-o FILE] [--check]

workloads:  random partial transpose bit-reversal rotation hotspot funnel random-dst hh
algorithms: dim-order dim-order-yx alt-adaptive theorem15 farthest-first greedy hot-potato
            west-first bounded-deflect section6 section6-improved

`--lambda` runs the open-system steady-state harness: a Bernoulli source
offers F packets per node per step for warmup + windows*window steps, the
admission policy decides what happens to packets the edge cannot take, and
each measurement window reports goodput and latency percentiles.

Steady checkpoints record their environment (lambda, schedule, admission),
so `mesh route <algorithm> --resume-from CKPT` alone resumes a steady soak;
re-passed steady flags are cross-checked against the snapshot and refused
on disagreement.";

/// The flags each subcommand accepts — the sets `USAGE` lists (`-o` is
/// stored as `out`).
const WORKLOAD_FLAGS: &[&str] = &["n", "seed", "h", "load", "out"];
const ROUTE_FLAGS: &[&str] = &[
    "problem",
    "workload",
    "n",
    "resume-from",
    "k",
    "seed",
    "h",
    "load",
    "cap",
    "json",
    "latency",
    "heatmap",
    "checkpoint-every",
    "checkpoint-dir",
    "halt-at",
    "lambda",
    "admission",
    "deadline",
    "max-deferred",
    "warmup",
    "window",
    "windows",
    "watchdog",
];
const CONSTRUCT_FLAGS: &[&str] = &["n", "k", "victim", "h", "out", "check"];

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let val = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap(),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), val);
        } else if a == "-o" {
            flags.insert("out".into(), it.next().unwrap_or_else(|| usage()));
        } else {
            positional.push(a);
        }
    }
    Args { positional, flags }
}

impl Args {
    /// A numeric flag: `None` when absent, a usage error when present but
    /// unparseable.
    fn num_flag<N: std::str::FromStr>(&self, name: &str) -> Option<N> {
        self.flags.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage_error(&format!("--{name} needs a number (got '{v}')")))
        })
    }
    fn u32_flag(&self, name: &str) -> Option<u32> {
        self.num_flag(name)
    }
    fn u64_flag(&self, name: &str) -> Option<u64> {
        self.num_flag(name)
    }
    /// A size or count flag: a usage error when present but 0.
    fn positive_flag<N: std::str::FromStr + PartialEq + From<u8>>(&self, name: &str) -> Option<N> {
        let v: N = self.num_flag(name)?;
        if v == N::from(0) {
            usage_error(&format!("--{name} must be at least 1 (got 0)"));
        }
        Some(v)
    }
    /// Rejects any flag outside `allowed`, the subcommand's set.
    fn reject_unknown(&self, subcommand: &str, allowed: &[&str]) {
        let mut unknown: Vec<&String> = self
            .flags
            .keys()
            .filter(|f| !allowed.contains(&f.as_str()))
            .collect();
        unknown.sort();
        if let Some(flag) = unknown.first() {
            usage_error(&format!("unknown flag '--{flag}' for 'mesh {subcommand}'"));
        }
    }
    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn make_workload(kind: &str, args: &Args) -> RoutingProblem {
    let n = args.positive_flag("n").unwrap_or_else(|| {
        eprintln!("--n is required");
        usage()
    });
    let seed = args.u64_flag("seed").unwrap_or(1);
    match kind {
        "random" => workloads::random_permutation(n, seed),
        "partial" => {
            let load: f64 = args.num_flag("load").unwrap_or(0.5);
            if !(0.0..=1.0).contains(&load) {
                usage_error(&format!("--load must lie in [0, 1] (got {load})"));
            }
            workloads::random_partial_permutation(n, load, seed)
        }
        "transpose" => workloads::transpose(n),
        "bit-reversal" => {
            if !n.is_power_of_two() {
                usage_error(&format!(
                    "--n must be a power of two for bit-reversal (got {n})"
                ));
            }
            workloads::bit_reversal(n)
        }
        "rotation" => workloads::rotation(n, n / 2, n / 3),
        "hotspot" => {
            if n < 2 {
                usage_error(&format!("--n must be at least 2 for hotspot (got {n})"));
            }
            workloads::hotspot(n, (n / 6).max(2), seed)
        }
        "funnel" => workloads::column_funnel(n),
        "random-dst" => workloads::random_destinations(n, seed),
        "hh" => workloads::hh_random(n, args.u32_flag("h").unwrap_or(2), seed),
        other => {
            eprintln!("unknown workload '{other}'");
            usage()
        }
    }
}

fn make_algorithm(name: &str, k: u32) -> Algorithm {
    match name {
        "dim-order" => Algorithm::DimOrder { k },
        "dim-order-yx" => Algorithm::DimOrderYx { k },
        "alt-adaptive" => Algorithm::AltAdaptive { k },
        "theorem15" => Algorithm::Theorem15 { k },
        "farthest-first" => Algorithm::FarthestFirst { k },
        "greedy" => Algorithm::GreedyUnbounded,
        "hot-potato" => Algorithm::HotPotato,
        "west-first" => Algorithm::WestFirst { k },
        "bounded-deflect" => Algorithm::BoundedDeflect { k, delta: 2 },
        "section6" => Algorithm::Section6,
        "section6-improved" => Algorithm::Section6Improved,
        other => {
            eprintln!("unknown algorithm '{other}'");
            usage()
        }
    }
}

/// Reads a problem file, refusing one the engine cannot run
/// (`RoutingProblem::validate`).
fn load_problem(path: &str) -> RoutingProblem {
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let pb: RoutingProblem =
        serde_json::from_str(&data).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
    if let Err(e) = pb.validate() {
        fail(&format!("invalid problem {path}: {e}"));
    }
    pb
}

fn save_json<T: serde::Serialize>(value: &T, path: &str) {
    let data = serde_json::to_string(value).expect("serialize");
    std::fs::write(path, data).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}

fn cmd_workload(args: &Args) {
    let kind = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let pb = make_workload(kind, args);
    eprintln!(
        "{}: {} packets, class {:?}, total work {}",
        pb.label,
        pb.len(),
        pb.classify(),
        pb.total_work()
    );
    match args.flags.get("out") {
        Some(path) => save_json(&pb, path),
        None => println!("{}", serde_json::to_string(&pb).unwrap()),
    }
}

fn print_route(args: &Args, out: &RouteOutcome) {
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(out).unwrap());
    } else {
        println!(
            "{} on {}: steps={}{} max_queue={} moves={} delivered={}/{}",
            out.algorithm,
            out.workload,
            out.steps,
            if out.completed { "" } else { " (STALLED)" },
            out.max_queue,
            out.total_moves,
            out.delivered,
            out.total_packets
        );
        if let Some(s6) = &out.section6 {
            println!(
                "  section6: scheduled={} ({:.1}n)  quiescent={} ({:.1}n)  iterations={}",
                s6.scheduled_steps,
                s6.steps_per_n(),
                s6.quiescent_steps,
                s6.quiescent_steps as f64 / s6.n as f64,
                s6.iterations
            );
        }
    }
}

/// The admission policy from `--admission` (with `--deadline TTL` /
/// `--max-deferred M` refinements). A bare `--deadline` or
/// `--max-deferred` implies its policy.
fn parse_admission(args: &Args) -> AdmissionPolicy {
    match args.flags.get("admission").map(String::as_str) {
        None | Some("defer") => {
            if let Some(ttl) = args.u64_flag("deadline") {
                AdmissionPolicy::DeadlineExpiry { ttl }
            } else if let Some(m) = args.u32_flag("max-deferred") {
                AdmissionPolicy::DropOldestDeferred { max_deferred: m }
            } else {
                AdmissionPolicy::DeferIndefinitely
            }
        }
        Some("reject-new") => AdmissionPolicy::RejectNew,
        Some("drop-oldest") => AdmissionPolicy::DropOldestDeferred {
            max_deferred: args.u32_flag("max-deferred").unwrap_or(16),
        },
        Some("deadline") => AdmissionPolicy::DeadlineExpiry {
            ttl: args.u64_flag("deadline").unwrap_or(64),
        },
        Some(other) => {
            eprintln!("unknown admission policy '{other}'");
            usage()
        }
    }
}

fn print_steady(args: &Args, out: &mesh_routing::SteadyOutcome) {
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(out).unwrap());
        return;
    }
    println!(
        "{} at lambda={} on {}: goodput={:.3}/step p50={} p99={} p999={}",
        out.algorithm,
        out.lambda,
        out.workload,
        out.steady.goodput(),
        out.steady.latency.p50,
        out.steady.latency.p99,
        out.steady.latency.p999,
    );
    for f in &out.steady.frames {
        println!(
            "  window {} [{}..{}]: offered={} delivered={} shed={} expired={} lost={} goodput={:.3} p99={} (samples={})",
            f.index,
            f.start_step,
            f.end_step,
            f.offered,
            f.delivered,
            f.shed,
            f.expired,
            f.lost,
            f.goodput,
            f.latency.p99,
            f.samples,
        );
    }
    let r = &out.report;
    println!(
        "  totals: offered={} delivered={} shed={} expired={} lost={} in_flight={}",
        r.total_packets,
        r.delivered,
        r.shed,
        r.expired,
        r.lost,
        r.total_packets - r.delivered - r.shed - r.expired - r.lost,
    );
}

/// `mesh route <algo> --lambda F`: the open-system steady-state harness.
fn cmd_steady(args: &Args, algo: Algorithm) {
    let lambda: f64 = args.num_flag("lambda").unwrap_or_else(|| usage());
    if !(lambda >= 0.0 && lambda.is_finite()) {
        usage_error(&format!(
            "--lambda must be a finite number >= 0 (got {lambda})"
        ));
    }
    let schedule = SteadyConfig {
        warmup: args.u64_flag("warmup").unwrap_or(128),
        window: args.u64_flag("window").unwrap_or(64),
        windows: args.num_flag("windows").unwrap_or(4),
    };
    if let Err(e) = schedule.validate() {
        usage_error(&format!("--warmup/--window/--windows: {e}"));
    }
    let config = steady_sim_config(args, parse_admission(args), schedule.window);
    let dir = checkpoint_dir(args);
    let halt_at = args.u64_flag("halt-at");

    let n = args.positive_flag("n").unwrap_or_else(|| {
        eprintln!("--n is required with --lambda");
        usage()
    });
    let seed = args.u64_flag("seed").unwrap_or(1);
    let pb = mesh_routing::traffic::workloads::open_bernoulli(n, lambda, schedule.horizon(), seed);
    let result = mesh_routing::steady_route(
        algo,
        &pb,
        lambda,
        schedule,
        config,
        std::path::Path::new(dir),
        halt_at,
    );
    report_steady(args, result, "steady run failed");
}

/// Resume of a steady checkpoint: the schedule, offered-load label, and
/// admission policy come from the snapshot's own environment block, so
/// `--resume-from` alone suffices. Any steady flag the user re-passes
/// anyway is cross-checked against the recorded environment; a
/// disagreement is refused up front instead of silently diverging.
fn cmd_steady_resume(
    args: &Args,
    algo: Algorithm,
    path: &str,
    snap: mesh_routing::engine::Snapshot,
) {
    let Some(env) = snap.steady else {
        fail(&format!(
            "snapshot {path} records no steady-state environment (a closed-system run); re-run \
             with the original steady flags or resume it as a plain route"
        ));
    };
    let schedule = env.config;
    let mut clashes = Vec::new();
    if let Some(l) = args.flags.get("lambda") {
        if l.parse::<f64>().ok() != Some(env.lambda) {
            clashes.push(format!("lambda {l} (snapshot: {})", env.lambda));
        }
    }
    for (flag, recorded) in [
        ("warmup", schedule.warmup),
        ("window", schedule.window),
        ("windows", schedule.windows as u64),
    ] {
        if let Some(v) = args.u64_flag(flag) {
            if v != recorded {
                clashes.push(format!("{flag} {v} (snapshot: {recorded})"));
            }
        }
    }
    if !clashes.is_empty() {
        fail(&format!(
            "steady flags disagree with the environment recorded in {path}: {}",
            clashes.join(", ")
        ));
    }
    // The admission policy defaults to the snapshot's; an explicitly
    // re-passed policy goes through as-is, and a mismatch is rejected by
    // the restore with a typed error.
    let admission = if args.has("admission") || args.has("deadline") || args.has("max-deferred") {
        parse_admission(args)
    } else {
        snap.admission
    };
    let config = steady_sim_config(args, admission, schedule.window);
    let dir = checkpoint_dir(args);
    let halt_at = args.u64_flag("halt-at");
    eprintln!("resuming from {path} at step {}", snap.step);
    let result =
        mesh_routing::resume_steady_route(algo, &snap, config, std::path::Path::new(dir), halt_at);
    report_steady(args, result, "cannot resume");
}

/// The engine config of a steady run (fresh or resumed), from flags.
fn steady_sim_config(args: &Args, admission: AdmissionPolicy, window: u64) -> SimConfig {
    SimConfig {
        admission,
        watchdog: Some(
            args.u64_flag("watchdog")
                .unwrap_or(window.saturating_mul(2).max(256)),
        ),
        checkpoint_every: args.u64_flag("checkpoint-every"),
        ..SimConfig::default()
    }
}

fn checkpoint_dir(args: &Args) -> &str {
    args.flags
        .get("checkpoint-dir")
        .map(String::as_str)
        .unwrap_or("checkpoints")
}

fn load_snapshot(path: &str) -> mesh_routing::engine::Snapshot {
    mesh_routing::engine::Snapshot::read_from(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(&format!("cannot load snapshot {path}: {e}")))
}

/// Prints a steady run's outcome, or `failed: <error>` and exits 1.
fn report_steady(args: &Args, result: Result<mesh_routing::SteadyRun, String>, failed: &str) {
    match result {
        Ok((Some(out), last)) => {
            if let Some(p) = last {
                eprintln!("last checkpoint: {}", p.display());
            }
            print_steady(args, &out);
        }
        Ok((None, last)) => match last {
            Some(p) => eprintln!("halted mid-soak; last checkpoint: {}", p.display()),
            None => eprintln!("halted before the first checkpoint cadence point"),
        },
        Err(e) => fail(&format!("{failed}: {e}")),
    }
}

/// `mesh_routing::route`'s step cap `64·n² + 4096`, saturating: a file may
/// claim a side the engine refuses.
fn default_cap(n: u32) -> u64 {
    u64::from(n).pow(2).saturating_mul(64).saturating_add(4096)
}

fn cmd_route(args: &Args) {
    let algo_name = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let k = args.positive_flag("k").unwrap_or(4);
    let algo = make_algorithm(algo_name, k);
    let observers = SimConfig {
        watchdog: args.u64_flag("watchdog"),
        checkpoint_every: args.u64_flag("checkpoint-every"),
        ..SimConfig::default()
    };
    if let Err(e) = observers.check() {
        usage_error(&format!("--watchdog/--checkpoint-every: {e}"));
    }

    // The extra reports read the live simulation of a plain closed-system
    // run; the other run shapes hand back their outcome only.
    let stats = args.has("latency") || args.has("heatmap");
    if stats
        && ["lambda", "resume-from", "checkpoint-every"]
            .iter()
            .any(|f| args.has(f))
    {
        usage_error(
            "--latency/--heatmap need a plain closed-system run: not with --lambda, \
             --checkpoint-every or --resume-from",
        );
    }

    // Crash recovery: restore a checkpoint and drive it to completion. The
    // problem is not re-read — the snapshot carries the full run state —
    // and the result is byte-identical to the uninterrupted run's. A
    // steady-state checkpoint carries its own environment block, so
    // `--resume-from` alone routes back into the steady harness without
    // re-passing --lambda or the window schedule.
    if let Some(path) = args.flags.get("resume-from") {
        let snap = load_snapshot(path);
        if snap.steady.is_some() || args.has("lambda") {
            cmd_steady_resume(args, algo, path, snap);
            return;
        }
        let cap = args.u64_flag("cap").unwrap_or(default_cap(snap.n));
        let out = mesh_routing::resume_route(algo, &snap, cap)
            .unwrap_or_else(|e| fail(&format!("cannot resume: {e}")));
        eprintln!("resumed from {path} at step {}", snap.step);
        print_route(args, &out);
        return;
    }

    // Open-system steady-state harness: --lambda switches the run shape
    // entirely (continuous injection, windowed measurement, admission
    // control at the edge).
    if args.has("lambda") {
        cmd_steady(args, algo);
        return;
    }

    let pb = if let Some(path) = args.flags.get("problem") {
        load_problem(path)
    } else if let Some(kind) = args.flags.get("workload") {
        make_workload(kind, args)
    } else {
        eprintln!("route needs --problem FILE, --workload KIND --n N, or --resume-from CKPT");
        usage()
    };
    let cap = args.u64_flag("cap").unwrap_or(default_cap(pb.n));

    // Checkpointed run: identical outcome, plus a ckpt_<step>.json stream
    // in --checkpoint-dir. --halt-at simulates the crash by capping the
    // run at that step; resume later with --resume-from.
    if let Some(every) = args.u64_flag("checkpoint-every") {
        let dir = checkpoint_dir(args);
        let cap = args.u64_flag("halt-at").unwrap_or(cap);
        let (out, last) =
            mesh_routing::route_checkpointed(algo, &pb, cap, every, std::path::Path::new(dir))
                .unwrap_or_else(|e| fail(&format!("checkpointed run failed: {e}")));
        match last {
            Some(p) => eprintln!("last checkpoint: {}", p.display()),
            None => eprintln!("no checkpoint written (run ended before the first cadence point)"),
        }
        print_route(args, &out);
        return;
    }

    // A plain run of an engine algorithm is made here, on the one router
    // dispatch, so the extra reports come off the simulation that produced
    // the route line.
    let topo = Mesh::new(pb.n);
    mesh_routing::with_engine_router!(algo, pb.n, |router| {
        let mut sim = Sim::try_build(&topo, router(), &pb, SimConfig::default(), None)
            .unwrap_or_else(|e| fail(&format!("cannot route: {e}")));
        let _ = sim.run(cap);
        print_route(args, &RouteOutcome::engine(algo, sim.report()));
        if args.has("latency") {
            let d = sim.latency_distribution();
            println!(
                "latency: min={} p50={} p90={} p99={} max={} mean={:.1}",
                d.min, d.p50, d.p90, d.p99, d.max, d.mean
            );
        }
        if args.has("heatmap") {
            println!("{}", sim.congestion_map().ascii());
        }
    }, section6 => {
        let out = mesh_routing::try_route_with_cap(algo, &pb, cap)
            .unwrap_or_else(|e| usage_error(&e.to_string()));
        print_route(args, &out);
        if stats {
            eprintln!("(--latency/--heatmap are engine-router features)");
        }
    })
}

fn cmd_construct(args: &Args) {
    let kind = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let n = args.positive_flag("n").unwrap_or_else(|| usage());
    let k = args.positive_flag("k").unwrap_or(1);
    let check = args.has("check");
    let victim = args
        .flags
        .get("victim")
        .map(String::as_str)
        .unwrap_or("dim-order");
    let unsupported_victim = || -> ! {
        eprintln!("unsupported victim '{victim}' for the general construction");
        exit(2);
    };
    let invalid =
        |e: mesh_routing::adversary::ParamError| -> ! { fail(&format!("invalid parameters: {e}")) };
    let topo = Mesh::new(n);

    let outcome = match kind {
        "general" => {
            let h = args.positive_flag("h").unwrap_or(1);
            let params = GeneralParams::hh(n, k, h).unwrap_or_else(|e| invalid(e));
            let cons = GeneralConstruction::new(params);
            // The §3 adversary needs a minimal victim whose queues fit
            // its partner-counting budget (§4.3).
            let algo = match make_algorithm(victim, k) {
                algo @ (Algorithm::DimOrder { .. }
                | Algorithm::AltAdaptive { .. }
                | Algorithm::Theorem15 { .. }) => algo,
                _ => unsupported_victim(),
            };
            mesh_routing::with_engine_router!(
                algo,
                n,
                |router| cons.run(&topo, router(), check),
                section6 => unsupported_victim()
            )
        }
        "dimorder" => {
            let params = DimOrderParams::new(n, k).unwrap_or_else(|e| invalid(e));
            DimOrderConstruction::new(params).run(&topo, mesh_routing::routers::dim_order(k))
        }
        "farthest" => {
            let params = DimOrderParams::farthest_first(n, k).unwrap_or_else(|e| invalid(e));
            FarthestFirstConstruction::new(params).run(&topo, FarthestFirst::new(k))
        }
        other => {
            eprintln!("unknown construction '{other}'");
            usage()
        }
    };

    eprintln!(
        "constructed {} packets; bound {} steps; {} exchanges; {} undelivered at bound",
        outcome.constructed.len(),
        outcome.bound_steps,
        outcome.exchanges,
        outcome.undelivered_at_bound
    );
    match args.flags.get("out") {
        Some(path) => save_json(&outcome.constructed, path),
        None => println!("{}", serde_json::to_string(&outcome.constructed).unwrap()),
    }
}

fn main() {
    let args = parse_args();
    let Some(subcommand) = args.positional.first().map(String::as_str) else {
        usage()
    };
    let (allowed, run): (&[&str], fn(&Args)) = match subcommand {
        "workload" => (WORKLOAD_FLAGS, cmd_workload),
        "route" => (ROUTE_FLAGS, cmd_route),
        "construct" => (CONSTRUCT_FLAGS, cmd_construct),
        _ => usage(),
    };
    args.reject_unknown(subcommand, allowed);
    run(&args);
}
