//! `mesh` — command-line front end to the reproduction: generate a
//! workload, route it (closed-system or as an open-system steady-state
//! soak, fresh or resumed from a checkpoint, all through
//! `mesh_routing::drive`), or run an adversary construction. The
//! subcommands, flags, workload kinds and algorithm names are listed once,
//! in [`USAGE`].

use mesh_routing::adversary::dimorder::DimOrderConstruction;
use mesh_routing::adversary::farthest::FarthestFirstConstruction;
use mesh_routing::engine::{Snapshot, SteadySnap};
use mesh_routing::prelude::*;
use std::collections::HashMap;
use std::io::Write;
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
                 [--watchdog S] [--halt-at S] [--checkpoint-every N [--checkpoint-dir DIR]]
  mesh route     <algorithm> (--lambda F --n N | --resume-from CKPT) [--seed S] [--k K] [--json] \\
                 [--latency] [--heatmap] [--admission defer|reject-new|drop-oldest|deadline] \\
                 [--deadline TTL] [--max-deferred M] \\
                 [--warmup S] [--window S] [--windows W] [--watchdog S] [--halt-at S] \\
                 [--checkpoint-every N [--checkpoint-dir DIR]]
  mesh construct <general|dimorder|farthest> --n N --k K [--victim ALGO] [--h H] [-o FILE] [--check]

workloads:  random partial transpose bit-reversal rotation hotspot funnel random-dst hh
algorithms: dim-order dim-order-yx alt-adaptive theorem15 farthest-first greedy hot-potato
            west-first bounded-deflect section6 section6-improved

`--lambda` runs the open-system steady-state harness: a Bernoulli source
offers F packets per node per step for warmup + windows*window steps, the
admission policy decides what happens to packets the edge cannot take, and
each measurement window reports goodput and latency percentiles.

`--halt-at S` stops any run at step S, as a crash would; `--resume-from`
a checkpoint of it finishes the run byte for byte, taking the problem (and
a steady run's lambda, schedule and admission) from the snapshot; re-passed
steady flags must match it.";

/// The flags each subcommand accepts — the sets `USAGE` lists (`-o` is
/// stored as `out`). `mesh route` has two forms, closed and steady, and
/// each refuses the flags only the other reads. A resume also refuses the
/// flags that define a problem: it takes its problem from the snapshot.
const WORKLOAD_FLAGS: &str = "n seed h load out";
const CLOSED_FLAGS: &str = "problem workload n seed h load resume-from k cap json latency heatmap \
                            watchdog halt-at checkpoint-every checkpoint-dir";
const STEADY_FLAGS: &str = "lambda n seed resume-from k json latency heatmap admission deadline \
                            max-deferred warmup window windows watchdog halt-at checkpoint-every \
                            checkpoint-dir";
const PROBLEM_FLAGS: &str = "problem workload n seed h load";
const CONSTRUCT_FLAGS: &str = "n k victim h out check";

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
    /// A size or count flag: a usage error when present but 0.
    fn positive_flag<N: std::str::FromStr + PartialEq + From<u8>>(&self, name: &str) -> Option<N> {
        let v: N = self.num_flag(name)?;
        if v == N::from(0) {
            usage_error(&format!("--{name} must be at least 1 (got 0)"));
        }
        Some(v)
    }
    /// Rejects any flag outside `allowed`, the subcommand's set.
    fn reject_unknown(&self, subcommand: &str, allowed: &str) {
        let known = |f: &&String| allowed.split_whitespace().any(|a| a == f.as_str());
        if let Some(flag) = self.flags.keys().filter(|f| !known(f)).min() {
            usage_error(&format!("unknown flag '--{flag}' for 'mesh {subcommand}'"));
        }
    }
    /// The subcommand's object: a workload kind, algorithm or construction.
    fn target(&self) -> &str {
        self.positional
            .get(1)
            .map_or_else(|| usage(), String::as_str)
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
    let seed = args.num_flag("seed").unwrap_or(1);
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
        "hh" => workloads::hh_random(n, args.num_flag("h").unwrap_or(2), seed),
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

/// Writes `value` to `path` as compact JSON, streamed rather than
/// rendered whole.
fn save_json<T: serde::Serialize>(value: &T, path: &str) {
    let written = std::fs::File::create(path)
        .map_err(|e| e.to_string())
        .and_then(|file| serde_json::to_writer(file, value).map_err(|e| e.to_string()));
    if let Err(e) = written {
        fail(&format!("cannot write {path}: {e}"));
    }
    eprintln!("wrote {path}");
}

/// Prints `value` as pretty JSON and a newline, streamed to stdout.
fn print_json<T: serde::Serialize>(value: &T) {
    let mut out = std::io::stdout().lock();
    let written = serde_json::to_writer_pretty(&mut out, value)
        .map_err(|e| e.to_string())
        .and_then(|()| writeln!(out).map_err(|e| e.to_string()));
    if let Err(e) = written {
        fail(&format!("cannot write to stdout: {e}"));
    }
}

fn cmd_workload(args: &Args) {
    let kind = args.target();
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
        print_json(out);
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
            if let Some(ttl) = args.num_flag("deadline") {
                AdmissionPolicy::DeadlineExpiry { ttl }
            } else if let Some(m) = args.num_flag("max-deferred") {
                AdmissionPolicy::DropOldestDeferred { max_deferred: m }
            } else {
                AdmissionPolicy::DeferIndefinitely
            }
        }
        Some("reject-new") => AdmissionPolicy::RejectNew,
        Some("drop-oldest") => AdmissionPolicy::DropOldestDeferred {
            max_deferred: args.num_flag("max-deferred").unwrap_or(16),
        },
        Some("deadline") => AdmissionPolicy::DeadlineExpiry {
            ttl: args.num_flag("deadline").unwrap_or(64),
        },
        Some(other) => {
            eprintln!("unknown admission policy '{other}'");
            usage()
        }
    }
}

fn print_steady(args: &Args, out: &SteadyOutcome) {
    if args.has("json") {
        print_json(out);
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

/// The steady environment: from flags for a fresh run; for a resume, the
/// one its checkpoint `recorded`. Steady flags re-passed with a resume are
/// checked against it, and a disagreement is refused up front instead of
/// silently diverging.
fn steady_env(args: &Args, recorded: Option<SteadySnap>) -> SteadySnap {
    let base = recorded.map_or_else(SteadyConfig::default, |e| e.config);
    let env = SteadySnap {
        lambda: args
            .num_flag("lambda")
            .or(recorded.map(|e| e.lambda))
            .unwrap_or_else(|| usage()),
        config: SteadyConfig {
            warmup: args.num_flag("warmup").unwrap_or(base.warmup),
            window: args.num_flag("window").unwrap_or(base.window),
            windows: args.num_flag("windows").unwrap_or(base.windows),
        },
    };
    match recorded {
        Some(recorded) if env != recorded => fail(&format!(
            "steady flags disagree with the environment the snapshot records: \
             {env:?} (snapshot: {recorded:?})"
        )),
        // The restore checks what a snapshot records.
        Some(_) => {}
        None if !(env.lambda >= 0.0 && env.lambda.is_finite()) => usage_error(&format!(
            "--lambda must be a finite number >= 0 (got {})",
            env.lambda
        )),
        None => {
            if let Err(e) = env.config.validate() {
                usage_error(&format!("--warmup/--window/--windows: {e}"));
            }
        }
    }
    env
}

/// The problem of a fresh run: an open Bernoulli source under `--lambda`,
/// else a problem file or a generated workload.
fn fresh_problem(args: &Args, env: Option<SteadySnap>) -> RoutingProblem {
    if let Some(env) = env {
        let n = args.positive_flag("n").unwrap_or_else(|| {
            eprintln!("--n is required with --lambda");
            usage()
        });
        let seed = args.num_flag("seed").unwrap_or(1);
        return workloads::open_bernoulli(n, env.lambda, env.config.horizon(), seed);
    }
    if let Some(path) = args.flags.get("problem") {
        load_problem(path)
    } else if let Some(kind) = args.flags.get("workload") {
        make_workload(kind, args)
    } else {
        eprintln!("route needs --problem FILE, --workload KIND --n N, or --resume-from CKPT");
        usage()
    }
}

/// `mesh route`: parse the run, hand it to `mesh_routing::drive`, print
/// what it drove to. A resume restores a checkpoint instead of building
/// the problem, and its result is byte-identical to the uninterrupted
/// run's; `--lambda` (or a steady checkpoint) makes the run an open-system
/// soak with admission control at the edge and windowed measurement.
fn cmd_route(args: &Args) {
    let resume = args.flags.get("resume-from").map(|path| {
        if let Some(flag) = PROBLEM_FLAGS.split_whitespace().find(|f| args.has(f)) {
            usage_error(&format!(
                "--{flag} defines a problem: --resume-from takes it from the snapshot"
            ));
        }
        let snap = Snapshot::read_from(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(&format!("cannot load snapshot {path}: {e}")));
        (path.as_str(), snap)
    });
    // A resume's form is its snapshot's.
    let recorded = resume.as_ref().and_then(|(_, snap)| snap.steady);
    let steady = recorded.is_some() || resume.is_none() && args.has("lambda");
    if steady {
        args.reject_unknown("route --lambda", STEADY_FLAGS);
    } else {
        args.reject_unknown("route", CLOSED_FLAGS);
    }
    let algo = make_algorithm(args.target(), args.positive_flag("k").unwrap_or(4));
    let env = steady.then(|| steady_env(args, recorded));
    // The admission policy defaults to the snapshot's; an explicitly
    // re-passed policy goes through as-is, and the restore refuses a
    // mismatch with a typed error.
    let explicit = "admission deadline max-deferred"
        .split_whitespace()
        .any(|f| args.has(f));
    let admission = match &resume {
        Some((_, snap)) if !explicit => snap.admission,
        _ => parse_admission(args),
    };
    let config = SimConfig {
        admission,
        watchdog: args
            .num_flag("watchdog")
            .or(env.map(|e| e.config.window.saturating_mul(2).max(256))),
        checkpoint_every: args.num_flag("checkpoint-every"),
        ..SimConfig::default()
    };
    if let Err(e) = config.check() {
        usage_error(&format!("--watchdog/--checkpoint-every: {e}"));
    }
    let plan = Plan {
        cap: args.num_flag("cap"),
        halt_at: args.num_flag("halt-at"),
        config,
        steady: env,
        checkpoint_dir: args
            .flags
            .get("checkpoint-dir")
            .map_or("checkpoints", String::as_str)
            .into(),
        stats: Stats {
            latency: args.has("latency"),
            congestion: args.has("heatmap"),
        },
    };

    let problem;
    let start = match &resume {
        Some((_, snap)) => Start::Resume(snap),
        None => {
            problem = fresh_problem(args, env);
            Start::Problem(&problem)
        }
    };
    // A refused resume is the snapshot's fault, a refused problem file the
    // file's, and a refused generated problem the flags'.
    let run =
        drive(algo, start, &plan).unwrap_or_else(|e| match (&resume, args.flags.get("problem")) {
            (Some(_), _) => fail(&format!("cannot resume: {e}")),
            (None, Some(path)) => fail(&format!("cannot route {path}: {e}")),
            (None, None) => usage_error(&e),
        });
    let failed = match &resume {
        Some((path, snap)) => {
            eprintln!("resumed from {path} at step {}", snap.step);
            "cannot resume"
        }
        None => "steady run failed",
    };
    print_run(args, run, failed);
}

/// Prints what a run drove to: the outcome (or why a steady run has none,
/// after `failed` if it failed), the watchdog's verdict and the last
/// checkpoint on stderr, and the statistics of the simulation when asked.
fn print_run(args: &Args, run: Run, failed: &str) {
    let last = run.last_checkpoint.as_ref().map(|p| p.display());
    let outcome = match (&run.outcome, run.stop) {
        (Some(outcome), stop) => {
            if let Some(e) = stop.filter(|e| !matches!(e, SimError::StepCap(_))) {
                eprintln!("{e}");
            }
            outcome
        }
        (None, Some(SimError::StepCap(_))) => {
            match last {
                Some(p) => eprintln!("halted mid-soak; last checkpoint: {p}"),
                None => eprintln!("halted before the first checkpoint cadence point"),
            }
            return;
        }
        (None, stop) => fail(&format!("{failed}: {}", stop.expect("a stopped run"))),
    };
    match (outcome, last) {
        (_, Some(p)) => eprintln!("last checkpoint: {p}"),
        (Outcome::Closed(_), None) if args.has("checkpoint-every") => {
            eprintln!("no checkpoint written (run ended before the first cadence point)")
        }
        _ => {}
    }
    match outcome {
        Outcome::Closed(out) => print_route(args, out),
        Outcome::Steady(out) => print_steady(args, out),
    }
    if let Some(d) = &run.latency {
        println!(
            "latency: min={} p50={} p90={} p99={} max={} mean={:.1}",
            d.min, d.p50, d.p90, d.p99, d.max, d.mean
        );
    }
    if let Some(map) = &run.congestion {
        println!("{}", map.ascii());
    }
    // An engine run computes what the flags ask for; the §6 schedulers
    // have neither.
    if args.has("latency") && run.latency.is_none()
        || args.has("heatmap") && run.congestion.is_none()
    {
        eprintln!("(--latency/--heatmap are engine-router features)")
    }
}

fn cmd_construct(args: &Args) {
    let kind = args.target();
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
    match args.positional.first().map(String::as_str) {
        Some("workload") => {
            args.reject_unknown("workload", WORKLOAD_FLAGS);
            cmd_workload(&args);
        }
        // Its flags depend on its form, which `cmd_route` decides.
        Some("route") => cmd_route(&args),
        Some("construct") => {
            args.reject_unknown("construct", CONSTRUCT_FLAGS);
            cmd_construct(&args);
        }
        _ => usage(),
    }
}
