//! The repository benchmark. See README.md beside this package.
//!
//! ```text
//! mesh-benchmark --workload W --seed S --seconds T --trace 0|1   one workload, one JSON result line
//! mesh-benchmark run       [--seed S] [--seconds T]              every workload, gated
//! mesh-benchmark trace     [--seed S]                            every workload, traced
//! mesh-benchmark selfcheck [--seed S] [--pairs P]                two interleaved sets of `run`
//! mesh-benchmark manifest                                        the contents of BENCHMARK.json
//! ```
//!
//! `run`, `trace` and `selfcheck` start one child process of this binary
//! per workload, so that peak resident memory is the workload's own.

mod heap;
mod host;
mod layers;
mod spec;
mod trace;
mod workloads;

use serde::Value;
use spec::{END_TO_END, HOST_TIME, PER_LAYER, RUN_SECONDS, SIMULATED, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{median, Tracer};
use workloads::{Counters, Sizes};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Where span files and checkpoint scratch directories go: `out/` beside
/// this package's manifest, which `.gitignore` names.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    pairs: usize,
    /// Overrides what the gate expects of the bounded queues. Only the
    /// harness's own test of the gate passes it.
    expect_queue_bound: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        pairs: 4,
        expect_queue_bound: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let mut value = |what: &str| words.next().ok_or(format!("{word} needs {what}"));
        match word.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = parse(&value("a whole number")?)?,
            "--seconds" => args.seconds = parse(&value("a number of seconds")?)?,
            "--trace" => args.trace = parse::<u8>(&value("0 or 1")?)? != 0,
            "--pairs" => args.pairs = parse(&value("a whole number")?)?,
            "--expect-queue-bound" => args.expect_queue_bound = Some(parse(&value("a bound")?)?),
            "--smoke" => args.smoke = true,
            "run" | "trace" | "selfcheck" | "manifest" if args.command.is_none() => {
                args.command = Some(word)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("cannot read {text:?}"))
}

fn sizes(args: &Args) -> Sizes {
    let mut sizes = if args.smoke {
        workloads::SMOKE
    } else {
        workloads::FULL
    };
    if let Some(bound) = args.expect_queue_bound {
        sizes.queue_bound = bound;
    }
    sizes
}

// ---- one workload in this process ----

/// A metric value with its unit, in table order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end_metrics(m: &workloads::Measured) -> Metrics {
    const MB: f64 = 1024.0 * 1024.0;
    let c = &m.counters;
    let value = |name: &str| match name {
        "setup_s" => median(&m.setups),
        "peak_rss_mb" => host::peak_rss_mb(),
        "peak_heap_mb" => heap::peak_bytes() as f64 / MB,
        "allocs" => m.allocs as f64,
        "alloc_mb" => m.alloc_bytes as f64 / MB,
        "sim_steps" => c.steps as f64,
        "sim_moves" => c.moves as f64,
        "max_queue" => c.max_queue as f64,
        "delivered_frac" => c.delivered_frac(),
        "goodput_per_knode_step" => c.goodput_per_knode_step(),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END
        .iter()
        .map(|e| (e.name, value(e.name), e.unit))
        .collect()
}

/// Wall time of the timed region and the two rates derived from it.
fn host_time_metrics(m: &workloads::Measured) -> Metrics {
    let wall = median(&m.walls);
    let value = |name: &str| match name {
        "wall_s" => wall,
        "ksteps_per_s" => m.counters.steps as f64 / wall / 1e3,
        "mmoves_per_s" => m.counters.moves as f64 / wall / 1e6,
        other => unreachable!("host-time diagnostic {other} has no definition"),
    };
    HOST_TIME
        .iter()
        .map(|&(name, unit)| (name, value(name), unit))
        .collect()
}

fn print_metrics(metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
}

/// The result line the driver reads: the last line of standard output.
fn result_line(counters: &Counters, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let entry = vec![
                ("value", Value::F64(value)),
                ("unit", Value::String(unit.to_string())),
            ];
            (name, spec::obj(entry))
        })
        .collect();
    let line = spec::obj(vec![
        ("correct", Value::Bool(true)),
        ("attempted", Value::U64(counters.offered)),
        ("failed", Value::U64(counters.failed)),
        ("metrics", spec::obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serialization")
}

fn one_gated(index: usize, args: &Args) -> Result<(), String> {
    let measured = workloads::gated(index, &sizes(args), args.seed, args.seconds)?;
    let metrics = end_to_end_metrics(&measured);
    print_metrics(&metrics);
    println!("  host time of the timed region (a diagnostic: not gated, see README.md):");
    print_metrics(&host_time_metrics(&measured));
    println!(
        "  repetitions: {} timed, {} set-ups",
        measured.walls.len(),
        measured.setups.len()
    );
    println!("  host.steal_frac {:.6}", measured.host.steal_frac());
    println!(
        "  host.invol_ctx_switches {}",
        measured.host.invol_ctx_switches
    );
    if !args.smoke && WORKLOADS[index].name == "ckpt" && median(&measured.walls) < 2.0 {
        println!("  undersized: ckpt's timed region fell under 2 s; raise its n");
    }
    println!("{}", result_line(&measured.counters, &metrics));
    Ok(())
}

fn one_traced(index: usize, args: &Args) -> Result<(), String> {
    let name = WORKLOADS[index].name;
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let (layers, counters) = layers::traced(index, &sizes(args), args.seed, &mut tracer)?;
    let traced_wall_ns = started.elapsed().as_nanos() as u64;

    let path = out_dir().join(format!("trace-{name}.json"));
    tracer
        .write(&path, name, traced_wall_ns)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let self_sum: u64 = tracer.self_times_ns().iter().sum();
    println!(
        "  {} spans in {}; self times add up to {:.4} s of {:.4} s traced",
        tracer.spans.len(),
        path.display(),
        self_sum as f64 / 1e9,
        traced_wall_ns as f64 / 1e9
    );
    for (span, own_ns, count) in tracer.self_time_by_name().iter().take(8) {
        println!(
            "    self {:>10.4} s  {count:>7} x {span}",
            *own_ns as f64 / 1e9
        );
    }
    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name), m.unit))
        .collect();
    print_metrics(&metrics);
    println!("{}", result_line(&counters, &metrics));
    Ok(())
}

// ---- every workload, one child process each ----

/// What a child printed: the metrics of its result line, and the numbers
/// of its diagnostic lines (host time, steal, context switches).
struct ChildResult {
    metrics: BTreeMap<String, f64>,
    diagnostics: BTreeMap<String, f64>,
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!(
        "{workload}  (seed {}, {})",
        args.seed,
        if trace { "traced" } else { "gated" }
    );
    println!("{body}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let result: Value = serde_json::from_str(last).map_err(|e| format!("{workload}: {e}"))?;
    let field = |v: &Value, name: &str| v.field(name).cloned().map_err(|e| e.to_string());
    let Value::Object(entries) = field(&result, "metrics")? else {
        return Err(format!("{workload}: metrics is not an object"));
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in entries {
        let value = match field(&entry, "value")? {
            Value::F64(x) => x,
            Value::U64(x) => x as f64,
            Value::I64(x) => x as f64,
            other => return Err(format!("{workload}: {name} is {}", other.kind())),
        };
        metrics.insert(name, value);
    }
    let diagnostics = body
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let (name, value) = (words.next()?, words.next()?.parse().ok()?);
            Some((name.to_string(), value))
        })
        .filter(|(name, _)| !metrics.contains_key(name))
        .collect();
    Ok(ChildResult {
        metrics,
        diagnostics,
    })
}

/// One pass over every workload. Returns the results in table order.
fn pass(args: &Args, trace: bool) -> Result<Vec<ChildResult>, String> {
    let started = Instant::now();
    let results = WORKLOADS
        .iter()
        .map(|w| run_child(w.name, args, trace))
        .collect::<Result<Vec<_>, _>>()?;
    if !trace {
        // One problem, two executors: the simulation must be the same one.
        let of = |name: &str| &results[spec::workload_index(name).expect("in the table")].metrics;
        let (packed, tiled) = (of("perm-packed"), of("perm-tiled"));
        for m in SIMULATED {
            if packed[m] != tiled[m] {
                return Err(format!(
                    "perm-tiled's {m} is {}, perm-packed's is {}",
                    tiled[m], packed[m]
                ));
            }
        }
    }
    println!("pass finished in {:.1} s", started.elapsed().as_secs_f64());
    Ok(results)
}

/// Two interleaved sets (A B B A ...) of passes of this one binary: the
/// noise floor of the host. Fails unless every counted metric is identical
/// in all passes and the median of every other end-to-end metric in B is
/// within its bound of A's. Host time is shown beside them, unjudged.
fn selfcheck(args: &Args) -> Result<(), String> {
    let mut sets: [Vec<Vec<ChildResult>>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..args.pairs {
        for half in 0..2 {
            let set = (pair + half) % 2;
            println!(
                "--- set {} pass {} ---",
                ["A", "B"][set],
                sets[set].len() + 1
            );
            sets[set].push(pass(args, false)?);
        }
    }
    let mut failures = Vec::new();
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "B vs A", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let values = |set: usize, pick: &dyn Fn(&ChildResult) -> f64| -> Vec<f64> {
            sets[set].iter().map(|pass| pick(&pass[w])).collect()
        };
        for m in END_TO_END {
            let (a, b) = (
                values(0, &|r| r.metrics[m.name]),
                values(1, &|r| r.metrics[m.name]),
            );
            let (ma, mb) = (median(&a), median(&b));
            let worse = m.better.worsening(ma, mb);
            let ok = if m.exact {
                a.iter().chain(&b).all(|&v| v == a[0])
            } else {
                worse.abs() <= m.bound
            };
            println!(
                "{:<12} {:<24} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.0}%{}",
                workload.name,
                m.name,
                100.0 * worse,
                100.0 * m.bound,
                if ok { "" } else { "  <-- outside" }
            );
            if !ok {
                failures.push(format!("{}/{}", workload.name, m.name));
            }
        }
        for &(name, _) in HOST_TIME {
            let (a, b) = (
                values(0, &|r| r.diagnostics[name]),
                values(1, &|r| r.diagnostics[name]),
            );
            let (ma, mb) = (median(&a), median(&b));
            println!(
                "{:<12} {:<24} {ma:>14.4} {mb:>14.4} {:>+7.1}%  (host time, not judged)",
                workload.name,
                name,
                100.0 * (mb - ma) / ma
            );
        }
    }
    if failures.is_empty() {
        println!("selfcheck passed: both sets agree within the bounds");
        Ok(())
    } else {
        Err(format!("the two sets disagree on {}", failures.join(", ")))
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => {
            let index = spec::workload_index(name).ok_or(format!("unknown workload {name}"))?;
            if args.trace {
                one_traced(index, &args)
            } else {
                one_gated(index, &args)
            }
        }
        (Some("run"), None) => pass(&args, false).map(|_| ()),
        (Some("trace"), None) => pass(&args, true).map(|_| ()),
        (Some("selfcheck"), None) => selfcheck(&args),
        (Some("manifest"), None) => {
            print!("{}", spec::manifest());
            Ok(())
        }
        _ => Err("give --workload NAME, or one of: run, trace, selfcheck, manifest".to_string()),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mesh-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
