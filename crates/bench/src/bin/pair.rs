//! Paired interleaved runs of two builds of the repository benchmark.
//!
//! ```sh
//! pair --a BIN_A --b BIN_B --workload W --pairs N [--seed S] [--smoke]
//! ```
//!
//! Runs `BIN --workload W --seed S --seconds 8 --trace 0` (plus `--smoke`)
//! for A and B in ABBA order, N times each, then prints one markdown row per
//! metric: A's and B's medians, B's wins, A's quartile distance, and whether
//! B meets `benchmark/README.md` §Noise's bar for a claim. Exits 1 when a run
//! fails or a counted metric does not repeat (see `mesh_bench::pair`), 2 on
//! a usage error.

use mesh_bench::pair::{compare, counted_mismatches, parse_run, render, Run};
use std::process::{exit, Command};

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: pair --a BIN_A --b BIN_B --workload W --pairs N [--seed S] [--smoke]");
    exit(2);
}

/// One run of `bin`, parsed; a failure to start, a non-zero exit or an
/// unreadable output ends the comparison.
fn run(bin: &str, workload: &str, seed: u64, smoke: bool) -> Run {
    let seed = seed.to_string();
    let mut args = vec!["--workload", workload, "--seed", &seed];
    args.extend(["--seconds", "8", "--trace", "0"]);
    if smoke {
        args.push("--smoke");
    }
    let out = Command::new(bin).args(&args).output().unwrap_or_else(|e| {
        eprintln!("error: cannot run {bin}: {e}");
        exit(1)
    });
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        eprintln!("error: {bin} {} exited with {}", args.join(" "), out.status);
        exit(1);
    }
    parse_run(&stdout).unwrap_or_else(|e| {
        eprintln!("error: {bin}: {e}");
        exit(1)
    })
}

fn main() {
    let (mut a, mut b, mut workload, mut pairs) = (None, None, None, None);
    let (mut seed, mut smoke) = (1u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--a" => a = Some(value()),
            "--b" => b = Some(value()),
            "--workload" => workload = Some(value()),
            "--pairs" => {
                pairs = Some(
                    value()
                        .parse::<usize>()
                        .ok()
                        .filter(|&p| p >= 1)
                        .unwrap_or_else(|| usage_error("--pairs needs a number >= 1")),
                )
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs a whole number"))
            }
            "--smoke" => smoke = true,
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    let need = |v: Option<String>, flag: &str| {
        v.unwrap_or_else(|| usage_error(&format!("{flag} is required")))
    };
    let (a, b, workload) = (need(a, "--a"), need(b, "--b"), need(workload, "--workload"));
    let pairs = pairs.unwrap_or_else(|| usage_error("--pairs is required"));
    let (mut runs_a, mut runs_b) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        // ABBA: A leads the even pairs, B the odd ones.
        if i % 2 == 0 {
            runs_a.push(run(&a, &workload, seed, smoke));
            runs_b.push(run(&b, &workload, seed, smoke));
        } else {
            runs_b.push(run(&b, &workload, seed, smoke));
            runs_a.push(run(&a, &workload, seed, smoke));
        }
        eprintln!("pair {}/{pairs} done", i + 1);
    }
    let rows = compare(&runs_a, &runs_b).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    println!("{workload}, seed {seed}, {pairs} pairs (A = {a}, B = {b})\n");
    print!("{}", render(&rows));
    let mismatches = counted_mismatches(&runs_a, &runs_b);
    for m in &mismatches {
        eprintln!("error: {m}");
    }
    if !mismatches.is_empty() {
        exit(1);
    }
}
