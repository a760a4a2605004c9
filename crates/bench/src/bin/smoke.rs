//! Counted-metric smoke gate for the repository benchmark.
//!
//! ```sh
//! smoke --check     # compare with .github/smoke-baseline.json
//! smoke --record    # rewrite the baseline from this build
//! ```
//!
//! Runs every workload of `BENCHMARK.json` with the spec's command, from
//! the repository root, at `--smoke --seed 1 --trace 0` and the spec's run
//! length, and prints one line of counted metrics per workload. `--check`
//! exits 1 if a simulated counter moved, an allocator counter grew past the
//! spec's bound, perm-view made 1,000 allocations or more, or perm-packed
//! and perm-tiled allocated differently (see `mesh_bench::smoke`).
//! `--record` writes the baseline instead: commit it with the change that
//! moved it, and say why. A usage error exits 2.

use mesh_bench::pair::{parse_run, Object};
use mesh_bench::smoke::{check, counted, Spec};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// The repository root: two levels above this crate's manifest.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One smoke run of `workload`, reduced to its counted metrics.
fn measure(spec: &Spec, workload: &str) -> Object<f64> {
    let cmd = spec.smoke_command(workload);
    let out = Command::new(&cmd[0])
        .args(&cmd[1..])
        .current_dir(root())
        .output()
        .unwrap_or_else(|e| fail(&format!("cannot run {}: {e}", cmd[0])));
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        fail(&format!("{} exited with {}", cmd.join(" "), out.status));
    }
    parse_run(&String::from_utf8_lossy(&out.stdout))
        .and_then(|run| counted(&run))
        .unwrap_or_else(|e| fail(&format!("{workload}: {e}")))
}

fn main() {
    let record = match std::env::args().skip(1).collect::<Vec<_>>()[..] {
        [ref flag] if flag == "--check" => false,
        [ref flag] if flag == "--record" => true,
        _ => {
            eprintln!("usage: smoke --check | --record");
            exit(2);
        }
    };
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())))
    };
    let spec: Spec = serde_json::from_str(&read(root().join("BENCHMARK.json")))
        .unwrap_or_else(|e| fail(&format!("cannot read BENCHMARK.json: {e}")));
    let baseline = root().join(".github/smoke-baseline.json");
    let mut got = Object(Vec::new());
    for w in &spec.workloads {
        let counts = measure(&spec, &w.name);
        let line: Vec<String> = counts.0.iter().map(|(m, v)| format!("{m}={v}")).collect();
        println!("{} {}", w.name, line.join(" "));
        got.0.push((w.name.clone(), counts));
    }
    if record {
        let text = serde_json::to_string_pretty(&got).unwrap_or_else(|e| fail(&e.to_string()));
        std::fs::write(&baseline, text + "\n")
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", baseline.display())));
        return;
    }
    let want: Object<Object<f64>> = serde_json::from_str(&read(baseline))
        .unwrap_or_else(|e| fail(&format!("cannot read the baseline: {e}")));
    let errors = check(&spec, &want, &got);
    for e in &errors {
        eprintln!("FAIL {e}");
    }
    if !errors.is_empty() {
        exit(1);
    }
}
