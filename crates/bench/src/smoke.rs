//! The counted-metric smoke gate of the repository benchmark: the `smoke`
//! binary's reading of `BENCHMARK.json`, its baseline file and its
//! comparison rules.
//!
//! The binary runs every workload of `BENCHMARK.json` once, at `--smoke
//! --seed 1 --trace 0` and the spec's own command and run length, and reads
//! each run with [`parse_run`](crate::pair::parse_run). [`check`] then holds
//! the counted metrics against the recorded baseline: a simulated counter
//! ([`SIMULATED`]) may not move at all, an allocator counter ([`ALLOCATION`])
//! may not grow past the spec's bound for it. Two facts hold whatever the
//! baseline says: perm-view allocates per run, not per node, and perm-tiled
//! allocates exactly as perm-packed does.

use crate::pair::{Object, Run, ALLOCATION, SIMULATED};
use serde::Deserialize;

/// What the gate reads of `BENCHMARK.json`.
#[derive(Deserialize)]
pub struct Spec {
    /// The command that runs the benchmark, from the repository root.
    pub command: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
}

#[derive(Deserialize)]
pub struct Workload {
    pub name: String,
}

/// An end-to-end metric and the fraction it may get worse by.
#[derive(Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub bound: f64,
}

impl Spec {
    /// The full command line of one smoke run of `workload`.
    pub fn smoke_command(&self, workload: &str) -> Vec<String> {
        let seconds = self.run_seconds.to_string();
        let args = ["--smoke", "--workload", workload, "--seed", "1"];
        let args = args
            .into_iter()
            .chain(["--seconds", &seconds, "--trace", "0"]);
        let args = args.map(String::from);
        self.command.iter().cloned().chain(args).collect()
    }

    /// The spec's bound for `metric`; a metric it does not list has none.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == metric)
            .map(|m| m.bound)
    }
}

/// The counted metrics of one run, in [`SIMULATED`] then [`ALLOCATION`]
/// order: what the baseline records per workload.
pub fn counted(run: &Run) -> Result<Object<f64>, String> {
    SIMULATED
        .iter()
        .chain(&ALLOCATION)
        .map(|&m| {
            let v = run.get(m).ok_or(format!("the run printed no {m}"))?;
            Ok((m.to_string(), v))
        })
        .collect::<Result<_, String>>()
        .map(Object)
}

/// Every way `got` fails the gate against `want`, as one message each; no
/// message means it passes. `got` and `want` map a workload to its
/// [`counted`] metrics.
pub fn check(spec: &Spec, want: &Object<Object<f64>>, got: &Object<Object<f64>>) -> Vec<String> {
    let mut errors = Vec::new();
    fn names(o: &Object<Object<f64>>) -> Vec<&str> {
        let mut v: Vec<&str> = o.0.iter().map(|(w, _)| w.as_str()).collect();
        v.sort_unstable();
        v
    }
    if names(want) != names(got) {
        errors.push(format!(
            "workloads {:?} differ from the baseline's {:?}",
            names(got),
            names(want)
        ));
    }
    for (name, base) in &want.0 {
        let Some(now) = got.get(name) else {
            continue;
        };
        for m in SIMULATED {
            let (b, g) = (base.get(m), now.get(m));
            if b != g {
                errors.push(format!("{name}: {m} {b:?} -> {g:?} (must not move)"));
            }
        }
        for m in ALLOCATION {
            let bound = spec.bound(m).unwrap_or(0.0);
            match (base.get(m), now.get(m)) {
                (Some(b), Some(g)) if *g <= b * (1.0 + bound) => {}
                (b, g) => errors.push(format!("{name}: {m} {b:?} -> {g:?} (bound {bound})")),
            }
        }
    }
    let allocs = |w: &str| got.get(w).and_then(|c| c.get("allocs")).copied();
    // Hot-potato on the one policy surface allocates per run, not per node
    // (a Vec per node again is ~0.76 allocations per move).
    if allocs("perm-view").is_some_and(|a| a >= 1000.0) {
        errors.push(format!(
            "perm-view: {:?} allocations, want < 1000",
            allocs("perm-view")
        ));
    }
    // perm-tiled only sets SimConfig's two inert fields: it is perm-packed's
    // run on the one step loop.
    if allocs("perm-packed") != allocs("perm-tiled") {
        errors.push("perm-packed and perm-tiled allocate differently".to_string());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `BENCHMARK.json` fields the gate reads, with an unknown key the
    /// reader must skip.
    const SPEC: &str = r#"{"command": ["cargo", "run", "--"], "paths": ["benchmark"],
        "run_seconds": 8, "workloads": [{"name": "perm-packed", "why": "x"}],
        "end_to_end": [{"name": "allocs", "unit": "count", "better": "lower", "bound": 0.15},
                       {"name": "alloc_mb", "bound": 0.15}, {"name": "peak_heap_mb", "bound": 0.15}]}"#;

    /// Counted metrics of three workloads, as the smoke runs printed them.
    fn captured() -> Object<Object<f64>> {
        let row = |v: [f64; 8]| {
            let names = SIMULATED.iter().chain(&ALLOCATION);
            Object(names.map(|m| m.to_string()).zip(v).collect())
        };
        Object(vec![
            (
                "perm-packed".into(),
                row([54.0, 21922.0, 2.0, 1.0, 3.9, 28.0, 0.0638885, 0.194323]),
            ),
            (
                "perm-view".into(),
                row([55.0, 22262.0, 1.0, 1.0, 3.8, 33.0, 0.181106, 0.213622]),
            ),
            (
                "perm-tiled".into(),
                row([54.0, 21922.0, 2.0, 1.0, 3.9, 28.0, 0.0638885, 0.194322]),
            ),
        ])
    }

    fn set(o: &mut Object<Object<f64>>, workload: &str, metric: &str, v: f64) {
        let counts = &mut o.0.iter_mut().find(|(w, _)| w == workload).unwrap().1;
        counts.0.iter_mut().find(|(m, _)| m == metric).unwrap().1 = v;
    }

    #[test]
    fn reads_the_spec_and_builds_the_smoke_command() {
        let spec: Spec = serde_json::from_str(SPEC).unwrap();
        assert_eq!(spec.bound("allocs"), Some(0.15));
        assert_eq!(spec.bound("wall_s"), None);
        assert_eq!(
            spec.smoke_command("ckpt").join(" "),
            "cargo run -- --smoke --workload ckpt --seed 1 --seconds 8 --trace 0"
        );
    }

    #[test]
    fn baseline_round_trips_in_order() {
        let base = captured();
        let text = serde_json::to_string_pretty(&base).unwrap();
        assert_eq!(
            serde_json::from_str::<Object<Object<f64>>>(&text).unwrap(),
            base
        );
        assert!(text.find("perm-packed") < text.find("perm-view"));
    }

    #[test]
    fn an_unchanged_run_passes() {
        let spec: Spec = serde_json::from_str(SPEC).unwrap();
        assert_eq!(check(&spec, &captured(), &captured()), Vec::<String>::new());
    }

    #[test]
    fn a_simulated_counter_may_not_move() {
        let spec: Spec = serde_json::from_str(SPEC).unwrap();
        let mut got = captured();
        set(&mut got, "perm-view", "sim_steps", 56.0);
        let errors = check(&spec, &captured(), &got);
        assert_eq!(
            errors,
            ["perm-view: sim_steps Some(55.0) -> Some(56.0) (must not move)"]
        );
    }

    #[test]
    fn allocations_may_fall_or_grow_within_the_bound() {
        let spec: Spec = serde_json::from_str(SPEC).unwrap();
        let mut got = captured();
        set(&mut got, "perm-view", "alloc_mb", 0.1);
        set(&mut got, "perm-view", "peak_heap_mb", 0.213622 * 1.14);
        assert!(check(&spec, &captured(), &got).is_empty());
        set(&mut got, "perm-view", "peak_heap_mb", 0.213622 * 1.16);
        let errors = check(&spec, &captured(), &got);
        assert_eq!(errors.len(), 1);
        assert!(
            errors[0].starts_with("perm-view: peak_heap_mb"),
            "{errors:?}"
        );
    }

    #[test]
    fn the_two_fixed_facts_hold_whatever_the_baseline() {
        let spec: Spec = serde_json::from_str(SPEC).unwrap();
        let mut base = captured();
        set(&mut base, "perm-view", "allocs", 1000.0);
        let errors = check(&spec, &base, &base);
        assert_eq!(errors, ["perm-view: Some(1000.0) allocations, want < 1000"]);
        let mut base = captured();
        set(&mut base, "perm-tiled", "allocs", 29.0);
        let errors = check(&spec, &base, &base);
        assert_eq!(errors, ["perm-packed and perm-tiled allocate differently"]);
    }

    #[test]
    fn a_missing_workload_fails() {
        let spec: Spec = serde_json::from_str(SPEC).unwrap();
        let mut got = captured();
        got.0.pop();
        let errors = check(&spec, &captured(), &got);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].starts_with("workloads"));
        assert_eq!(errors[1], "perm-packed and perm-tiled allocate differently");
    }
}
