//! Regression test for the runner's core guarantee: for a fixed experiment
//! and trial count, the aggregated `BENCH_*.json` document is byte-identical
//! no matter how many worker threads execute the trials.

use mesh_bench::runner::{derive_seed, run_experiment, Experiment, RunnerConfig, TrialOutput};
use mesh_routing::prelude::*;

/// A miniature but real experiment: seeded random permutations routed by
/// two different engines, plus one deterministic cell — the same shape as
/// the shipped experiments, small enough for a test.
fn mini_experiment() -> Experiment {
    let n = 10;
    let mut e = Experiment::new(
        "mini",
        "determinism fixture",
        "json identical across thread counts",
        &["cell", "steps", "moves"],
    );
    e.seeded("theorem15 random-perm", move |trial| {
        let pb = workloads::random_permutation(n, derive_seed(21, trial));
        let topo = Mesh::new(n);
        let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(2)), &pb);
        sim.run(100_000).unwrap();
        let r = sim.report();
        TrialOutput::with_report(
            vec![
                "theorem15".into(),
                r.steps.to_string(),
                r.total_moves.to_string(),
            ],
            r,
        )
    });
    e.seeded("greedy random-perm", move |trial| {
        let pb = workloads::random_permutation(n, derive_seed(22, trial));
        let topo = Mesh::new(n);
        let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
        sim.run(100_000).unwrap();
        let r = sim.report();
        TrialOutput::with_report(
            vec![
                "greedy".into(),
                r.steps.to_string(),
                r.total_moves.to_string(),
            ],
            r,
        )
    });
    e.fixed("greedy transpose", move |_| {
        let pb = workloads::transpose(n);
        let topo = Mesh::new(n);
        let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
        sim.run(100_000).unwrap();
        let r = sim.report();
        TrialOutput::with_report(
            vec![
                "transpose".into(),
                r.steps.to_string(),
                r.total_moves.to_string(),
            ],
            r,
        )
    });
    e
}

#[test]
fn bench_json_is_byte_identical_across_thread_counts() {
    let render = |threads: usize| {
        let cfg = RunnerConfig { threads, trials: 3 };
        let run = run_experiment(mini_experiment(), &cfg);
        serde_json::to_string_pretty(&run.doc).unwrap()
    };
    let serial = render(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            render(threads),
            "JSON diverged at {threads} threads"
        );
    }
    // Sanity on the document itself: seeded cells actually ran 3 distinct
    // trials, the fixed cell ran once, and aggregates were attached.
    let run = run_experiment(
        mini_experiment(),
        &RunnerConfig {
            threads: 4,
            trials: 3,
        },
    );
    assert_eq!(run.doc.cells.len(), 3);
    assert_eq!(run.doc.cells[0].rows.len(), 3);
    assert_eq!(run.doc.cells[2].rows.len(), 1);
    let agg = run.doc.cells[0].aggregate.as_ref().unwrap();
    assert_eq!(agg.trials, 3);
    assert_eq!(agg.completed_trials, 3);
    // Distinct seeds must actually vary the workload (steps differ across
    // trials with overwhelming probability on a 10×10 permutation).
    let rows = &run.doc.cells[0].rows;
    assert!(
        rows.iter().any(|r| r[1] != rows[0][1]) || rows.iter().any(|r| r[2] != rows[0][2]),
        "trials look identical — derive_seed is not varying the workload"
    );
}

#[test]
fn reliable_experiment_json_is_byte_identical_across_thread_counts() {
    // The shipped `reliable` experiment adds two sources of nondeterminism
    // risk the mini fixture lacks: the transport's own seeded jitter RNG and
    // protocol-spawned packets growing the simulation mid-run. The emitted
    // JSON must still be a pure function of (experiment, trials).
    let render = |threads: usize| {
        let cfg = RunnerConfig { threads, trials: 2 };
        let exp = mesh_bench::experiments::build("reliable", false).unwrap();
        let run = run_experiment(exp, &cfg);
        serde_json::to_string_pretty(&run.doc).unwrap()
    };
    let serial = render(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            render(threads),
            "JSON diverged at {threads} threads"
        );
    }
}

#[test]
fn table_equals_historical_serial_run() {
    // Trial 0 of every cell must reproduce the serial single-trial table
    // regardless of parallelism, so the recorded EXPERIMENTS.md values are
    // stable under the runner.
    let serial = run_experiment(mini_experiment(), &RunnerConfig::serial());
    let parallel = run_experiment(
        mini_experiment(),
        &RunnerConfig {
            threads: 8,
            trials: 5,
        },
    );
    assert_eq!(serial.table.markdown(), parallel.table.markdown());
}
