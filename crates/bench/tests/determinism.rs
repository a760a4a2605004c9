//! Regression test for the runner's core guarantee: for a fixed experiment
//! and trial count, the aggregated `BENCH_*.json` document is byte-identical
//! no matter how many worker threads execute the trials, and the whole
//! suite's documents are the recorded bytes.

#[path = "../../../tests/support/record.rs"]
mod record;

use mesh_bench::experiments::{build, REGISTRY};
use mesh_bench::runner::{
    derive_seed, run_experiment, run_suite, Experiment, RunnerConfig, TrialOutput,
};
use mesh_routing::prelude::*;
use record::{Digest, Entry};

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

/// A shipped experiment's `BENCH_<id>.json` at `--trials 2`: the same
/// bytes from one worker thread as from two.
fn assert_thread_count_invisible(id: &str) {
    let render = |threads: usize| {
        let cfg = RunnerConfig { threads, trials: 2 };
        let run = run_experiment(build(id, false).unwrap(), &cfg);
        serde_json::to_string_pretty(&run.doc).unwrap()
    };
    assert!(render(1) == render(2), "{id}: JSON diverged at 2 threads");
}

/// One test per experiment that registers seeded cells through a workload
/// axis or a shared run shape (a2 covers the ablation cells a1 shares).
/// `reliable` adds the transport's own seeded jitter and protocol-spawned
/// packets growing the simulation mid-run. Running a soak's cells also
/// checks their claims: RELIABLE's exactly-once delivery and CRASHREC's
/// bit-identical resumes panic their cell when false. The rows that take
/// seconds even in release run only there: `cargo test --release -p
/// mesh-bench --test determinism`.
macro_rules! thread_count_invisible {
    ($($(#[$attr:meta])* $test:ident: $id:literal,)*) => {$(
        #[test]
        $(#[$attr])*
        fn $test() {
            assert_thread_count_invisible($id);
        }
    )*};
}

thread_count_invisible! {
    #[cfg_attr(debug_assertions, ignore = "release-only: CI runs it")]
    e5_experiment_json_is_byte_identical_across_thread_counts: "e5",
    #[cfg_attr(debug_assertions, ignore = "release-only: CI runs it")]
    e6_experiment_json_is_byte_identical_across_thread_counts: "e6",
    e7_experiment_json_is_byte_identical_across_thread_counts: "e7",
    #[cfg_attr(debug_assertions, ignore = "release-only: CI runs it")]
    e10_experiment_json_is_byte_identical_across_thread_counts: "e10",
    #[cfg_attr(debug_assertions, ignore = "release-only: CI runs it")]
    a2_experiment_json_is_byte_identical_across_thread_counts: "a2",
    #[cfg_attr(debug_assertions, ignore = "release-only: CI runs it")]
    a3_experiment_json_is_byte_identical_across_thread_counts: "a3",
    chaos_experiment_json_is_byte_identical_across_thread_counts: "chaos",
    reliable_experiment_json_is_byte_identical_across_thread_counts: "reliable",
    crashrec_experiment_json_is_byte_identical_across_thread_counts: "crashrec",
}

/// The suite as `experiments all --threads 2 --json-out` runs it: each
/// `BENCH_<id>.json`'s digest against `tests/fixtures/determinism.txt`.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: CI runs it")]
fn the_suite_documents_are_the_recorded_bytes() {
    let exps = REGISTRY.iter().map(|(_, build)| build(false)).collect();
    let config = RunnerConfig {
        threads: 2,
        trials: 1,
    };
    for ((id, _), run) in REGISTRY.iter().zip(run_suite(exps, &config)) {
        let Ok(run) = run else { panic!("{id} failed") };
        let json = serde_json::to_string_pretty(&run.doc).unwrap() + "\n";
        let entry = Entry::new(id)
            .with("cells", run.doc.cells.len())
            .with("json", Digest::of(json).hex());
        record::check(REGISTRY.len(), entry).unwrap_or_else(|e| panic!("{e}"));
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
    assert_eq!(serial.doc.markdown(), parallel.doc.markdown());
}
