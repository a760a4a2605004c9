//! Byte-mutation fuzz loop over the three readers that take files from
//! outside the program: a checkpoint file → `Snapshot::read_from` →
//! `Sim::restore`, a serialized `FaultPlan` → `try_compile`, and a
//! serialized `RoutingProblem` → `Sim::try_build` and
//! `Section6Router::try_route`. A seeded LCG flips, deletes and duplicates
//! bytes of a valid file; every outcome must be `Ok` (and a restored or
//! built simulation must then run without panicking) or a typed error —
//! never a panic. Every mutated checkpoint is written to a file and read
//! back with `read_from`, whose answer must be the three-pass reader's
//! (`support/oracle.rs`): the same snapshot bytes or the same error, kind
//! and message; a file that is no longer UTF-8, which that reader never
//! saw, must be `Io`.

#[path = "support/oracle.rs"]
mod oracle;

use mesh_routing::engine::{MemorySink, Snapshot, SnapshotError, SnapshotHook};
use mesh_routing::prelude::*;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const MUTATIONS: usize = 3_000;

/// Deterministic 64-bit LCG, top bits only.
fn lcg(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

/// One or two byte edits of `bytes` inside `within`: a bit flip, a
/// deletion, or a duplication. The result need not be UTF-8.
fn mutate(bytes: &[u8], within: Range<usize>, rng: &mut u64) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    for _ in 0..1 + lcg(rng) % 2 {
        let at = within.start + lcg(rng) % (within.end.min(bytes.len()) - within.start);
        match lcg(rng) % 3 {
            0 => bytes[at] ^= 1 << (lcg(rng) % 8),
            1 => drop(bytes.remove(at)),
            _ => bytes.insert(at, bytes[at]),
        }
    }
    bytes
}

/// [`mutate`] anywhere in `text`, for the readers that take `&str`: `None`
/// when the result is no longer UTF-8.
fn mutate_text(text: &str, rng: &mut u64) -> Option<String> {
    String::from_utf8(mutate(text.as_bytes(), 0..text.len(), rng)).ok()
}

/// A scratch file of this test binary's own.
fn scratch_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("restore_fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.json"))
}

/// Writes `bytes` to `path` and reads them back with `read_from`, which
/// must answer as the three-pass reader does: the same snapshot, or the
/// same error. Bytes that are not UTF-8 must be `Io`.
fn read_back(path: &Path, bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    std::fs::write(path, bytes).unwrap();
    let read = Snapshot::read_from(path);
    let expected = match std::str::from_utf8(bytes) {
        Ok(text) => oracle::from_json(text),
        Err(_) => Err(SnapshotError::Io(format!(
            "read {}: stream did not contain valid UTF-8",
            path.display()
        ))),
    };
    assert_eq!(
        read.as_ref().err(),
        expected.as_ref().err(),
        "{}",
        path.display()
    );
    if let (Ok(a), Ok(b)) = (&read, &expected) {
        assert!(
            a.to_json() == b.to_json(),
            "{}: the snapshots differ",
            path.display()
        );
    }
    read
}

/// What the fuzz loop saw, by outcome.
#[derive(Default)]
struct Tally {
    resumed: usize,
    rejected: usize,
    not_utf8: usize,
}

/// Mutates `valid` inside `within` [`MUTATIONS`] times, reads each result
/// back ([`read_back`]) and resumes what loads; `resume` returns a typed
/// refusal as `Err`. Every outcome must be reached.
fn fuzz_checkpoint(
    name: &str,
    valid: &str,
    within: Range<usize>,
    seed: u64,
    resume: impl Fn(&Snapshot) -> Result<(), String>,
) {
    let path = scratch_file(name);
    let snap = read_back(&path, valid.as_bytes()).expect("the unmutated file reads");
    resume(&snap).expect("the unmutated file resumes");
    let mut rng = seed;
    let mut tally = Tally::default();
    for i in 0..MUTATIONS {
        let bytes = mutate(valid.as_bytes(), within.clone(), &mut rng);
        tally.not_utf8 += usize::from(std::str::from_utf8(&bytes).is_err());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            read_back(&path, &bytes)
                .map_err(|e| e.to_string())
                .and_then(|s| resume(&s))
        }));
        match outcome {
            Ok(Ok(())) => tally.resumed += 1,
            Ok(Err(_)) => tally.rejected += 1,
            Err(_) => panic!(
                "{name}: mutation {i} (seed {seed}) panicked; input:\n{}",
                String::from_utf8_lossy(&bytes)
            ),
        }
    }
    let Tally {
        resumed,
        rejected,
        not_utf8,
    } = tally;
    println!("{name}: {resumed} mutated checkpoints resumed, {rejected} were refused ({not_utf8} not UTF-8)");
    assert!(
        resumed > 0 && rejected > 0 && not_utf8 > 0,
        "{name}: the loop must reach every outcome"
    );
}

/// Restores `snap` and steps it to completion (or a cap); a refused
/// restore is the error.
fn restore_and_run<R: Router>(
    topo: &Mesh,
    router: R,
    faults: Option<CompiledFaults>,
    snap: &Snapshot,
) -> Result<(), String>
where
    R::NodeState: serde::Deserialize,
{
    let config = SimConfig::default();
    let mut sim = Sim::restore(topo, router, config, faults, snap).map_err(|e| e.to_string())?;
    for _ in 0..400 {
        if sim.step() {
            break;
        }
    }
    sim.assert_queue_invariants();
    sim.assert_conservation();
    Ok(())
}

fn fuzz_restore<R: Router>(name: &str, mk: impl Fn() -> R, seed: u64)
where
    R::NodeState: serde::Serialize + serde::Deserialize,
{
    let n = 6;
    let topo = Mesh::new(n);
    let pb = workloads::open_bernoulli(n, 0.3, 10, 3);
    let mut sim = Sim::new(&topo, mk(), &pb);
    for _ in 0..5 {
        sim.step();
    }
    let valid = sim.snapshot().to_json();
    fuzz_checkpoint(name, &valid, 0..valid.len(), seed, |snap| {
        restore_and_run(&topo, mk(), None, snap)
    });
}

#[test]
fn mutated_snapshots_restore_or_fail_typed_never_panic() {
    fuzz_restore("dimorder", || Dx::new(DimOrder::new(2)), 1);
    fuzz_restore("theorem15", || Dx::new(Theorem15::new(2)), 2);
}

/// The bytes of a checkpoint's `protocol` slot: from its key to the end
/// of the object.
fn protocol_slot(text: &str) -> Range<usize> {
    text.find("\"protocol\"").expect("a protocol slot")..text.len() - 2
}

/// The opaque state a checkpoint carries for a layer above the engine:
/// an overloaded soak's measurement state, and the ARQ transport's over
/// lossy links. Only the `protocol` slot is mutated; `Sim::restore` checks
/// a steady slot itself, and the transport checks its own
/// (`SnapshotHook::restore_state`). What either accepts then runs to its
/// end: the soak through its remaining windows, the transport until every
/// payload is acknowledged or the run stops with a typed error.
#[test]
fn mutated_protocol_slots_are_refused_typed_never_panic() {
    let n = 4;
    let topo = Mesh::new(n);
    let schedule = SteadyConfig {
        warmup: 8,
        window: 8,
        windows: 3,
    };
    let admission = AdmissionPolicy::DeadlineExpiry { ttl: 12 };
    let config = SimConfig {
        admission,
        checkpoint_every: Some(10),
        ..SimConfig::default()
    };
    let pb = workloads::open_bernoulli(n, 0.4, schedule.horizon(), 17);
    let mut sim = Sim::with_config(&topo, Dx::new(DimOrder::new(2)), &pb, config);
    let mut sink = MemorySink::default();
    sim.run_steady_checkpointed(schedule, 0.4, None, &mut sink, None)
        .expect("the soak runs its schedule");
    // Step 20, inside the second window, with one frame closed.
    let steady = sink.checkpoints.swap_remove(1).to_json();
    fuzz_checkpoint("steady", &steady, protocol_slot(&steady), 3, |snap| {
        let config = SimConfig {
            admission,
            ..SimConfig::default()
        };
        let router = Dx::new(DimOrder::new(2));
        let mut sim = Sim::restore(&topo, router, config, None, snap).map_err(|e| e.to_string())?;
        let env = snap.steady.as_ref().ok_or("no steady block")?;
        let slot = snap.protocol.as_ref();
        let mut sink = MemorySink::default();
        let run = sim.run_steady_checkpointed(env.config, env.lambda, slot, &mut sink, None);
        run.map(drop).map_err(|e| e.to_string())
    });

    let (n, topo) = (6, Mesh::new(6));
    let pb = workloads::random_permutation(n, 5);
    let faults = FaultPlan::random_outages(n, 0.12, 6 * n as u64, 21).compile();
    let config = SimConfig {
        watchdog: Some(512),
        checkpoint_every: Some(8),
        ..SimConfig::default()
    };
    let router = || FaultAware::new(Dx::new(Theorem15::new(2)));
    let policy = BackoffPolicy::exponential(16, 128, 8);
    let mut sim = Sim::with_faults(&topo, router(), &pb, config, faults.clone());
    let mut sink = MemorySink::default();
    sim.run_with_protocol_checkpointed(20_000, &mut Transport::new(&pb, policy, 5), &mut sink)
        .expect("the transport delivers everything");
    let transport = sink.checkpoints.swap_remove(1).to_json();
    fuzz_checkpoint(
        "transport",
        &transport,
        protocol_slot(&transport),
        4,
        |snap| {
            let slot = snap.protocol.as_ref().ok_or("no protocol slot")?;
            let mut tp = Transport::new(&pb, policy, 5);
            tp.restore_state(slot).map_err(|e| e.to_string())?;
            let faults = Some(faults.clone());
            let mut sim =
                Sim::restore(&topo, router(), config, faults, snap).map_err(|e| e.to_string())?;
            let run = sim.run_with_protocol(20_000, &mut tp);
            run.map(drop).map_err(|e| e.to_string())
        },
    );
}

/// Rows only a reader that runs on past its first failure gets right:
/// whatever the typed read met first, a syntax error anywhere is `Parse`,
/// and a bad version anywhere in the root outranks a corrupt body.
#[test]
fn the_first_failure_does_not_decide_the_error() {
    let topo = Mesh::new(6);
    let pb = workloads::open_bernoulli(6, 0.3, 10, 3);
    let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(2)), &pb);
    for _ in 0..5 {
        sim.step();
    }
    let valid = sim.snapshot().to_json();
    let version = "\n  \"format_version\": 3,";
    let step = format!("\n  \"step\": {},", sim.steps());
    assert!(valid.contains(version) && valid.contains(&step));
    // `format_version` moved behind the body, optionally with a new value.
    let version_last = |found: &str| {
        let body = valid.replacen(version, "", 1);
        let end = body.rfind('}').unwrap();
        format!(
            "{},\n  \"format_version\": {found}\n}}\n",
            body[..end].trim_end()
        )
    };
    let future = valid.replacen(version, "\n  \"format_version\": 4,", 1);
    // Each row's text, and the outcome it must read as.
    let rows = [
        (
            "a future version, truncated",
            future[..future.len() / 2].into(),
            "Parse",
        ),
        (
            "a type error, then a syntax error",
            valid
                .replacen(&step, "\n  \"step\": \"x\",", 1)
                .replacen("]", "}", 1),
            "Parse",
        ),
        ("the version last", version_last("3"), "Ok"),
        (
            "a type error, then a future version",
            version_last("4").replacen(&step, "\n  \"step\": \"x\",", 1),
            "UnknownVersion",
        ),
        (
            "a type error, and no version",
            valid
                .replacen(version, "", 1)
                .replacen(&step, "\n  \"step\": -1,", 1),
            "Parse",
        ),
    ];
    for (i, (row, text, expected)) in rows.into_iter().enumerate() {
        let read = read_back(&scratch_file(&format!("row{i}")), text.as_bytes());
        let outcome = match &read {
            Ok(snap) => {
                assert!(snap.to_json() == valid, "{row}: loads as another snapshot");
                "Ok"
            }
            Err(SnapshotError::Parse(_)) => "Parse",
            Err(SnapshotError::UnknownVersion { found: 4, .. }) => "UnknownVersion",
            Err(e) => panic!("{row}: {e}"),
        };
        assert_eq!(outcome, expected, "{row}");
    }
}

#[test]
fn mutated_problems_route_or_are_refused_never_panic() {
    let valid = serde_json::to_string(&workloads::random_permutation(9, 1)).unwrap();
    let topo = Mesh::new(9);
    // A problem read from a file goes to the engine (on the side-9 mesh the
    // caller supplies) and to the §6 router. `Ok` is a run to its cap.
    let route = |text: &str| -> [Result<(), String>; 2] {
        let Ok(pb) = serde_json::from_str::<RoutingProblem>(text) else {
            return [Err("parse".into()), Err("parse".into())];
        };
        let theorem15 = Dx::new(Theorem15::new(2));
        let engine = Sim::try_build(&topo, theorem15, &pb, SimConfig::default(), None)
            .map(|mut sim| drop(sim.run(400)));
        let section6 = Section6Router::new().try_route(&pb).map(drop);
        [engine, section6.map_err(|e| e.to_string())]
    };
    assert_eq!(
        route(&valid),
        [Ok(()), Ok(())],
        "the unmutated problem routes"
    );
    let mut rng = 11;
    let (mut routed, mut refused) = (0, 0);
    for i in 0..MUTATIONS {
        let Some(text) = mutate_text(&valid, &mut rng) else {
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| route(&text))) {
            Ok(outcomes) => {
                for outcome in outcomes {
                    match outcome {
                        Ok(()) => routed += 1,
                        Err(_) => refused += 1,
                    }
                }
            }
            Err(_) => panic!("mutation {i} panicked; input:\n{text}"),
        }
    }
    println!("{routed} runs of mutated problems went to their cap, {refused} were refused");
    assert!(
        routed > 0 && refused > 0,
        "the loop must reach both outcomes"
    );
}

#[test]
fn mutated_fault_plans_compile_or_fail_typed_never_panic() {
    let valid = serde_json::to_string_pretty(&FaultPlan::random(6, 0.15, 36, 9)).unwrap();
    serde_json::from_str::<FaultPlan>(&valid)
        .unwrap()
        .try_compile()
        .expect("the unmutated plan compiles");
    let mut rng = 7;
    let (mut compiled, mut rejected) = (0, 0);
    for i in 0..MUTATIONS {
        let Some(text) = mutate_text(&valid, &mut rng) else {
            continue;
        };
        let outcome = catch_unwind(|| {
            serde_json::from_str::<FaultPlan>(&text)
                .map_err(|e| e.to_string())
                .and_then(|plan| plan.try_compile().map_err(|e| e.to_string()))
                .map(|faults| faults.node_stalled(3, Coord::new(1, 1)))
        });
        match outcome {
            Ok(Ok(_)) => compiled += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("mutation {i} panicked; input:\n{text}"),
        }
    }
    println!("{compiled} mutated plans compiled, {rejected} were rejected");
    assert!(
        compiled > 0 && rejected > 0,
        "the loop must reach both outcomes"
    );
}
