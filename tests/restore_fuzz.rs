//! Byte-mutation fuzz loop over the three readers that take files from
//! outside the program: `Snapshot::from_json` → `Sim::restore`, a
//! serialized `FaultPlan` → `try_compile`, and a serialized
//! `RoutingProblem` → `Sim::try_build` and `Section6Router::try_route`. A
//! seeded LCG flips, deletes and duplicates bytes of a valid file; every
//! outcome must be `Ok` (and a restored or built simulation must then run
//! without panicking) or a typed error — never a panic.

use mesh_routing::engine::{Snapshot, SnapshotError};
use mesh_routing::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTATIONS: usize = 3_000;

/// Deterministic 64-bit LCG, top bits only.
fn lcg(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

/// One or two byte edits of `text`: a bit flip, a deletion, or a
/// duplication. A result that is no longer UTF-8 cannot reach either
/// reader (both take `&str`) and is skipped by the callers.
fn mutate(text: &str, rng: &mut u64) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + lcg(rng) % 2 {
        let at = lcg(rng) % bytes.len();
        match lcg(rng) % 3 {
            0 => bytes[at] ^= 1 << (lcg(rng) % 8),
            1 => drop(bytes.remove(at)),
            _ => bytes.insert(at, bytes[at]),
        }
    }
    String::from_utf8(bytes).ok()
}

/// Restores `text` and, if it loads, steps it to completion (or a cap).
fn restore_and_run<R: Router>(topo: &Mesh, router: R, text: &str) -> Result<(), SnapshotError>
where
    R::NodeState: serde::Deserialize,
{
    let snap = Snapshot::from_json(text)?;
    let mut sim = Sim::restore(topo, router, SimConfig::default(), None, &snap)?;
    for _ in 0..400 {
        if sim.step() {
            break;
        }
    }
    sim.assert_queue_invariants();
    sim.assert_conservation();
    Ok(())
}

fn fuzz_restore<R: Router>(mk: impl Fn() -> R, seed: u64)
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
    restore_and_run(&topo, mk(), &valid).expect("the unmutated file restores and runs");
    let mut rng = seed;
    let (mut loaded, mut rejected) = (0, 0);
    for i in 0..MUTATIONS {
        let Some(text) = mutate(&valid, &mut rng) else {
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| restore_and_run(&topo, mk(), &text))) {
            Ok(Ok(())) => loaded += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("mutation {i} (seed {seed}) panicked; input:\n{text}"),
        }
    }
    println!("{loaded} mutated snapshots loaded and ran, {rejected} were rejected");
    assert!(
        loaded > 0 && rejected > 0,
        "the loop must reach both outcomes"
    );
}

#[test]
fn mutated_snapshots_restore_or_fail_typed_never_panic() {
    fuzz_restore(|| Dx::new(DimOrder::new(2)), 1);
    fuzz_restore(|| Dx::new(Theorem15::new(2)), 2);
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
        let Some(text) = mutate(&valid, &mut rng) else {
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
        let Some(text) = mutate(&valid, &mut rng) else {
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
