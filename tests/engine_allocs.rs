//! Allocation-budget tripwire for the step loop: every shipped router's
//! policies run on the engine's reused scratch and on fixed arrays, so a
//! completed `Sim::run` makes a small constant number of allocations
//! (buffers growing to their high-water mark) that does not scale with the
//! mesh or the moves made. A policy that builds a `Vec` per node again
//! fails here by four orders of magnitude.
//!
//! This file holds exactly one test (see `support/alloc.rs`).

#[path = "support/alloc.rs"]
mod counting;

use counting::{allocs, Counting};
use mesh_routing::prelude::*;
use mesh_routing::routers::{alt_adaptive, dim_order, hot_potato, theorem15, BoundedDeflect};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Central queues of 8, the benchmark sweep's choice: no router wedges on
/// a random permutation, so no error diagnostic is ever built.
const K: u32 = 8;

/// `(router name, allocations and reallocations, moves)` of a completed
/// `Sim::run`.
fn run_allocs<R: Router>(mut sim: Sim<'_, Mesh, R>) -> (String, u64, u64) {
    let before = allocs();
    let outcome = sim.run(100_000);
    let made = allocs() - before;
    let report = sim.report();
    outcome.unwrap_or_else(|e| panic!("{} did not complete: {}", report.algorithm, e.kind()));
    (report.algorithm, made, report.total_moves)
}

/// Every router on `random_permutation(n, 1)`.
fn sweep(n: u32) -> Vec<(String, u64, u64)> {
    let topo = Mesh::new(n);
    let pb = workloads::random_permutation(n, 1);
    // A non-empty table: every policy call masks its descriptors and the
    // capacity guard runs. The outages lift early, so every destination
    // stays reachable on minimal paths.
    let mut plan = FaultPlan::none(n);
    for i in 0..4 {
        plan = plan.link_down(Coord::new(5 + 6 * i, 3 + 7 * i), Dir::East, 0, Some(24));
    }
    let faults = Arc::new(plan.compile());
    let faulted = Sim::with_faults(
        &topo,
        FaultAware::new(alt_adaptive(K), Arc::clone(&faults)),
        &pb,
        SimConfig::default(),
        faults.as_ref().clone(),
    );
    vec![
        run_allocs(Sim::new(&topo, dim_order(K), &pb)),
        run_allocs(Sim::new(&topo, theorem15(2), &pb)),
        run_allocs(Sim::new(&topo, Dx::new(WestFirst::new(K)), &pb)),
        run_allocs(Sim::new(&topo, hot_potato(n), &pb)),
        run_allocs(Sim::new(&topo, alt_adaptive(K), &pb)),
        run_allocs(Sim::new(&topo, FarthestFirst::new(K), &pb)),
        run_allocs(Sim::new(&topo, Dx::new(BoundedDeflect::new(n, K, 1)), &pb)),
        run_allocs(faulted),
    ]
}

/// `(allocations and reallocations, packets offered)` of an open-system
/// `run_steady` under deadline expiry, counted from after construction.
/// Theorem 15's injection queue is unbounded, so every offered packet is
/// staged and admitted within one step: its pending bucket opens and
/// drains once per packet.
fn steady_allocs() -> (u64, u64) {
    let (n, schedule) = (32, SteadyConfig::default());
    let topo = Mesh::new(n);
    let pb = workloads::open_bernoulli(n, 0.05, schedule.horizon(), 1);
    let config = SimConfig {
        admission: AdmissionPolicy::DeadlineExpiry { ttl: 128 },
        ..SimConfig::default()
    };
    let mut sim = Sim::with_config(&topo, theorem15(2), &pb, config);
    let before = allocs();
    let outcome = sim.run_steady(schedule);
    let made = allocs() - before;
    outcome.unwrap_or_else(|e| panic!("run_steady failed: {}", e.kind()));
    (made, sim.offered() as u64)
}

#[test]
fn run_allocations_do_not_scale_with_moves() {
    let (made, offered) = steady_allocs();
    println!("steady: {made} allocations / {offered} offered packets");
    assert!(
        offered >= 10_000 && made * 100 < offered,
        "staging allocates per offered packet: {made} allocations for {offered} packets"
    );
    let small = sweep(32);
    let large = sweep(64);
    for ((name, a32, m32), (_, a64, m64)) in small.iter().zip(&large) {
        println!("{name}: n=32 {a32} allocations / {m32} moves, n=64 {a64} / {m64}");
        assert!(*a32 <= 256, "{name} n=32: {a32} allocations");
        assert!(
            *a64 <= 2 * a32,
            "{name}: allocations grew with the problem ({a32} at n=32, {a64} at n=64)"
        );
    }
}
