//! Byte budget of the step loop's scratch: what a completed run of a
//! random permutation holds beyond its construction is at most 20 bytes
//! per packet plus 12 per node. Each buffer is reserved once to its bound
//! (DESIGN.md §13): a 16-byte offer and a 4-byte chain link per packet
//! that can move, a route-snapshot entry and a chain head per node, and a
//! few hundred bytes of per-node scratch. The queue slab is sized by `k`
//! at construction and never grows for a bounded slot: transmit departs
//! every packet before any arrives (DESIGN.md §14).
//!
//! Theorem 15 holds the offer record's size: a 24-byte offer and a
//! separate accept flag grown by doubling hold about 55 bytes per packet
//! at n = 48 and fail here. Hot potato (k = 1 per inlink) holds the
//! transmit order: an arrival queued beside the resident it replaces
//! grows the slab, cell by cell, and fails here.
//!
//! This file holds exactly one test (see `support/alloc.rs`).

#[path = "support/alloc.rs"]
mod counting;

use counting::{live_bytes, Counting};
use mesh_routing::prelude::*;
use mesh_routing::routers::{hot_potato, theorem15};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes a completed run of `sim` adds over its construction.
fn added_by_run<R: Router>(name: &str, mut sim: Sim<'_, Mesh, R>) -> usize {
    let before = live_bytes();
    let outcome = sim.run(100_000);
    let added = live_bytes() - before;
    outcome.unwrap_or_else(|e| panic!("{name}: the run did not complete: {}", e.kind()));
    added
}

#[test]
fn step_buffers_hold_their_bound() {
    let n = 48;
    let topo = Mesh::new(n);
    let problem = workloads::random_permutation(n, 1);
    let (packets, nodes) = (problem.len(), (n * n) as usize);
    for (name, added) in [
        (
            "theorem15",
            added_by_run("theorem15", Sim::new(&topo, theorem15(2), &problem)),
        ),
        (
            "hot-potato",
            added_by_run("hot-potato", Sim::new(&topo, hot_potato(n), &problem)),
        ),
    ] {
        println!(
            "{name}: {packets} packets, {nodes} nodes: {added} bytes added by the run, {:.1} per packet",
            added as f64 / packets as f64
        );
        let budget = 20 * packets + 12 * nodes;
        assert!(
            added <= budget,
            "{name}: the run added {added} bytes over its construction, budget {budget}"
        );
    }
}
