//! Allocation-budget tripwire for the checkpoint encoding: a snapshot is
//! written and read by streaming its columns through the JSON writer and
//! lexer, never through a `serde::Value` tree, so the allocations of one
//! `to_json` + `from_json` round are the output `String` and each column's
//! growth, a count that does not scale with the packets or nodes held. A
//! tree per snapshot fails here by two orders of magnitude.
//!
//! This file holds exactly one test (see `support/alloc.rs`).

#[path = "support/alloc.rs"]
mod counting;

use counting::{allocs, Counting};
use mesh_routing::engine::Snapshot;
use mesh_routing::prelude::*;
use mesh_routing::routers::theorem15;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations and reallocations of to_json + from_json, those of the
/// syntax pass alone)` on a Theorem 15 (k=2) snapshot taken halfway into a
/// random permutation on the side-`n` mesh.
fn round_trip_allocs(n: u32) -> (u64, u64) {
    let topo = Mesh::new(n);
    let pb = workloads::random_permutation(n, 1);
    let mut sim = Sim::new(&topo, theorem15(2), &pb);
    for _ in 0..n / 2 {
        sim.step();
    }
    let snap = sim.snapshot();
    let before = allocs();
    let text = snap.to_json();
    let back = Snapshot::from_json(&text);
    let made = allocs() - before;
    let back = back.unwrap_or_else(|e| panic!("n={n}: {e}"));
    assert!(
        back.to_json() == text,
        "n={n}: the snapshot does not round-trip"
    );
    let before = allocs();
    serde_json::from_str::<serde::IgnoredAny>(&text).expect("the text parses");
    (made, allocs() - before)
}

#[test]
fn snapshot_encoding_allocations_do_not_scale_with_the_mesh() {
    let (a32, syntax32) = round_trip_allocs(32);
    let (a64, syntax64) = round_trip_allocs(64);
    println!("to_json + from_json: n=32 {a32} allocations, n=64 {a64}");
    assert!(a32 <= 512, "n=32: {a32} allocations");
    assert!(
        a64 <= 2 * a32,
        "allocations grew with the snapshot ({a32} at n=32, {a64} at n=64)"
    );
    assert_eq!((syntax32, syntax64), (0, 0), "the syntax pass allocates");
}
