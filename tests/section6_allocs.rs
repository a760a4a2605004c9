//! Allocation-budget tripwire for the §6 engine: `Section6Router::route`
//! sizes its state and scratch once per problem, so its allocation count is
//! a small constant that does not grow with the mesh or the moves made.
//!
//! This file holds exactly one test (see `support/alloc.rs`).

#[path = "support/alloc.rs"]
mod counting;

use counting::{allocs, Counting};
use mesh_routing::prelude::*;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made by one `route` call.
fn route_allocs(n: u32) -> u64 {
    let pb = workloads::random_permutation(n, 1);
    let router = Section6Router::new();
    let before = allocs();
    let report = router.route(&pb);
    let made = allocs() - before;
    assert_eq!(report.delivered, pb.len());
    made
}

#[test]
fn route_allocations_do_not_scale_with_moves() {
    let small = route_allocs(81);
    let large = route_allocs(243);
    assert!(small <= 256, "n=81: {small} allocations");
    assert!(large <= 1_000, "n=243: {large} allocations");
    assert!(
        large <= 2 * small,
        "allocations grew with the problem: {small} at n=81, {large} at n=243"
    );
    println!("section6 route allocations: n=81 {small}, n=243 {large}");
}
