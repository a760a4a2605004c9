//! Allocation-budget tripwire for the §6 engine: `Section6Router::route`
//! sizes its state and scratch once per problem, so its allocation count is
//! a small constant that does not grow with the mesh or the moves made.
//!
//! This file holds exactly one test: the counting allocator is global, and
//! a second test running on another thread would be counted too.

use mesh_routing::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made by one `route` call.
fn route_allocs(n: u32) -> u64 {
    let pb = workloads::random_permutation(n, 1);
    let router = Section6Router::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = router.route(&pb);
    let made = ALLOCS.load(Ordering::Relaxed) - before;
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
