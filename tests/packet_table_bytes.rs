//! Byte budget of the packet table: a `Sim` built over about 160 k
//! packets, with its problem dropped, holds at most 41 bytes per packet
//! plus 128 per node — the dense table of DESIGN.md §13. The former
//! 62-byte layout fails here.
//!
//! This file holds exactly one test: the live-bytes allocator is global,
//! and a second test running on another thread would be counted too.

use mesh_routing::prelude::*;
use mesh_routing::routers::theorem15;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn packet_table_holds_41_bytes_per_packet() {
    let n = 64;
    let topo = Mesh::new(n);
    let before = LIVE.load(Ordering::Relaxed);
    let problem = workloads::open_bernoulli(n, 0.038, 1024, 1);
    let packets = problem.len();
    let sim = Sim::new(&topo, theorem15(2), &problem);
    drop(problem);
    let live = LIVE.load(Ordering::Relaxed) - before;
    let budget = 41 * packets + 128 * (n * n) as usize;
    println!(
        "{packets} packets: {live} live bytes, {:.1} per packet (budget {budget})",
        live as f64 / packets as f64
    );
    assert!(packets > 150_000, "{packets} packets");
    assert!(
        live <= budget,
        "{live} live bytes for {packets} packets over {budget}"
    );
    assert_eq!(sim.num_packets(), packets);
}
