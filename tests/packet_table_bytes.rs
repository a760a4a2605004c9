//! Byte budget of the packet table: a `Sim` built over about 160 k
//! packets, with its problem dropped, holds at most 41 bytes per packet
//! plus 128 per node — the dense table of DESIGN.md §13. The former
//! 62-byte layout fails here.
//!
//! This file holds exactly one test (see `support/alloc.rs`).

#[path = "support/alloc.rs"]
mod counting;

use counting::{live_bytes, Counting};
use mesh_routing::prelude::*;
use mesh_routing::routers::theorem15;

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn packet_table_holds_41_bytes_per_packet() {
    let n = 64;
    let topo = Mesh::new(n);
    let before = live_bytes();
    let problem = workloads::open_bernoulli(n, 0.038, 1024, 1);
    let packets = problem.len();
    let sim = Sim::new(&topo, theorem15(2), &problem);
    drop(problem);
    let live = live_bytes() - before;
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
