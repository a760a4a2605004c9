//! Memory budget of a checkpoint write: `Snapshot::write_to` streams the
//! text to its file through the JSON writer's fixed buffer (about 64 KiB),
//! so what one write asks the allocator for does not grow with the
//! snapshot. Rendering the whole text into a `String` first asks for
//! about twice the file's size (about 4 MB at n = 64) and fails here.
//!
//! This file holds exactly one test (see `support/alloc.rs`).

#[path = "support/alloc.rs"]
mod counting;

use counting::{requested_bytes, Counting};
use mesh_routing::prelude::*;
use mesh_routing::routers::theorem15;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(bytes requested by one write_to, the file's size)` for a Theorem 15
/// (k=2) snapshot taken halfway into a random permutation on the side-`n`
/// mesh. The file must hold exactly `to_json`'s text.
fn write_bytes(n: u32) -> (u64, usize) {
    let topo = Mesh::new(n);
    let pb = workloads::random_permutation(n, 1);
    let mut sim = Sim::new(&topo, theorem15(2), &pb);
    for _ in 0..n / 2 {
        sim.step();
    }
    let snap = sim.snapshot();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_write_bytes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("ckpt_{n}.json"));
    let before = requested_bytes();
    let written = snap.write_to(&path);
    let requested = requested_bytes() - before;
    written.unwrap_or_else(|e| panic!("n={n}: {e}"));
    let file = std::fs::read(&path).unwrap();
    assert!(
        file == snap.to_json().as_bytes(),
        "n={n}: the file is not to_json"
    );
    (requested, file.len())
}

#[test]
fn a_checkpoint_write_holds_a_fixed_buffer() {
    for n in [32, 64] {
        let (requested, size) = write_bytes(n);
        println!("n={n}: a {size}-byte checkpoint written with {requested} bytes requested");
        assert!(
            requested <= 128 * 1024,
            "n={n}: writing a {size}-byte checkpoint requested {requested} bytes"
        );
    }
}
