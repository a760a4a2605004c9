//! Memory budget of a checkpoint read: `Snapshot::read_from` streams the
//! file through the JSON reader's fixed buffer (64 KiB), so one read asks
//! the allocator for what `Snapshot::from_json` asks for on the same text,
//! the snapshot itself, plus about that buffer. Reading the whole text into
//! a `String` first asks for the file's length on top (about 1.2 MB at
//! n = 64) and fails here.
//!
//! This file holds exactly one test (see `support/alloc.rs`).

#[path = "support/alloc.rs"]
mod counting;

use counting::{requested_bytes, Counting};
use mesh_routing::engine::Snapshot;
use mesh_routing::prelude::*;
use mesh_routing::routers::theorem15;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(bytes requested by one read_from, by from_json of the same text, the
/// file's size)` for a Theorem 15 (k=2) checkpoint taken halfway into a
/// random permutation on the side-`n` mesh. Both reads must give back the
/// snapshot written.
fn read_bytes(n: u32) -> (u64, u64, usize) {
    let topo = Mesh::new(n);
    let pb = workloads::random_permutation(n, 1);
    let mut sim = Sim::new(&topo, theorem15(2), &pb);
    for _ in 0..n / 2 {
        sim.step();
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_read_bytes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("ckpt_{n}.json"));
    sim.snapshot().write_to(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    let before = requested_bytes();
    let parsed = Snapshot::from_json(&text);
    let from_json = requested_bytes() - before;
    let parsed = parsed.unwrap_or_else(|e| panic!("n={n}: {e}"));
    drop(parsed);

    let before = requested_bytes();
    let read = Snapshot::read_from(&path);
    let read_from = requested_bytes() - before;
    let read = read.unwrap_or_else(|e| panic!("n={n}: {e}"));
    assert!(read.to_json() == text, "n={n}: read_from is not the file");
    (read_from, from_json, text.len())
}

#[test]
fn a_checkpoint_read_holds_a_fixed_buffer() {
    for n in [32, 64] {
        let (read_from, from_json, size) = read_bytes(n);
        println!(
            "n={n}: a {size}-byte checkpoint read with {read_from} bytes requested \
             ({from_json} by from_json of its text)"
        );
        assert!(
            read_from <= from_json + 128 * 1024,
            "n={n}: reading a {size}-byte checkpoint requested {read_from} bytes, \
             from_json {from_json}"
        );
    }
}
