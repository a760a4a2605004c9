//! Problem generators shared by the property batteries (`mod support;`).
//! Each battery's generated cases are a function of these two strategies,
//! so they are stated once: a change here changes every battery alike.
#![allow(dead_code)] // not every battery draws from both

use mesh_routing::prelude::*;
use proptest::prelude::*;

/// An arbitrary partial permutation on a side-`n` grid: a random subset of
/// sources matched to a random subset of destinations.
pub fn partial_permutation(n: u32) -> impl Strategy<Value = RoutingProblem> {
    let cells = (n * n) as usize;
    (
        proptest::collection::vec(0..cells as u32, 1..cells.min(64)),
        proptest::collection::vec(0..cells as u32, 1..cells.min(64)),
    )
        .prop_map(move |(mut srcs, mut dsts)| {
            srcs.sort_unstable();
            srcs.dedup();
            dsts.sort_unstable();
            dsts.dedup();
            let m = srcs.len().min(dsts.len());
            let pairs = srcs[..m]
                .iter()
                .zip(&dsts[..m])
                .map(|(&s, &d)| (Coord::new(s % n, s / n), Coord::new(d % n, d / n)));
            RoutingProblem::from_pairs(n, "prop", pairs)
        })
}

/// Static partial permutations or dynamic Bernoulli arrivals. (The
/// vendored proptest shim has no `prop_oneof`; select by index.)
pub fn workload(n: u32) -> impl Strategy<Value = RoutingProblem> {
    (0u32..2, partial_permutation(n), (1u64..=50, 0u64..5_000)).prop_map(
        move |(which, pp, (rate_permille, seed))| {
            if which == 0 {
                pp
            } else {
                workloads::dynamic_bernoulli(n, rate_permille as f64 / 1000.0, 4 * n as u64, seed)
            }
        },
    )
}
