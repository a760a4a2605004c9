//! The Theorem 15 router: destination-exchangeable dimension order in
//! `O(n²/k + n)` time with four inlink queues of size `k`.
//!
//! From the proof of Theorem 15:
//!
//! * four incoming queues per node (North, South, East, West), each size `k`;
//! * outqueue policy: "packets trying to go straight have priority,
//!   resolving ties using FIFO";
//! * inqueue policy of North and South queues: always accept (their head
//!   packet goes straight, wins its outlink, and its target always accepts —
//!   so they eject every step they are nonempty and never exceed occupancy 1);
//! * inqueue policy of East and West queues: accept iff fewer than `k`
//!   packets at the beginning of the step.
//!
//! The paper does not specify where a node's *originating* packet waits; we
//! give each node an injection queue whose packets have the lowest outqueue
//! priority (below straight traffic, above nothing — they compete with
//! turning packets at the same rank, ties to the turner). This only delays
//! the algorithm, so the `O(n²/k + n)` upper bound claim is still the thing
//! being tested.

use crate::common::{dim_order_dir, Axis};
use mesh_engine::{DxArrivals, DxResidents, DxRouter, PackedArrival, PackedView, QueueArch};
use mesh_topo::{Coord, Dir};

/// The Theorem 15 bounded-queue dimension-order router.
#[derive(Clone, Debug)]
pub struct Theorem15 {
    k: u32,
}

impl Theorem15 {
    /// Creates the router with inlink queues of capacity `k`.
    pub fn new(k: u32) -> Theorem15 {
        Theorem15 { k }
    }
}

/// Outqueue priority class (lower wins) from a packed slot index: under
/// the PerInlink arch, slots `0..4` are the inlink queues (by `Dir` index)
/// and slot 4 is injection.
fn class(slot: usize, d: Dir) -> u8 {
    if slot == d.opposite().index() {
        0 // straight: continuing the direction of travel that brought it here
    } else if slot == 4 {
        1 // injection
    } else {
        2 // turning
    }
}

impl DxRouter for Theorem15 {
    type NodeState = ();

    fn name(&self) -> String {
        format!("theorem15(k={})", self.k)
    }

    fn queue_arch(&self) -> QueueArch {
        QueueArch::PerInlink { k: self.k }
    }

    fn outqueue(
        &self,
        _step: u64,
        _node: Coord,
        _state: &mut (),
        pkts: &[PackedView],
        _cold: &DxResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        // Each packet wants exactly one direction, so one pass tracking the
        // best (class, pos) key per direction — strict comparison,
        // first-seen wins ties — picks the winner of every per-direction
        // scan.
        let mut best = [(u8::MAX, u32::MAX); 4]; // (class, pos)
        for (i, p) in pkts.iter().enumerate() {
            let Some(d) = dim_order_dir(p.profitable(), Axis::Horizontal) else {
                continue;
            };
            let c = class(p.slot(), d);
            let (bc, bp) = best[d.index()];
            if c < bc || (c == bc && p.pos() < bp) {
                best[d.index()] = (c, p.pos());
                out[d.index()] = Some(i);
            }
        }
    }

    fn inqueue(
        &self,
        _step: u64,
        _node: Coord,
        _state: &mut (),
        queue_lens: &[u32],
        arrivals: &[PackedArrival],
        _cold: &DxArrivals<'_>,
        accept: &mut [bool],
    ) {
        for (i, a) in arrivals.iter().enumerate() {
            let t = a.travel();
            // North/South queues always accept; East/West accept iff
            // strictly under k at the beginning of the step.
            accept[i] = t.is_vertical() || queue_lens[t.opposite().index()] < self.k;
        }
    }

    fn uses_end_of_step(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_engine::{Dx, Sim};
    use mesh_topo::Mesh;
    use mesh_traffic::{workloads, RoutingProblem};

    fn run(n: u32, k: u32, pb: &RoutingProblem, cap: u64) -> mesh_engine::SimReport {
        let topo = Mesh::new(n);
        let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(k)), pb);
        sim.run(cap).expect("theorem15 must always deliver");
        sim.report()
    }

    #[test]
    fn delivers_random_permutations_for_every_k() {
        for n in [8u32, 16] {
            for k in [1u32, 2, 4] {
                for seed in 0..3 {
                    let pb = workloads::random_permutation(n, seed);
                    let r = run(n, k, &pb, 200_000);
                    assert!(r.completed, "n={n} k={k} seed={seed}");
                    assert!(r.max_queue <= k);
                }
            }
        }
    }

    #[test]
    fn delivers_transpose_and_bit_reversal() {
        for k in [1u32, 2, 4] {
            assert!(run(16, k, &workloads::transpose(16), 200_000).completed);
            assert!(run(16, k, &workloads::bit_reversal(16), 200_000).completed);
        }
    }

    #[test]
    fn vertical_queues_never_exceed_one() {
        // The Theorem 15 induction: N/S queues eject whenever nonempty, so
        // their occupancy never exceeds 1. We verify through the aggregate:
        // run with k = 1 — if a vertical queue ever needed 2 slots, the
        // engine's capacity check would panic (N/S queues always accept).
        let pb = workloads::random_permutation(16, 9);
        let r = run(16, 1, &pb, 500_000);
        assert!(r.completed);
        assert!(r.max_queue <= 1);
    }

    #[test]
    fn time_scales_as_n_squared_over_k_upper_bound() {
        // Theorem 15: O(n²/k + n). Check a generous constant on several
        // workloads: steps <= C * (n²/k + n) with C = 6.
        for (n, k) in [(16u32, 1u32), (16, 2), (16, 4), (24, 2)] {
            let pb = workloads::transpose(n);
            let r = run(n, k, &pb, 1_000_000);
            let bound = 6 * ((n * n / k) + n) as u64;
            assert!(r.steps <= bound, "n={n} k={k}: {} > {bound}", r.steps);
        }
    }

    #[test]
    fn single_packet_minimal_time() {
        let pb = RoutingProblem::from_pairs(
            8,
            "one",
            [(mesh_topo::Coord::new(1, 1), mesh_topo::Coord::new(6, 6))],
        );
        let r = run(8, 1, &pb, 100);
        assert_eq!(r.steps, 10);
    }
}
