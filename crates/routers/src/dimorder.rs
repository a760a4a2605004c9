//! Destination-exchangeable dimension-order routing (§1.1, §2).
//!
//! "A packet first travels along its row until it reaches its destination
//! column. It then moves in that column until it reaches its destination
//! row." With a central queue, FIFO outqueue arbitration, and the
//! round-robin inqueue policy, this is the paper's canonical example of a
//! destination-exchangeable algorithm (§2) and the target of the §5
//! `Ω(n²/k)` dimension-order lower bound.

use crate::common::{dim_order_dir, round_robin_accept, Axis, RoundRobin};
use mesh_engine::{DxArrivals, DxResidents, DxRouter, PackedArrival, PackedView, QueueArch};
use mesh_topo::Coord;

/// Dimension-order router on a central queue of capacity `k`.
#[derive(Clone, Debug)]
pub struct DimOrder {
    k: u32,
    first: Axis,
}

impl DimOrder {
    /// Row-first (XY) dimension order, the standard form.
    pub fn new(k: u32) -> DimOrder {
        DimOrder {
            k,
            first: Axis::Horizontal,
        }
    }

    /// Column-first (YX) dimension order.
    pub fn yx(k: u32) -> DimOrder {
        DimOrder {
            k,
            first: Axis::Vertical,
        }
    }

    /// The routing axis order.
    pub fn first_axis(&self) -> Axis {
        self.first
    }
}

impl DxRouter for DimOrder {
    type NodeState = RoundRobin;

    fn name(&self) -> String {
        let o = match self.first {
            Axis::Horizontal => "xy",
            Axis::Vertical => "yx",
        };
        format!("dim-order-{o}(k={})", self.k)
    }

    fn queue_arch(&self) -> QueueArch {
        QueueArch::Central { k: self.k }
    }

    fn outqueue(
        &self,
        _step: u64,
        _node: Coord,
        _state: &mut RoundRobin,
        pkts: &[PackedView],
        _cold: &DxResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        // For each outlink: the FIFO-oldest packet that wants it. Each
        // packet wants exactly one direction (`dim_order_dir` is a function
        // of its profitable set), so one pass tracking the minimum-pos
        // packet per direction picks the winner of every per-direction scan.
        let mut best_pos = [u32::MAX; 4];
        for (i, p) in pkts.iter().enumerate() {
            if let Some(d) = dim_order_dir(p.profitable(), self.first) {
                if p.pos() < best_pos[d.index()] {
                    best_pos[d.index()] = p.pos();
                    out[d.index()] = Some(i);
                }
            }
        }
    }

    fn inqueue(
        &self,
        _step: u64,
        _node: Coord,
        state: &mut RoundRobin,
        queue_lens: &[u32],
        arrivals: &[PackedArrival],
        _cold: &DxArrivals<'_>,
        accept: &mut [bool],
    ) {
        // Accept into the strict headroom available at the beginning of the
        // step, arbitrating competing inlinks round-robin (§2's example).
        // Central arch: every resident lives in slot 0.
        round_robin_accept(self.k, queue_lens[0], state, arrivals, accept);
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

    #[test]
    fn single_packet_goes_row_then_column() {
        let topo = Mesh::new(6);
        let pb = RoutingProblem::from_pairs(6, "one", [(Coord::new(0, 0), Coord::new(3, 2))]);
        let mut sim = Sim::new(&topo, Dx::new(DimOrder::new(2)), &pb);
        // After 3 steps the packet must be at its destination column (3, 0).
        for _ in 0..3 {
            sim.step();
        }
        assert_eq!(
            sim.loc(mesh_traffic::PacketId(0)),
            mesh_engine::Loc::At(Coord::new(3, 0))
        );
        sim.run(100).unwrap();
        assert_eq!(sim.steps(), 5);
    }

    #[test]
    fn yx_goes_column_then_row() {
        let topo = Mesh::new(6);
        let pb = RoutingProblem::from_pairs(6, "one", [(Coord::new(0, 0), Coord::new(3, 2))]);
        let mut sim = Sim::new(&topo, Dx::new(DimOrder::yx(2)), &pb);
        for _ in 0..2 {
            sim.step();
        }
        assert_eq!(
            sim.loc(mesh_traffic::PacketId(0)),
            mesh_engine::Loc::At(Coord::new(0, 2))
        );
        sim.run(100).unwrap();
        assert_eq!(sim.steps(), 5);
    }

    #[test]
    fn routes_random_permutation_with_ample_queues() {
        let topo = Mesh::new(12);
        let pb = workloads::random_permutation(12, 3);
        let mut sim = Sim::new(&topo, Dx::new(DimOrder::new(144)), &pb);
        let steps = sim.run(10_000).unwrap();
        // With unbounded queues dimension order routes any permutation in at
        // most ~2n steps (2n - 2 = 22 plus queueing slack; generous cap).
        assert!(steps <= 60, "took {steps}");
        assert!(sim.report().completed);
    }

    #[test]
    fn transpose_with_ample_queues_meets_classic_bound_loosely() {
        let n = 16;
        let topo = Mesh::new(n);
        let pb = workloads::transpose(n);
        let mut sim = Sim::new(&topo, Dx::new(DimOrder::new(n * n)), &pb);
        let steps = sim.run(100_000).unwrap();
        assert!(sim.report().completed);
        // FIFO (not farthest-first) arbitration: still finishes in O(n).
        assert!(steps <= (4 * n) as u64, "transpose took {steps}");
    }

    #[test]
    fn respects_queue_bound() {
        let n = 12;
        let topo = Mesh::new(n);
        let pb = workloads::random_partial_permutation(n, 0.5, 9);
        let mut sim = Sim::new(&topo, Dx::new(DimOrder::new(2)), &pb);
        // May or may not complete (bounded queues can deadlock); the engine
        // verifies the capacity invariant throughout either way.
        let _ = sim.run(5_000);
        assert!(sim.report().max_queue <= 2);
    }
}
