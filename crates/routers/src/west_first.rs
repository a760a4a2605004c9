//! West-first turn-model routing: a minimal adaptive router in the spirit
//! of the planar-adaptive/turn-model family the paper cites in §2 as
//! implementable destination-exchangeable algorithms (Chien–Kim \[6\],
//! Cypher–Gravano \[7\]).
//!
//! Rule: if the packet needs to move west at all, it moves **fully west
//! first** (no adaptivity — westward packets turn only after finishing the
//! west leg). Packets with no westward component route fully adaptively
//! among their profitable {east, north, south} directions. On minimal paths
//! this is precisely the classic *west-first* turn restriction, and every
//! decision depends only on the profitable-outlink set — destination-
//! exchangeable by construction.
//!
//! Like the other central-queue routers here it uses conservative
//! acceptance, so it is subject to the same Theorem 14 lower bound (and the
//! same practical stalls) — it exists to show the bound's universality
//! across the §2-cited adaptive family.

use crate::common::{round_robin_accept, RoundRobin};
use mesh_engine::{DxArrivals, DxResidents, DxRouter, PackedArrival, PackedView, QueueArch};
use mesh_topo::{Coord, Dir, DirSet, ALL_DIRS};

/// West-first minimal adaptive router on a central queue of capacity `k`.
#[derive(Clone, Debug)]
pub struct WestFirst {
    k: u32,
}

impl WestFirst {
    /// Creates the router with central queues of capacity `k`.
    pub fn new(k: u32) -> WestFirst {
        WestFirst { k }
    }
}

/// The west-first turn restriction as a mask: while a west leg remains,
/// only West is permitted; otherwise the packet is fully adaptive over its
/// profitable set.
fn allowed_mask(profitable: DirSet) -> DirSet {
    if profitable.contains(Dir::West) {
        DirSet::single(Dir::West)
    } else {
        profitable
    }
}

impl DxRouter for WestFirst {
    type NodeState = RoundRobin;

    fn name(&self) -> String {
        format!("west-first(k={})", self.k)
    }

    fn queue_arch(&self) -> QueueArch {
        QueueArch::Central { k: self.k }
    }

    fn outqueue(
        &self,
        step: u64,
        _node: Coord,
        _state: &mut RoundRobin,
        pkts: &[PackedView],
        _cold: &DxResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        // FIFO order: on the Central arch packets live in one queue and are
        // offered in queue order, so pos *is* the index.
        for (i, p) in pkts.iter().enumerate() {
            debug_assert_eq!(p.pos() as usize, i, "central queue offers in pos order");
            let mask = allowed_mask(p.profitable());
            let mut opts = [Dir::North; 4];
            let mut cnt = 0;
            for d in ALL_DIRS {
                if mask.contains(d) {
                    opts[cnt] = d;
                    cnt += 1;
                }
            }
            if cnt == 0 {
                continue;
            }
            // Adaptive packets rotate their first choice by step parity so
            // contention spreads over the allowed directions.
            let start = (step as usize) % cnt;
            for off in 0..cnt {
                let d = opts[(start + off) % cnt];
                if out[d.index()].is_none() {
                    out[d.index()] = Some(i);
                    break;
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
        round_robin_accept(self.k, queue_lens[0], state, arrivals, accept);
    }

    fn uses_end_of_step(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_engine::{Dx, Loc, Sim};
    use mesh_topo::Mesh;
    use mesh_traffic::{workloads, PacketId, RoutingProblem};

    #[test]
    fn west_leg_comes_first() {
        // Needs west and north: only west allowed.
        let both = DirSet::from_dirs([Dir::West, Dir::North]);
        assert_eq!(allowed_mask(both), DirSet::single(Dir::West));
        // Needs east and north: both allowed (adaptive), in canonical order.
        let both = DirSet::from_dirs([Dir::East, Dir::North]);
        assert_eq!(allowed_mask(both), both);
        assert_eq!(
            allowed_mask(both).iter().collect::<Vec<_>>(),
            vec![Dir::North, Dir::East]
        );
    }

    #[test]
    fn westbound_packet_routes_west_then_turns() {
        let topo = Mesh::new(8);
        let pb = RoutingProblem::from_pairs(8, "wf", [(Coord::new(6, 1), Coord::new(2, 5))]);
        let mut sim = Sim::new(&topo, Dx::new(WestFirst::new(2)), &pb);
        for _ in 0..4 {
            sim.step();
        }
        // After 4 steps the west leg (4 hops) must be complete.
        assert_eq!(sim.loc(PacketId(0)), Loc::At(Coord::new(2, 1)));
        let steps = sim.run(100).unwrap();
        assert_eq!(steps, 8, "minimal path overall");
    }

    #[test]
    fn routes_permutations_with_ample_queues() {
        let topo = Mesh::new(12);
        for seed in 0..3 {
            let pb = workloads::random_permutation(12, seed);
            let mut sim = Sim::new(&topo, Dx::new(WestFirst::new(144)), &pb);
            let steps = sim.run(10_000).unwrap();
            assert!(sim.report().completed);
            assert!(steps <= 100, "seed {seed}: {steps}");
            assert_eq!(sim.report().total_moves, pb.total_work());
        }
    }
}
