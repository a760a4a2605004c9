//! The §2 minimal-adaptive example router.
//!
//! "An adaptive example might be similar, except that each packet moves in
//! one profitable direction until it is blocked by congestion, and then
//! moves in its other profitable direction, continuing this alternation
//! until it reaches its destination."
//!
//! The packet's preferred axis lives in bit 0 of its state word; the rest of
//! the word caches the packet's position at the end of the previous step so
//! the end-of-step update can tell "moved" from "blocked" (a node may use its
//! own identity in state updates — doing so never lets a policy distinguish
//! exchanged packets, which is all destination-exchangeability requires).

use crate::common::{round_robin_accept, Axis, RoundRobin};
use mesh_engine::{DxArrivals, DxResidents, DxRouter, PackedArrival, PackedView, QueueArch};
use mesh_topo::{Coord, Dir, DirSet};

/// Alternating minimal-adaptive router on a central queue of capacity `k`.
#[derive(Clone, Debug)]
pub struct AltAdaptive {
    k: u32,
}

impl AltAdaptive {
    /// Creates the router with central queues of capacity `k`.
    pub fn new(k: u32) -> AltAdaptive {
        AltAdaptive { k }
    }
}

fn preferred_axis(state: u64) -> Axis {
    if state & 1 == 0 {
        Axis::Horizontal
    } else {
        Axis::Vertical
    }
}

fn position_key(node: Coord) -> u64 {
    // Shifted so that the key is never 0 (0 = "no position recorded yet").
    (((node.y as u64) << 24 | node.x as u64) + 1) << 1
}

/// The direction a packet wants: its preferred axis if profitable there,
/// otherwise the other axis. The state word only matters to a packet with a
/// profitable direction on both axes, so it is fetched only for those.
fn desired_dir(profitable: DirSet, state: impl FnOnce() -> u64) -> Option<Dir> {
    let h = Axis::Horizontal.profitable_dir(profitable);
    let v = Axis::Vertical.profitable_dir(profitable);
    match (h, v) {
        (Some(_), Some(_)) => match preferred_axis(state()) {
            Axis::Horizontal => h,
            Axis::Vertical => v,
        },
        _ => h.or(v),
    }
}

impl DxRouter for AltAdaptive {
    type NodeState = RoundRobin;

    fn name(&self) -> String {
        format!("alt-adaptive(k={})", self.k)
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
        cold: &DxResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        // For each outlink: the FIFO-oldest packet that wants it. A packet
        // wants exactly one direction, so one pass suffices.
        let mut best_pos = [u32::MAX; 4];
        for (i, p) in pkts.iter().enumerate() {
            if let Some(d) = desired_dir(p.profitable(), || cold.state(i)) {
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
        round_robin_accept(self.k, queue_lens[0], state, arrivals, accept);
    }

    fn end_of_step(
        &self,
        _step: u64,
        node: Coord,
        _state: &mut RoundRobin,
        pkts: &[PackedView],
        cold: &DxResidents<'_>,
        states: &mut [u64],
    ) {
        let here = position_key(node);
        for (i, (p, s)) in pkts.iter().zip(states.iter_mut()).enumerate() {
            // A fresh packet (state 0) is "at its source": the model lets the
            // initial packet state encode the source address (§2).
            let was = if *s == 0 {
                position_key(cold.src(i))
            } else {
                *s & !1
            };
            // Same node as last step with somewhere profitable to go: the
            // packet was blocked — alternate its preferred axis.
            let blocked = was == here && !p.profitable().is_empty();
            *s = here | ((*s & 1) ^ blocked as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_engine::{Dx, Loc, Sim};
    use mesh_topo::Mesh;
    use mesh_traffic::{workloads, PacketId, RoutingProblem};

    #[test]
    fn desired_dir_prefers_state_axis() {
        let both = DirSet::from_dirs([Dir::East, Dir::North]);
        for (state, want) in [(0, Dir::East), (1, Dir::North)] {
            assert_eq!(desired_dir(both, || state), Some(want));
        }
        // One profitable axis: the state word is neither needed nor read.
        let north = DirSet::single(Dir::North);
        assert_eq!(desired_dir(north, || unreachable!()), Some(Dir::North));
    }

    #[test]
    fn lone_packet_follows_minimal_path() {
        let topo = Mesh::new(8);
        let pb = RoutingProblem::from_pairs(8, "one", [(Coord::new(1, 1), Coord::new(6, 5))]);
        let mut sim = Sim::new(&topo, Dx::new(AltAdaptive::new(2)), &pb);
        let steps = sim.run(100).unwrap();
        assert_eq!(steps, 9); // manhattan distance: minimal despite adaptivity
    }

    #[test]
    fn blocked_packet_switches_axis() {
        // Packet A occupies (1,0) (its destination is far east so it stays
        // put only if blocked — instead park a packet that never moves by
        // giving it k=1 and a blocker...). Simpler: two packets, one heading
        // east into a node the other occupies; k=1 forces a block and the
        // blocked packet should then move north instead.
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_pairs(
            4,
            "block",
            [
                (Coord::new(1, 0), Coord::new(3, 0)), // slow packet ahead
                (Coord::new(0, 0), Coord::new(2, 1)), // wants east, will divert north
            ],
        );
        let mut sim = Sim::new(&topo, Dx::new(AltAdaptive::new(1)), &pb);
        // Step 1: packet 0 moves to (2,0). Packet 1 wants east into (1,0),
        // but with k = 1 the conservative inqueue policy rejects it ((1,0)
        // was full at the beginning of the step), so packet 1 is blocked and
        // flips its preferred axis to vertical.
        sim.step();
        assert_eq!(sim.loc(PacketId(1)), Loc::At(Coord::new(0, 0)));
        // Step 2: packet 1 moves north instead (adaptive diversion).
        sim.step();
        assert_eq!(sim.loc(PacketId(1)), Loc::At(Coord::new(0, 1)));
        // Both packets are delivered on minimal paths: moves == total work.
        let steps = sim.run(20).unwrap();
        assert!(steps <= 6, "took {steps}");
        assert_eq!(sim.report().total_moves, 2 + 3);
    }

    #[test]
    fn routes_random_permutation_with_ample_queues() {
        let topo = Mesh::new(10);
        let pb = workloads::random_permutation(10, 5);
        let mut sim = Sim::new(&topo, Dx::new(AltAdaptive::new(100)), &pb);
        let steps = sim.run(10_000).unwrap();
        assert!(sim.report().completed);
        assert!(steps <= 60, "took {steps}");
    }

    #[test]
    fn minimality_holds_on_hotspot() {
        let topo = Mesh::new(12);
        let pb = workloads::hotspot(12, 3, 2);
        let mut sim = Sim::new(&topo, Dx::new(AltAdaptive::new(4)), &pb);
        let _ = sim.run(2_000);
        // The engine panics on any non-minimal move; completing (or even
        // just running) without panic certifies minimality. Total moves of
        // delivered packets equals total work when all delivered.
        if sim.report().completed {
            assert_eq!(sim.report().total_moves, pb.total_work());
        }
    }
}
