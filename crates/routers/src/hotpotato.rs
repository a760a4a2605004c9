//! Hot-potato (deflection) routing: the nonminimal destination-exchangeable
//! family discussed in §5 of the paper.
//!
//! §5 ("Nonminimal extensions"): the `O(n^{3/2})` hot-potato algorithm of
//! Bar-Noy et al. *is* destination-exchangeable, so the paper's Theorem 14
//! restriction to minimal routing "cannot be eliminated entirely" — the
//! technique only yields `Ω(n²/(δ+1)³k²)` for algorithms that stay within
//! `δ` of the shortest-path rectangle, and unbounded-deflection routers
//! escape it.
//!
//! This router is a standard greedy deflection scheme (in the spirit of the
//! hot-potato literature the paper cites [1, 5, 8, 9, 12, 22], not a
//! faithful Bar-Noy implementation): every packet received in the previous
//! step **must** leave this step. Each node assigns packets to outlinks in
//! priority order (older packets first, age carried in the packet state
//! word), giving each packet a profitable outlink when one is free and
//! *deflecting* it on any free outlink otherwise. A node's own packet is
//! injected when a suitable outlink remains free. Buffering is one packet
//! per inlink, so queues never exceed one — the extreme of bounded-queue
//! routing, at the price of nonminimal paths.

use crate::common::mesh_link_exists;
use mesh_engine::{
    DxArrivals, DxResidents, DxRouter, PackedArrival, PackedView, QueueArch, QueueKind,
};
use mesh_topo::{Coord, Dir, ALL_DIRS};

/// Greedy deflection router (queues: one slot per inlink).
///
/// Knows the grid side `n` — static machine configuration every physical
/// router has; it carries no destination information, so
/// destination-exchangeability is unaffected.
#[derive(Clone, Debug)]
pub struct HotPotato {
    n: u32,
}

impl HotPotato {
    /// Creates the router for a side-`n` grid.
    pub fn new(n: u32) -> HotPotato {
        HotPotato { n }
    }
}

impl DxRouter for HotPotato {
    type NodeState = ();

    fn name(&self) -> String {
        "hot-potato".into()
    }

    fn queue_arch(&self) -> QueueArch {
        QueueArch::PerInlink { k: 1 }
    }

    fn is_minimal(&self) -> bool {
        false
    }

    fn outqueue(
        &self,
        _step: u64,
        node: Coord,
        _state: &mut (),
        pkts: &[PackedView],
        cold: &DxResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        // Transit packets (inlink buffers: PerInlink slots `0..4`, by `Dir`
        // index) MUST leave. One buffer slot per inlink bounds them at
        // four, so the whole policy runs on arrays.
        let mut transit = [0usize; 4];
        let mut nt = 0;
        let mut own = None;
        for (i, p) in pkts.iter().enumerate() {
            if p.slot() != QueueKind::Injection.slot() {
                assert!(nt < 4, "hot-potato: more transit packets than inlinks");
                transit[nt] = i;
                nt += 1;
            } else if own.is_none() {
                own = Some(i);
            }
        }
        // Order them oldest first (ties: lower id — all destination-blind).
        // A lone transit packet needs no key, so its state is never read.
        if nt > 1 {
            let mut ages = [0u64; 4];
            for (a, &i) in ages.iter_mut().zip(&transit[..nt]) {
                *a = cold.state(i);
            }
            for hi in 1..nt {
                let mut j = hi;
                while j > 0
                    && (ages[j] > ages[j - 1]
                        || (ages[j] == ages[j - 1]
                            && cold.id(transit[j]) < cold.id(transit[j - 1])))
                {
                    ages.swap(j, j - 1);
                    transit.swap(j, j - 1);
                    j -= 1;
                }
            }
        }

        let mut used = [false; 4];
        let mut pending = [0usize; 4];
        let mut np = 0;
        for &i in &transit[..nt] {
            match pkts[i].profitable().iter().find(|d| !used[d.index()]) {
                Some(d) => {
                    used[d.index()] = true;
                    out[d.index()] = Some(i);
                }
                None => {
                    pending[np] = i;
                    np += 1;
                }
            }
        }
        // Deflect the rest onto any free existing outlink. Every direction a
        // packet arrived from has a link back (its opposite side's link), so
        // a valid assignment always exists (in-degree = out-degree).
        for &i in &pending[..np] {
            let back = Dir::from_index(pkts[i].slot()); // link toward that neighbor exists
            let d = ALL_DIRS
                .into_iter()
                .find(|&d| !used[d.index()] && (d == back || mesh_link_exists(self.n, node, d)))
                .unwrap_or(back);
            assert!(!used[d.index()], "deflection assignment failed");
            used[d.index()] = true;
            out[d.index()] = Some(i);
        }

        // Inject the node's own packet if a profitable outlink is free.
        if let Some(i) = own {
            if let Some(d) = pkts[i].profitable().iter().find(|d| !used[d.index()]) {
                out[d.index()] = Some(i);
            }
        }
    }

    fn inqueue(
        &self,
        _step: u64,
        _node: Coord,
        _state: &mut (),
        _queue_lens: &[u32],
        _arrivals: &[PackedArrival],
        _cold: &DxArrivals<'_>,
        accept: &mut [bool],
    ) {
        // Hot potato: always accept — every buffered packet leaves each
        // step, so each one-slot inlink buffer is free again.
        accept.fill(true);
    }

    fn end_of_step(
        &self,
        _step: u64,
        _node: Coord,
        _state: &mut (),
        _pkts: &[PackedView],
        _cold: &DxResidents<'_>,
        states: &mut [u64],
    ) {
        // Age every packet still in the network (deflection priority).
        for s in states.iter_mut() {
            *s += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_engine::{Dx, Sim};
    use mesh_topo::{Mesh, Topology};
    use mesh_traffic::{workloads, RoutingProblem};

    #[test]
    fn lone_packet_is_fast() {
        let topo = Mesh::new(8);
        let pb = RoutingProblem::from_pairs(8, "one", [(Coord::new(0, 0), Coord::new(5, 4))]);
        let mut sim = Sim::new(&topo, Dx::new(HotPotato::new(topo.side())), &pb);
        let steps = sim.run(100).unwrap();
        assert_eq!(steps, 9, "no contention → minimal path");
    }

    #[test]
    fn routes_random_permutations() {
        for n in [8u32, 16] {
            let topo = Mesh::new(n);
            for seed in 0..3 {
                let pb = workloads::random_permutation(n, seed);
                let mut sim = Sim::new(&topo, Dx::new(HotPotato::new(topo.side())), &pb);
                let steps = sim.run(10_000).unwrap_or_else(|e| {
                    // `e` carries the full diagnostic snapshot (stuck packet
                    // ids, locations, destinations, occupancy) in its Display.
                    panic!("n={n} seed={seed} failed as {}: {e}", e.kind())
                });
                let r = sim.report();
                assert!(r.completed);
                assert!(r.max_queue <= 1, "hot potato never queues");
                // Nonminimal: usually more moves than the minimal total work.
                assert!(r.total_moves >= pb.total_work());
                assert!(steps >= pb.diameter_bound() as u64);
            }
        }
    }

    #[test]
    fn takes_nonminimal_paths_under_contention() {
        // Force a collision: two packets cross the same node simultaneously.
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_pairs(
            4,
            "cross",
            [
                (Coord::new(0, 1), Coord::new(2, 1)),
                (Coord::new(1, 0), Coord::new(1, 2)),
                (Coord::new(1, 1), Coord::new(3, 3)), // occupies the crossing
            ],
        );
        let mut sim = Sim::new(&topo, Dx::new(HotPotato::new(topo.side())), &pb);
        sim.run(200).unwrap();
        let r = sim.report();
        assert!(r.completed);
        // At least one deflection happened (moves exceed minimal work) OR the
        // schedule dodged it — either way queues stayed at 1.
        assert!(r.max_queue <= 1);
    }

    #[test]
    fn transpose_completes_with_unit_buffers() {
        let n = 16;
        let topo = Mesh::new(n);
        let pb = workloads::transpose(n);
        let mut sim = Sim::new(&topo, Dx::new(HotPotato::new(topo.side())), &pb);
        let steps = sim.run(50_000).expect("hot potato should drain transpose");
        assert!(sim.report().completed);
        assert!(steps < 50_000);
    }
}
