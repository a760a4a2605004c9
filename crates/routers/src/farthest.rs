//! Greedy dimension-order routing with the farthest-first outqueue policy.
//!
//! This is the classic router of §1.1: with unbounded queues it routes any
//! permutation in `2n − 2` steps (Leighton); with queues bounded at `k` it is
//! the target of §5's farthest-first `Ω(n²/k)` lower bound. Farthest-first
//! compares *actual remaining distances*, so this router reads full
//! destination addresses and "is not destination-exchangeable" (§5).

use crate::common::{dim_order_dir, Axis};
use mesh_engine::{FullArrivals, FullResidents, PackedArrival, PackedView, QueueArch, Router};
use mesh_topo::{Coord, Dir};

/// Farthest-first dimension-order router on a central queue of capacity `k`.
///
/// Pass `k >= 2n` to emulate the unbounded-queue greedy algorithm (no queue
/// can exceed `2n` packets under dimension order on a permutation: at most
/// `n` row packets pass through a node and `n` column packets can wait).
#[derive(Clone, Debug)]
pub struct FarthestFirst {
    k: u32,
}

impl FarthestFirst {
    /// Creates the router with central queues of capacity `k`.
    pub fn new(k: u32) -> FarthestFirst {
        FarthestFirst { k }
    }

    /// An effectively unbounded instance for a side-`n` mesh.
    pub fn unbounded(n: u32) -> FarthestFirst {
        FarthestFirst { k: n * n }
    }
}

/// Remaining distance in the dimension of `d`.
fn dim_distance(node: Coord, dst: Coord, d: Dir) -> u32 {
    if d.is_horizontal() {
        node.dx(dst)
    } else {
        node.dy(dst)
    }
}

impl Router for FarthestFirst {
    type NodeState = ();

    fn name(&self) -> String {
        format!("farthest-first(k={})", self.k)
    }

    fn queue_arch(&self) -> QueueArch {
        QueueArch::Central { k: self.k }
    }

    fn outqueue(
        &self,
        _step: u64,
        node: Coord,
        _state: &mut (),
        pkts: &mut [PackedView],
        cold: &FullResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        // Per outlink: the packet with the farthest to go in that dimension
        // ("farthest-first", §5); ties broken by queue age. A packet wants
        // exactly one direction, so one pass suffices; and a destination is
        // only read once two packets contend for an outlink.
        let mut best = [(None::<u32>, u32::MAX); 4]; // (distance if known, pos)
        for (i, p) in pkts.iter().enumerate() {
            let Some(d) = dim_order_dir(p.profitable(), Axis::Horizontal) else {
                continue;
            };
            let (bd, bp) = &mut best[d.index()];
            if let Some(b) = out[d.index()] {
                let held = *bd.get_or_insert_with(|| dim_distance(node, cold.dst(b), d));
                let dist = dim_distance(node, cold.dst(i), d);
                if dist < held || (dist == held && p.pos() >= *bp) {
                    continue;
                }
                *bd = Some(dist);
            }
            *bp = p.pos();
            out[d.index()] = Some(i);
        }
    }

    fn inqueue(
        &self,
        _step: u64,
        _node: Coord,
        _state: &mut (),
        queue_lens: &[u32],
        _arrivals: &mut [PackedArrival],
        _cold: &FullArrivals<'_>,
        accept: &mut [bool],
    ) {
        // Accept into strict headroom, in fixed inlink order. §5's
        // farthest-first lower bound assumes only the *outqueue* policy
        // reads distances; a distance-dependent inqueue would break the
        // exchange-commutation argument (we verified this empirically: a
        // farthest-total-distance acceptance rule makes the Lemma 12 replay
        // equivalence fail at k ≥ 2).
        let room = self.k.saturating_sub(queue_lens[0]) as usize;
        accept.iter_mut().take(room).for_each(|a| *a = true);
    }

    fn uses_end_of_step(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_engine::Sim;
    use mesh_topo::Mesh;
    use mesh_traffic::{workloads, RoutingProblem};

    #[test]
    fn unbounded_routes_any_permutation_in_2n_minus_2() {
        // The classic Leighton result: greedy dimension order with
        // farthest-first column priority and unbounded queues routes every
        // permutation in at most 2n - 2 steps. Check on several seeds.
        for n in [8u32, 12, 16] {
            let topo = Mesh::new(n);
            for seed in 0..4 {
                let pb = workloads::random_permutation(n, seed);
                let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
                let steps = sim.run(10 * n as u64).unwrap();
                assert!(
                    steps <= (2 * n - 2) as u64,
                    "n={n} seed={seed}: {steps} > 2n-2"
                );
            }
        }
    }

    #[test]
    fn unbounded_transpose_meets_bound() {
        let n = 24;
        let topo = Mesh::new(n);
        let pb = workloads::transpose(n);
        let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
        let steps = sim.run(10 * n as u64).unwrap();
        assert!(steps <= (2 * n - 2) as u64, "transpose took {steps}");
    }

    #[test]
    fn worst_case_queue_grows_with_n() {
        // §1.1: the 2n-2 greedy algorithm "requires Θ(n) size queues". The
        // column funnel concentrates all n packets at the turn node (n/2, 0):
        // two arrive per step, one leaves — the queue must reach ~n/4.
        for n in [16u32, 32] {
            let topo = Mesh::new(n);
            let pb = workloads::column_funnel(n);
            let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
            sim.run(10 * n as u64).unwrap();
            let q = sim.report().max_queue;
            assert!(q >= n / 4, "n={n}: expected queue ~n/4, max was {q}");
        }
    }

    #[test]
    fn average_case_queues_stay_tiny() {
        // §1.1 (Leighton): random destinations route in 2n + O(log n) with
        // queues that essentially never exceed 4.
        let n = 32;
        let topo = Mesh::new(n);
        let pb = workloads::random_destinations(n, 11);
        let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
        let steps = sim.run(100 * n as u64).unwrap();
        assert!(steps <= (2 * n + 40) as u64, "took {steps}");
        assert!(
            sim.report().max_queue <= 8,
            "queues grew: {}",
            sim.report().max_queue
        );
    }

    #[test]
    fn unbounded_on_a_large_mesh_is_sized_by_occupancy() {
        // k = n² at n = 256 used to ask the queue arena for n⁴ cells (17 GB)
        // and abort; the arena now starts every slot small and grows it.
        let n = 256;
        let topo = Mesh::new(n);
        let pb = RoutingProblem::from_pairs(
            n,
            "diagonal-64",
            (0..64).map(|i| (Coord::new(4 * i, 0), Coord::new(255 - 4 * i, 255 - i))),
        );
        let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
        sim.run(10 * n as u64).unwrap();
        assert_eq!(sim.report().delivered, 64);
    }

    #[test]
    fn bounded_queues_respected() {
        let n = 12;
        let topo = Mesh::new(n);
        let pb = workloads::random_permutation(n, 1);
        let mut sim = Sim::new(&topo, FarthestFirst::new(3), &pb);
        let _ = sim.run(5_000);
        assert!(sim.report().max_queue <= 3);
    }
}
