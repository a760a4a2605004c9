//! The base case of §6.1: when tiles would shrink below 27×27, finish with
//! greedy dimension-order routing under the farthest-first protocol on the
//! whole mesh. By Lemma 18 every remaining packet of the class is then within
//! two rows and two columns of its destination, so this takes at most 14
//! steps with at most 9 packets per node (Lemma 32 / Lemma 28).

use super::scratch::Scratch;
use super::state::S6State;
use mesh_topo::Coord;
use std::cmp::Reverse;

/// Routes the given packets to completion with farthest-first dimension
/// order (row first, then column; per outlink, the packet with the farthest
/// to go in that dimension wins). Returns the number of steps.
pub fn run_base_case(st: &mut S6State, sc: &mut Scratch, class_pkts: &[u32]) -> u64 {
    sc.buckets.fill(st, st.live(class_pkts).map(|(p, ..)| p));
    let mut steps = 0u64;
    loop {
        // Occupied nodes, ascending.
        sc.work.clear();
        sc.work
            .extend(st.live(class_pkts).map(|(_, at, _)| (at.x, at.y)));
        if sc.work.is_empty() {
            return steps;
        }
        sc.work.sort_unstable();
        sc.work.dedup();
        sc.moves.clear();
        for &(x, y) in &sc.work {
            let node = Coord::new(x, y);
            // Per outlink, the farthest to go; ties to the lowest index.
            let mut best: [Option<(u32, Reverse<u32>)>; 4] = [None; 4];
            for p in sc.buckets.iter(st.node_index(node)) {
                let (slot, dist, _) = next_hop(node, st.dst[p as usize]);
                best[slot] = best[slot].max(Some((dist, Reverse(p))));
            }
            sc.moves
                .extend(best.iter().flatten().map(|&(_, Reverse(p))| p));
        }
        for &p in &sc.moves {
            let (_, _, to) = next_hop(st.pos[p as usize], st.dst[p as usize]);
            sc.buckets.remove(st.node_of(p), p);
            if !st.move_packet(p as usize, to) {
                sc.buckets.push(st.node_of(p), p);
            }
        }
        steps += 1;
    }
}

/// Dimension order (row first) for a packet at `at` bound for `dst`: the
/// outlink slot it wants (0 = E, 1 = W, 2 = N, 3 = S), its distance to go in
/// that dimension, and the neighbor across that link.
fn next_hop(at: Coord, dst: Coord) -> (usize, u32, Coord) {
    if dst.x > at.x {
        (0, dst.x - at.x, Coord::new(at.x + 1, at.y))
    } else if dst.x < at.x {
        (1, at.x - dst.x, Coord::new(at.x - 1, at.y))
    } else if dst.y > at.y {
        (2, dst.y - at.y, Coord::new(at.x, at.y + 1))
    } else {
        (3, at.y - dst.y, Coord::new(at.x, at.y - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_traffic::RoutingProblem;

    /// Pair-swap within the last bit: a permutation moving every node at
    /// most one step per dimension (odd tail fixed).
    fn swap1(v: u32, n: u32) -> u32 {
        if v ^ 1 < n {
            v ^ 1
        } else {
            v
        }
    }

    #[test]
    fn routes_nearby_permutation_quickly() {
        // A permutation in which every packet is within 2 rows and 2 columns
        // of its destination, as Lemma 18 guarantees at base-case entry.
        let n = 9;
        let pairs: Vec<_> = (0..n)
            .flat_map(|y| {
                (0..n).map(move |x| (Coord::new(x, y), Coord::new(swap1(x, n), swap1(y, n))))
            })
            .collect();
        let pb = RoutingProblem::from_pairs(n, "near", pairs);
        assert!(pb.is_permutation());
        let mut st = S6State::new(&pb);
        let all: Vec<u32> = (0..pb.len() as u32).collect();
        let mut sc = Scratch::new(pb.n as usize, pb.len(), pb.len());
        let steps = run_base_case(&mut st, &mut sc, &all);
        assert!(st.done());
        assert!(steps <= 14, "Lemma 32: took {steps}");
        assert!(
            st.max_load <= 9,
            "Lemma 28 base-case bound: {}",
            st.max_load
        );
    }

    #[test]
    fn handles_contention_at_turn() {
        let pb = RoutingProblem::from_pairs(
            5,
            "turn",
            [
                (Coord::new(0, 0), Coord::new(2, 2)),
                (Coord::new(1, 0), Coord::new(2, 1)),
                (Coord::new(2, 0), Coord::new(3, 2)),
            ],
        );
        let mut st = S6State::new(&pb);
        let all: Vec<u32> = (0..pb.len() as u32).collect();
        let mut sc = Scratch::new(pb.n as usize, pb.len(), pb.len());
        let steps = run_base_case(&mut st, &mut sc, &all);
        assert!(st.done());
        assert!(steps <= 10, "took {steps}");
        assert_eq!(st.moves, pb.total_work(), "paths stay minimal");
    }

    #[test]
    fn farthest_first_priority_orders_column_entry() {
        // Two packets want the same north link; the farther one goes first.
        let pb = RoutingProblem::from_pairs(
            6,
            "prio",
            [
                (Coord::new(0, 0), Coord::new(0, 2)), // distance 2
                (Coord::new(0, 0), Coord::new(1, 5)), // would also like north? no: row-first → east
            ],
        );
        // Both at the same node is not a permutation start, but the base
        // case must still handle multi-packet nodes (Lemma 28 allows 9).
        let mut st = S6State::new(&pb);
        let all: Vec<u32> = (0..pb.len() as u32).collect();
        let mut sc = Scratch::new(pb.n as usize, pb.len(), pb.len());
        let steps = run_base_case(&mut st, &mut sc, &all);
        assert!(st.done());
        // Packet 1 goes east (dimension order) while packet 0 goes north:
        // no contention at all; 6 steps for packet 1.
        assert_eq!(steps, 6);
    }
}
