//! Mutable routing state shared by all passes of the §6 algorithm:
//! real packet positions, per-node loads, step/move accounting, and the
//! edge-respecting, minimality-asserting move primitive.

use mesh_topo::Coord;
use mesh_traffic::RoutingProblem;

/// Global state of one §6 run.
pub struct S6State {
    pub n: u32,
    /// Real positions of all packets (valid while undelivered).
    pub pos: Vec<Coord>,
    /// Real destinations.
    pub dst: Vec<Coord>,
    /// Delivery flags.
    pub delivered: Vec<bool>,
    /// Packets per real node (all classes), for the queue-bound metric.
    pub load: Vec<u16>,
    /// Highest load any node ever reached. Updated inside
    /// [`move_packet`](Self::move_packet), so it includes intra-step
    /// transients (a node that receives before it sends within one step):
    /// an upper bound on the step-boundary load Lemma 28 speaks of.
    pub max_load: u16,
    /// Total link traversals.
    pub moves: u64,
    /// Packets delivered so far.
    pub delivered_count: usize,
}

impl S6State {
    /// Initializes from a routing problem (packets at their sources;
    /// trivial packets delivered immediately).
    pub fn new(problem: &RoutingProblem) -> S6State {
        let n = problem.n;
        let mut s = S6State {
            n,
            pos: problem.packets.iter().map(|p| p.src).collect(),
            dst: problem.packets.iter().map(|p| p.dst).collect(),
            delivered: vec![false; problem.len()],
            load: vec![0; (n * n) as usize],
            max_load: 0,
            moves: 0,
            delivered_count: 0,
        };
        for i in 0..s.pos.len() {
            if s.pos[i] == s.dst[i] {
                s.delivered[i] = true;
                s.delivered_count += 1;
            } else {
                let ni = s.node_index(s.pos[i]);
                s.load[ni] += 1;
            }
        }
        s.max_load = s.load.iter().copied().max().unwrap_or(0);
        s
    }

    #[inline]
    pub fn node_index(&self, c: Coord) -> usize {
        (c.y * self.n + c.x) as usize
    }

    /// Index of the node packet `p` currently sits at.
    #[inline]
    pub fn node_of(&self, p: u32) -> usize {
        self.node_index(self.pos[p as usize])
    }

    /// The undelivered packets among `pkts`, each with its position and
    /// destination.
    pub fn live<'a>(&'a self, pkts: &'a [u32]) -> impl Iterator<Item = (u32, Coord, Coord)> + 'a {
        let undelivered = pkts.iter().filter(|&&p| !self.delivered[p as usize]);
        undelivered.map(|&p| (p, self.pos[p as usize], self.dst[p as usize]))
    }

    /// Moves packet `p` to the adjacent node `to`. Panics (debug) if the
    /// move is not a single grid hop or moves the packet away from its
    /// destination — §6 is minimal adaptive (Theorem 20), so any violation
    /// is an implementation bug. Delivers the packet if `to` is its
    /// destination. Returns `true` on delivery.
    ///
    /// Because `max_load` is sampled here, mid-step, the reported figure
    /// depends on the order a step's moves are applied in. The stages fix
    /// it: March in worklist push order; Sort and Smooth strip `i−2`
    /// forwards north to south, then strip `i−3` sends by ascending row;
    /// Balancing by ascending virtual `(x, y)`; the base case by ascending
    /// `Coord`; tiles by ascending origin, columns and `(column, strip)`
    /// groups ascending.
    pub fn move_packet(&mut self, p: usize, to: Coord) -> bool {
        let from = self.pos[p];
        debug_assert!(!self.delivered[p], "moving a delivered packet");
        debug_assert_eq!(from.manhattan(to), 1, "non-adjacent move {from} -> {to}");
        debug_assert!(
            to.manhattan(self.dst[p]) < from.manhattan(self.dst[p]),
            "non-minimal move of packet {p}: {from} -> {to}, dst {}",
            self.dst[p]
        );
        let fi = self.node_index(from);
        self.load[fi] -= 1;
        self.pos[p] = to;
        self.moves += 1;
        if to == self.dst[p] {
            self.delivered[p] = true;
            self.delivered_count += 1;
            true
        } else {
            let ti = self.node_index(to);
            self.load[ti] += 1;
            if self.load[ti] > self.max_load {
                self.max_load = self.load[ti];
            }
            false
        }
    }

    /// True when every packet has been delivered.
    pub fn done(&self) -> bool {
        self.delivered_count == self.pos.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_traffic::RoutingProblem;

    fn problem() -> RoutingProblem {
        RoutingProblem::from_pairs(
            4,
            "t",
            [
                (Coord::new(0, 0), Coord::new(2, 0)),
                (Coord::new(1, 1), Coord::new(1, 1)), // trivial
            ],
        )
    }

    #[test]
    fn init_and_trivial_delivery() {
        let s = S6State::new(&problem());
        assert_eq!(s.delivered_count, 1);
        assert!(s.delivered[1]);
        assert_eq!(s.load[0], 1);
        assert_eq!(s.max_load, 1);
    }

    #[test]
    fn move_and_deliver() {
        let mut s = S6State::new(&problem());
        assert!(!s.move_packet(0, Coord::new(1, 0)));
        assert_eq!(s.load[0], 0);
        assert_eq!(s.load[1], 1);
        assert!(s.move_packet(0, Coord::new(2, 0)));
        assert!(s.done());
        assert_eq!(s.moves, 2);
        assert_eq!(s.load[2], 0, "delivered packets occupy no space");
    }

    #[test]
    #[should_panic(expected = "non-minimal")]
    #[cfg(debug_assertions)]
    fn rejects_non_minimal_move() {
        let mut s = S6State::new(&problem());
        s.move_packet(0, Coord::new(0, 1));
    }
}
