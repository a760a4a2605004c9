//! The §5 construction against destination-exchangeable **dimension-order**
//! routers: `Ω(n²/k)`.
//!
//! "Consider the westernmost (1−c)n nodes in each of the cn southernmost
//! rows of the mesh. Each of these nodes will send a packet to some node in
//! the northernmost (1−c)n nodes of the cn easternmost columns. Define the
//! N_i-column to be the ((1−c)n − 1 + i)-th column, and the i-box to be the
//! set of nodes west of and including the N_i-column and south of and
//! including row cn. … there is only one exchange rule: for i ≥ 1, j > i, if
//! an N_j-packet is scheduled by the outqueue policy of a node to enter the
//! N_i-column during steps 1 to i·dn, then exchange that packet with an
//! N_i-packet in the (i−1)-box that is not scheduled to enter the
//! N_i-column."

use crate::classify::Class;
use crate::constants::DimOrderParams;
use crate::driver::{construct, ConstructionOutcome, Demand, ExchangeRule};
use mesh_engine::{Router, ScheduledMove};
use mesh_topo::{Coord, Topology};
use mesh_traffic::RoutingProblem;

/// The §5 dimension-order construction.
#[derive(Clone, Debug)]
pub struct DimOrderConstruction {
    pub params: DimOrderParams,
}

impl DimOrderConstruction {
    /// Creates the construction for the given parameters.
    pub fn new(params: DimOrderParams) -> DimOrderConstruction {
        DimOrderConstruction { params }
    }

    /// `x` coordinate of the N_i-column: `(1−c)n − 1 + i` 1-based.
    #[inline]
    pub fn n_col(&self, i: u32) -> u32 {
        self.params.n - self.params.cn + i - 2
    }

    /// The `i` whose N_i-column is `x`, if any (`x = n − cn + i − 2`).
    fn column_at(&self, x: u32) -> Option<u32> {
        let i = (x + self.params.cn + 2).checked_sub(self.params.n)?;
        (1..=self.params.l).contains(&i).then_some(i)
    }

    /// Runs the construction for `⌊l⌋·dn` steps against `router`.
    pub fn run<T: Topology, R: Router>(&self, topo: &T, router: R) -> ConstructionOutcome {
        construct(self, topo, router, None).unwrap_or_else(|breakdown| panic!("{breakdown}"))
    }
}

/// §5's one exchange rule for dimension order.
impl ExchangeRule for DimOrderConstruction {
    fn bound_steps(&self) -> u64 {
        self.params.bound_steps()
    }

    /// The i-box: `x ≤ n_col(i)`, `y ≤ cn − 1`. The 0-box is everything
    /// strictly west of the N_1-column within the same rows.
    fn in_box(&self, c: Coord, i: u32) -> bool {
        if c.y >= self.params.cn {
            return false;
        }
        if i == 0 {
            c.x < self.n_col(1)
        } else {
            c.x <= self.n_col(i)
        }
    }

    /// Class of a construction destination: N_i destinations live in the
    /// N_i-column at `y ≥ cn`.
    fn classify_dst(&self, d: Coord) -> Option<Class> {
        if d.y < self.params.cn {
            return None;
        }
        self.column_at(d.x).map(Class::N)
    }

    /// Step 1: the initial placement. The easternmost source column — which
    /// *is* the N_1-column — holds only N_1-packets; all other classes fill
    /// the remaining source cells (row-major) west of it, which keeps every
    /// N_j (j ≥ 2) inside the (j−2)-box initially.
    fn initial_problem(&self) -> RoutingProblem {
        let DimOrderParams { n, cn, p, l, .. } = self.params;
        let edge = self.n_col(1);
        let n_dst = |i: u32, m: u32| Coord::new(self.n_col(i), n - 1 - m);
        let mut pairs: Vec<(Coord, Coord)> = Vec::with_capacity((p * l) as usize);

        let mut n1_used = 0u32;
        for y in 0..cn {
            pairs.push((Coord::new(edge, y), n_dst(1, n1_used)));
            n1_used += 1;
        }
        assert!(n1_used <= p);

        let mut todo: Vec<(u32, u32)> = Vec::new();
        for m in n1_used..p {
            todo.push((1, m));
        }
        for i in 2..=l {
            for m in 0..p {
                todo.push((i, m));
            }
        }
        let mut cells = (0..cn).flat_map(|y| (0..edge).map(move |x| Coord::new(x, y)));
        for (i, m) in todo {
            let cell = cells.next().expect("source region too small");
            pairs.push((cell, n_dst(i, m)));
        }

        RoutingProblem::from_pairs(
            n,
            format!(
                "clt-dimorder-initial(n={n},k={},cn={cn},p={p},l={l})",
                self.params.k
            ),
            pairs,
        )
    }

    /// Entering the N_i-column from outside it.
    fn enters(&self, m: &ScheduledMove, line: Class) -> bool {
        let col = self.n_col(line.index());
        m.to().x == col && m.from().x != col
    }

    /// While `t ≤ i·dn` no N_j (j > i) enters the N_i-column; the partner is
    /// an N_i-packet of the (i−1)-box not scheduled to enter it.
    fn violation(&self, t: u64, m: &ScheduledMove, cls: Class) -> Option<Demand> {
        let i = self.column_at(m.to().x)?;
        let line = Class::N(i);
        (self.enters(m, line) && cls.index() > i && t <= i as u64 * self.params.dn as u64)
            .then_some(Demand {
                class: line,
                in_box: i - 1,
                line,
            })
    }

    fn constructed_label(&self) -> String {
        format!(
            "clt-dimorder-constructed(n={},k={})",
            self.params.n, self.params.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::DimOrderParams;
    use crate::driver::construct_counted;

    fn cons(n: u32, k: u32) -> DimOrderConstruction {
        DimOrderConstruction::new(DimOrderParams::new(n, k).unwrap())
    }

    #[test]
    fn geometry_and_classes() {
        let c = cons(216, 1);
        // N_1-column is the easternmost source column.
        assert_eq!(c.n_col(1), 216 - 36 - 1);
        assert_eq!(c.n_col(c.params.l), 216 - 2);
        // Classes decode from destinations.
        for i in 1..=c.params.l {
            let d = Coord::new(c.n_col(i), 216 - 1);
            assert_eq!(c.classify_dst(d), Some(Class::N(i)));
        }
        // South of row cn: never a destination.
        assert_eq!(c.classify_dst(Coord::new(c.n_col(1), 0)), None);
    }

    #[test]
    fn boxes_nest_and_zero_box_is_strict() {
        let c = cons(216, 1);
        let edge = c.n_col(1);
        assert!(c.in_box(Coord::new(edge, 0), 1));
        assert!(!c.in_box(Coord::new(edge, 0), 0));
        assert!(c.in_box(Coord::new(edge - 1, 35), 0));
        // Above row cn-1: outside every box.
        assert!(!c.in_box(Coord::new(0, 36), 1));
    }

    /// At k = 1 nearly every offer is refused, and the step loop proves
    /// most answers instead of asking the router: a load-1 node re-emits
    /// its memoised offer, and a full target refuses its offers without its
    /// inqueue. The parent engine decided every offer, 7.4 per move in the
    /// replay; the construction, under the exchange hook, gets the same
    /// rules, so the offers decided must fall there too.
    #[test]
    fn construction_and_replay_decide_about_one_offer_per_move() {
        let (n, c) = (72, cons(72, 1));
        let topo = mesh_topo::Mesh::new(n);
        let (outcome, built) = construct_counted(&c, &topo, mesh_routers::dim_order(1), None);
        let outcome = outcome.unwrap();
        let mut replay =
            mesh_engine::Sim::new(&topo, mesh_routers::dim_order(1), &outcome.constructed);
        replay.run(outcome.bound_steps + 64 * n as u64).unwrap();
        let per_move = |calls: u64, sim_moves: u64| calls as f64 / sim_moves as f64;
        let moves = replay.report().total_moves;
        let calls = replay.policy_calls();
        let offers = calls.inqueue_offers + calls.refused_full;
        assert!(
            per_move(offers, moves) > 7.0,
            "{calls:?} over {moves} moves"
        );
        assert!(
            per_move(calls.inqueue_offers, moves) <= 1.1,
            "{calls:?} over {moves} moves"
        );
        assert!(
            per_move(calls.outqueue, moves) <= 1.1,
            "{calls:?} over {moves} moves"
        );
        assert!(built.memo_hits > built.outqueue, "{built:?}");
        assert!(built.refused_full > built.inqueue_offers, "{built:?}");
    }

    #[test]
    fn placement_preconditions() {
        let c = cons(216, 1);
        let pb = c.initial_problem();
        assert!(pb.is_partial_permutation());
        assert_eq!(pb.len(), (c.params.p * c.params.l) as usize);
        for pk in &pb.packets {
            let cls = c.classify_dst(pk.dst).unwrap();
            // Sources in the cn southern rows, west of or on the N_1-column.
            assert!(pk.src.y < c.params.cn);
            assert!(pk.src.x <= c.n_col(1));
            // Only N_1 packets on the N_1-column.
            if pk.src.x == c.n_col(1) {
                assert_eq!(cls, Class::N(1));
            }
            // Classes >= 2 start strictly west (0-box).
            if cls.index() >= 2 {
                assert!(pk.src.x < c.n_col(1));
            }
            // Destinations in the northernmost (1-c)n rows.
            assert!(pk.dst.y >= c.params.cn);
        }
    }
}
