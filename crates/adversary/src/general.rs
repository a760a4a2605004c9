//! The §3 construction: an adversary that builds, for **any**
//! destination-exchangeable minimal adaptive routing algorithm, a
//! permutation requiring `⌊l⌋·dn = Ω(n²/k²)` steps.
//!
//! The adversary runs the algorithm on an initial placement (step 1 of §3),
//! watching every scheduled transmission. Whenever a packet of a
//! too-high class is about to cross a protected column or row, the adversary
//! *exchanges* destinations per rules EX1–EX4 (step 3), which the algorithm —
//! being destination-exchangeable — cannot detect (Lemma 10). After
//! `⌊l⌋·dn` steps the packets' current destinations define the **constructed
//! permutation** (step 4); replaying the algorithm on it without exchanges
//! reproduces the exact same execution (Lemma 12) and therefore still has
//! undelivered packets at step `⌊l⌋·dn` (Theorem 13).

use crate::classify::Class;
use crate::constants::GeneralParams;
pub use crate::driver::ConstructionOutcome;
use crate::driver::{construct, ConstructionBreakdown, Demand, ExchangeRule};
use crate::geometry::BoxGeometry;
use crate::invariants::InvariantChecker;
use mesh_engine::{Router, ScheduledMove};
use mesh_topo::{Coord, Topology};
use mesh_traffic::RoutingProblem;

/// The §3 general construction (one instance per `(n, k, h)`).
///
/// For the torus extension (§5) build the parameters for the submesh side
/// `m` and run on a torus of side `≥ 2m`: all construction traffic stays in
/// the southwest `m × m` submesh, where torus and mesh profitable outlinks
/// coincide.
#[derive(Clone, Debug)]
pub struct GeneralConstruction {
    pub params: GeneralParams,
    pub geom: BoxGeometry,
    /// Side of the full grid the problem is defined on (= `params.n` for the
    /// mesh; `≥ 2·params.n` for the torus extension).
    pub grid_n: u32,
}

impl GeneralConstruction {
    /// Construction on the `n × n` mesh.
    pub fn new(params: GeneralParams) -> GeneralConstruction {
        GeneralConstruction {
            geom: BoxGeometry { cn: params.cn },
            grid_n: params.n,
            params,
        }
    }

    /// Construction embedded in the southwest corner of a larger grid
    /// (the §5 torus extension: `grid_n ≥ 2·params.n`).
    pub fn embedded(params: GeneralParams, grid_n: u32) -> GeneralConstruction {
        assert!(grid_n >= params.n);
        GeneralConstruction {
            geom: BoxGeometry { cn: params.cn },
            grid_n,
            params,
        }
    }

    /// Runs the full construction (steps 1–4 of §3) against `router`.
    ///
    /// With `check_invariants`, Lemmas 1–8 are machine-verified after every
    /// step (a panic means either the construction or the engine is wrong —
    /// never the router). Panics if the adversary runs out of partners; use
    /// [`GeneralConstruction::try_run`] against victims outside Theorem 14.
    pub fn run<T: Topology, R: Router>(
        &self,
        topo: &T,
        router: R,
        check_invariants: bool,
    ) -> ConstructionOutcome {
        self.try_run(topo, router, check_invariants)
            .unwrap_or_else(|breakdown| panic!("{breakdown}"))
    }

    /// [`GeneralConstruction::run`], with partner exhaustion as a value: a
    /// nonminimal victim deflects packets out of the boxes until Lemmas 3/4
    /// no longer supply a partner.
    pub fn try_run<T: Topology, R: Router>(
        &self,
        topo: &T,
        router: R,
        check_invariants: bool,
    ) -> Result<ConstructionOutcome, ConstructionBreakdown> {
        let checker = check_invariants.then(|| InvariantChecker::new(&self.params));
        construct(self, topo, router, checker)
    }

    /// The `i` whose N_i-column (as `x`) or E_i-row (as `y`) is coordinate
    /// `v`, if any.
    fn line_at(&self, v: u32) -> Option<u32> {
        let i = (v + 2).checked_sub(self.params.cn)?;
        (1..=self.params.l).contains(&i).then_some(i)
    }
}

/// Rules EX1–EX4 of §3 step 3.
impl ExchangeRule for GeneralConstruction {
    fn bound_steps(&self) -> u64 {
        self.params.bound_steps()
    }

    /// The class of a construction destination (`None` for other coords).
    ///
    /// N_i destinations sit in the N_i-column strictly north of the E_i-row,
    /// so `dst.y > dst.x`; E_i destinations mirror (`dst.x > dst.y`).
    fn classify_dst(&self, d: Coord) -> Option<Class> {
        match d.y.cmp(&d.x) {
            std::cmp::Ordering::Greater => self.line_at(d.x).map(Class::N),
            std::cmp::Ordering::Less => self.line_at(d.y).map(Class::E),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// Step 1 of §3: the initial placement.
    ///
    /// * the N_1-column within the 1-box (east edge of the `cn × cn`
    ///   submesh) holds only N_1-packets;
    /// * the E_1-row west of the N_1-column (north edge) holds only
    ///   E_1-packets;
    /// * everything else — including all N_2/E_2 packets, which Lemma 5/6
    ///   require to start inside the 0-box — goes into the 0-box, which is
    ///   exactly the remainder of the 1-box;
    /// * `h` packets per node (`h = 1` for permutations);
    /// * N_i-packet `m` is destined for `(n_col(i), n − 1 − ⌊m/h⌋)`;
    ///   E_i-packet `m` for `(n − 1 − ⌊m/h⌋, e_row(i))` — unique
    ///   destinations outside the `⌊l⌋`-box.
    fn initial_problem(&self) -> RoutingProblem {
        let GeneralParams { n, cn, p, l, h, .. } = self.params;
        let g = &self.geom;
        let mut pairs: Vec<(Coord, Coord)> = Vec::with_capacity((2 * p * l) as usize);

        // Destination allocators per class.
        let n_dst = |i: u32, m: u32| Coord::new(g.n_col(i), n - 1 - m / h);
        let e_dst = |i: u32, m: u32| Coord::new(n - 1 - m / h, g.e_row(i));

        // East edge: N_1 packets.
        let mut n1_used = 0u32;
        for y in 0..cn {
            for _ in 0..h {
                pairs.push((Coord::new(cn - 1, y), n_dst(1, n1_used)));
                n1_used += 1;
            }
        }
        // North edge (west of the corner): E_1 packets.
        let mut e1_used = 0u32;
        for x in 0..cn - 1 {
            for _ in 0..h {
                pairs.push((Coord::new(x, cn - 1), e_dst(1, e1_used)));
                e1_used += 1;
            }
        }
        assert!(n1_used <= p && e1_used <= p, "edges need p >= h*cn");

        // Remaining assignments, in class order, into 0-box cells row-major.
        let mut todo: Vec<(Class, u32)> = Vec::new();
        for m in n1_used..p {
            todo.push((Class::N(1), m));
        }
        for m in e1_used..p {
            todo.push((Class::E(1), m));
        }
        for i in 2..=l {
            for m in 0..p {
                todo.push((Class::N(i), m));
            }
            for m in 0..p {
                todo.push((Class::E(i), m));
            }
        }
        let mut cell_iter = (0..cn - 1)
            .flat_map(|y| (0..cn - 1).map(move |x| Coord::new(x, y)))
            .flat_map(|c| std::iter::repeat_n(c, h as usize));
        for (cls, m) in todo {
            let cell = cell_iter
                .next()
                .expect("0-box too small for the construction placement");
            let dst = match cls {
                Class::N(i) => n_dst(i, m),
                Class::E(i) => e_dst(i, m),
            };
            pairs.push((cell, dst));
        }

        let pb = RoutingProblem::from_pairs(
            self.grid_n,
            format!(
                "clt-initial(n={n},k={},h={h},cn={cn},p={p},l={l})",
                self.params.k
            ),
            pairs,
        );
        debug_assert!(pb.is_hh(h));
        pb
    }

    fn in_box(&self, c: Coord, i: u32) -> bool {
        self.geom.in_box(c, i)
    }

    /// The N_i-column south of the E_i-row, the E_i-row west of the
    /// N_i-column.
    fn enters(&self, m: &ScheduledMove, line: Class) -> bool {
        let g = &self.geom;
        match line {
            Class::N(i) => m.to.x == g.n_col(i) && m.to.y < g.e_row(i),
            Class::E(i) => m.to.y == g.e_row(i) && m.to.x < g.n_col(i),
        }
    }

    /// While `t ≤ i·dn`: no N_j (j > i, EX2) and no E_j (j ≥ i, EX3) enters
    /// the N_i-column; no E_j (j > i, EX1) and no N_j (j ≥ i, EX4) enters the
    /// E_i-row. The partner is an N_i- (resp. E_i-) packet of the (i−1)-box
    /// not scheduled to enter that line (Lemmas 3/4 guarantee one).
    fn violation(&self, t: u64, m: &ScheduledMove, cls: Class) -> Option<Demand> {
        let j = cls.index();
        let protected = |line: Class| {
            let i = line.index();
            let too_high = if cls.is_n() == line.is_n() {
                j > i
            } else {
                j >= i
            };
            (self.enters(m, line) && t <= i as u64 * self.params.dn as u64 && too_high).then_some(
                Demand {
                    class: line,
                    in_box: i - 1,
                    line,
                },
            )
        };
        self.line_at(m.to.x)
            .and_then(|i| protected(Class::N(i)))
            .or_else(|| self.line_at(m.to.y).and_then(|i| protected(Class::E(i))))
    }

    fn constructed_label(&self) -> String {
        format!(
            "clt-constructed(n={},k={},h={})",
            self.params.n, self.params.k, self.params.h
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::GeneralParams;

    fn cons(n: u32, k: u32) -> GeneralConstruction {
        GeneralConstruction::new(GeneralParams::new(n, k).unwrap())
    }

    #[test]
    fn classify_matches_destination_layout() {
        let c = cons(216, 1);
        let g = &c.geom;
        // N_i destinations: in the N_i-column strictly north of the E_i-row.
        for i in 1..=c.params.l {
            let d = Coord::new(g.n_col(i), g.e_row(i) + 5);
            assert_eq!(c.classify_dst(d), Some(Class::N(i)));
            let d = Coord::new(g.n_col(i) + 5, g.e_row(i));
            assert_eq!(c.classify_dst(d), Some(Class::E(i)));
        }
        // Outside the class columns/rows: none.
        assert_eq!(c.classify_dst(Coord::new(0, 0)), None);
        assert_eq!(c.classify_dst(Coord::new(215, 215)), None);
        // On the diagonal (would be both): impossible by construction.
        let diag = Coord::new(c.geom.n_col(1), c.geom.e_row(1));
        assert_eq!(c.classify_dst(diag), None);
    }

    #[test]
    fn initial_placement_satisfies_the_paper_preconditions() {
        for (n, k) in [(216u32, 1u32), (384, 2)] {
            let c = cons(n, k);
            let pb = c.initial_problem();
            let g = &c.geom;
            assert!(pb.is_partial_permutation());
            assert_eq!(pb.len() as u64, c.params.total_packets());
            let mut per_class = std::collections::HashMap::new();
            for pk in &pb.packets {
                let cls = c.classify_dst(pk.dst).expect("every packet classed");
                *per_class.entry(cls).or_insert(0u32) += 1;
                // Everything starts in the 1-box.
                assert!(g.in_box(pk.src, 1), "{:?} outside the 1-box", pk.src);
                match cls {
                    Class::N(1) => {}
                    Class::E(1) => {
                        // Lemma 8 basis: not at/east of the N_1-column south
                        // of the E_1-row.
                        assert!(
                            !(pk.src.x >= g.n_col(1) && pk.src.y < g.e_row(1)),
                            "E_1 packet at {:?}",
                            pk.src
                        );
                    }
                    // Lemma 5/6 basis: classes >= 2 start inside the 0-box.
                    _ => assert!(g.in_box(pk.src, 0), "{cls:?} at {:?}", pk.src),
                }
                // The N_1-column (in-box part) holds only N_1 packets;
                // the E_1-row west of it holds only E_1 packets.
                if g.in_n_col_south(pk.src, 1) {
                    assert_eq!(cls, Class::N(1));
                }
                if g.in_e_row_west(pk.src, 1) {
                    assert_eq!(cls, Class::E(1));
                }
                // Destinations lie strictly outside the l-box.
                assert!(
                    !g.in_box(pk.dst, c.params.l),
                    "dst {:?} inside l-box",
                    pk.dst
                );
            }
            // Exactly p packets per class.
            for i in 1..=c.params.l {
                assert_eq!(per_class[&Class::N(i)], c.params.p, "N_{i} count");
                assert_eq!(per_class[&Class::E(i)], c.params.p, "E_{i} count");
            }
            // At most one packet per node (h = 1).
            assert!(pb.send_counts().iter().all(|&s| s <= 1));
        }
    }

    #[test]
    fn hh_placement_puts_h_packets_per_node() {
        let params = GeneralParams::hh(600, 4, 2).unwrap();
        let c = GeneralConstruction::new(params);
        let pb = c.initial_problem();
        assert!(pb.is_hh(2));
        let max_send = pb.send_counts().into_iter().max().unwrap();
        assert_eq!(max_send, 2, "h = 2 packets on loaded nodes");
    }

    #[test]
    fn embedded_construction_offsets_nothing_but_the_grid() {
        let params = GeneralParams::new(216, 1).unwrap();
        let c = GeneralConstruction::embedded(params, 432);
        let pb = c.initial_problem();
        assert_eq!(pb.n, 432);
        // All construction traffic confined to the 216x216 corner.
        for pk in &pb.packets {
            assert!(pk.src.x < 216 && pk.src.y < 216);
            assert!(pk.dst.x < 216 && pk.dst.y < 216);
        }
    }
}
