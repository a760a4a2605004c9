//! The §6 algorithm: deterministic, **minimal adaptive**, `O(n)`-time
//! routing of any permutation with `O(1)`-size queues.
//!
//! Structure (§6.1): the four movement classes NE, NW, SE, SW are routed
//! sequentially. For each class, iterations `j = 0, 1, …` work on tilings of
//! tile side `n/3ʲ`; each iteration runs a Vertical Phase on each of the
//! three offset tilings (one tiling when `j = 0`), then a Horizontal Phase
//! on each. A phase is March → Sort-and-Smooth (even, then odd destination
//! strips) → Balancing. When the tile side would drop below 27, a
//! farthest-first dimension-order base case finishes the class (Lemma 32).
//!
//! The implementation is step-exact and edge-respecting; every packet move
//! is validated to be minimal (Theorem 20). Two time figures are reported:
//!
//! * **scheduled** — every stage charges its worst-case duration from
//!   Lemmas 29–31, exactly as the paper's synchronized nodes would wait;
//!   Theorem 34 proves this is at most `972·n` (at most `564·n` with the
//!   improved `q = 102` refinement for iterations `j ≥ 1`).
//! * **quiescent** — every stage ends as soon as no rule can fire; a lower,
//!   "if nodes could detect completion" figure.
//!
//! The paper's `q = 408 = 17·(27−3)` node bound, and the Lemma 28 queue
//! bound `2q + 18 = 834`, are enforced by assertion.

pub mod basecase;
pub mod phase;
pub mod scratch;
pub mod state;
pub mod virt;

use mesh_topo::TilingSet;
use mesh_traffic::quadrant::ALL_QUADRANTS;
use mesh_traffic::{Packet, Quadrant, RoutingProblem};
use scratch::Scratch;
use serde::{Deserialize, Serialize};
use state::S6State;
use virt::Transform;

/// Configuration of a §6 run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Section6Config {
    /// Use the improved `q = 102` for iterations `j ≥ 1` (§6.4's closing
    /// refinement; scheduled bound 564n instead of 972n, queue bound 222
    /// past the first iteration).
    pub improved_q: bool,
    /// Verify Lemma 16 after every Sort and Smooth (O(area·d) per tile —
    /// for tests).
    pub check_lemma16: bool,
}

/// The paper's node bound `q = 17·(27−3)` (Lemma 21).
pub const Q_BASE: u32 = 408;
/// The improved bound `q = 17·(9−3)` for iterations `j ≥ 1` (§6.4).
pub const Q_IMPROVED: u32 = 102;

/// Per-class statistics.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PassStats {
    pub scheduled_steps: u64,
    pub quiescent_steps: u64,
    pub base_case_steps: u64,
    pub packets: usize,
}

/// Result of routing one problem with the §6 algorithm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Section6Report {
    pub n: u32,
    /// Total steps under the paper's worst-case stage schedule (Theorem 34:
    /// ≤ 972n, or ≤ 564n with `improved_q`).
    pub scheduled_steps: u64,
    /// Total steps when every stage ends at quiescence.
    pub quiescent_steps: u64,
    /// Largest number of packets ever co-resident in one node (Lemma 28:
    /// ≤ 834).
    pub max_node_load: u32,
    /// Total link traversals (= total work: every move is minimal).
    pub total_moves: u64,
    pub delivered: usize,
    pub total_packets: usize,
    /// Iterations executed per class (same for all classes).
    pub iterations: u32,
    pub per_class: [PassStats; 4],
}

impl Section6Report {
    /// `scheduled_steps / n` — Theorem 34 asserts this is at most 972 (564
    /// improved).
    pub fn steps_per_n(&self) -> f64 {
        self.scheduled_steps as f64 / self.n as f64
    }
}

/// Why a problem cannot be routed by the §6 algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Section6Error {
    /// The problem fails [`RoutingProblem::validate`]; the message says how.
    InvalidProblem(String),
    /// The mesh side is not a power of 3 (the paper's simplifying
    /// assumption, which the tilings rely on).
    NotPowerOfThree { n: u32 },
    /// Some packet is injected after step 0.
    NotStatic,
}

impl std::fmt::Display for Section6Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Section6Error::InvalidProblem(e) => write!(f, "invalid problem: {e}"),
            Section6Error::NotPowerOfThree { n } => {
                write!(f, "the §6 algorithm assumes n is a power of 3 (got {n})")
            }
            Section6Error::NotStatic => write!(f, "the §6 algorithm routes static problems"),
        }
    }
}

impl std::error::Error for Section6Error {}

/// The §6 router.
#[derive(Clone, Debug, Default)]
pub struct Section6Router {
    pub config: Section6Config,
}

impl Section6Router {
    /// Default configuration (`q = 408` everywhere: the Theorem 34 bound).
    pub fn new() -> Section6Router {
        Section6Router::default()
    }

    /// With the §6.4 improved-`q` refinement.
    pub fn improved() -> Section6Router {
        Section6Router {
            config: Section6Config {
                improved_q: true,
                ..Default::default()
            },
        }
    }

    /// Routes a static problem. `problem.n` must be a power of 3 (the
    /// paper's simplifying assumption); problems on `n < 27` run the base
    /// case directly. Panics on input [`try_route`](Self::try_route) rejects.
    ///
    /// The problem should be a partial permutation for the Theorem 34
    /// guarantees to apply; other problems are routed on a best-effort basis
    /// (assertions are relaxed).
    pub fn route(&self, problem: &RoutingProblem) -> Section6Report {
        self.try_route(problem)
            .unwrap_or_else(|e| panic!("cannot route with the §6 algorithm: {e}"))
    }

    /// [`route`](Self::route), with unroutable input reported as an error.
    pub fn try_route(&self, problem: &RoutingProblem) -> Result<Section6Report, Section6Error> {
        problem.validate().map_err(Section6Error::InvalidProblem)?;
        let n = problem.n;
        if !is_power_of_3(n) {
            return Err(Section6Error::NotPowerOfThree { n });
        }
        if !problem.is_static() {
            return Err(Section6Error::NotStatic);
        }
        let is_perm = problem.is_partial_permutation();
        let mut st = S6State::new(problem);
        // Classes are routed one at a time: the largest sizes the scratch.
        let class_of = |p: &Packet| Quadrant::of(p.src, p.dst);
        let size = |q| {
            problem
                .packets
                .iter()
                .filter(|p| class_of(p) == Some(q))
                .count()
        };
        let largest = ALL_QUADRANTS.map(size).into_iter().max().unwrap_or(0);
        let mut sc = Scratch::new(n as usize, problem.len(), largest);
        let mut class_pkts = Vec::with_capacity(largest);

        let mut per_class = [PassStats::default(); 4];
        for (stats, q) in per_class.iter_mut().zip(ALL_QUADRANTS) {
            class_pkts.clear();
            class_pkts.extend((0..st.pos.len() as u32).filter(|&p| {
                !st.delivered[p as usize]
                    && Quadrant::of(st.pos[p as usize], st.dst[p as usize]) == Some(q)
            }));
            *stats = self.route_class(&mut st, &mut sc, q, &class_pkts, is_perm);
        }

        assert!(st.done(), "section 6 router failed to deliver all packets");
        let report = Section6Report {
            n,
            scheduled_steps: per_class.iter().map(|s| s.scheduled_steps).sum(),
            quiescent_steps: per_class.iter().map(|s| s.quiescent_steps).sum(),
            max_node_load: st.max_load as u32,
            total_moves: st.moves,
            delivered: st.delivered_count,
            total_packets: problem.len(),
            iterations: iterations(n),
            per_class,
        };
        if is_perm {
            // Theorem 34 (with the paper's constants).
            let bound = if self.config.improved_q { 564 } else { 972 } as u64;
            let (steps, load) = (report.scheduled_steps, report.max_node_load);
            assert!(
                steps <= bound * n as u64,
                "Theorem 34 violated: {steps} > {bound}n"
            );
            assert!(load <= 834, "Lemma 28 violated: node load {load}");
        }
        Ok(report)
    }

    /// Routes one movement class to completion.
    fn route_class(
        &self,
        st: &mut S6State,
        sc: &mut Scratch,
        class: Quadrant,
        class_pkts: &[u32],
        is_perm: bool,
    ) -> PassStats {
        let n = st.n;
        let mut stats = PassStats {
            packets: class_pkts.len(),
            ..Default::default()
        };

        let tf_v = Transform::vertical(n, class);
        let tf_h = Transform::horizontal(n, class);

        for j in 0..iterations(n) {
            let t_side = n / 3u32.pow(j);
            let d = t_side / 27;
            let q = if j >= 1 && self.config.improved_q {
                Q_IMPROVED
            } else {
                Q_BASE
            };
            let set = TilingSet::new(t_side);
            // Iteration 0 has one tile, the mesh; later ones use all three.
            let tilings = &set.tilings[..if j == 0 { 1 } else { 3 }];
            // Lemma 19: entering iteration j ≥ 1, every class packet shares
            // a tile with its destination in one of the three tilings, in
            // the virtual frame of either axis — so some phase picks it up.
            if j >= 1 && is_perm {
                for (p, pos, dst) in st.live(class_pkts) {
                    for tf in [&tf_v, &tf_h] {
                        let (vp, vd) = (tf.to_virtual(pos.x, pos.y), tf.to_virtual(dst.x, dst.y));
                        assert!(
                            set.common_tile(vp.into(), vd.into()).is_some(),
                            "Lemma 19 violated entering iteration {j}: packet {p} at {pos} dst {dst} (tile {t_side})"
                        );
                    }
                }
            }
            // Vertical Phases, then Horizontal Phases (Figure 7: V1 V2 V3 H1 H2 H3).
            let scheduled = phase::scheduled_durations(d as u64, q as u64, t_side as u64).total();
            for tf in [&tf_v, &tf_h] {
                for tiling in tilings {
                    let check = self.config.check_lemma16;
                    let dur = phase::run_phase(st, sc, tf, tiling, q, class_pkts, check);
                    stats.quiescent_steps += dur.total();
                    stats.scheduled_steps += scheduled;
                }
            }
            // Lemma 18 + Lemma 19 invariant: at iteration end every class
            // packet is within 3d−1 of its destination in both dimensions.
            if is_perm {
                for (p, pos, dst) in st.live(class_pkts) {
                    assert!(
                        pos.dx(dst) < 3 * d && pos.dy(dst) < 3 * d,
                        "Lemma 18 violated after iteration {j}: packet {p} at {pos} dst {dst} (d={d})"
                    );
                }
            }
        }

        let bc = basecase::run_base_case(st, sc, class_pkts);
        stats.base_case_steps = bc;
        stats.quiescent_steps += bc;
        // Lemma 32: at most 14 steps — applicable when the iterations ran
        // (n ≥ 27) and the problem is a permutation.
        if n >= 27 && is_perm {
            assert!(bc <= 14, "Lemma 32 violated: base case took {bc}");
            stats.scheduled_steps += 14;
        } else {
            stats.scheduled_steps += bc;
        }
        stats
    }
}

/// True if `n` is a power of three: those are the divisors of `3²⁰`, the
/// largest one a `u32` holds.
pub fn is_power_of_3(n: u32) -> bool {
    n > 0 && 3u32.pow(20).is_multiple_of(n)
}

/// Iterations a side-`n` mesh runs per class: iteration `j` works on tiles
/// of side `n/3ʲ`, while that is at least 27.
fn iterations(n: u32) -> u32 {
    n.ilog(3).saturating_sub(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_traffic::workloads;

    #[test]
    fn power_of_3() {
        assert!(is_power_of_3(1));
        assert!(is_power_of_3(3));
        assert!(is_power_of_3(27));
        assert!(is_power_of_3(2187));
        assert!(!is_power_of_3(0));
        assert!(!is_power_of_3(2));
        assert!(!is_power_of_3(81 * 2));
    }

    #[test]
    fn try_route_rejects_unroutable_input() {
        let router = Section6Router::new();
        let pb = workloads::random_permutation(64, 1);
        let err = router.try_route(&pb).unwrap_err();
        assert_eq!(err, Section6Error::NotPowerOfThree { n: 64 });
        assert!(err.to_string().contains("power of 3 (got 64)"));

        let mut pb = workloads::random_permutation(27, 1);
        pb.packets[0].inject_at = 5;
        assert_eq!(router.try_route(&pb).unwrap_err(), Section6Error::NotStatic);

        // An off-grid endpoint is refused before any tile is built.
        let mut pb = workloads::random_permutation(9, 1);
        pb.packets[0].dst.y = 12;
        let err = router.try_route(&pb).unwrap_err();
        assert!(matches!(err, Section6Error::InvalidProblem(_)), "{err}");
        assert!(err.to_string().contains("out of the 9x9 grid"), "{err}");
    }

    #[test]
    fn tiny_mesh_base_case_only() {
        let pb = workloads::random_permutation(9, 1);
        let r = Section6Router::new().route(&pb);
        assert_eq!(r.delivered, 81);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn routes_random_permutation_n27() {
        let pb = workloads::random_permutation(27, 2);
        let r = Section6Router::new().route(&pb);
        assert_eq!(r.delivered, 27 * 27);
        assert_eq!(r.iterations, 1);
        assert!(r.scheduled_steps <= 972 * 27);
        assert!(r.max_node_load <= 834);
    }

    #[test]
    fn routes_transpose_n81_with_lemma16_checks() {
        let pb = workloads::transpose(81);
        let router = Section6Router {
            config: Section6Config {
                improved_q: false,
                check_lemma16: true,
            },
        };
        let r = router.route(&pb);
        assert_eq!(r.delivered, 81 * 81);
        assert_eq!(r.iterations, 2);
        assert_eq!(r.total_moves, pb.total_work(), "minimality (Theorem 20)");
    }

    #[test]
    fn improved_q_cuts_schedule() {
        let pb = workloads::random_permutation(81, 3);
        let base = Section6Router::new().route(&pb);
        let imp = Section6Router::improved().route(&pb);
        assert!(imp.scheduled_steps < base.scheduled_steps);
        assert!(imp.scheduled_steps <= 564 * 81);
        assert_eq!(imp.delivered, base.delivered);
    }
}

#[cfg(test)]
mod quadrant_tests {
    use super::*;
    use mesh_topo::Coord;
    use mesh_traffic::RoutingProblem;

    /// A permutation whose packets all belong to one quadrant class,
    /// exercising the reflected transforms end to end.
    fn single_quadrant_problem(n: u32, q: Quadrant) -> RoutingProblem {
        // Shift by (n/3 or -n/3) in each dimension per the quadrant signs —
        // a bijection on a subgrid; remaining nodes get no packet.
        let (sx, sy) = q.signs();
        let d = (n / 3) as i64;
        let mut pairs = Vec::new();
        for y in 0..n {
            for x in 0..n {
                let tx = x as i64 + sx * d;
                let ty = y as i64 + sy * d;
                if tx >= 0 && ty >= 0 && (tx as u32) < n && (ty as u32) < n {
                    pairs.push((Coord::new(x, y), Coord::new(tx as u32, ty as u32)));
                }
            }
        }
        RoutingProblem::from_pairs(n, format!("quadrant-{q}"), pairs)
    }

    #[test]
    fn every_quadrant_routes_through_its_transforms() {
        for q in [Quadrant::NE, Quadrant::NW, Quadrant::SE, Quadrant::SW] {
            let pb = single_quadrant_problem(81, q);
            assert!(pb
                .packets
                .iter()
                .all(|p| Quadrant::of(p.src, p.dst) == Some(q)));
            let router = Section6Router {
                config: Section6Config {
                    improved_q: false,
                    check_lemma16: true,
                },
            };
            let r = router.route(&pb);
            assert_eq!(r.delivered, pb.len(), "{q}");
            assert_eq!(r.total_moves, pb.total_work(), "{q} minimality");
            assert!(r.max_node_load <= 834);
            // Only one class is populated.
            let populated: Vec<usize> = r
                .per_class
                .iter()
                .enumerate()
                .filter(|(_, s)| s.packets > 0)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(populated.len(), 1, "{q}");
        }
    }

    #[test]
    fn pure_axis_packets_route() {
        // Due north / east / south / west packets exercise the quadrant
        // conventions (dx = 0 or dy = 0).
        let n = 27;
        let mut pairs = Vec::new();
        for x in 0..n {
            pairs.push((Coord::new(x, 0), Coord::new(x, n - 1))); // due north
        }
        for y in 1..n - 1 {
            pairs.push((Coord::new(0, y), Coord::new(n - 1, y))); // due east
        }
        let pb = RoutingProblem::from_pairs(n, "axes", pairs);
        let r = Section6Router::new().route(&pb);
        assert_eq!(r.delivered, pb.len());
        assert_eq!(r.total_moves, pb.total_work());
    }

    #[test]
    fn two_packet_swap_routes() {
        let pb = RoutingProblem::from_pairs(
            27,
            "swap",
            [
                (Coord::new(0, 0), Coord::new(26, 26)),
                (Coord::new(26, 26), Coord::new(0, 0)),
            ],
        );
        let r = Section6Router::new().route(&pb);
        assert_eq!(r.delivered, 2);
        assert_eq!(r.total_moves, 104);
    }

    #[test]
    fn improved_matches_base_delivery_everywhere() {
        for seed in 0..3 {
            let pb = mesh_traffic::workloads::random_partial_permutation(81, 0.7, seed);
            let a = Section6Router::new().route(&pb);
            let b = Section6Router::improved().route(&pb);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.total_moves, b.total_moves, "identical physical work");
        }
    }
}
