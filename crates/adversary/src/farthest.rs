//! The §5 construction against dimension-order routing with the
//! **farthest-first** outqueue policy: `Ω(n²/k)` — even though that policy
//! reads full destination addresses and is *not* destination-exchangeable.
//!
//! "Define the N_i-column to be the (n+1−i)-th column and the i-box to be
//! the nodes west of and including the N_i-column and south of and
//! including row cn. Each of the nodes in the southernmost cn rows will send
//! one packet. The initial arrangement … no N_i-packet, for i ≥ 2, is in
//! the N_i-column and … no N_j-packet is further east in its row than any
//! N_i-packet in that row for j > i. The only exchange rule … for i ≥ 1,
//! j > i, if an N_j-packet is scheduled … to enter the N_j-column during
//! steps 1 to i·dn, then exchange that packet with an N_{j−1}-packet in the
//! (j+1)-box not scheduled to enter the N_j-column … one that is westernmost
//! in its row."
//!
//! Exchanging N_j with N_{j−1} shifts both packets' remaining horizontal
//! distances by exactly one column. The paper sketches ("it is not hard to
//! see") that the construction behaves identically to the algorithm run on
//! the constructed permutation. Our step-exact implementation confirms the
//! exact replay equivalence at k = 1 (where no farthest-first comparison
//! ever arises). At k ≥ 2 we observe that strict comparisons taken during
//! the construction can become ties in the replay (a packet's construction-
//! time class differs from its final class by pending demotions), so exact
//! commutation depends on tie-breaking details the paper does not specify —
//! the replay then diverges from the construction. **The theorem's content
//! is unaffected**: the replay itself still leaves packets undelivered at
//! `⌊l⌋·dn` steps on every instance we generate, which is what
//! `verify_lower_bound` certifies.

use crate::classify::Class;
use crate::constants::DimOrderParams;
use crate::driver::{construct, ConstructionOutcome, Demand, ExchangeRule, PartnerChoice};
use mesh_engine::{Router, ScheduledMove};
use mesh_topo::{Coord, Topology};
use mesh_traffic::RoutingProblem;

/// The §5 farthest-first construction.
#[derive(Clone, Debug)]
pub struct FarthestFirstConstruction {
    pub params: DimOrderParams,
}

impl FarthestFirstConstruction {
    /// Creates the construction; use [`DimOrderParams::farthest_first`].
    pub fn new(params: DimOrderParams) -> FarthestFirstConstruction {
        FarthestFirstConstruction { params }
    }

    /// `x` coordinate of the N_i-column: the `(n+1−i)`-th column, 1-based.
    #[inline]
    pub fn n_col(&self, i: u32) -> u32 {
        self.params.n - i
    }

    /// Runs the construction for `⌊l⌋·dn` steps against `router` (intended:
    /// the farthest-first dimension-order router).
    pub fn run<T: Topology, R: Router>(&self, topo: &T, router: R) -> ConstructionOutcome {
        construct(self, topo, router, None).unwrap_or_else(|breakdown| panic!("{breakdown}"))
    }
}

/// §5's one exchange rule for farthest-first.
impl ExchangeRule for FarthestFirstConstruction {
    const PARTNER: PartnerChoice = PartnerChoice::Westernmost;

    fn bound_steps(&self) -> u64 {
        self.params.bound_steps()
    }

    /// The i-box: `x ≤ n − i`, `y ≤ cn − 1`.
    fn in_box(&self, c: Coord, i: u32) -> bool {
        c.y < self.params.cn && c.x + i <= self.params.n
    }

    /// Class of a construction destination (N_i lives in column `n − i`,
    /// `y ≥ cn`).
    fn classify_dst(&self, d: Coord) -> Option<Class> {
        let DimOrderParams { n, cn, l, .. } = self.params;
        if d.y < cn || d.x >= n {
            return None;
        }
        let i = n - d.x;
        (1..=l).contains(&i).then_some(Class::N(i))
    }

    /// Step 1: the initial placement. Cells are filled column-major from the
    /// **east** (column `n−1` southward, then `n−2`, …), assigning classes
    /// in order N_1 × p, N_2 × p, …; this guarantees both required
    /// properties: classes never decrease westward within a row, and N_i
    /// (i ≥ 2) starts strictly west of its own column.
    fn initial_problem(&self) -> RoutingProblem {
        let DimOrderParams { n, cn, p, l, .. } = self.params;
        let n_dst = |i: u32, m: u32| Coord::new(self.n_col(i), n - 1 - m);
        let mut pairs: Vec<(Coord, Coord)> = Vec::with_capacity((p * l) as usize);
        let mut cells = (0..n)
            .rev()
            .flat_map(|x| (0..cn).map(move |y| Coord::new(x, y)));
        for i in 1..=l {
            for m in 0..p {
                let cell = cells.next().expect("source region too small");
                if i >= 2 {
                    assert!(
                        cell.x < self.n_col(i),
                        "N_{i} placement reached its own column — parameters too tight"
                    );
                }
                pairs.push((cell, n_dst(i, m)));
            }
        }
        RoutingProblem::from_pairs(
            n,
            format!(
                "clt-farthest-initial(n={n},k={},cn={cn},p={p},l={l})",
                self.params.k
            ),
            pairs,
        )
    }

    /// Entering the N_i-column from outside it.
    fn enters(&self, m: &ScheduledMove, line: Class) -> bool {
        let col = self.n_col(line.index());
        m.to.x == col && m.from.x != col
    }

    /// No N_j (j ≥ 2) enters its *own* column while some i < j is still
    /// protected (`t ≤ i·dn` for some i < j ⇔ `t ≤ (j−1)·dn`); the partner is
    /// the westernmost N_{j−1}-packet of the (j+1)-box not scheduled to enter
    /// the N_j-column. The packet is then an N_{j−1} and is checked again.
    fn violation(&self, t: u64, m: &ScheduledMove, cls: Class) -> Option<Demand> {
        let j = cls.index();
        (j >= 2 && self.enters(m, cls) && t <= (j as u64 - 1) * self.params.dn as u64).then_some(
            Demand {
                class: Class::N(j - 1),
                in_box: j + 1,
                line: cls,
            },
        )
    }

    fn constructed_label(&self) -> String {
        format!(
            "clt-farthest-constructed(n={},k={})",
            self.params.n, self.params.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::DimOrderParams;

    fn cons(n: u32, k: u32) -> FarthestFirstConstruction {
        FarthestFirstConstruction::new(DimOrderParams::farthest_first(n, k).unwrap())
    }

    #[test]
    fn placement_satisfies_the_two_stated_invariants() {
        let c = cons(216, 1);
        let pb = c.initial_problem();
        assert!(pb.is_partial_permutation());
        // Build per-row class sequences by x.
        let mut rows: std::collections::HashMap<u32, Vec<(u32, u32)>> =
            std::collections::HashMap::new();
        for pk in &pb.packets {
            let i = c.classify_dst(pk.dst).unwrap().index();
            // (a) no N_i (i >= 2) starts in its own column.
            if i >= 2 {
                assert_ne!(pk.src.x, c.n_col(i), "N_{i} in its own column");
            }
            rows.entry(pk.src.y).or_default().push((pk.src.x, i));
        }
        // (b) within each row, class indices never decrease westward
        // (equivalently: never increase eastward).
        for (y, mut v) in rows {
            v.sort_unstable();
            for w in v.windows(2) {
                assert!(
                    w[0].1 >= w[1].1,
                    "row {y}: class {} at x={} east of class {} at x={}",
                    w[1].1,
                    w[1].0,
                    w[0].1,
                    w[0].0
                );
            }
        }
    }

    #[test]
    fn classes_decode() {
        let c = cons(216, 1);
        assert_eq!(c.classify_dst(Coord::new(215, 215)), Some(Class::N(1)));
        let l = c.params.l;
        assert_eq!(c.classify_dst(Coord::new(216 - l, 215)), Some(Class::N(l)));
        // Below row cn: not a destination.
        assert_eq!(c.classify_dst(Coord::new(215, 0)), None);
    }
}
