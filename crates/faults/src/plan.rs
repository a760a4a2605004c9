//! Fault plans: declarative, seedable descriptions of what breaks when.

use crate::compiled::CompiledFaults;
use crate::error::FaultPlanError;
use crate::splitmix64;
use mesh_topo::{Coord, Dir, Link};
use serde::{Deserialize, Serialize};

/// A directed link carries nothing during `[from, until)` steps
/// (`until = None` means forever). Step numbering matches the engine's
/// 0-based step counter: a fault with `from = 0` is active from the first
/// simulated step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFault {
    pub link: Link,
    pub from: u64,
    pub until: Option<u64>,
}

/// A node skips scheduling during `[from, until)`: it neither sends,
/// accepts, nor injects. Packets it holds are frozen in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStall {
    pub node: Coord,
    pub from: u64,
    pub until: Option<u64>,
}

/// A node loses `slots` queue slots during `[from, until)`: every bounded
/// queue of the node accepts only while its occupancy is below
/// `capacity − slots` (floored at zero). Residents over the degraded
/// capacity are never evicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueDegrade {
    pub node: Coord,
    pub slots: u32,
    pub from: u64,
    pub until: Option<u64>,
}

/// A complete fault schedule for one simulation on a side-`n` grid.
///
/// Plans are plain data: build them field by field, with the fluent helpers,
/// or from a seed with [`FaultPlan::random`] /
/// [`FaultPlan::random_outages`]. Compile with [`FaultPlan::compile`] (or
/// the non-panicking [`FaultPlan::try_compile`]) before handing to the
/// engine or to `FaultAware`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub n: u32,
    pub links: Vec<LinkFault>,
    pub stalls: Vec<NodeStall>,
    pub degrades: Vec<QueueDegrade>,
    /// Lossy links: a packet transmitted over the link during `[from, until)`
    /// is *destroyed* instead of arriving. Unlike a down link (which blocks
    /// the move, leaving the packet at its sender), a lossy link silently
    /// eats traffic — the failure mode the reliable-transport layer exists
    /// to recover from. Reuses [`LinkFault`] for the interval shape.
    pub losses: Vec<LinkFault>,
}

impl FaultPlan {
    /// The empty plan: nothing ever fails. The engine treats it exactly like
    /// running without a fault layer (zero behavior change, test-enforced).
    pub fn none(n: u32) -> FaultPlan {
        FaultPlan {
            n,
            ..FaultPlan::default()
        }
    }

    /// True when the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
            && self.stalls.is_empty()
            && self.degrades.is_empty()
            && self.losses.is_empty()
    }

    /// Adds a one-direction link fault over `[from, until)`.
    pub fn link_down(mut self, node: Coord, dir: Dir, from: u64, until: Option<u64>) -> Self {
        self.links.push(LinkFault {
            link: Link::new(node, dir),
            from,
            until,
        });
        self
    }

    /// Adds a both-directions (cable-cut) link fault over `[from, until)`.
    pub fn cable_cut(mut self, node: Coord, dir: Dir, from: u64, until: Option<u64>) -> Self {
        let link = Link::new(node, dir);
        self.links.push(LinkFault { link, from, until });
        if let Some(rev) = link.reverse() {
            self.links.push(LinkFault {
                link: rev,
                from,
                until,
            });
        }
        self
    }

    /// Adds a node stall over `[from, until)`.
    pub fn stall(mut self, node: Coord, from: u64, until: Option<u64>) -> Self {
        self.stalls.push(NodeStall { node, from, until });
        self
    }

    /// Adds a queue degradation of `slots` slots over `[from, until)`.
    pub fn degrade(mut self, node: Coord, slots: u32, from: u64, until: Option<u64>) -> Self {
        self.degrades.push(QueueDegrade {
            node,
            slots,
            from,
            until,
        });
        self
    }

    /// Makes the one-direction `dir` outlink of `node` lossy over
    /// `[from, until)`: packets transmitted across it are destroyed.
    pub fn lossy(mut self, node: Coord, dir: Dir, from: u64, until: Option<u64>) -> Self {
        self.losses.push(LinkFault {
            link: Link::new(node, dir),
            from,
            until,
        });
        self
    }

    /// Makes both directions of a cable lossy over `[from, until)`.
    pub fn lossy_cable(mut self, node: Coord, dir: Dir, from: u64, until: Option<u64>) -> Self {
        let link = Link::new(node, dir);
        self.losses.push(LinkFault { link, from, until });
        if let Some(rev) = link.reverse() {
            self.losses.push(LinkFault {
                link: rev,
                from,
                until,
            });
        }
        self
    }

    /// Draws a random plan: each *cable* (opposite-direction link pair) of
    /// the mesh fails independently with probability `density`, for a down
    /// interval starting uniformly in `[0, horizon)` and lasting between
    /// `horizon/8` and `horizon/2` steps; additionally, each node stalls
    /// with probability `density/4` for a `horizon/8`-to-`horizon/4`
    /// interval, and degrades one queue slot with probability `density/4`
    /// for an interval of the same shape.
    ///
    /// Fully determined by `(n, density, horizon, seed)` — no global RNG.
    pub fn random(n: u32, density: f64, horizon: u64, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::none(n);
        if density <= 0.0 || horizon == 0 {
            return plan;
        }
        // Distinct stream per fault class so adding classes never shifts
        // another class's draws.
        let mut s_link = seed ^ 0x11d3_a6fb_0a5c_4e97;
        let mut s_stall = seed ^ 0x5bd1_e995_7b42_d1c3;
        let mut s_deg = seed ^ 0xc2b2_ae3d_27d4_eb4f;
        let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
        let interval = |s: &mut u64, lo_div: u64, hi_div: u64| {
            let from = splitmix64(s) % horizon;
            let lo = (horizon / lo_div).max(1);
            let hi = (horizon / hi_div).max(lo + 1);
            let len = lo + splitmix64(s) % (hi - lo);
            (from, Some(from + len))
        };
        for link in Link::all_mesh(n) {
            // One draw per cable: visit each undirected pair once, from its
            // East/North endpoint.
            if !matches!(link.dir, Dir::East | Dir::North) {
                continue;
            }
            if unit(splitmix64(&mut s_link)) < density {
                let (from, until) = interval(&mut s_link, 8, 2);
                plan = plan.cable_cut(link.from, link.dir, from, until);
            } else {
                // Keep the stream aligned regardless of the branch taken.
                let _ = splitmix64(&mut s_link);
                let _ = splitmix64(&mut s_link);
            }
        }
        for y in 0..n {
            for x in 0..n {
                let node = Coord::new(x, y);
                if unit(splitmix64(&mut s_stall)) < density / 4.0 {
                    let (from, until) = interval(&mut s_stall, 8, 4);
                    plan = plan.stall(node, from, until);
                } else {
                    let _ = splitmix64(&mut s_stall);
                    let _ = splitmix64(&mut s_stall);
                }
                if unit(splitmix64(&mut s_deg)) < density / 4.0 {
                    let (from, until) = interval(&mut s_deg, 8, 4);
                    plan = plan.degrade(node, 1, from, until);
                } else {
                    let _ = splitmix64(&mut s_deg);
                    let _ = splitmix64(&mut s_deg);
                }
            }
        }
        plan
    }

    /// Draws a transient-outage plan: every fault interval is finite, no
    /// node ever stalls or loses queue slots, and no link goes permanently
    /// down — the network always heals, but while an outage is active its
    /// cable silently *loses* every packet sent across it, and with
    /// probability `density/4` a cable additionally goes down (blocking,
    /// not lossy) for a shorter interval. This is the adversary the
    /// reliable-transport layer is built against: raw dynamic injection
    /// loses packets under it, while retransmission recovers them.
    ///
    /// Loss intervals start uniformly in `[0, horizon)` and last between
    /// `horizon/8` and `horizon/2` steps. Fully determined by
    /// `(n, density, horizon, seed)`; its draw streams are independent of
    /// [`FaultPlan::random`]'s, so existing recorded chaos tables never
    /// shift.
    pub fn random_outages(n: u32, density: f64, horizon: u64, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::none(n);
        if density <= 0.0 || horizon == 0 {
            return plan;
        }
        let mut s_loss = seed ^ 0x9f86_3ca1_5dd0_13b7;
        let mut s_down = seed ^ 0x37e4_91ab_64f2_0c55;
        let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
        let interval = |s: &mut u64, lo_div: u64, hi_div: u64| {
            let from = splitmix64(s) % horizon;
            let lo = (horizon / lo_div).max(1);
            let hi = (horizon / hi_div).max(lo + 1);
            let len = lo + splitmix64(s) % (hi - lo);
            (from, Some(from + len))
        };
        for link in Link::all_mesh(n) {
            // One draw per cable, visited from its East/North endpoint.
            if !matches!(link.dir, Dir::East | Dir::North) {
                continue;
            }
            if unit(splitmix64(&mut s_loss)) < density {
                let (from, until) = interval(&mut s_loss, 8, 2);
                plan = plan.lossy_cable(link.from, link.dir, from, until);
            } else {
                let _ = splitmix64(&mut s_loss);
                let _ = splitmix64(&mut s_loss);
            }
            if unit(splitmix64(&mut s_down)) < density / 4.0 {
                let (from, until) = interval(&mut s_down, 8, 4);
                plan = plan.cable_cut(link.from, link.dir, from, until);
            } else {
                let _ = splitmix64(&mut s_down);
                let _ = splitmix64(&mut s_down);
            }
        }
        plan
    }

    /// Checks the plan for construction mistakes that `CompiledFaults`
    /// would otherwise accept silently: empty or inverted intervals,
    /// out-of-grid coordinates, duplicate link entries, and zero-slot
    /// degradations (a no-op that almost certainly meant `slots >= 1`).
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let check_interval = |what: &'static str, from: u64, until: Option<u64>| match until {
            Some(u) if u <= from => Err(FaultPlanError::EmptyInterval {
                what,
                from,
                until: u,
            }),
            _ => Ok(()),
        };
        let check_node = |what: &'static str, node: Coord| {
            if !node.on_grid(self.n) {
                Err(FaultPlanError::OutOfBounds {
                    what,
                    node,
                    n: self.n,
                })
            } else {
                Ok(())
            }
        };
        let check_links = |what: &'static str, faults: &[LinkFault]| {
            let mut seen = std::collections::HashSet::new();
            for lf in faults {
                check_interval(what, lf.from, lf.until)?;
                check_node(what, lf.link.from)?;
                match lf.link.to() {
                    Some(to) if to.on_grid(self.n) => {}
                    _ => {
                        return Err(FaultPlanError::OutOfBounds {
                            what,
                            node: lf.link.from,
                            n: self.n,
                        })
                    }
                }
                if !seen.insert((lf.link, lf.from, lf.until)) {
                    return Err(FaultPlanError::DuplicateLink {
                        what,
                        link: lf.link,
                        from: lf.from,
                        until: lf.until,
                    });
                }
            }
            Ok(())
        };
        check_links("link-down", &self.links)?;
        check_links("lossy-link", &self.losses)?;
        for st in &self.stalls {
            check_interval("stall", st.from, st.until)?;
            check_node("stall", st.node)?;
        }
        for dg in &self.degrades {
            check_interval("degrade", dg.from, dg.until)?;
            check_node("degrade", dg.node)?;
            if dg.slots == 0 {
                return Err(FaultPlanError::ZeroSlotDegrade { node: dg.node });
            }
        }
        Ok(())
    }

    /// Validates, then compiles the plan into the interval-query structure
    /// the engine and `FaultAware` consult.
    pub fn try_compile(&self) -> Result<CompiledFaults, FaultPlanError> {
        self.validate()?;
        Ok(CompiledFaults::new(self))
    }

    /// [`FaultPlan::try_compile`], panicking on an invalid plan (a
    /// construction bug, not a runtime condition).
    pub fn compile(&self) -> CompiledFaults {
        match self.try_compile() {
            Ok(c) => c,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(12, 0.1, 1000, 42);
        let b = FaultPlan::random(12, 0.1, 1000, 42);
        assert_eq!(a, b);
        let c = FaultPlan::random(12, 0.1, 1000, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn zero_density_is_empty() {
        assert!(FaultPlan::random(8, 0.0, 1000, 7).is_empty());
        assert!(FaultPlan::none(8).is_empty());
    }

    #[test]
    fn density_scales_fault_count() {
        let lo = FaultPlan::random(16, 0.02, 1000, 5);
        let hi = FaultPlan::random(16, 0.3, 1000, 5);
        assert!(hi.links.len() > lo.links.len());
    }

    #[test]
    fn cable_cut_adds_both_directions() {
        let p = FaultPlan::none(8).cable_cut(Coord::new(2, 3), Dir::East, 5, Some(10));
        assert_eq!(p.links.len(), 2);
        assert_eq!(p.links[0].link, Link::new(Coord::new(2, 3), Dir::East));
        assert_eq!(p.links[1].link, Link::new(Coord::new(3, 3), Dir::West));
    }

    #[test]
    fn plans_roundtrip_through_serde() {
        let p = FaultPlan::random(8, 0.2, 500, 9)
            .stall(Coord::new(1, 1), 3, None)
            .degrade(Coord::new(2, 2), 1, 0, Some(50))
            .lossy(Coord::new(3, 3), Dir::East, 2, Some(9));
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn random_ignores_losses_so_recorded_chaos_tables_never_shift() {
        // `random_outages` must not perturb `random`'s draw streams and
        // vice versa: `random` still produces zero loss faults.
        let p = FaultPlan::random(12, 0.3, 1000, 42);
        assert!(p.losses.is_empty());
        assert!(!p.links.is_empty());
    }

    #[test]
    fn random_outages_are_transient_and_lossy() {
        let p = FaultPlan::random_outages(16, 0.25, 128, 7);
        assert!(!p.losses.is_empty(), "density 0.25 must draw some outages");
        assert!(p.stalls.is_empty() && p.degrades.is_empty());
        for f in p.losses.iter().chain(p.links.iter()) {
            let until = f.until.expect("no permanent faults in an outage plan");
            assert!(until > f.from);
        }
        assert_eq!(p, FaultPlan::random_outages(16, 0.25, 128, 7));
        assert_ne!(p, FaultPlan::random_outages(16, 0.25, 128, 8));
        assert!(p.validate().is_ok());
        assert!(FaultPlan::random_outages(16, 0.0, 128, 7).is_empty());
    }

    #[test]
    fn validate_rejects_empty_and_inverted_intervals() {
        let p = FaultPlan::none(8).link_down(Coord::new(1, 1), Dir::East, 10, Some(10));
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::EmptyInterval {
                what: "link-down",
                from: 10,
                until: 10
            })
        ));
        let p = FaultPlan::none(8).stall(Coord::new(0, 0), 20, Some(5));
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::EmptyInterval { .. })
        ));
        assert!(p.try_compile().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_link_entries() {
        let p = FaultPlan::none(8)
            .link_down(Coord::new(2, 2), Dir::North, 0, Some(9))
            .link_down(Coord::new(2, 2), Dir::North, 0, Some(9));
        match p.validate() {
            Err(FaultPlanError::DuplicateLink { what, link, .. }) => {
                assert_eq!(what, "link-down");
                assert_eq!(link, Link::new(Coord::new(2, 2), Dir::North));
            }
            other => panic!("expected DuplicateLink, got {other:?}"),
        }
        // Same link with a *different* interval is fine (back-to-back outages).
        let p = FaultPlan::none(8)
            .lossy(Coord::new(2, 2), Dir::North, 0, Some(9))
            .lossy(Coord::new(2, 2), Dir::North, 20, Some(30));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_grid_faults() {
        // Node outside the grid.
        let p = FaultPlan::none(4).stall(Coord::new(7, 0), 0, None);
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::OutOfBounds { .. })
        ));
        // Link pointing off the grid edge can never carry anything.
        let p = FaultPlan::none(4).link_down(Coord::new(3, 0), Dir::East, 0, None);
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::OutOfBounds { .. })
        ));
        // Zero-slot degradation is a silent no-op: reject.
        let p = FaultPlan::none(4).degrade(Coord::new(1, 1), 0, 0, Some(5));
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::ZeroSlotDegrade { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn compile_panics_on_invalid_plans() {
        let _ = FaultPlan::none(8)
            .lossy(Coord::new(1, 1), Dir::East, 5, Some(5))
            .compile();
    }
}
