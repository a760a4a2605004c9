//! The compiled form of a fault plan: one interval table per fault kind,
//! answering point queries by a scan of one entity's few intervals, plus
//! the step-indexed listing of active faults for diagnostics.

use crate::faults::FaultPlan;
use mesh_topo::{Coord, Dir, Link};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One fault active at a queried step — the diagnostic view embedded in the
/// engine's failure snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActiveFault {
    LinkDown(Link),
    NodeStalled(Coord),
    QueueDegraded { node: Coord, slots: u32 },
    LinkLossy(Link),
}

impl core::fmt::Display for ActiveFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ActiveFault::LinkDown(l) => write!(f, "link {l} down"),
            ActiveFault::NodeStalled(c) => write!(f, "node {c} stalled"),
            ActiveFault::QueueDegraded { node, slots } => {
                write!(f, "node {node} degraded by {slots} slot(s)")
            }
            ActiveFault::LinkLossy(l) => write!(f, "link {l} lossy"),
        }
    }
}

/// The four fault kinds, in [`CompiledFaults::active_at`]'s listing order;
/// each indexes its own table. A link kind is keyed by the link's dense
/// index, a node kind by the node's row-major index.
#[derive(Clone, Copy)]
enum Kind {
    Down,
    Stall,
    Degrade,
    Loss,
}

const KINDS: [Kind; 4] = [Kind::Down, Kind::Stall, Kind::Degrade, Kind::Loss];

/// Per entity key, its `[from, until)` intervals with a payload, sorted by
/// start and possibly overlapping. `u64::MAX` encodes "forever".
type Table = HashMap<u32, Vec<(u64, u64, u32)>>;

/// A [`FaultPlan`] compiled for point queries. The engine holds the one
/// copy a run has, and hands it to policies through the full handles.
#[derive(Clone, Debug, Default)]
pub struct CompiledFaults {
    n: u32,
    last_transition: u64,
    tables: [Table; 4],
}

impl CompiledFaults {
    pub(crate) fn new(plan: &FaultPlan) -> CompiledFaults {
        let n = plan.n;
        let (link, node) = (|l: Link| l.index(n) as u32, |c: Coord| c.y * n + c.x);
        let mut c = CompiledFaults {
            n,
            ..CompiledFaults::default()
        };
        let mut add = |kind: Kind, key: u32, from: u64, until: Option<u64>, load: u32| {
            c.last_transition = c.last_transition.max(until.unwrap_or(0));
            let intervals = c.tables[kind as usize].entry(key).or_default();
            intervals.push((from, until.unwrap_or(u64::MAX), load));
        };
        for f in &plan.links {
            add(Kind::Down, link(f.link), f.from, f.until, 1);
        }
        for f in &plan.stalls {
            add(Kind::Stall, node(f.node), f.from, f.until, 1);
        }
        for f in &plan.degrades {
            add(Kind::Degrade, node(f.node), f.from, f.until, f.slots);
        }
        for f in &plan.losses {
            add(Kind::Loss, link(f.link), f.from, f.until, 1);
        }
        for intervals in c.tables.iter_mut().flat_map(Table::values_mut) {
            intervals.sort_unstable();
        }
        c
    }

    /// The fault model's one rule: the summed payload of the `kind`
    /// intervals of entity `key` that contain `step`. Entity fault lists
    /// are tiny, so a scan is simpler than an interval tree.
    #[inline]
    fn load(&self, kind: Kind, key: u32, step: u64) -> u32 {
        let Some(intervals) = self.tables[kind as usize].get(&key) else {
            return 0;
        };
        intervals
            .iter()
            .take_while(|&&(from, _, _)| from <= step)
            .filter(|&&(_, until, _)| step < until)
            .map(|&(_, _, load)| load)
            .sum()
    }

    #[inline]
    fn link(&self, node: Coord, dir: Dir) -> u32 {
        Link::new(node, dir).index(self.n) as u32
    }

    #[inline]
    fn node(&self, node: Coord) -> u32 {
        node.y * self.n + node.x
    }

    /// Grid side the plan was built for.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// True when the source plan had no faults: the engine then runs
    /// exactly as with no plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(Table::is_empty)
    }

    /// The last step at which any *finite* fault interval lifts; from this
    /// step on, the fault state never changes again (permanent faults stay).
    /// Watchdogs use this to avoid declaring deadlock while a transient
    /// fault that might still lift is blocking traffic.
    #[inline]
    pub fn last_transition(&self) -> u64 {
        self.last_transition
    }

    /// Is the `dir` outlink of `node` down at `step`?
    #[inline]
    pub fn link_down(&self, step: u64, node: Coord, dir: Dir) -> bool {
        self.load(Kind::Down, self.link(node, dir), step) > 0
    }

    /// Is `node` stalled at `step`?
    #[inline]
    pub fn node_stalled(&self, step: u64, node: Coord) -> bool {
        self.load(Kind::Stall, self.node(node), step) > 0
    }

    /// Queue slots lost by `node` at `step` (0 = healthy).
    #[inline]
    pub fn degraded_slots(&self, step: u64, node: Coord) -> u32 {
        self.load(Kind::Degrade, self.node(node), step)
    }

    /// Is the `dir` outlink of `node` lossy at `step`? A packet transmitted
    /// across a lossy link is destroyed by the engine instead of arriving.
    #[inline]
    pub fn link_lossy(&self, step: u64, node: Coord, dir: Dir) -> bool {
        self.load(Kind::Loss, self.link(node, dir), step) > 0
    }

    /// True when the plan contains lossy links at all.
    #[inline]
    pub fn has_losses(&self) -> bool {
        !self.tables[Kind::Loss as usize].is_empty()
    }

    /// Every fault active at `step` — down links, stalls, degradations,
    /// then lossy links, each kind in ascending link or node index: the
    /// diagnostics view.
    pub fn active_at(&self, step: u64) -> Vec<ActiveFault> {
        let mut out = Vec::new();
        for kind in KINDS {
            let mut keys: Vec<u32> = self.tables[kind as usize].keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let load = self.load(kind, key, step);
                if load == 0 {
                    continue;
                }
                let link = || Link::from_index(key as usize, self.n);
                let node = Coord::new(key % self.n, key / self.n);
                out.push(match kind {
                    Kind::Down => ActiveFault::LinkDown(link()),
                    Kind::Stall => ActiveFault::NodeStalled(node),
                    Kind::Degrade => ActiveFault::QueueDegraded { node, slots: load },
                    Kind::Loss => ActiveFault::LinkLossy(link()),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_boundaries_are_half_open() {
        let c = FaultPlan::none(8)
            .link_down(Coord::new(1, 1), Dir::East, 10, Some(20))
            .compile();
        let node = Coord::new(1, 1);
        assert!(!c.link_down(9, node, Dir::East));
        assert!(c.link_down(10, node, Dir::East));
        assert!(c.link_down(19, node, Dir::East));
        assert!(!c.link_down(20, node, Dir::East));
        assert!(!c.link_down(10, node, Dir::West), "other dirs unaffected");
    }

    #[test]
    fn forever_faults_never_lift() {
        let c = FaultPlan::none(4)
            .stall(Coord::new(2, 2), 5, None)
            .compile();
        assert!(!c.node_stalled(4, Coord::new(2, 2)));
        assert!(c.node_stalled(u64::MAX - 1, Coord::new(2, 2)));
    }

    #[test]
    fn overlapping_degradations_sum() {
        let c = FaultPlan::none(4)
            .degrade(Coord::new(0, 0), 1, 0, Some(100))
            .degrade(Coord::new(0, 0), 2, 50, Some(60))
            .compile();
        assert_eq!(c.degraded_slots(10, Coord::new(0, 0)), 1);
        assert_eq!(c.degraded_slots(55, Coord::new(0, 0)), 3);
        assert_eq!(c.degraded_slots(60, Coord::new(0, 0)), 1);
    }

    #[test]
    fn active_at_is_sorted_and_complete() {
        // All four kinds; two link faults added out of index order, so the
        // listing's order is the table's, not the plan's; overlapping
        // degradations; permanent and transient intervals.
        let (a, b) = (Coord::new(5, 4), Coord::new(3, 0));
        let (s, d) = (Coord::new(1, 1), Coord::new(2, 2));
        let c = FaultPlan::none(8)
            .link_down(a, Dir::East, 5, Some(30))
            .link_down(b, Dir::North, 0, None)
            .stall(s, 0, Some(10))
            .degrade(d, 1, 0, None)
            .degrade(d, 2, 20, Some(40))
            .lossy(a, Dir::South, 12, Some(25))
            .compile();
        let down = |node, dir| ActiveFault::LinkDown(Link::new(node, dir));
        let lossy = ActiveFault::LinkLossy(Link::new(a, Dir::South));
        let degraded = |slots| ActiveFault::QueueDegraded { node: d, slots };
        assert_eq!(
            c.active_at(0),
            vec![
                down(b, Dir::North),
                ActiveFault::NodeStalled(s),
                degraded(1)
            ]
        );
        assert_eq!(
            c.active_at(9),
            vec![
                down(b, Dir::North),
                down(a, Dir::East),
                ActiveFault::NodeStalled(s),
                degraded(1)
            ]
        );
        assert_eq!(
            c.active_at(24),
            vec![down(b, Dir::North), down(a, Dir::East), degraded(3), lossy]
        );
        assert_eq!(c.active_at(30), vec![down(b, Dir::North), degraded(3)]);
        assert_eq!(c.active_at(40), vec![down(b, Dir::North), degraded(1)]);
        assert_eq!(c.last_transition(), 40);
    }

    #[test]
    fn lossy_intervals_are_half_open_and_independent_of_down() {
        let node = Coord::new(1, 1);
        let c = FaultPlan::none(8)
            .lossy(node, Dir::East, 10, Some(20))
            .compile();
        assert!(c.has_losses());
        assert!(!c.link_lossy(9, node, Dir::East));
        assert!(c.link_lossy(10, node, Dir::East));
        assert!(c.link_lossy(19, node, Dir::East));
        assert!(!c.link_lossy(20, node, Dir::East));
        assert!(!c.link_down(15, node, Dir::East), "lossy is not down");
        assert_eq!(c.last_transition(), 20);
        let at15 = c.active_at(15);
        assert_eq!(
            at15,
            vec![ActiveFault::LinkLossy(Link::new(node, Dir::East))]
        );
        assert_eq!(at15[0].to_string(), "link (1,1)-E lossy");
    }

    #[test]
    fn empty_plan_compiles_to_empty_fast_path() {
        let c = FaultPlan::none(16).compile();
        assert!(c.is_empty());
        assert!(!c.link_down(0, Coord::new(0, 0), Dir::East));
        assert!(c.active_at(0).is_empty());
    }
}
