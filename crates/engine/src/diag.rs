//! Failure diagnostics: what the simulation looked like when it got stuck.
//!
//! A [`SimError`](crate::SimError) carries a [`DiagnosticSnapshot`] instead
//! of bare counters, so a failed run can explain *which* packets are stuck
//! *where*, how full every node is, and which faults were active — the
//! information needed to tell a router bug from an injected partition.

use crate::faults::ActiveFault;
use mesh_topo::Coord;
use mesh_traffic::PacketId;
use serde::{Deserialize, Serialize};

/// One undelivered, in-network packet at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StuckPacket {
    pub id: PacketId,
    /// The node whose queue holds the packet.
    pub at: Coord,
    /// Its (current, post-exchange) destination.
    pub dst: Coord,
    /// Link traversals it managed before getting stuck.
    pub hops: u32,
}

/// Occupancy of one non-empty node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeOccupancy {
    pub node: Coord,
    /// Packets across all the node's queues — summed straight off the
    /// queue arena's row of lengths for the node (DESIGN.md §14), so
    /// building a snapshot of a large, mostly-empty mesh costs one short
    /// row per node.
    pub load: u32,
}

/// The state of a simulation at the moment a run failed (step cap, deadlock,
/// or livelock). Serializable, so chaos sweeps can persist outcomes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct DiagnosticSnapshot {
    /// Steps executed when the snapshot was taken.
    pub step: u64,
    pub delivered: usize,
    pub total: usize,
    /// Packets still outside the network (waiting for injection or queue
    /// space at their source).
    pub pending: usize,
    /// Packets destroyed by lossy links — undeliverable without a
    /// retransmission layer.
    pub lost: usize,
    /// Packets rejected at the injection edge by admission control.
    pub shed: usize,
    /// Packets whose deadline passed — staged at the edge or queued
    /// in-network (`DeadlineExpiry`).
    pub expired: usize,
    /// Packets currently staged at injection edges — due but not yet
    /// admitted (the instantaneous backlog, not the cumulative
    /// packet-step counter).
    pub deferred: usize,
    /// Packets whose injection time had been reached when the snapshot
    /// was taken; `offered / step` is the realized offered rate.
    pub offered: usize,
    /// Every undelivered in-network packet: id, location, destination, hops.
    pub stuck: Vec<StuckPacket>,
    /// Queue occupancy of every non-empty node.
    pub occupancy: Vec<NodeOccupancy>,
    /// Faults active at `step` (empty when running without a fault plan).
    pub active_faults: Vec<ActiveFault>,
}

/// How many stuck packets / hot nodes / faults `Display` spells out before
/// eliding. One limit for every list, so every rendering of a snapshot —
/// `SimError` messages, panic messages, log lines — elides the same way.
const DISPLAY_LIMIT: usize = 8;

impl core::fmt::Display for DiagnosticSnapshot {
    /// The one human-readable rendering of a snapshot. `SimError`'s
    /// `Display` delegates here; nothing else in the workspace formats
    /// snapshots by hand.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "step {}: {}/{} delivered, {} stuck in network, {} pending",
            self.step,
            self.delivered,
            self.total,
            self.stuck.len(),
            self.pending
        )?;
        if self.lost > 0 {
            write!(f, ", {} lost to faulty links", self.lost)?;
        }
        // Overload segment: only open-system runs (admission control
        // shedding/expiring or an edge backlog) produce it, so closed-system
        // diagnostics render exactly as before.
        if self.shed > 0 || self.expired > 0 || self.deferred > 0 {
            write!(
                f,
                "; overload: {} shed, {} expired, {} deferred at edges",
                self.shed, self.expired, self.deferred
            )?;
            if self.step > 0 {
                write!(
                    f,
                    ", offered rate {:.3}/step",
                    self.offered as f64 / self.step as f64
                )?;
            }
        }
        if !self.stuck.is_empty() {
            write!(f, "; stuck:")?;
            for p in self.stuck.iter().take(DISPLAY_LIMIT) {
                write!(f, " #{} at {} -> {} ({} hops)", p.id.0, p.at, p.dst, p.hops)?;
            }
            if self.stuck.len() > DISPLAY_LIMIT {
                write!(f, " … and {} more", self.stuck.len() - DISPLAY_LIMIT)?;
            }
        }
        if !self.occupancy.is_empty() {
            // Hottest nodes first; ties resolve by grid order so the
            // rendering is deterministic.
            let mut hot: Vec<&NodeOccupancy> = self.occupancy.iter().collect();
            hot.sort_by_key(|o| (core::cmp::Reverse(o.load), o.node.y, o.node.x));
            write!(f, "; hottest:")?;
            for (i, o) in hot.iter().take(DISPLAY_LIMIT).enumerate() {
                write!(f, "{} {}={}", if i == 0 { "" } else { "," }, o.node, o.load)?;
            }
            if hot.len() > DISPLAY_LIMIT {
                write!(f, " … and {} more", hot.len() - DISPLAY_LIMIT)?;
            }
        }
        if !self.active_faults.is_empty() {
            write!(f, "; active faults:")?;
            for (i, fault) in self.active_faults.iter().take(DISPLAY_LIMIT).enumerate() {
                write!(f, "{} {fault}", if i == 0 { "" } else { "," })?;
            }
            if self.active_faults.len() > DISPLAY_LIMIT {
                write!(
                    f,
                    " … and {} more",
                    self.active_faults.len() - DISPLAY_LIMIT
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_elides_long_stuck_lists() {
        let snap = DiagnosticSnapshot {
            step: 100,
            delivered: 3,
            total: 20,
            pending: 2,
            lost: 0,
            shed: 0,
            expired: 0,
            deferred: 0,
            offered: 20,
            stuck: (0..15)
                .map(|i| StuckPacket {
                    id: PacketId(i),
                    at: Coord::new(i, 0),
                    dst: Coord::new(i, 5),
                    hops: 0,
                })
                .collect(),
            occupancy: vec![],
            active_faults: vec![],
        };
        let s = snap.to_string();
        assert!(s.contains("3/20 delivered"));
        assert!(s.contains("… and 7 more"), "got: {s}");
    }

    #[test]
    fn display_renders_losses_and_hottest_nodes() {
        let snap = DiagnosticSnapshot {
            step: 9,
            delivered: 5,
            total: 10,
            pending: 1,
            lost: 2,
            shed: 0,
            expired: 0,
            deferred: 0,
            offered: 10,
            stuck: vec![],
            occupancy: vec![
                NodeOccupancy {
                    node: Coord::new(0, 0),
                    load: 1,
                },
                NodeOccupancy {
                    node: Coord::new(3, 1),
                    load: 4,
                },
            ],
            active_faults: vec![],
        };
        let s = snap.to_string();
        assert!(s.contains("2 lost to faulty links"), "got: {s}");
        // Hottest node leads the occupancy list.
        assert!(s.contains("hottest: (3,1)=4, (0,0)=1"), "got: {s}");
    }

    #[test]
    fn display_renders_overload_segment_only_when_present() {
        let mut snap = DiagnosticSnapshot {
            step: 50,
            delivered: 40,
            total: 100,
            pending: 45,
            lost: 0,
            shed: 7,
            expired: 3,
            deferred: 5,
            offered: 60,
            stuck: vec![],
            occupancy: vec![],
            active_faults: vec![],
        };
        let s = snap.to_string();
        assert!(
            s.contains("overload: 7 shed, 3 expired, 5 deferred at edges"),
            "got: {s}"
        );
        assert!(s.contains("offered rate 1.200/step"), "got: {s}");
        // A closed-system snapshot renders without the segment.
        (snap.shed, snap.expired, snap.deferred) = (0, 0, 0);
        assert!(!snap.to_string().contains("overload:"));
    }

    #[test]
    fn snapshot_roundtrips_through_serde() {
        let snap = DiagnosticSnapshot {
            step: 7,
            delivered: 1,
            total: 2,
            pending: 0,
            lost: 0,
            shed: 1,
            expired: 2,
            deferred: 3,
            offered: 2,
            stuck: vec![StuckPacket {
                id: PacketId(1),
                at: Coord::new(0, 0),
                dst: Coord::new(3, 3),
                hops: 2,
            }],
            occupancy: vec![NodeOccupancy {
                node: Coord::new(0, 0),
                load: 1,
            }],
            active_faults: vec![],
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: DiagnosticSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
