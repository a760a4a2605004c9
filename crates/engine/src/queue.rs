//! Queue architectures: central queues (§2) and per-inlink queues (§5,
//! Theorem 15).

use mesh_topo::Dir;
use serde::{Deserialize, Serialize};

/// Which queue within a node a packet occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueKind {
    /// The single central queue of the §2 model.
    Central,
    /// The inlink queue at the given side of the node: `Inlink(North)` holds
    /// packets that entered across the link *from the northern neighbor*
    /// (i.e. packets travelling south) — the paper's "North queue"
    /// (Theorem 15).
    Inlink(Dir),
    /// Packets that originate at the node and have not yet been transmitted,
    /// in the per-inlink architecture (which has no central queue to start
    /// them in). Capacity is not bounded by `k`; for a permutation it never
    /// holds more than the one originating packet.
    Injection,
}

impl QueueKind {
    /// Dense per-node index: 0 for the central queue (or `Inlink(North)`),
    /// 1–3 the other inlink queues, 4 the injection queue. Stable across a
    /// run — usable as an array index when bucketing per-queue counts.
    pub fn slot(self) -> usize {
        match self {
            QueueKind::Central => 0,
            QueueKind::Inlink(d) => d.index(),
            QueueKind::Injection => 4,
        }
    }
}

/// The queue architecture of every node in a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueArch {
    /// One central queue of capacity `k ≥ 1` per node (§2 model). Packets
    /// originating at a node start in its central queue.
    Central { k: u32 },
    /// Four inlink queues of capacity `k ≥ 1` each (§5 "Other Queue Types",
    /// used by Theorem 15), plus an injection queue for originating packets.
    PerInlink { k: u32 },
}

impl QueueArch {
    /// The per-queue capacity parameter `k`.
    pub fn k(self) -> u32 {
        match self {
            QueueArch::Central { k } | QueueArch::PerInlink { k } => k,
        }
    }

    /// The queue an arriving packet joins, given its direction of travel.
    pub fn arrival_queue(self, travel: Dir) -> QueueKind {
        match self {
            QueueArch::Central { .. } => QueueKind::Central,
            // Travelling north means entering from the southern side.
            QueueArch::PerInlink { .. } => QueueKind::Inlink(travel.opposite()),
        }
    }

    /// The queue an originating packet starts in.
    pub fn origin_queue(self) -> QueueKind {
        match self {
            QueueArch::Central { .. } => QueueKind::Central,
            QueueArch::PerInlink { .. } => QueueKind::Injection,
        }
    }

    /// Capacity of a given queue kind (`None` = unbounded).
    pub fn capacity(self, kind: QueueKind) -> Option<u32> {
        match (self, kind) {
            (QueueArch::Central { k }, QueueKind::Central) => Some(k),
            (QueueArch::PerInlink { k }, QueueKind::Inlink(_)) => Some(k),
            (_, QueueKind::Injection) => None,
            // Mixed combinations never occur; treat as unbounded for safety.
            _ => None,
        }
    }

    /// Number of queue slots a node needs under this architecture.
    pub(crate) fn num_slots(self) -> usize {
        match self {
            QueueArch::Central { .. } => 1,
            QueueArch::PerInlink { .. } => 5,
        }
    }

    /// The [`QueueKind`] stored at a dense slot index — the inverse of
    /// [`QueueKind::slot`] and the single source of the slot↔kind mapping
    /// the queue arena indexes by.
    pub(crate) fn slot_kind(self, slot: usize) -> QueueKind {
        match (self, slot) {
            (QueueArch::Central { .. }, _) => QueueKind::Central,
            (QueueArch::PerInlink { .. }, 4) => QueueKind::Injection,
            (QueueArch::PerInlink { .. }, s) => QueueKind::Inlink(Dir::from_index(s)),
        }
    }

    /// Initial arena capacity of every slot: `min(k, INLINE_CELLS)` inline
    /// cells, whatever the slot's kind. A queue that outgrows them — the
    /// unbounded injection queue under open-system staging, or a bounded
    /// queue whose `k` is larger — makes the arena rebuild itself with that
    /// slot doubled, so memory follows the occupancy a run reaches, not the
    /// bound it declares (`k = n²` is a legal way to say "unbounded").
    pub(crate) fn initial_slot_cap(self) -> u32 {
        self.k().min(INLINE_CELLS)
    }
}

/// Cells every queue slot starts with in the arena (when `k` allows that
/// many). Every `k ≤ 4` configuration is sized exactly by its bound.
const INLINE_CELLS: u32 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_queue_is_entry_side() {
        let a = QueueArch::PerInlink { k: 2 };
        // Travelling north = entering from the south side.
        assert_eq!(a.arrival_queue(Dir::North), QueueKind::Inlink(Dir::South));
        assert_eq!(a.arrival_queue(Dir::South), QueueKind::Inlink(Dir::North));
        let c = QueueArch::Central { k: 2 };
        assert_eq!(c.arrival_queue(Dir::East), QueueKind::Central);
    }

    #[test]
    fn capacities() {
        let c = QueueArch::Central { k: 3 };
        assert_eq!(c.capacity(QueueKind::Central), Some(3));
        let p = QueueArch::PerInlink { k: 2 };
        assert_eq!(p.capacity(QueueKind::Inlink(Dir::West)), Some(2));
        assert_eq!(p.capacity(QueueKind::Injection), None);
        assert_eq!(c.k(), 3);
        assert_eq!(p.k(), 2);
    }

    #[test]
    fn origin_queues() {
        assert_eq!(
            QueueArch::Central { k: 1 }.origin_queue(),
            QueueKind::Central
        );
        assert_eq!(
            QueueArch::PerInlink { k: 1 }.origin_queue(),
            QueueKind::Injection
        );
    }

    #[test]
    fn slots_are_distinct() {
        let kinds = [
            QueueKind::Inlink(Dir::North),
            QueueKind::Inlink(Dir::East),
            QueueKind::Inlink(Dir::South),
            QueueKind::Inlink(Dir::West),
            QueueKind::Injection,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for (j, b) in kinds.iter().enumerate() {
                assert_eq!(a.slot() == b.slot(), i == j);
            }
        }
    }
}
