//! The packet: the unit of routing.

use mesh_topo::Coord;
use serde::{Deserialize, Serialize};

/// Dense packet identifier; index into the simulator's packet table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PacketId(pub u32);

impl PacketId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Debug for PacketId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Dense identifier of an end-to-end *payload* in a reliable transport.
///
/// A payload is the unit a transport promises to deliver exactly once; the
/// network may carry it as several [`PacketId`]s over time (the original
/// transmission plus retransmissions, each a distinct packet). Kept here, next
/// to [`PacketId`], so the packet/payload distinction is part of the shared
/// traffic vocabulary rather than private to the transport crate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PayloadId(pub u32);

impl PayloadId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Debug for PayloadId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "y{}", self.0)
    }
}

/// A packet.
///
/// Per §2 of the paper, a packet carries: a **source address** and
/// **destination address** (immutable identity — but note an adversarial
/// *exchange* swaps the destinations of two packets while leaving everything
/// else untouched), and a **state**: "information that can be modified by a
/// node when the packet is in the node … transmitted along with the packet".
/// We give the state a single 64-bit word, which is ample for every policy in
/// the paper (arrival times, direction flags, phase counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    pub id: PacketId,
    /// Where the packet originates.
    pub src: Coord,
    /// Where the packet must be delivered.
    pub dst: Coord,
    /// Step at the beginning of which the packet appears at `src`
    /// (0 for the static problems of §§3–6; later for dynamic problems, §5).
    pub inject_at: u64,
    /// The packet's mutable state word.
    pub state: u64,
}

impl Packet {
    /// Creates a static packet (injected at step 0, zero state).
    pub fn new(id: u32, src: Coord, dst: Coord) -> Packet {
        Packet {
            id: PacketId(id),
            src,
            dst,
            inject_at: 0,
            state: 0,
        }
    }

    /// Creates a packet injected at a given step (dynamic problems, §5).
    pub fn injected_at(id: u32, src: Coord, dst: Coord, step: u64) -> Packet {
        Packet {
            inject_at: step,
            ..Packet::new(id, src, dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let p = Packet::new(7, Coord::new(1, 2), Coord::new(3, 4));
        assert_eq!(p.id, PacketId(7));
        assert_eq!(p.inject_at, 0);
        assert_eq!(p.state, 0);

        let q = Packet::injected_at(8, Coord::new(5, 5), Coord::new(5, 5), 42);
        assert_eq!(q.inject_at, 42);
    }
}
