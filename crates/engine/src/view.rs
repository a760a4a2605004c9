//! What a routing policy sees of a node: bit-packed per-packet descriptors
//! plus borrowed handles that read the cold packet columns on demand.
//!
//! §2 fixes the information a policy may use — packet state, source
//! address and profitable outlinks, plus queue and age; the destination
//! only outside the destination-exchangeable class. The engine hands a
//! policy the hot part as plain words ([`PackedView`] per resident,
//! [`PackedArrival`] per offered packet, the arena's per-slot occupancy
//! row) and the cold part as a handle over the packet table: nothing is
//! copied that the policy does not ask for. The handles come in two
//! privilege levels. [`DxResidents`]/[`DxArrivals`] read `id`, `src` and
//! `state`; [`FullResidents`]/[`FullArrivals`] deref to them and add `dst`
//! and `faults`, the run's compiled fault plan (DESIGN.md §7). A
//! destination-exchangeable policy is given the former, so it has no
//! expression that yields a destination, and it sees faults only as a
//! wrapper above it has masked them into its profitable sets.

use crate::faults::CompiledFaults;
use crate::hook::ScheduledMove;
use crate::storage::{NodeGrid, PacketStore};
use mesh_topo::{Coord, Dir, DirSet};
use mesh_traffic::PacketId;
use std::ops::Deref;

/// Bit-packed resident descriptor.
///
/// Layout (low to high): bits `0..4` the profitable-outlink mask (indexed by
/// `Dir as u8`), bits `4..8` the holding queue *slot* under the router's own
/// declared [`QueueArch`](crate::QueueArch) (Central: 0; PerInlink: `0..4` =
/// `Inlink(Dir)`, 4 = `Injection`), bits `8..32` the FIFO position within
/// that queue (0 = oldest). A whole node's residents fit in one cache line
/// for typical queue bounds.
///
/// The slot index is the same one the queue arena uses to address its
/// inline cells (DESIGN.md §14), so building a descriptor from the grid is
/// a walk of the node's queue-length row — no `QueueKind` round-trip in the
/// hot path.
///
/// It carries no id, source, state word or destination: a policy that
/// needs one asks the handle passed beside the descriptors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedView(u32);

impl PackedView {
    /// Packs a resident descriptor. `slot` must be `< 16` and `pos < 2^24`
    /// (both are structurally guaranteed by the engine's queue bounds).
    #[inline]
    pub fn new(profitable: DirSet, slot: usize, pos: u32) -> PackedView {
        debug_assert!(slot < 16);
        debug_assert!(pos < (1 << 24));
        PackedView(profitable.bits() as u32 | ((slot as u32) << 4) | (pos << 8))
    }

    /// Profitable outlinks, measured from the holding node.
    #[inline]
    pub fn profitable(self) -> DirSet {
        DirSet::from_bits((self.0 & 0xF) as u8)
    }

    /// Holding-queue slot index under the router's declared arch.
    #[inline]
    pub fn slot(self) -> usize {
        ((self.0 >> 4) & 0xF) as usize
    }

    /// Arrival-order position within the queue (0 = oldest).
    #[inline]
    pub fn pos(self) -> u32 {
        self.0 >> 8
    }

    /// The same descriptor with its profitable set replaced (wrappers
    /// narrow it to hide outlinks from the policy they wrap).
    #[inline]
    pub fn with_profitable(self, profitable: DirSet) -> PackedView {
        PackedView((self.0 & !0xF) | profitable.bits() as u32)
    }
}

/// Bit-packed arrival descriptor.
///
/// Bits `0..4`: profitable mask measured from the *sending* node (§2). Bits
/// `4..6`: the direction of travel (`Dir as u8`). The arrival queue on the
/// accepting side is derivable (`travel.opposite()` inlink, or the central
/// queue), so it is not stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedArrival(u8);

impl PackedArrival {
    /// Packs an arrival descriptor.
    #[inline]
    pub fn new(profitable: DirSet, travel: Dir) -> PackedArrival {
        PackedArrival(profitable.bits() | ((travel as u8) << 4))
    }

    /// Profitable outlinks, measured from the sending node.
    #[inline]
    pub fn profitable(self) -> DirSet {
        DirSet::from_bits(self.0 & 0xF)
    }

    /// Direction of travel into the accepting node.
    #[inline]
    pub fn travel(self) -> Dir {
        Dir::from_index(((self.0 >> 4) & 0b11) as usize)
    }
}

/// The cold columns of one node's residents, read on demand. Index `i`
/// names the same packet as `pkts[i]` of the descriptor slice handed to the
/// policy (flattened slot order, oldest first within a slot).
#[derive(Clone, Copy)]
pub struct DxResidents<'a> {
    store: &'a PacketStore,
    grid: &'a NodeGrid,
    ni: usize,
}

impl<'a> DxResidents<'a> {
    /// The packet's identity.
    #[inline]
    pub fn id(&self, i: usize) -> PacketId {
        self.grid.nth_packet(self.ni, i)
    }

    /// The packet's source address.
    #[inline]
    pub fn src(&self, i: usize) -> Coord {
        self.store.src(self.id(i))
    }

    /// The packet's state word, as of the end of the previous step.
    #[inline]
    pub fn state(&self, i: usize) -> u64 {
        self.store.state(self.id(i))
    }
}

/// [`DxResidents`] plus the destination column and the fault plan: the
/// handle of the unrestricted [`Router`](crate::Router) class.
#[derive(Clone, Copy)]
pub struct FullResidents<'a> {
    dx: DxResidents<'a>,
    faults: Option<&'a CompiledFaults>,
}

impl<'a> FullResidents<'a> {
    pub(crate) fn new(
        store: &'a PacketStore,
        grid: &'a NodeGrid,
        ni: usize,
        faults: Option<&'a CompiledFaults>,
    ) -> Self {
        FullResidents {
            dx: DxResidents { store, grid, ni },
            faults,
        }
    }

    /// The packet's destination address.
    #[inline]
    pub fn dst(&self, i: usize) -> Coord {
        self.dx.store.dst(self.dx.id(i))
    }

    /// The engine's own compiled fault plan; `None` when the run has no
    /// plan or an empty one.
    #[inline]
    pub fn faults(&self) -> Option<&'a CompiledFaults> {
        self.faults
    }
}

impl<'a> Deref for FullResidents<'a> {
    type Target = DxResidents<'a>;

    #[inline]
    fn deref(&self) -> &DxResidents<'a> {
        &self.dx
    }
}

/// The cold columns of the packets offered to one node this step, read on
/// demand. Index `i` names the same packet as `arrivals[i]` of the
/// descriptor slice handed to the inqueue policy.
#[derive(Clone, Copy)]
pub struct DxArrivals<'a> {
    store: &'a PacketStore,
    schedule: &'a [ScheduledMove],
    /// Schedule indices of this node's arrival group, in offer order.
    group: &'a [u32],
}

impl<'a> DxArrivals<'a> {
    /// The offered packet's identity.
    #[inline]
    pub fn id(&self, i: usize) -> PacketId {
        self.schedule[self.group[i] as usize].pkt
    }

    /// The offered packet's source address.
    #[inline]
    pub fn src(&self, i: usize) -> Coord {
        self.store.src(self.id(i))
    }

    /// The offered packet's state word.
    #[inline]
    pub fn state(&self, i: usize) -> u64 {
        self.store.state(self.id(i))
    }
}

/// [`DxArrivals`] plus the destination column and the fault plan: the
/// handle of the unrestricted [`Router`](crate::Router) class.
#[derive(Clone, Copy)]
pub struct FullArrivals<'a> {
    dx: DxArrivals<'a>,
    faults: Option<&'a CompiledFaults>,
}

impl<'a> FullArrivals<'a> {
    pub(crate) fn new(
        store: &'a PacketStore,
        schedule: &'a [ScheduledMove],
        group: &'a [u32],
        faults: Option<&'a CompiledFaults>,
    ) -> Self {
        FullArrivals {
            dx: DxArrivals {
                store,
                schedule,
                group,
            },
            faults,
        }
    }

    /// The offered packet's destination address.
    #[inline]
    pub fn dst(&self, i: usize) -> Coord {
        self.dx.store.dst(self.dx.id(i))
    }

    /// The engine's own compiled fault plan; `None` when the run has no
    /// plan or an empty one.
    #[inline]
    pub fn faults(&self) -> Option<&'a CompiledFaults> {
        self.faults
    }
}

impl<'a> Deref for FullArrivals<'a> {
    type Target = DxArrivals<'a>;

    #[inline]
    fn deref(&self) -> &DxArrivals<'a> {
        &self.dx
    }
}
