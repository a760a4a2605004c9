//! Flat packet and queue storage: the [`PacketStore`] struct-of-arrays
//! packet table and the [`NodeGrid`] flat-slab queue arena.
//!
//! Everything the step pipeline reads or writes about packets and queues
//! lives here, behind named accessors instead of ad-hoc index math. Queue
//! cells live inline in one contiguous node-major slab (see DESIGN.md
//! §14), and the grid keeps an incremental per-node **occupancy bitmask**
//! (`occ`, which slots are non-empty) and **occupancy index** (`load`,
//! how many packets), so "how full is this node" — the question the
//! route, rebuild, and diagnostics paths ask constantly — is O(1), and
//! [`Sim::packets_at`](crate::sim::Sim::packets_at) answers straight from
//! the node's own slab region without touching the packet table.

use crate::phases::Progress;
use crate::queue::{QueueArch, QueueKind};
use crate::snapshot::{EventsSnap, PacketsSnap};
use mesh_topo::{Coord, Dir, DirSet, Topology};
use mesh_traffic::{PacketId, RoutingProblem};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Where a packet currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loc {
    /// Not yet injected (dynamic problems, or waiting for queue space).
    Pending,
    /// In some queue of the node at the given coordinate.
    At(Coord),
    /// Delivered and removed from the network.
    Delivered,
    /// Destroyed by a lossy link: transmitted, never arrived, gone for good.
    /// Only the reliable-transport layer can recover the payload (by
    /// spawning a retransmission as a fresh packet).
    Lost,
    /// Rejected by admission control before ever entering the network
    /// (open-system overload: `RejectNew` / `DropOldestDeferred`).
    Shed,
    /// Expired: its deadline (TTL) passed while it was staged at the
    /// edge or queued inside the network, and it was dropped there
    /// (`DeadlineExpiry`).
    Expired,
}

/// Sentinel in a snapshot's `delivered_at` column for packets not delivered.
const NOT_DELIVERED: u64 = u64::MAX;

/// Largest mesh side the engine runs: its `u32` node index caps `n²`
/// below 2^32, so every coordinate fits 16 bits and an endpoint packs into
/// one `u32` (`x | y << 16`) exactly.
pub(crate) const MAX_SIDE: u32 = u16::MAX as u32;

#[inline]
fn pack(c: Coord) -> u32 {
    c.x | c.y << 16
}

#[inline]
fn unpack(w: u32) -> Coord {
    Coord::new(w & 0xFFFF, w >> 16)
}

/// Where a packet is, as one word: bits 0–2 the [`Loc`] tag, bits 3–5 the
/// [`QueueKind`] it is in (or last left), and then either its packed
/// coordinate in bits 32–63 (`At`) or its delivery step in bits 6–63
/// (`Delivered`). The all-zero word is (`Pending`, `Central`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LocWord(u64);

const KIND_SHIFT: u32 = 3;
const KIND_BITS: u64 = 0b111 << KIND_SHIFT;
const STEP_SHIFT: u32 = 6;
const COORD_SHIFT: u32 = 32;
/// Delivery steps the word holds: `0..2^58`. No live run gets near it;
/// restore refuses a snapshot past it.
pub(crate) const STEP_LIMIT: u64 = 1 << (64 - STEP_SHIFT);

impl LocWord {
    /// The word of a packet at `loc` in (or last out of) queue `kind`;
    /// `delivered_at` is read only for `Delivered` and must be below
    /// [`STEP_LIMIT`].
    #[inline]
    fn new(loc: Loc, kind: QueueKind, delivered_at: u64) -> LocWord {
        let code = match kind {
            QueueKind::Central => 0,
            QueueKind::Inlink(d) => 1 + d.index() as u64,
            QueueKind::Injection => 5,
        };
        LocWord(code << KIND_SHIFT).moved_to(loc, delivered_at)
    }

    /// The same queue bits at location `loc`.
    #[inline]
    fn moved_to(self, loc: Loc, delivered_at: u64) -> LocWord {
        let (tag, payload) = match loc {
            Loc::Pending => (0, 0),
            Loc::At(c) => (1, (pack(c) as u64) << COORD_SHIFT),
            Loc::Delivered => {
                debug_assert!(delivered_at < STEP_LIMIT, "delivery step {delivered_at}");
                (2, delivered_at << STEP_SHIFT)
            }
            Loc::Lost => (3, 0),
            Loc::Shed => (4, 0),
            Loc::Expired => (5, 0),
        };
        LocWord(self.0 & KIND_BITS | payload | tag)
    }

    /// The queue's arena slot, straight off the bits: the codes are
    /// ordered so that it is the code less one, saturating (`Central` and
    /// `Inlink(North)` share slot 0).
    #[inline]
    fn slot(self) -> usize {
        ((self.0 & KIND_BITS) >> KIND_SHIFT).saturating_sub(1) as usize
    }

    #[inline]
    fn loc(self) -> Loc {
        match self.0 & 0b111 {
            0 => Loc::Pending,
            1 => Loc::At(unpack((self.0 >> COORD_SHIFT) as u32)),
            2 => Loc::Delivered,
            3 => Loc::Lost,
            4 => Loc::Shed,
            5 => Loc::Expired,
            _ => unreachable!("location tag of {self:?}"),
        }
    }

    #[inline]
    fn kind(self) -> QueueKind {
        match (self.0 >> KIND_SHIFT) & 0b111 {
            0 => QueueKind::Central,
            5 => QueueKind::Injection,
            d @ 1..=4 => QueueKind::Inlink(Dir::from_index(d as usize - 1)),
            _ => unreachable!("queue code of {self:?}"),
        }
    }

    #[inline]
    fn delivered_step(self) -> Option<u64> {
        (self.0 & 0b111 == 2).then_some(self.0 >> STEP_SHIFT)
    }
}

/// The packet table: one struct-of-arrays entry per packet, indexed by
/// [`PacketId`], 41 bytes each. Dense, append-only (protocol layers
/// [`push`](Self::push) retransmissions at runtime), never reordered.
/// Every column is private: other modules read and write through
/// accessors, so the packing is stated here once.
///
/// Where a packet *is* — the location word, hop count and cached mask — is
/// written only by [`enter`](Self::enter), [`depart`](Self::depart),
/// [`retire`](Self::retire) and [`refresh_mask`](Self::refresh_mask): `Loc`
/// and its `Progress` counter, `Σ hops` and `total_moves`, the cached mask
/// and `profitable(loc, dst)` stay equal by construction.
pub(crate) struct PacketStore {
    /// Packed endpoints (`x | y << 16`).
    src: Vec<u32>,
    dst: Vec<u32>,
    state: Vec<u64>,
    inject_at: Vec<u64>,
    /// One [`LocWord`] per packet: location, queue and delivery step.
    loc: Vec<LocWord>,
    hops: Vec<u32>,
    /// Cached profitable mask (`DirSet` bits) of the packet at its current
    /// location — the byte the bit-packed fast path reads instead of
    /// recomputing `topo.profitable(loc, dst)` per packet per step. Derived
    /// state, never serialized: [`refresh_mask`](Self::refresh_mask) is its
    /// one writer. Meaningless while a packet is outside the network.
    mask: Vec<u8>,
    /// Injection cursor: packet ids sorted by `inject_at` (in id for
    /// ties); `inject_order[inject_cursor..]` is the uninjected tail.
    inject_order: Vec<PacketId>,
    inject_cursor: usize,
}

impl PacketStore {
    pub(crate) fn new(problem: &RoutingProblem) -> Self {
        let np = problem.len();
        let mut store = PacketStore {
            src: problem.packets.iter().map(|p| pack(p.src)).collect(),
            dst: problem.packets.iter().map(|p| pack(p.dst)).collect(),
            state: problem.packets.iter().map(|p| p.state).collect(),
            inject_at: problem.packets.iter().map(|p| p.inject_at).collect(),
            loc: vec![LocWord(0); np],
            hops: vec![0; np],
            mask: vec![0; np],
            inject_order: (0..np as u32).map(PacketId).collect(),
            inject_cursor: 0,
        };
        // A total key: exactly the stable sort by due step, without its
        // scratch buffer.
        let inject_at = &store.inject_at;
        store
            .inject_order
            .sort_unstable_by_key(|p| (inject_at[p.index()], p.0));
        store
    }

    /// Total packets ever created (original problem plus runtime spawns).
    pub(crate) fn len(&self) -> usize {
        self.src.len()
    }

    /// Every packet id, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = PacketId> {
        (0..self.len() as u32).map(PacketId)
    }

    /// Appends a fresh packet record, keeping the uninjected tail of
    /// `inject_order` sorted by `inject_at` (ties resolve in spawn order,
    /// matching the constructor's order by id). Returns its id.
    pub(crate) fn push(&mut self, src: Coord, dst: Coord, inject_at: u64) -> PacketId {
        let id = PacketId(self.src.len() as u32);
        self.src.push(pack(src));
        self.dst.push(pack(dst));
        self.state.push(0);
        self.inject_at.push(inject_at);
        self.loc.push(LocWord(0));
        self.hops.push(0);
        self.mask.push(0);
        let inject_at_of = &self.inject_at;
        let tail = &self.inject_order[self.inject_cursor..];
        let at =
            self.inject_cursor + tail.partition_point(|p| inject_at_of[p.index()] <= inject_at);
        self.inject_order.insert(at, id);
        id
    }

    /// The next packet in injection order if it is due by step `t`,
    /// advancing the cursor past it.
    #[inline]
    pub(crate) fn next_due(&mut self, t: u64) -> Option<PacketId> {
        let &pid = self.inject_order.get(self.inject_cursor)?;
        if self.inject_at[pid.index()] > t {
            return None;
        }
        self.inject_cursor += 1;
        Some(pid)
    }

    /// The packets not yet offered, in injection order.
    pub(crate) fn uninjected(&self) -> &[PacketId] {
        &self.inject_order[self.inject_cursor..]
    }

    /// True when every scheduled injection has been staged (packets may
    /// still wait in per-node pending queues — see
    /// [`NodeGrid::has_pending`]).
    pub(crate) fn cursor_exhausted(&self) -> bool {
        self.inject_cursor >= self.inject_order.len()
    }

    /// Packets whose injection time has arrived so far (staged, entered,
    /// delivered, shed, or expired — everything past the cursor).
    pub(crate) fn offered(&self) -> usize {
        self.inject_cursor
    }

    #[inline]
    pub(crate) fn src(&self, pid: PacketId) -> Coord {
        unpack(self.src[pid.index()])
    }

    /// The current destination (adversary exchanges rewrite it).
    #[inline]
    pub(crate) fn dst(&self, pid: PacketId) -> Coord {
        unpack(self.dst[pid.index()])
    }

    /// Exchanges two packets' destinations. The caller refreshes both
    /// cached masks (it has the topology).
    pub(crate) fn swap_dst(&mut self, a: PacketId, b: PacketId) {
        self.dst.swap(a.index(), b.index());
    }

    #[inline]
    pub(crate) fn state(&self, pid: PacketId) -> u64 {
        self.state[pid.index()]
    }

    #[inline]
    pub(crate) fn set_state(&mut self, pid: PacketId, state: u64) {
        self.state[pid.index()] = state;
    }

    /// The step the packet is (or was) due for injection.
    #[inline]
    pub(crate) fn inject_at(&self, pid: PacketId) -> u64 {
        self.inject_at[pid.index()]
    }

    /// Where the packet is.
    #[inline]
    pub(crate) fn loc(&self, pid: PacketId) -> Loc {
        self.loc[pid.index()].loc()
    }

    /// The queue holding the packet (meaningful while it is `Loc::At`).
    #[inline]
    pub(crate) fn queue_of(&self, pid: PacketId) -> QueueKind {
        self.loc[pid.index()].kind()
    }

    /// Link traversals so far, per packet; sums to `total_moves`.
    #[inline]
    pub(crate) fn hops(&self) -> &[u32] {
        &self.hops
    }

    /// The 1-based step the packet was delivered at, if it was.
    #[inline]
    pub(crate) fn delivered_step(&self, pid: PacketId) -> Option<u64> {
        self.loc[pid.index()].delivered_step()
    }

    /// Profitable outlinks of a queued packet, measured from the node it
    /// sits at: the cached mask, cross-checked in debug builds.
    #[inline]
    pub(crate) fn profitable<T: Topology>(&self, topo: &T, pid: PacketId) -> DirSet {
        let mask = DirSet::from_bits(self.mask[pid.index()]);
        debug_assert_eq!(
            self.fresh_mask(topo, pid),
            Some(mask),
            "stale mask of {pid:?}"
        );
        mask
    }

    /// What the mask caches; `None` outside the network.
    #[inline]
    fn fresh_mask<T: Topology>(&self, topo: &T, pid: PacketId) -> Option<DirSet> {
        match self.loc(pid) {
            Loc::At(c) => Some(topo.profitable(c, self.dst(pid))),
            _ => None,
        }
    }

    /// Recomputes the cached mask where a packet's (location, destination)
    /// pair changes: entering a queue, an adversary exchange, restore. A
    /// packet outside the network keeps its stale mask; entering refreshes it.
    #[inline]
    pub(crate) fn refresh_mask<T: Topology>(&mut self, topo: &T, pid: PacketId) {
        if let Some(mask) = self.fresh_mask(topo, pid) {
            self.mask[pid.index()] = mask.bits();
        }
    }

    /// **Enter**: the packet joins queue `kind` of the node at `c` — from
    /// the injection edge or off a link — and the node goes on the active
    /// worklist *here*, because the worklist's order is simulated state.
    #[inline]
    pub(crate) fn enter<T: Topology>(
        &mut self,
        topo: &T,
        grid: &mut NodeGrid,
        pid: PacketId,
        c: Coord,
        kind: QueueKind,
    ) {
        grid.push(c, kind, pid);
        self.loc[pid.index()] = LocWord::new(Loc::At(c), kind, 0);
        self.refresh_mask(topo, pid);
        grid.mark_active(grid.node_index(c));
    }

    /// **Depart**: the packet leaves its queue at `from` over a link — one
    /// hop for it, one move for the run. The caller's next call says what
    /// the link did with it: [`enter`](Self::enter) or [`retire`](Self::retire).
    #[inline]
    pub(crate) fn depart(
        &mut self,
        grid: &mut NodeGrid,
        progress: &mut Progress,
        pid: PacketId,
        from: Coord,
    ) {
        debug_assert_eq!(self.loc(pid), Loc::At(from));
        grid.remove(from, self.loc[pid.index()].slot(), pid);
        self.hops[pid.index()] += 1;
        progress.total_moves += 1;
    }

    /// **Retire**: the packet, already out of whatever queue or bucket held
    /// it, reaches the terminal location `end` at step stamp `t`; the
    /// counter (and event, and delivery step) of that location moves with
    /// it. The word keeps the last queue the packet was in.
    #[inline]
    pub(crate) fn retire(
        &mut self,
        progress: &mut Progress,
        events: &mut EventsSnap,
        pid: PacketId,
        end: Loc,
        t: u64,
    ) {
        let word = &mut self.loc[pid.index()];
        *word = word.moved_to(end, t);
        match end {
            Loc::Delivered => {
                progress.delivered += 1;
                events.delivered.push(pid);
            }
            Loc::Lost => {
                progress.lost += 1;
                events.lost.push(pid);
            }
            Loc::Shed => progress.shed += 1,
            Loc::Expired => progress.expired += 1,
            Loc::Pending | Loc::At(_) => unreachable!("{end:?} is not a terminal location"),
        }
    }

    /// The table in its serialized form: one column per field, endpoints
    /// and locations unpacked (the mask is derived, not stored).
    pub(crate) fn export(&self) -> PacketsSnap {
        PacketsSnap {
            src: self.src.iter().map(|&w| unpack(w)).collect(),
            dst: self.dst.iter().map(|&w| unpack(w)).collect(),
            state: self.state.clone(),
            inject_at: self.inject_at.clone(),
            loc: self.loc.iter().map(|w| w.loc()).collect(),
            queue_of: self.loc.iter().map(|w| w.kind()).collect(),
            delivered_at: self
                .loc
                .iter()
                .map(|w| w.delivered_step().unwrap_or(NOT_DELIVERED))
                .collect(),
            hops: self.hops.clone(),
            inject_order: self.inject_order.clone(),
            inject_cursor: self.inject_cursor,
        }
    }

    /// Rebuilds the table from its serialized form (column lengths checked
    /// equal, coordinates on a grid of side at most [`MAX_SIDE`]),
    /// recomputing every in-network packet's mask. Refuses the states the
    /// location word cannot hold: a delivery step on a packet that is not
    /// delivered or none on one that is, and a step of 2^58 or more.
    pub(crate) fn import<T: Topology>(topo: &T, snap: &PacketsSnap) -> Result<PacketStore, String> {
        let mut loc = Vec::with_capacity(snap.loc.len());
        for (i, ((&l, &kind), &d)) in snap
            .loc
            .iter()
            .zip(&snap.queue_of)
            .zip(&snap.delivered_at)
            .enumerate()
        {
            if (l == Loc::Delivered) != (d != NOT_DELIVERED) {
                return Err(format!(
                    "packet {i} is {l:?} but its delivery step says otherwise"
                ));
            }
            if l == Loc::Delivered && d >= STEP_LIMIT {
                return Err(format!("packet {i} has delivery step {d}, past 2^58"));
            }
            loc.push(LocWord::new(l, kind, d));
        }
        let mut store = PacketStore {
            src: snap.src.iter().map(|&c| pack(c)).collect(),
            dst: snap.dst.iter().map(|&c| pack(c)).collect(),
            state: snap.state.clone(),
            inject_at: snap.inject_at.clone(),
            loc,
            hops: snap.hops.clone(),
            mask: vec![0; snap.src.len()],
            inject_order: snap.inject_order.clone(),
            inject_cursor: snap.inject_cursor,
        };
        for pid in store.ids() {
            store.refresh_mask(topo, pid);
        }
        Ok(store)
    }
}

/// Filler id for unused arena cells; written on construction and after
/// compaction shifts, never read back.
const EMPTY_CELL: PacketId = PacketId(u32::MAX);

/// Per-node queue storage as a **flat-slab queue arena**: every queue's
/// cells live inline in one contiguous node-major allocation, so a move
/// is a couple of word writes into a region the route/accept paths have
/// already pulled into cache — no per-queue heap `Vec`s, no pointer
/// chasing. Alongside the slab the grid keeps per-(node, slot) lengths,
/// a per-node occupancy *bitmask* (which slots are non-empty) and the
/// existing per-node load index, plus the staging and bookkeeping the
/// step pipeline needs: pending (admission-controlled) injections, the
/// active-node worklist, and the peak-load congestion map.
pub(crate) struct NodeGrid {
    n: u32,
    arch: QueueArch,
    slots: usize,
    /// The queue arena. Node `ni` owns `slab[ni * stride ..][.. stride]`;
    /// within that region slot `s` owns the `caps[s]` cells starting at
    /// `slot_off[s]`, of which the first `lens[ni * slots + s]` are live,
    /// oldest first (FIFO order identical to the former per-queue `Vec`s).
    slab: Vec<PacketId>,
    /// Per-(node, slot) queue lengths, node-major slot-minor. The
    /// `queue_lens` slice a router's accept policy receives points
    /// straight into this array.
    lens: Vec<u32>,
    /// Inline capacity of each slot (identical for every node). Every slot
    /// starts at `min(k, 4)` cells and [`grow_slot`](Self::grow_slot)
    /// doubles it on demand; a bounded queue's *legal* length is still `k`,
    /// checked where it always was (accept and audit), not here.
    caps: [u32; 5],
    /// Cell offset of each slot within a node's region (prefix sums of
    /// `caps[..slots]`).
    slot_off: [u32; 5],
    /// Cells per node: `caps[..slots]` summed.
    stride: u32,
    /// Occupancy bitmask: bit `s` of `occ[ni]` is set iff slot `s` of
    /// node `ni` is non-empty. Lets the hot paths enumerate a node's
    /// packets by trailing-zeros walk instead of scanning every slot.
    occ: Vec<u8>,
    /// Occupancy index: packets currently queued at each node, maintained
    /// incrementally by [`push`](Self::push)/[`remove`](Self::remove).
    load: Vec<u32>,
    /// Packets staged for injection at a node, held outside the network by
    /// admission control until the origin queue has room.
    pub(crate) pending: HashMap<u32, VecDeque<PacketId>>,
    /// Drained pending buckets awaiting reuse. Not simulated state: it
    /// only saves the allocator a round trip, so it is neither
    /// snapshotted nor restored.
    spare: Vec<VecDeque<PacketId>>,
    /// Worklist of nodes that may hold or receive packets this step.
    active: Vec<u32>,
    in_active: Vec<bool>,
    /// Per-node all-time peak occupancy (congestion map).
    pub(crate) peak_load: Vec<u16>,
}

/// Slab geometry for a capacity vector: per-slot cell offsets and the
/// per-node stride.
fn geometry(caps: &[u32; 5], slots: usize) -> ([u32; 5], u32) {
    let mut slot_off = [0u32; 5];
    let mut stride = 0u32;
    for s in 0..slots {
        slot_off[s] = stride;
        stride += caps[s];
    }
    (slot_off, stride)
}

impl NodeGrid {
    pub(crate) fn new(n: u32, arch: QueueArch) -> Self {
        let nodes = (n * n) as usize;
        let slots = arch.num_slots();
        let mut caps = [0u32; 5];
        caps[..slots].fill(arch.initial_slot_cap());
        let (slot_off, stride) = geometry(&caps, slots);
        NodeGrid {
            n,
            arch,
            slots,
            slab: vec![EMPTY_CELL; nodes * stride as usize],
            lens: vec![0; nodes * slots],
            caps,
            slot_off,
            stride,
            occ: vec![0; nodes],
            load: vec![0; nodes],
            pending: HashMap::new(),
            spare: Vec::new(),
            active: Vec::new(),
            in_active: vec![false; nodes],
            peak_load: vec![0; nodes],
        }
    }

    /// Base cell index of `(ni, slot)`'s queue in the slab.
    #[inline]
    fn cell_base(&self, ni: usize, slot: usize) -> usize {
        ni * self.stride as usize + self.slot_off[slot] as usize
    }

    /// Rebuilds the slab with a doubled capacity for `slot`: the unbounded
    /// injection slot under open-system staging, or a bounded slot whose
    /// `k` exceeds its inline cells the first time a node fills them.
    /// Doubling makes the rebuild cost amortized O(1) per pushed packet.
    #[cold]
    fn grow_slot(&mut self, slot: usize) {
        let mut caps = self.caps;
        caps[slot] = (caps[slot] * 2).max(1);
        let (slot_off, stride) = geometry(&caps, self.slots);
        let mut slab = vec![EMPTY_CELL; self.nodes() * stride as usize];
        for ni in 0..self.nodes() {
            for (s, &off) in slot_off.iter().enumerate().take(self.slots) {
                let len = self.lens[ni * self.slots + s] as usize;
                let src = self.cell_base(ni, s);
                let dst = ni * stride as usize + off as usize;
                slab[dst..dst + len].copy_from_slice(&self.slab[src..src + len]);
            }
        }
        self.slab = slab;
        self.caps = caps;
        self.slot_off = slot_off;
        self.stride = stride;
    }

    #[inline]
    pub(crate) fn n(&self) -> u32 {
        self.n
    }

    #[inline]
    pub(crate) fn arch(&self) -> QueueArch {
        self.arch
    }

    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    #[inline]
    pub(crate) fn nodes(&self) -> usize {
        (self.n * self.n) as usize
    }

    #[inline]
    pub(crate) fn node_index(&self, c: Coord) -> usize {
        (c.y * self.n + c.x) as usize
    }

    #[inline]
    pub(crate) fn coord_of(&self, ni: usize) -> Coord {
        Coord::new(ni as u32 % self.n, ni as u32 / self.n)
    }

    /// The [`QueueKind`] stored at a slot index under this architecture.
    #[inline]
    pub(crate) fn slot_kind(&self, slot: usize) -> QueueKind {
        self.arch.slot_kind(slot)
    }

    #[inline]
    pub(crate) fn queue(&self, ni: usize, slot: usize) -> &[PacketId] {
        let base = self.cell_base(ni, slot);
        &self.slab[base..base + self.lens[ni * self.slots + slot] as usize]
    }

    #[inline]
    pub(crate) fn queue_len(&self, ni: usize, slot: usize) -> usize {
        self.lens[ni * self.slots + slot] as usize
    }

    /// Per-slot queue lengths of a node, as a slice straight into the
    /// arena's length array — what the accept machinery hands to router
    /// policies without copying.
    #[inline]
    pub(crate) fn queue_lens_of(&self, ni: usize) -> &[u32] {
        &self.lens[ni * self.slots..(ni + 1) * self.slots]
    }

    /// Occupancy bitmask of a node: bit `s` set iff slot `s` is non-empty.
    #[inline]
    pub(crate) fn occ_mask(&self, ni: usize) -> u8 {
        self.occ[ni]
    }

    /// Appends a packet to a node's queue: two word writes plus a bitmask
    /// set in the common case (the slab only rebuilds when a slot outgrows
    /// its inline cells).
    pub(crate) fn push(&mut self, c: Coord, kind: QueueKind, pid: PacketId) {
        let ni = self.node_index(c);
        let s = kind.slot();
        let len = self.lens[ni * self.slots + s];
        if len == self.caps[s] {
            self.grow_slot(s);
        }
        let base = self.cell_base(ni, s);
        self.slab[base + len as usize] = pid;
        self.lens[ni * self.slots + s] = len + 1;
        self.occ[ni] |= 1 << s;
        self.load[ni] += 1;
    }

    /// Removes a packet from slot `s` of a node (position scan — queues
    /// are short by construction) by shifting the younger cells down one,
    /// updating the length, bitmask, and occupancy index. Panics if the
    /// packet is not there: that is an engine bug, not a runtime condition.
    pub(crate) fn remove(&mut self, c: Coord, s: usize, pid: PacketId) {
        let ni = self.node_index(c);
        let len = self.lens[ni * self.slots + s] as usize;
        let base = self.cell_base(ni, s);
        let region = &mut self.slab[base..base + len];
        let pos = region
            .iter()
            .position(|&p| p == pid)
            .expect("departing packet missing from its queue");
        region.copy_within(pos + 1.., pos);
        region[len - 1] = EMPTY_CELL;
        self.lens[ni * self.slots + s] = (len - 1) as u32;
        if len == 1 {
            self.occ[ni] &= !(1 << s);
        }
        self.load[ni] -= 1;
    }

    /// Removes every queued packet `stale` says yes to, asking in
    /// deterministic (node, slot, position) order — an in-place compacting
    /// sweep over each occupied slot, identical in survivor order to the
    /// former per-queue `Vec::retain`. `stale` retires the packets it
    /// condemns. Only the `DeadlineExpiry` admission policy pays this, and
    /// the occupancy bitmask skips empty nodes and slots.
    pub(crate) fn expire_queued(&mut self, mut stale: impl FnMut(PacketId) -> bool) {
        let slots = self.slots;
        for ni in 0..self.nodes() {
            let mut o = self.occ[ni];
            while o != 0 {
                let s = o.trailing_zeros() as usize;
                o &= o - 1;
                let len = self.lens[ni * slots + s] as usize;
                let base = self.cell_base(ni, s);
                let mut w = 0usize;
                for r in 0..len {
                    let pid = self.slab[base + r];
                    if !stale(pid) {
                        self.slab[base + w] = pid;
                        w += 1;
                    }
                }
                if w < len {
                    self.slab[base + w..base + len].fill(EMPTY_CELL);
                    self.lens[ni * slots + s] = w as u32;
                    self.load[ni] -= (len - w) as u32;
                    if w == 0 {
                        self.occ[ni] &= !(1 << s);
                    }
                }
            }
        }
    }

    /// Total packets currently in the node's queues (excluding pending) —
    /// O(1) from the occupancy index.
    #[inline]
    pub(crate) fn node_load(&self, ni: usize) -> u32 {
        self.load[ni]
    }

    /// The non-empty queues of a node in slot order, as `(slot, contents)`
    /// slices into the slab — a zero-allocation trailing-zeros walk of the
    /// occupancy bitmask.
    #[inline]
    pub(crate) fn node_queues(&self, ni: usize) -> impl Iterator<Item = (usize, &[PacketId])> + '_ {
        let mut o = self.occ[ni];
        std::iter::from_fn(move || {
            if o == 0 {
                return None;
            }
            let s = o.trailing_zeros() as usize;
            o &= o - 1;
            Some((s, self.queue(ni, s)))
        })
    }

    /// The packets currently at a node, over all queues in slot order —
    /// answered straight from the node's slab region, no packet-table
    /// scan, no allocation.
    pub(crate) fn packets_at(&self, c: Coord) -> impl Iterator<Item = PacketId> + '_ {
        let ni = self.node_index(c);
        self.node_queues(ni).flat_map(|(_, q)| q.iter().copied())
    }

    /// The `i`-th packet at node `ni` in flattened slot order — the same
    /// order `build_packed` enumerates, so a descriptor index resolves to
    /// its packet on demand: the route phase resolves the (at most four)
    /// indices an outqueue policy returns, and every `id`/`src`/`state`/
    /// `dst` read through a residents handle comes here first. The walk is
    /// over occupied slots only (one for a central queue, at most five).
    #[inline]
    pub(crate) fn nth_packet(&self, ni: usize, mut i: usize) -> PacketId {
        let mut o = self.occ[ni];
        while o != 0 {
            let s = o.trailing_zeros() as usize;
            o &= o - 1;
            let len = self.lens[ni * self.slots + s] as usize;
            if i < len {
                return self.slab[self.cell_base(ni, s) + i];
            }
            i -= len;
        }
        panic!("nth_packet index out of range at node {ni}");
    }

    /// Puts a node on the worklist unless it is there; says whether it did.
    pub(crate) fn mark_active(&mut self, ni: usize) -> bool {
        let fresh = !self.in_active[ni];
        if fresh {
            self.in_active[ni] = true;
            self.active.push(ni as u32);
        }
        fresh
    }

    /// Moves the active worklist into `out` (clearing membership flags),
    /// leaving the grid's list empty for the step to rebuild.
    pub(crate) fn drain_active_into(&mut self, out: &mut Vec<u32>) {
        out.clear();
        std::mem::swap(&mut self.active, out);
        for &ni in out.iter() {
            self.in_active[ni as usize] = false;
        }
    }

    /// The active worklist, in the order the route phase will walk it.
    /// The order is simulated state: a snapshot records it verbatim.
    #[inline]
    pub(crate) fn active(&self) -> &[u32] {
        &self.active
    }

    /// Stages a due packet at its origin node's injection edge, opening
    /// the node's bucket if it has none.
    pub(crate) fn stage(&mut self, ni: u32, pid: PacketId) {
        self.pending
            .entry(ni)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push_back(pid);
    }

    /// Drops a node's pending bucket, keeping its storage for the next
    /// [`stage`](Self::stage): under an unbounded injection queue a bucket
    /// opens and drains within one step, once per offered packet.
    pub(crate) fn close_pending(&mut self, ni: u32) {
        if let Some(mut q) = self.pending.remove(&ni) {
            q.clear();
            self.spare.push(q);
        }
    }

    /// Pops a pending (admission-deferred) packet of a node, closing the
    /// bucket once drained; `None` means nothing is staged there. Oldest
    /// first (injection order), or — `freshest`, the `DeadlineExpiry`
    /// drain — newest first: under sustained overload a FIFO edge admits
    /// only packets whose deadline budget is already spent waiting, so
    /// everything expires mid-flight, while the freshest packet still has
    /// its full TTL to cross the mesh and stale backlog expires at the edge.
    pub(crate) fn pop_pending(&mut self, ni: u32, freshest: bool) -> Option<PacketId> {
        let q = self.pending.get_mut(&ni)?;
        let pid = if freshest {
            q.pop_back()
        } else {
            q.pop_front()
        };
        if q.is_empty() {
            self.close_pending(ni);
        }
        pid
    }

    #[inline]
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Packets currently staged at injection edges (admission-deferred),
    /// over all nodes.
    pub(crate) fn staged_total(&self) -> usize {
        self.pending.values().map(VecDeque::len).sum()
    }

    /// Records a node's end-of-step load into the congestion map.
    #[inline]
    pub(crate) fn note_peak(&mut self, ni: usize, load: u16) {
        if load > self.peak_load[ni] {
            self.peak_load[ni] = load;
        }
    }

    /// Every queue's live contents in node-major, slot-minor order (empty
    /// queues included, so positions line up with the flat length array) —
    /// a zero-allocation walk of the slab; the snapshot path concatenates
    /// it into the dense v3 form.
    pub(crate) fn export_queues(&self) -> impl Iterator<Item = &[PacketId]> + '_ {
        (0..self.nodes() * self.slots).map(move |qi| self.queue(qi / self.slots, qi % self.slots))
    }
}

#[cfg(test)]
mod arena_tests {
    use super::*;

    /// Deterministic 64-bit LCG (`Date`/`rand` stay out of the engine's
    /// dev-deps); top bits only.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Asserts the arena agrees with a reference `Vec<Vec<_>>` grid on
    /// every observable: per-queue contents, lengths, the occupancy
    /// bitmask, the load index, and all four read paths (`queue`,
    /// `node_queues`, `packets_at`, `nth_packet`, `export_queues`).
    fn assert_matches(grid: &NodeGrid, shadow: &[Vec<PacketId>]) {
        let slots = grid.slots();
        let mut export = grid.export_queues();
        for ni in 0..grid.nodes() {
            let mut occ = 0u8;
            let mut load = 0u32;
            for s in 0..slots {
                let sq = &shadow[ni * slots + s];
                assert_eq!(grid.queue(ni, s), &sq[..], "queue ({ni},{s})");
                assert_eq!(grid.queue_len(ni, s), sq.len(), "len ({ni},{s})");
                assert_eq!(grid.queue_lens_of(ni)[s], sq.len() as u32);
                assert_eq!(export.next().unwrap(), &sq[..], "export ({ni},{s})");
                if !sq.is_empty() {
                    occ |= 1 << s;
                    load += sq.len() as u32;
                }
            }
            assert_eq!(grid.occ_mask(ni), occ, "occ bitmask at node {ni}");
            assert_eq!(grid.node_load(ni), load, "load index at node {ni}");
            let flat: Vec<PacketId> = shadow[ni * slots..(ni + 1) * slots]
                .iter()
                .flatten()
                .copied()
                .collect();
            let c = grid.coord_of(ni);
            assert_eq!(grid.packets_at(c).collect::<Vec<_>>(), flat);
            let walked: Vec<PacketId> = grid
                .node_queues(ni)
                .flat_map(|(_, q)| q.iter().copied())
                .collect();
            assert_eq!(walked, flat, "node_queues at node {ni}");
            for (i, &pid) in flat.iter().enumerate() {
                assert_eq!(grid.nth_packet(ni, i), pid, "nth_packet({ni},{i})");
            }
        }
        assert!(export.next().is_none());
    }

    /// Op-level differential: a random push/remove/expire stream against
    /// the reference grid, for both queue architectures. Pushes past a
    /// slot's inline capacity force `grow_slot` rebuilds mid-stream; the
    /// shadow must survive every one of them.
    #[test]
    fn arena_matches_reference_under_random_ops() {
        for (arch, seed) in [
            (QueueArch::Central { k: 2 }, 11u64),
            (QueueArch::PerInlink { k: 1 }, 12),
            (QueueArch::PerInlink { k: 3 }, 13),
        ] {
            let n = 4u32;
            let mut grid = NodeGrid::new(n, arch);
            let slots = grid.slots();
            let mut shadow: Vec<Vec<PacketId>> = vec![Vec::new(); grid.nodes() * slots];
            let mut inject_at: Vec<u64> = Vec::new();
            let mut rng = seed;
            for t in 0..4_000u64 {
                match lcg(&mut rng) % 10 {
                    0..=5 => {
                        let ni = (lcg(&mut rng) as usize) % grid.nodes();
                        let s = (lcg(&mut rng) as usize) % slots;
                        let pid = PacketId(inject_at.len() as u32);
                        inject_at.push(t);
                        grid.push(grid.coord_of(ni), grid.slot_kind(s), pid);
                        shadow[ni * slots + s].push(pid);
                    }
                    6..=8 => {
                        let occupied: Vec<usize> = (0..shadow.len())
                            .filter(|&i| !shadow[i].is_empty())
                            .collect();
                        if occupied.is_empty() {
                            continue;
                        }
                        let qi = occupied[(lcg(&mut rng) as usize) % occupied.len()];
                        let pos = (lcg(&mut rng) as usize) % shadow[qi].len();
                        let pid = shadow[qi].remove(pos);
                        grid.remove(grid.coord_of(qi / slots), qi % slots, pid);
                    }
                    _ => {
                        let ttl = 1 + lcg(&mut rng) % 16;
                        let mut expected = Vec::new();
                        for q in shadow.iter_mut() {
                            q.retain(|&pid| {
                                let gone = t >= inject_at[pid.index()].saturating_add(ttl);
                                if gone {
                                    expected.push(pid);
                                }
                                !gone
                            });
                        }
                        let mut got = Vec::new();
                        grid.expire_queued(|pid| {
                            let gone = t >= inject_at[pid.index()].saturating_add(ttl);
                            if gone {
                                got.push(pid);
                            }
                            gone
                        });
                        assert_eq!(got, expected, "expiry order ({arch:?}, t={t})");
                    }
                }
                assert_matches(&grid, &shadow);
            }
        }
    }

    /// Growth keeps FIFO order across the whole slab, not just the grown
    /// slot: neighbors' queues must be byte-identical after a rebuild.
    #[test]
    fn grow_slot_preserves_all_queues() {
        let mut grid = NodeGrid::new(3, QueueArch::PerInlink { k: 1 });
        let slots = grid.slots();
        let mut shadow: Vec<Vec<PacketId>> = vec![Vec::new(); grid.nodes() * slots];
        // Seed every queue of every node with one packet...
        let mut next = 0u32;
        for ni in 0..grid.nodes() {
            for s in 0..slots {
                let pid = PacketId(next);
                next += 1;
                grid.push(grid.coord_of(ni), grid.slot_kind(s), pid);
                shadow[ni * slots + s].push(pid);
            }
        }
        // ...then overflow one node's injection slot far past its inline
        // capacity, forcing repeated doublings.
        let inj = slots - 1;
        for _ in 0..40 {
            let pid = PacketId(next);
            next += 1;
            grid.push(grid.coord_of(4), grid.slot_kind(inj), pid);
            shadow[4 * slots + inj].push(pid);
        }
        assert_matches(&grid, &shadow);
    }
}

#[cfg(test)]
mod word_tests {
    use super::*;
    use mesh_topo::ALL_DIRS;

    /// Every `Loc` × every `QueueKind` survives the word, at the corners of
    /// the coordinate range and of the delivery-step range.
    #[test]
    fn location_word_round_trips() {
        let coords = [(0, 0), (65535, 65535), (65535, 0)].map(|(x, y)| Coord::new(x, y));
        let mut locs = vec![
            Loc::Pending,
            Loc::Delivered,
            Loc::Lost,
            Loc::Shed,
            Loc::Expired,
        ];
        locs.extend(coords.map(Loc::At));
        let kinds = [QueueKind::Central, QueueKind::Injection]
            .into_iter()
            .chain(ALL_DIRS.map(QueueKind::Inlink));
        for kind in kinds {
            for &loc in &locs {
                for step in [0, 1, STEP_LIMIT - 1] {
                    let w = LocWord::new(loc, kind, step);
                    assert_eq!((w.loc(), w.kind()), (loc, kind), "{w:?}");
                    assert_eq!(w.slot(), kind.slot(), "{w:?}");
                    let queued = LocWord::new(Loc::At(coords[1]), kind, 0);
                    assert_eq!(queued.moved_to(loc, step), w, "{w:?}");
                    let delivered = (loc == Loc::Delivered).then_some(step);
                    assert_eq!(w.delivered_step(), delivered, "{w:?}");
                }
            }
        }
        for c in coords {
            assert_eq!(unpack(pack(c)), c);
        }
        assert_eq!(
            LocWord(0),
            LocWord::new(Loc::Pending, QueueKind::Central, 0)
        );
    }
}
