//! The adversary interface: step hooks that may exchange destinations.
//!
//! §3 of the paper interposes, between the outqueue scheduling (a) and the
//! inqueue acceptance (c) of every step, an adversary that may *exchange*
//! the destination addresses of chosen packet pairs (rules EX1–EX4). The
//! [`StepHook`] trait is that interposition point. The engine exposes, via
//! [`HookCtx`], full omniscient access — the adversary is *not* bound by the
//! destination-exchangeable restriction; only the algorithm is.

use crate::storage::{pack, unpack, Loc, PacketStore};
use mesh_topo::{Coord, Dir};
use mesh_traffic::PacketId;

/// One scheduled transmission, an *offer*: the outqueue policy of the node
/// at [`from`](Self::from) chose packet [`pkt`](Self::pkt) for its
/// [`travel`](Self::travel) outlink, toward [`to`](Self::to).
///
/// A 16-byte record: the id, both endpoints packed `x | y << 16` like the
/// packet table's, the direction, and in a spare byte the target's accept
/// decision (engine-private: a hook runs before acceptance and always sees
/// it pending). The schedule of a dense step holds one per moving packet,
/// so its size is the step loop's largest scratch cost.
#[derive(Clone, Copy)]
pub struct ScheduledMove {
    pkt: PacketId,
    from: u32,
    to: u32,
    travel: Dir,
    decision: Decision,
}

/// What the target's inqueue policy made of an offer. `Pending` until the
/// offer's arrival group is decided, which is how the accept phase finds
/// the first offer of a group it has not visited yet.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Decision {
    Pending,
    Rejected,
    Accepted,
}

const _: () = assert!(std::mem::size_of::<ScheduledMove>() <= 16);

impl ScheduledMove {
    /// An offer not yet accepted.
    #[inline]
    pub(crate) fn new(pkt: PacketId, from: Coord, to: Coord, travel: Dir) -> ScheduledMove {
        ScheduledMove {
            pkt,
            from: pack(from),
            to: pack(to),
            travel,
            decision: Decision::Pending,
        }
    }

    /// The packet offered.
    #[inline]
    pub fn pkt(&self) -> PacketId {
        self.pkt
    }

    /// The sending node, where the packet still sits.
    #[inline]
    pub fn from(&self) -> Coord {
        unpack(self.from)
    }

    /// The target node: `from`'s neighbor across [`travel`](Self::travel).
    #[inline]
    pub fn to(&self) -> Coord {
        unpack(self.to)
    }

    /// The outlink the packet leaves `from` by.
    #[inline]
    pub fn travel(&self) -> Dir {
        self.travel
    }

    /// Whether the target's inqueue policy accepted the offer this step.
    #[inline]
    pub(crate) fn accepted(&self) -> bool {
        self.decision == Decision::Accepted
    }

    /// Whether the offer's arrival group has been decided this step.
    #[inline]
    pub(crate) fn decided(&self) -> bool {
        self.decision != Decision::Pending
    }

    /// Records the target's decision.
    #[inline]
    pub(crate) fn decide(&mut self, accepted: bool) {
        self.decision = if accepted {
            Decision::Accepted
        } else {
            Decision::Rejected
        };
    }
}

impl std::fmt::Debug for ScheduledMove {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduledMove")
            .field("pkt", &self.pkt)
            .field("from", &self.from())
            .field("to", &self.to())
            .field("travel", &self.travel)
            .finish()
    }
}

/// Omniscient, mutating view of the network between steps (a) and (c).
pub struct HookCtx<'a> {
    /// The 1-based step number `t` (the paper's first step is `t = 1`).
    pub t: u64,
    /// Grid side.
    pub n: u32,
    /// Every transmission scheduled this step.
    pub moves: &'a [ScheduledMove],
    pub(crate) store: &'a mut PacketStore,
    pub(crate) exchanges: &'a mut u64,
    /// Packets whose destination changed this step: the engine refreshes
    /// their cached profitable masks after the hook returns (it has the
    /// topology; this context deliberately does not).
    pub(crate) dirty: &'a mut Vec<PacketId>,
}

impl<'a> HookCtx<'a> {
    /// Current destination of a packet.
    #[inline]
    pub fn dst(&self, p: PacketId) -> Coord {
        self.store.dst(p)
    }

    /// Source of a packet.
    #[inline]
    pub fn src(&self, p: PacketId) -> Coord {
        self.store.src(p)
    }

    /// Current location of a packet (`None` once delivered or not injected).
    #[inline]
    pub fn node_of(&self, p: PacketId) -> Option<Coord> {
        match self.store.loc(p) {
            Loc::At(c) => Some(c),
            _ => None,
        }
    }

    /// Total number of packets.
    #[inline]
    pub fn num_packets(&self) -> usize {
        self.store.len()
    }

    /// Number of exchanges performed so far in the whole run.
    #[inline]
    pub fn exchange_count(&self) -> u64 {
        *self.exchanges
    }

    /// Exchanges the destination addresses of two packets, leaving all other
    /// packet information (state, source — hence identity) untouched. This
    /// is the paper's *exchange* operation; by Lemma 10 it is invisible to
    /// any destination-exchangeable algorithm.
    pub fn exchange(&mut self, a: PacketId, b: PacketId) {
        assert_ne!(a, b, "cannot exchange a packet with itself");
        self.store.swap_dst(a, b);
        *self.exchanges += 1;
        self.dirty.push(a);
        self.dirty.push(b);
    }
}

/// An observer/adversary invoked once per step between scheduling and
/// acceptance.
pub trait StepHook {
    /// Inspect the schedule and perform exchanges as needed.
    fn on_scheduled(&mut self, ctx: &mut HookCtx<'_>);
}

/// The trivial hook: no adversary (ordinary simulation).
pub struct NoHook;

impl StepHook for NoHook {
    #[inline]
    fn on_scheduled(&mut self, _ctx: &mut HookCtx<'_>) {}
}

impl<F: FnMut(&mut HookCtx<'_>)> StepHook for F {
    fn on_scheduled(&mut self, ctx: &mut HookCtx<'_>) {
        self(ctx)
    }
}
