//! The adversary interface: step hooks that may exchange destinations.
//!
//! §3 of the paper interposes, between the outqueue scheduling (a) and the
//! inqueue acceptance (c) of every step, an adversary that may *exchange*
//! the destination addresses of chosen packet pairs (rules EX1–EX4). The
//! [`StepHook`] trait is that interposition point. The engine exposes, via
//! [`HookCtx`], full omniscient access — the adversary is *not* bound by the
//! destination-exchangeable restriction; only the algorithm is.

use crate::storage::{Loc, PacketStore};
use mesh_topo::{Coord, Dir};
use mesh_traffic::PacketId;

/// One scheduled transmission: the outqueue policy of the node at `from`
/// chose packet `pkt` for its `travel` outlink, toward `to`.
#[derive(Clone, Copy, Debug)]
pub struct ScheduledMove {
    pub pkt: PacketId,
    pub from: Coord,
    pub to: Coord,
    pub travel: Dir,
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
