//! The two routing-algorithm interfaces: unrestricted [`Router`] and
//! destination-exchangeable [`DxRouter`], plus the [`Dx`] adapter.
//!
//! Both traits have the same three policy methods over the same arguments
//! (see [`crate::view`]): bit-packed descriptors for what every policy
//! reads, and a borrowed handle for the cold columns. They differ only in
//! the handle's privilege — a [`DxRouter`] policy is given one that has no
//! `dst` accessor.

use crate::queue::QueueArch;
use crate::view::{
    DxArrivals, DxResidents, FullArrivals, FullResidents, PackedArrival, PackedView,
};
use mesh_topo::Coord;

/// A deterministic routing algorithm with **full** information: its policies
/// may inspect complete destination addresses. Implemented directly only by
/// algorithms the paper explicitly places outside the destination-
/// exchangeable class (farthest-first dimension order in §5; the §6
/// algorithm's base case) and by wrappers around other routers.
///
/// All policy methods are deterministic functions of their arguments; the
/// engine stores one `NodeState` per node and threads it through. Policies
/// may mutate the node state in place — everything they can observe is
/// within the information the model grants them, so any state so computed is
/// expressible in the paper's "state update at end of step" formulation.
///
/// The descriptor slices are the engine's per-node scratch, rebuilt for
/// every call, which is why this trait hands them out mutably: a wrapper
/// edits them in place before delegating (`FaultAware` clears down outlinks
/// from every profitable set) instead of copying them. The engine never
/// reads them back — its minimality check consults the packet table's own
/// mask column — so an edit can mislead only the policy it is passed to.
pub trait Router {
    /// Per-node algorithm state (the paper's "state of a node").
    type NodeState: Clone + Default;

    /// Human-readable algorithm name for reports.
    fn name(&self) -> String;

    /// The queue architecture this algorithm runs on.
    fn queue_arch(&self) -> QueueArch;

    /// Whether the algorithm promises minimal (always-profitable) moves.
    /// When `true` the engine panics if a packet is ever scheduled on a
    /// non-profitable outlink — catching implementation bugs early.
    fn is_minimal(&self) -> bool {
        true
    }

    /// Step (a): choose at most one resident packet per outlink. `pkts`
    /// describes the node's residents in flattened slot order, oldest first
    /// within a slot; `cold` reads the same packets' id, source, state and
    /// destination by the same index. `out[d]` is an index into `pkts`, all
    /// `None` on entry; a packet may appear at most once.
    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &mut [PackedView],
        cold: &FullResidents<'_>,
        out: &mut [Option<usize>; 4],
    );

    /// Step (c): decide which scheduled arrivals to accept. Residents are
    /// summarized as per-slot occupancy (`queue_lens[s]` = packets in slot
    /// `s` of this node at the beginning of the step, indexed per the
    /// router's declared arch); `arrivals` describes the offered packets in
    /// offer order and `cold` reads their cold columns by the same index.
    /// `accept` has one flag per arrival, all initially `false`. The policy
    /// must not accept more packets than its queues can hold by the end of
    /// the step (the engine verifies and panics on overflow).
    #[allow(clippy::too_many_arguments)]
    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        queue_lens: &[u32],
        arrivals: &mut [PackedArrival],
        cold: &FullArrivals<'_>,
        accept: &mut [bool],
    );

    /// Step (e): update node state and resident packets' state words after
    /// transmission. `states[i]` is the mutable state word of `pkts[i]`.
    /// Default: no-op.
    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &mut [PackedView],
        cold: &FullResidents<'_>,
        states: &mut [u64],
    ) {
        let _ = (step, node, state, pkts, cold, states);
    }

    /// Whether step (e) can do anything. Routers whose `end_of_step` is the
    /// inherited no-op return `false`, letting the engine skip the
    /// UpdateState pass entirely (the skipped writes are identity writes,
    /// so skipping is byte-identical). Conservative default: `true`.
    fn uses_end_of_step(&self) -> bool {
        true
    }
}

/// A deterministic **destination-exchangeable** routing algorithm (§2): its
/// policies see packets only through the profitable-outlink descriptors and
/// a [`DxResidents`]/[`DxArrivals`] handle — state, source address, and
/// profitable outlinks. The handle has no accessor for the destination, so
/// the exchange-invariance Lemma 10 holds for every implementation by
/// construction.
///
/// Run a `DxRouter` by wrapping it: `Dx::new(MyRouter)`.
pub trait DxRouter {
    /// Per-node algorithm state.
    type NodeState: Clone + Default;

    /// Human-readable algorithm name for reports.
    fn name(&self) -> String;

    /// The queue architecture this algorithm runs on.
    fn queue_arch(&self) -> QueueArch;

    /// Whether the algorithm is minimal. The §3 lower bound needs both
    /// destination-exchangeability *and* minimality; §5 notes that
    /// destination-exchangeable **nonminimal** algorithms exist (hot-potato
    /// routing) and get a weaker Ω(n²/(δ+1)³k²) bound.
    fn is_minimal(&self) -> bool {
        true
    }

    /// Step (a); see [`Router::outqueue`].
    ///
    /// For a minimal algorithm every scheduled direction must be profitable
    /// for its packet (engine-enforced).
    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[PackedView],
        cold: &DxResidents<'_>,
        out: &mut [Option<usize>; 4],
    );

    /// Step (c); see [`Router::inqueue`].
    #[allow(clippy::too_many_arguments)]
    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        queue_lens: &[u32],
        arrivals: &[PackedArrival],
        cold: &DxArrivals<'_>,
        accept: &mut [bool],
    );

    /// Step (e); see [`Router::end_of_step`].
    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[PackedView],
        cold: &DxResidents<'_>,
        states: &mut [u64],
    ) {
        let _ = (step, node, state, pkts, cold, states);
    }

    /// See [`Router::uses_end_of_step`].
    fn uses_end_of_step(&self) -> bool {
        true
    }
}

/// Adapter running a [`DxRouter`] as a [`Router`]. Nothing is projected or
/// copied: the descriptors pass through, and the full handle derefs to the
/// destination-free one. The engine stays monomorphic; the restriction is
/// purely in what crosses this boundary.
pub struct Dx<R> {
    pub inner: R,
}

impl<R> Dx<R> {
    /// Wraps a destination-exchangeable router for execution.
    pub fn new(inner: R) -> Dx<R> {
        Dx { inner }
    }
}

impl<R: DxRouter> Router for Dx<R> {
    type NodeState = R::NodeState;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn queue_arch(&self) -> QueueArch {
        self.inner.queue_arch()
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &mut [PackedView],
        cold: &FullResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        self.inner.outqueue(step, node, state, pkts, cold, out);
    }

    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        queue_lens: &[u32],
        arrivals: &mut [PackedArrival],
        cold: &FullArrivals<'_>,
        accept: &mut [bool],
    ) {
        self.inner
            .inqueue(step, node, state, queue_lens, arrivals, cold, accept);
    }

    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &mut [PackedView],
        cold: &FullResidents<'_>,
        states: &mut [u64],
    ) {
        self.inner
            .end_of_step(step, node, state, pkts, cold, states);
    }

    fn uses_end_of_step(&self) -> bool {
        self.inner.uses_end_of_step()
    }
}
