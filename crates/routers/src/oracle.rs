//! The reference form of the policy surface: one materialized view struct
//! per packet, and an adapter that runs a router's view policies behind the
//! engine's traits.
//!
//! [`FullView`]/[`DxView`] spell out, field by field, what §2 lets each
//! class of algorithm read; a router's view policy over them is the
//! semantic definition its packed policy must match decision for decision.
//! Nothing here runs in a shipped binary: [`ViewOracle`] builds the views
//! through the engine's public handle accessors (allocating as it goes) and
//! exists so `tests/packed_equivalence.rs` can drive packed and view
//! policies in lockstep.

use crate::common::RoundRobin;
use mesh_engine::{
    DxArrivals, DxResidents, DxRouter, FullArrivals, FullResidents, PackedArrival, PackedView,
    QueueArch, QueueKind, Router,
};
use mesh_topo::{Coord, Dir, DirSet};
use mesh_traffic::PacketId;

/// Full information about a packet in (or scheduled into) a node, as an
/// unrestricted [`Router`] may read it.
#[derive(Clone, Copy, Debug)]
pub struct FullView {
    pub id: PacketId,
    /// Source address.
    pub src: Coord,
    /// Destination address. **Absent** from [`DxView`].
    pub dst: Coord,
    /// The packet's mutable state word.
    pub state: u64,
    /// Profitable outlinks. For residents: measured from the holding node.
    /// For arrivals: measured from the *sending* node (§2: "profitable
    /// outlinks of scheduled packets are measured as profitable from the node
    /// from which they are coming").
    pub profitable: DirSet,
    /// Which queue holds the packet.
    pub queue: QueueKind,
    /// Arrival-order position within its queue (0 = oldest). FIFO policies
    /// serve position 0 first. `u32::MAX` for a packet not yet queued here.
    pub pos: u32,
}

/// The restricted view available to destination-exchangeable policies (§2):
/// state, source address, and profitable outlinks — and nothing else about
/// the destination. The absence of a `dst` field is the point.
#[derive(Clone, Copy, Debug)]
pub struct DxView {
    pub id: PacketId,
    pub src: Coord,
    pub state: u64,
    pub profitable: DirSet,
    pub queue: QueueKind,
    pub pos: u32,
}

impl DxView {
    fn with_dst(self, dst: Coord) -> FullView {
        FullView {
            id: self.id,
            src: self.src,
            dst,
            state: self.state,
            profitable: self.profitable,
            queue: self.queue,
            pos: self.pos,
        }
    }
}

/// A packet scheduled to enter a node, as seen by the inqueue view policy.
#[derive(Clone, Copy, Debug)]
pub struct Arrival<V> {
    /// The packet (profitable outlinks measured from the sender, per §2).
    pub view: V,
    /// Its direction of travel (it enters across the `travel.opposite()`
    /// side of the accepting node).
    pub travel: Dir,
}

/// The view policies of a destination-exchangeable router: the reference
/// its [`DxRouter`] policies are checked against.
pub trait DxViewPolicy: DxRouter {
    /// Step (a) over views; `out[d]` indexes `pkts`.
    fn view_outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[DxView],
        out: &mut [Option<usize>; 4],
    );

    /// Step (c) over views.
    fn view_inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[DxView],
        arrivals: &[Arrival<DxView>],
        accept: &mut [bool],
    );

    /// Step (e) over views; `states[i]` belongs to `residents[i]`.
    fn view_end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[DxView],
        states: &mut [u64],
    ) {
        let _ = (step, node, state, residents, states);
    }
}

/// The view policies of a full-information router.
pub trait ViewPolicy: Router {
    /// Step (a) over views; `out[d]` indexes `pkts`.
    fn view_outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[FullView],
        out: &mut [Option<usize>; 4],
    );

    /// Step (c) over views.
    fn view_inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[FullView],
        arrivals: &[Arrival<FullView>],
        accept: &mut [bool],
    );

    /// Step (e) over views; `states[i]` belongs to `residents[i]`.
    fn view_end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[FullView],
        states: &mut [u64],
    ) {
        let _ = (step, node, state, residents, states);
    }
}

/// Reference form of [`round_robin_accept`](crate::common::round_robin_accept),
/// over views: the inqueue view policy every central-queue router here
/// shares.
pub fn view_round_robin_accept(
    k: u32,
    state: &mut RoundRobin,
    residents: &[DxView],
    arrivals: &[Arrival<DxView>],
    accept: &mut [bool],
) {
    let mut room = (k as usize).saturating_sub(residents.len());
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by_key(|&i| state.rank(arrivals[i].travel.opposite()));
    for i in order {
        if room == 0 {
            break;
        }
        accept[i] = true;
        room -= 1;
    }
    state.advance();
}

/// Runs `R`'s *view* policies as a [`DxRouter`] (for a [`DxViewPolicy`]) or
/// a [`Router`] (for a [`ViewPolicy`]). It inherits `uses_end_of_step() ==
/// true`, so the oracle also runs the UpdateState pass that no-op routers
/// skip — proving the skip is an identity.
pub struct ViewOracle<R>(pub R);

fn resident_view(cold: &DxResidents<'_>, arch: QueueArch, i: usize, p: PackedView) -> DxView {
    DxView {
        id: cold.id(i),
        src: cold.src(i),
        state: cold.state(i),
        profitable: p.profitable(),
        queue: arch.slot_kind(p.slot()),
        pos: p.pos(),
    }
}

fn resident_views(cold: &DxResidents<'_>, arch: QueueArch, pkts: &[PackedView]) -> Vec<DxView> {
    let view = |(i, &p)| resident_view(cold, arch, i, p);
    pkts.iter().enumerate().map(view).collect()
}

/// The accepting node's residents, which an inqueue policy is not handed
/// as descriptors: rebuilt from the handle.
fn accepting_views(cold: &DxResidents<'_>, arch: QueueArch) -> Vec<DxView> {
    let view = |i| resident_view(cold, arch, i, cold.packed(i));
    (0..cold.len()).map(view).collect()
}

fn arrival_views(
    cold: &DxArrivals<'_>,
    arch: QueueArch,
    arrivals: &[PackedArrival],
) -> Vec<Arrival<DxView>> {
    let view = |(i, a): (usize, &PackedArrival)| Arrival {
        view: DxView {
            id: cold.id(i),
            src: cold.src(i),
            state: cold.state(i),
            profitable: a.profitable(),
            queue: arch.arrival_queue(a.travel()),
            pos: u32::MAX,
        },
        travel: a.travel(),
    };
    arrivals.iter().enumerate().map(view).collect()
}

fn with_dsts(views: Vec<DxView>, cold: &FullResidents<'_>) -> Vec<FullView> {
    let full = |(i, v): (usize, DxView)| v.with_dst(cold.dst(i));
    views.into_iter().enumerate().map(full).collect()
}

impl<R: DxViewPolicy> DxRouter for ViewOracle<R> {
    type NodeState = R::NodeState;

    fn name(&self) -> String {
        self.0.name()
    }

    fn queue_arch(&self) -> QueueArch {
        self.0.queue_arch()
    }

    fn is_minimal(&self) -> bool {
        self.0.is_minimal()
    }

    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[PackedView],
        cold: &DxResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        let views = resident_views(cold, self.queue_arch(), pkts);
        self.0.view_outqueue(step, node, state, &views, out);
    }

    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        _queue_lens: &[u32],
        arrivals: &[PackedArrival],
        cold: &DxArrivals<'_>,
        accept: &mut [bool],
    ) {
        let arch = self.queue_arch();
        let residents = accepting_views(&cold.residents(), arch);
        let arrivals = arrival_views(cold, arch, arrivals);
        self.0
            .view_inqueue(step, node, state, &residents, &arrivals, accept);
    }

    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[PackedView],
        cold: &DxResidents<'_>,
        states: &mut [u64],
    ) {
        let views = resident_views(cold, self.queue_arch(), pkts);
        self.0.view_end_of_step(step, node, state, &views, states);
    }
}

impl<R: ViewPolicy> Router for ViewOracle<R> {
    type NodeState = R::NodeState;

    fn name(&self) -> String {
        self.0.name()
    }

    fn queue_arch(&self) -> QueueArch {
        self.0.queue_arch()
    }

    fn is_minimal(&self) -> bool {
        self.0.is_minimal()
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
        let views = with_dsts(resident_views(cold, self.queue_arch(), pkts), cold);
        self.0.view_outqueue(step, node, state, &views, out);
    }

    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        _queue_lens: &[u32],
        arrivals: &mut [PackedArrival],
        cold: &FullArrivals<'_>,
        accept: &mut [bool],
    ) {
        let arch = self.queue_arch();
        let here = cold.residents();
        let residents = with_dsts(accepting_views(&here, arch), &here);
        let arrivals: Vec<Arrival<FullView>> = arrival_views(cold, arch, arrivals)
            .into_iter()
            .enumerate()
            .map(|(i, a)| Arrival {
                view: a.view.with_dst(cold.dst(i)),
                travel: a.travel,
            })
            .collect();
        self.0
            .view_inqueue(step, node, state, &residents, &arrivals, accept);
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
        let views = with_dsts(resident_views(cold, self.queue_arch(), pkts), cold);
        self.0.view_end_of_step(step, node, state, &views, states);
    }
}
