//! The §2 step, decomposed into named phases over a shared `StepCtx`.
//!
//! [`STEP_PIPELINE`] is the single visible statement of phase order;
//! [`Sim::step_with_hook`](crate::sim::Sim::step_with_hook) executes
//! exactly that list. Each phase maps onto the paper's step anatomy:
//!
//! | phase | §2 sentence |
//! |---|---|
//! | [`Phase::Inject`] | dynamic-setting remark (§5): due packets enter their origin queues as space permits |
//! | [`Phase::Route`] | (a) every outqueue policy selects at most one packet per outlink |
//! | [`Phase::EnforceFaults`] | fault-model extension: down links drop the move, lossy links destroy the packet in flight |
//! | [`Phase::Adversary`] | (b) the adversary observes the schedule and may exchange destinations |
//! | [`Phase::Accept`] | (c) every inqueue policy decides which offered arrivals to accept |
//! | [`Phase::Transmit`] | (d) scheduled-and-accepted packets move; arrivals at their destination are delivered |
//! | [`Phase::Audit`] | engine guarantee: every node that gained a packet is within capacity; occupancy metrics update |
//! | [`Phase::UpdateState`] | (e) node and packet states update within the information the model permits |
//!
//! Fault enforcement that *gates a policy invocation* — a stalled node's
//! outqueue/inqueue is never consulted, a degraded node's acceptance is
//! clamped after its inqueue ran — necessarily lives inside the
//! route/accept/inject phases; only link faults act on the schedule
//! itself and form their own phase.

use crate::faults::CompiledFaults;
use crate::hook::{HookCtx, ScheduledMove, StepHook};
use crate::router::Router;
use crate::snapshot::EventsSnap;
use crate::storage::{is_staged, Loc, NodeGrid, PacketStore, Staged};
use crate::view::{FullArrivals, FullResidents, PackedArrival, PackedView};
use mesh_topo::{Coord, Dir, DirSet, Topology, ALL_DIRS};
use mesh_traffic::PacketId;

/// One named phase of the step pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Admission control: stage due packets and drain them into origin
    /// queues while capacity (and faults) permit.
    Inject,
    /// §2 (a): outqueue policies schedule at most one packet per outlink.
    Route,
    /// Link faults act on the schedule: down links drop moves before the
    /// adversary ever sees them; lossy links convert moves into losses.
    EnforceFaults,
    /// §2 (b): the adversary hook observes the (fault-filtered) schedule
    /// and may exchange destinations.
    Adversary,
    /// §2 (c): inqueue policies accept or reject offered arrivals;
    /// degraded nodes are clamped to their reduced capacity.
    Accept,
    /// §2 (d): accepted packets move (delivering at their destination);
    /// lossy-link packets are destroyed in flight.
    Transmit,
    /// Capacity validation and occupancy metrics over the nodes that gained a packet.
    Audit,
    /// §2 (e): end-of-step node and packet state update.
    UpdateState,
}

/// The step's phase order. This list *is* the engine's step semantics:
/// the dispatcher runs it verbatim, in order.
pub const STEP_PIPELINE: [Phase; 8] = [
    Phase::Inject,
    Phase::Route,
    Phase::EnforceFaults,
    Phase::Adversary,
    Phase::Accept,
    Phase::Transmit,
    Phase::Audit,
    Phase::UpdateState,
];

/// Admission-control policy at the injection edge — the open-system
/// overload seam (DESIGN.md §12).
///
/// Shedding policies act on *staged* packets (those whose injection time
/// has come but which have not yet entered their origin queue): bounded
/// queues already make in-network memory finite, so backlog control is an
/// edge decision. [`DeadlineExpiry`](AdmissionPolicy::DeadlineExpiry) goes
/// one step further and expires stale packets *inside* the network too —
/// edge-only shedding cannot un-fill internal queues once they gridlock.
/// The whole seam runs inside the inject phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Closed-system default: staged packets wait outside the network
    /// until their origin queue has room, however long that takes.
    #[default]
    DeferIndefinitely,
    /// A packet that cannot enter the network in the very step it becomes
    /// due is shed immediately; nothing is ever deferred.
    RejectNew,
    /// Deferred packets queue at the edge, but each origin keeps at most
    /// `max_deferred`; beyond that the *oldest* deferred packet is shed to
    /// bound the edge backlog. `max_deferred = 0` behaves like
    /// [`RejectNew`](AdmissionPolicy::RejectNew).
    DropOldestDeferred { max_deferred: u32 },
    /// Per-packet deadlines: a packet `ttl` or more steps past its
    /// injection time expires wherever it is — still staged at the edge
    /// or already queued inside the network. In-network expiry is what
    /// keeps bounded-queue routers on a goodput plateau past saturation:
    /// stale packets are evicted from the queues they clog instead of
    /// gridlocking live traffic behind them.
    DeadlineExpiry { ttl: u64 },
}

impl serde::Serialize for AdmissionPolicy {
    fn serialize_into<S: serde::Sink>(&self, out: &mut S) {
        let (name, value) = match *self {
            AdmissionPolicy::DeferIndefinitely => return out.str("DeferIndefinitely"),
            AdmissionPolicy::RejectNew => return out.str("RejectNew"),
            AdmissionPolicy::DropOldestDeferred { max_deferred } => {
                ("DropOldestDeferred", max_deferred as u64)
            }
            AdmissionPolicy::DeadlineExpiry { ttl } => ("DeadlineExpiry", ttl),
        };
        out.begin_object();
        out.key(name);
        out.u64(value);
        out.end_object();
    }
}

impl serde::Deserialize for AdmissionPolicy {
    fn deserialize_from<S: serde::Source>(src: &mut S) -> Result<Self, serde::Error> {
        let unknown =
            |name: &str| serde::Error::custom(format!("unknown admission policy '{name}'"));
        let malformed = || serde::Error::custom("malformed admission policy");
        match src.peek()? {
            serde::Kind::String => match &*src.string()? {
                "DeferIndefinitely" => Ok(AdmissionPolicy::DeferIndefinitely),
                "RejectNew" => Ok(AdmissionPolicy::RejectNew),
                other => Err(unknown(other)),
            },
            serde::Kind::Object => {
                src.begin_object()?;
                let drop_oldest = match src.next_key()?.as_deref() {
                    Some("DropOldestDeferred") => true,
                    Some("DeadlineExpiry") => false,
                    Some(other) => return Err(unknown(other)),
                    None => return Err(malformed()),
                };
                let policy = if drop_oldest {
                    AdmissionPolicy::DropOldestDeferred {
                        max_deferred: serde::Deserialize::deserialize_from(src)?,
                    }
                } else {
                    AdmissionPolicy::DeadlineExpiry {
                        ttl: serde::Deserialize::deserialize_from(src)?,
                    }
                };
                match src.next_key()? {
                    None => Ok(policy),
                    Some(_) => Err(malformed()),
                }
            }
            _ => Err(malformed()),
        }
    }
}

/// Monotone run counters, updated by phases and read by reports.
/// Serializable as a block: the snapshot subsystem persists it verbatim.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub(crate) struct Progress {
    pub(crate) steps: u64,
    pub(crate) delivered: usize,
    pub(crate) lost: usize,
    /// Packets rejected at the injection edge by admission control
    /// (`RejectNew` refusals and `DropOldestDeferred` evictions).
    pub(crate) shed: usize,
    /// Packets whose deadline passed at the edge or in-network
    /// (`DeadlineExpiry`).
    pub(crate) expired: usize,
    pub(crate) total_moves: u64,
    pub(crate) exchanges: u64,
    pub(crate) max_queue: u32,
    pub(crate) max_node_load: u32,
    /// Admission-control pressure: packet-steps spent staged outside the
    /// network because the origin queue had no room (or the node was
    /// stalled). One packet deferred for five steps counts five.
    pub(crate) deferred_injections: u64,
}

/// Workhorse buffers reused across steps (perf-book guidance: zero
/// allocation in the hot loop), plus the audit's record of what gained.
/// The buffers a step fills in proportion to the mesh are reserved to
/// their proven bounds by [`StepBufs::size`] at the first route.
#[derive(Default)]
pub(crate) struct StepBufs {
    /// This step's offers, in schedule order; each carries its target's
    /// accept decision once `accept` has run.
    pub(crate) schedule: Vec<ScheduledMove>,
    pub(crate) states: Vec<u64>,
    pub(crate) lost_moves: Vec<ScheduledMove>,
    /// The active-node snapshot the route phase drains from the grid.
    pub(crate) snapshot: Vec<u32>,
    /// Bit-packed resident descriptors of the node being routed or updated.
    pub(crate) masks: Vec<PackedView>,
    /// Per-target chain heads for `accept`: one cell per node, holding 1 +
    /// the schedule index of the target's first offer. All-zero between
    /// steps: a cell is re-zeroed the moment its group is accepted.
    pub(crate) heads: Vec<u32>,
    /// The chain links: 1 + the schedule index of the same target's next
    /// offer, or 0 at the end of its chain. One entry per offer.
    pub(crate) next: Vec<u32>,
    /// Packets whose destinations the adversary exchanged this step — the
    /// engine refreshes their cached profitable masks after the hook runs.
    pub(crate) exchanged: Vec<PacketId>,
    /// Origins the inject phase admitted a packet into this step; audit clears it.
    pub(crate) admitted: Vec<u32>,
    /// How many nodes at the head of the active list gained a packet in
    /// this step's transmit phase (see [`audit`]).
    pub(crate) arrived: usize,
    /// Whether an audit has swept every active node since this `Sim` was
    /// built or restored; until one has, gains go unrecorded.
    pub(crate) swept: bool,
    /// Policy calls made and skipped since this `Sim` was built or restored.
    pub(crate) calls: PolicyCalls,
}

/// How often the step loop asked the router, and how often it knew the
/// answer without asking: a route memo hit re-emits a node's last offers,
/// a full-target refusal decides a target's offers without its `inqueue`
/// (DESIGN.md §10). Diagnostics, counted since the `Sim` was built or
/// restored; no report, document or snapshot records them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyCalls {
    /// Full `outqueue` calls.
    pub outqueue: u64,
    /// Nodes whose offers the route memo re-emitted.
    pub memo_hits: u64,
    /// Offers decided by an `inqueue` call.
    pub inqueue_offers: u64,
    /// Offers refused by the full-target rule ([`Router::refuse_if_full`]).
    pub refused_full: u64,
}

impl StepBufs {
    /// Reserves the per-step buffers to what a step can hold, given the
    /// packets the run has ever had: a packet is offered at most once per
    /// step and a node offers at most four (`schedule`, `next`); an active
    /// node holds or stages a packet (`snapshot`, and the grid's active
    /// list it swaps with); `heads` has a cell per node. Run before every
    /// route, it allocates on the first one only, unless [`Sim::spawn`]
    /// raised the packet count since, and then by amortized growth.
    ///
    /// [`Sim::spawn`]: crate::Sim::spawn
    fn size(&mut self, grid: &mut NodeGrid, packets: usize) {
        let nodes = grid.nodes();
        reserve_to(&mut self.schedule, packets.min(4 * nodes));
        reserve_to(&mut self.next, packets.min(4 * nodes));
        reserve_to(&mut self.snapshot, packets.min(nodes));
        grid.reserve_active(packets.min(nodes));
        if self.heads.len() < nodes {
            self.heads.resize(nodes, 0);
        }
    }
}

/// Grows `v`'s capacity to at least `bound` — exactly on the first call,
/// amortized after.
pub(crate) fn reserve_to<T>(v: &mut Vec<T>, bound: usize) {
    if v.capacity() < bound {
        v.reserve(bound - v.len());
    }
}

/// Everything one step needs, as split borrows of the simulation's parts:
/// phases take `&mut StepCtx` and the borrow checker sees disjoint fields.
pub(crate) struct StepCtx<'a, 't, T: Topology, R: Router> {
    /// The 0-based step being executed (the paper's step `t0 + 1`).
    pub(crate) t0: u64,
    pub(crate) topo: &'t T,
    pub(crate) router: &'a R,
    pub(crate) admission: AdmissionPolicy,
    pub(crate) faults: Option<&'a CompiledFaults>,
    pub(crate) store: &'a mut PacketStore,
    pub(crate) grid: &'a mut NodeGrid,
    pub(crate) node_state: &'a mut [R::NodeState],
    pub(crate) progress: &'a mut Progress,
    pub(crate) events: &'a mut EventsSnap,
    pub(crate) bufs: &'a mut StepBufs,
}

/// Builds the bit-packed descriptors of all packets queued at node `ni`,
/// in flattened slot order — one `u32` per packet. The grid's slot index is
/// the packed slot index by construction (Central: 0; PerInlink: `0..4` =
/// inlinks, 4 = injection).
fn build_packed<T: Topology>(
    topo: &T,
    store: &PacketStore,
    grid: &NodeGrid,
    ni: usize,
    out: &mut Vec<PackedView>,
) {
    out.clear();
    for (slot, q) in grid.node_queues(ni) {
        for (pos, &pid) in q.iter().enumerate() {
            out.push(PackedView::new(
                store.profitable(topo, pid),
                slot,
                pos as u32,
            ));
        }
    }
}

/// How many more packets node `ni`, at `c`, may admit into its origin
/// queue now: the injection edge's one room rule, read by direct entry and
/// the drain alike. A stalled node admits nothing, a degraded node only up
/// to its reduced capacity. Open-system runs keep one slot of a bounded
/// origin queue *shared with transit* (the Central arch) for arrivals: the
/// inject phase runs before accept, so without the reserve sustained
/// injection refills every freed slot first and transit starves — the
/// whole mesh gridlocks at a trickle no matter what the edge sheds. The
/// closed-system default keeps the paper's drain-when-room semantics.
fn room<T: Topology, R: Router>(ctx: &StepCtx<'_, '_, T, R>, ni: usize, c: Coord) -> usize {
    let (t, arch) = (ctx.t0, ctx.grid.arch());
    if ctx.faults.is_some_and(|f| f.node_stalled(t, c)) {
        return 0;
    }
    let Some(cap) = arch.capacity(arch.origin_queue()) else {
        return usize::MAX;
    };
    let reserve = u32::from(ctx.admission != AdmissionPolicy::DeferIndefinitely);
    let lost = ctx.faults.map_or(0, |f| f.degraded_slots(t, c));
    let cap = cap.saturating_sub(reserve).saturating_sub(lost) as usize;
    cap.saturating_sub(ctx.grid.queue_len(ni, arch.origin_queue().slot()))
}

/// Enters `pid` into the origin queue of node `ni`, at `c`.
fn admit<T: Topology, R: Router>(
    ctx: &mut StepCtx<'_, '_, T, R>,
    pid: PacketId,
    ni: usize,
    c: Coord,
) {
    let origin = ctx.grid.arch().origin_queue();
    ctx.store.enter(ctx.topo, ctx.grid, pid, c, origin);
    if ctx.bufs.swept {
        ctx.bufs.admitted.push(ni as u32);
    }
}

/// Moves packets whose injection time has come into their origin queues
/// while [`room`] lasts; the rest wait staged outside the network, in the
/// node-ordered list `NodeGrid::staged`, where admission control decides
/// their fate. Returns whether any packet entered the network.
///
/// A due packet enters at once only when its node has nothing staged and
/// the room rule admits it. That is what staging it and draining FIFO
/// would do, because room only shrinks within the phase: a packet the rule
/// refused leaves none for the later packets of its node. `DeadlineExpiry`
/// stages every due packet, since its edge expiry and its freshest-first
/// drain act on the list.
pub(crate) fn inject<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) -> bool {
    let t = ctx.t0;
    let ttl = match ctx.admission {
        AdmissionPolicy::DeadlineExpiry { ttl } => Some(ttl),
        _ => None,
    };
    let stale = |store: &PacketStore, pid: PacketId| {
        ttl.is_some_and(|ttl| t >= store.inject_at(pid).saturating_add(ttl))
    };
    let mut injected = false;
    let mut staged = std::mem::take(&mut ctx.grid.staged);
    let settled = staged.len();
    while let Some(pid) = ctx.store.next_due(t) {
        let src = ctx.store.src(pid);
        if src == ctx.store.dst(pid) {
            // Trivial packet: delivered without entering the network.
            ctx.store
                .retire(ctx.progress, ctx.events, pid, Loc::Delivered, t);
            continue;
        }
        let ni = ctx.grid.node_index(src);
        if ttl.is_none() && !is_staged(&staged[..settled], ni) && room(ctx, ni, src) > 0 {
            admit(ctx, pid, ni, src);
            injected = true;
            continue;
        }
        let seq = ctx.store.offered() as u32 - 1;
        staged.push(Staged {
            node: ni as u32,
            seq,
            pid,
        });
        ctx.grid.mark_active(ni);
    }
    if staged.len() > settled {
        staged.sort_unstable_by_key(Staged::key);
    }
    // `DeadlineExpiry` acts before the drain, and inside the network as
    // well as at the edge: a stale packet clogging a bounded queue is
    // dropped wherever it sits, freeing capacity for live traffic.
    // Edge-only shedding cannot un-fill internal queues, so without the
    // in-network sweep central-queue routers congestion-collapse past
    // saturation instead of degrading to a goodput plateau.
    if ttl.is_some() {
        let (store, progress, events) = (&mut *ctx.store, &mut *ctx.progress, &mut *ctx.events);
        ctx.grid.expire_queued(|pid| {
            let gone = stale(store, pid);
            if gone {
                store.retire(progress, events, pid, Loc::Expired, t);
            }
            gone
        });
    }
    // One pass over the list, node by node: a node's run loses its stale
    // packets, drains into the origin queue while room lasts — oldest
    // first, or freshest first under deadlines (a FIFO edge under overload
    // admits only packets whose deadline budget is already spent waiting)
    // — and is trimmed oldest-first to the edge budget. Survivors are
    // compacted in place, so the list stays node-ordered.
    let budget = match ctx.admission {
        AdmissionPolicy::RejectNew => 0,
        AdmissionPolicy::DropOldestDeferred { max_deferred } => max_deferred as usize,
        AdmissionPolicy::DeferIndefinitely | AdmissionPolicy::DeadlineExpiry { .. } => usize::MAX,
    };
    let (mut r, mut w) = (0, 0);
    while r < staged.len() {
        let ni = staged[r].node as usize;
        let end = r + staged[r..].partition_point(|s| s.node as usize == ni);
        let (mut lo, mut hi) = (w, w);
        for i in r..end {
            let s = staged[i];
            if stale(ctx.store, s.pid) {
                ctx.store
                    .retire(ctx.progress, ctx.events, s.pid, Loc::Expired, t);
            } else {
                staged[hi] = s;
                hi += 1;
            }
        }
        let c = ctx.grid.coord_of(ni);
        for _ in 0..room(ctx, ni, c).min(hi - lo) {
            let s = if ttl.is_some() {
                hi -= 1;
                staged[hi]
            } else {
                lo += 1;
                staged[lo - 1]
            };
            admit(ctx, s.pid, ni, c);
            injected = true;
        }
        while hi - lo > budget {
            ctx.store
                .retire(ctx.progress, ctx.events, staged[lo].pid, Loc::Shed, t);
            lo += 1;
        }
        staged.copy_within(lo..hi, w);
        w += hi - lo;
        r = end;
    }
    staged.truncate(w);
    // Whatever is still staged was deferred by admission control this
    // step: the origin queue is full (or the node stalled), so the packet
    // waits outside the network instead of overflowing.
    ctx.progress.deferred_injections += staged.len() as u64;
    ctx.grid.staged = staged;
    injected
}

/// The slot of a load-1 node's lone resident: the one non-zero entry of
/// its length row (a central queue's row has one entry, so no search).
fn lone_slot(grid: &NodeGrid, ni: usize) -> usize {
    if grid.slots() == 1 {
        return 0;
    }
    grid.queue_lens_of(ni)
        .iter()
        .position(|&l| l > 0)
        .expect("a node of load 1 has a non-empty queue")
}

/// Re-emits node `ni`'s memoised offer if it has one, and says whether it
/// did. A memo is made only at load 1, by a full outqueue call of a router
/// whose outqueue reads nothing but descriptors, and every change to the
/// node's queues or to a resident's destination clears it: the call would
/// make the same offer again.
fn reoffer<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>, ni: usize) -> bool {
    let Some(offer) = ctx.grid.route_memo(ni) else {
        return false;
    };
    let (grid, bufs) = (&*ctx.grid, &mut *ctx.bufs);
    bufs.calls.memo_hits += 1;
    let node = grid.coord_of(ni);
    let slot = lone_slot(grid, ni);
    let pid = grid.oldest(ni, slot);
    #[cfg(debug_assertions)]
    {
        let (store, router) = (&*ctx.store, ctx.router);
        assert_eq!(grid.node_load(ni), 1, "a memo outlived load 1 at {node}");
        bufs.masks.clear();
        bufs.masks
            .push(PackedView::new(store.profitable(ctx.topo, pid), slot, 0));
        let cold = FullResidents::new(store, grid, ni, ctx.faults);
        let (mut out, mut state) = ([None; 4], ctx.node_state[ni].clone());
        router.outqueue(ctx.t0, node, &mut state, &mut bufs.masks, &cold, &mut out);
        let mut memo = [None; 4];
        if let Some(d) = offer {
            memo[d.index()] = Some(0);
        }
        assert!(
            out == memo && state == ctx.node_state[ni],
            "{}: memoised offer {offer:?} of {node} is not what outqueue does at step {}",
            router.name(),
            ctx.t0
        );
    }
    if let Some(d) = offer {
        let to = ctx
            .topo
            .neighbor(node, d)
            .expect("a memoised offer has its link");
        bufs.schedule.push(ScheduledMove::new(pid, node, to, d));
    }
    true
}

/// §2 (a) for a single node: a loaded, unstalled node's outqueue policy
/// schedules at most one packet per outlink; its moves go onto
/// `bufs.schedule` in [`ALL_DIRS`] order. With `memoise`, a load-1 node's
/// offer is remembered for [`reoffer`].
fn route_node<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>, ni: usize, memoise: bool) {
    let (t0, topo, router) = (ctx.t0, ctx.topo, ctx.router);
    let (store, grid) = (&*ctx.store, &mut *ctx.grid);
    let StepBufs {
        schedule,
        masks,
        calls,
        ..
    } = &mut *ctx.bufs;
    let load = grid.node_load(ni);
    if load == 0 {
        return;
    }
    let node = grid.coord_of(ni);
    // A stalled node sends nothing this step (its packets stay put;
    // the active-set rebuild in transmit keeps it scheduled for later).
    if let Some(f) = ctx.faults {
        if f.node_stalled(t0, node) {
            return;
        }
    }
    let mut out = [None::<usize>; 4];
    let mut single = None;
    // One u32 per resident; whatever else a policy reads (id, source,
    // state, destination) it fetches through the handle, per packet, on
    // demand.
    if load == 1 {
        // Small-node fast path — the overwhelmingly common case once a
        // run spreads out: the lone resident's descriptor comes straight
        // off its slot, skipping the per-slot enumerate. The router policy
        // still runs (node state must advance identically); only
        // descriptor-building machinery is bypassed.
        let slot = lone_slot(grid, ni);
        let pid = grid.oldest(ni, slot);
        masks.clear();
        masks.push(PackedView::new(store.profitable(topo, pid), slot, 0));
        single = Some(pid);
    } else {
        build_packed(topo, store, grid, ni, masks);
    }
    let cold = FullResidents::new(store, grid, ni, ctx.faults);
    router.outqueue(t0, node, &mut ctx.node_state[ni], masks, &cold, &mut out);
    calls.outqueue += 1;
    let len = masks.len();
    #[allow(clippy::needless_range_loop)]
    for a in 0..4 {
        if let Some(i) = out[a] {
            assert!(
                i < len,
                "{}: outqueue index out of range at {node} step {t0}",
                router.name()
            );
            for b in (a + 1)..4 {
                assert!(
                    out[b] != Some(i),
                    "{}: packet scheduled on two outlinks at {node} step {t0}",
                    router.name()
                );
            }
        }
    }
    for d in ALL_DIRS {
        if let Some(i) = out[d.index()] {
            // The small-node fast path already holds the lone resident;
            // multi-packet nodes walk the arena's length row.
            let pkt = single.unwrap_or_else(|| grid.nth_packet(ni, i));
            let to = topo.neighbor(node, d).unwrap_or_else(|| {
                panic!(
                    "{}: scheduled {pkt:?} on missing {d} outlink of {node}",
                    router.name()
                )
            });
            if router.is_minimal() {
                // Checked against the store's own mask, not `masks`: the
                // router was handed that slice mutably.
                let profitable = store.profitable(topo, pkt);
                assert!(
                    profitable.contains(d),
                    "{}: non-minimal move {pkt:?} {d} from {node} (profitable {profitable:?}) step {t0}",
                    router.name()
                );
            }
            schedule.push(ScheduledMove::new(pkt, node, to, d));
        }
    }
    if memoise && load == 1 {
        grid.set_route_memo(ni, ALL_DIRS.into_iter().find(|d| out[d.index()].is_some()));
    }
}

/// §2 (a): every loaded, unstalled node's outqueue policy schedules at
/// most one packet per outlink. Fills `bufs.schedule` in deterministic
/// node-then-direction order; a malformed schedule panics. The walk takes
/// the active list from the grid and clears each node's membership as it
/// visits it, so transmit can rebuild the list.
pub(crate) fn route<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    ctx.bufs.schedule.clear();
    ctx.bufs.size(ctx.grid, ctx.store.len());
    ctx.bufs.lost_moves.clear();
    ctx.grid.take_active(&mut ctx.bufs.snapshot);
    let memoise = ctx.faults.is_none() && ctx.router.outqueue_reads_only_descriptors();
    for idx in 0..ctx.bufs.snapshot.len() {
        let ni = ctx.bufs.snapshot[idx] as usize;
        ctx.grid.leave_active(ni);
        if !(memoise && reoffer(ctx, ni)) {
            route_node(ctx, ni, memoise);
        }
    }
}

/// Link-fault enforcement on the schedule, *before* the adversary hook
/// observes it, so the exchanger only ever sees moves that can happen.
/// A down link carries nothing: the move is dropped. A *lossy* link does
/// carry the packet — it just never arrives: the transmission happens
/// (the sender's queue slot frees), but the packet is destroyed in
/// flight (resolved in the transmit phase).
pub(crate) fn enforce_faults<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    let Some(f) = ctx.faults else { return };
    let t0 = ctx.t0;
    let lost_moves = &mut ctx.bufs.lost_moves;
    ctx.bufs.schedule.retain(|m| {
        if f.link_down(t0, m.from(), m.travel()) {
            return false;
        }
        if f.link_lossy(t0, m.from(), m.travel()) {
            lost_moves.push(*m);
            return false;
        }
        true
    });
}

/// §2 (b): the adversary hook observes the schedule and may exchange
/// destinations.
pub(crate) fn adversary<T: Topology, R: Router, H: StepHook>(
    ctx: &mut StepCtx<'_, '_, T, R>,
    hook: &mut H,
) {
    ctx.bufs.exchanged.clear();
    let mut hctx = HookCtx {
        t: ctx.t0 + 1,
        n: ctx.grid.n(),
        moves: &ctx.bufs.schedule,
        store: &mut *ctx.store,
        exchanges: &mut ctx.progress.exchanges,
        dirty: &mut ctx.bufs.exchanged,
    };
    hook.on_scheduled(&mut hctx);
    for &pid in &ctx.bufs.exchanged {
        ctx.store.refresh_mask(ctx.topo, pid);
        // A resident's descriptor changed: its node's memoised offer is stale.
        if let Loc::At(c) = ctx.store.loc(pid) {
            ctx.grid.forget_route(ctx.grid.node_index(c));
        }
    }
}

/// The packed descriptors of the offers `group` (schedule indices), in
/// order, in the first `group.len()` entries.
fn arrivals_of<T: Topology>(
    topo: &T,
    store: &PacketStore,
    schedule: &[ScheduledMove],
    group: &[u32],
) -> [PackedArrival; 4] {
    let mut arrivals = [PackedArrival::new(DirSet::EMPTY, Dir::North); 4];
    for (a, &i) in arrivals.iter_mut().zip(group) {
        let m = schedule[i as usize];
        // §2: profitable outlinks of scheduled packets are measured from
        // the node they are coming from — which is exactly where the
        // packet still sits, so its cached mask is that set.
        *a = PackedArrival::new(store.profitable(topo, m.pkt()), m.travel());
    }
    arrivals
}

/// §2 (c) for one target node: the inqueue policy of the (unstalled)
/// target of the offers `group` (schedule indices, in schedule order)
/// accepts or rejects each; degraded nodes are clamped to their reduced
/// capacity. A target whose router refuses every offer for want of room
/// ([`Router::refuse_if_full`]) decides them without its inqueue. Each
/// offer's decision lands in its own schedule record, and the target's
/// chain head is cleared for the next step.
fn accept_group<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>, group: &[u32]) {
    let (t0, topo, router) = (ctx.t0, ctx.topo, ctx.router);
    let (store, grid) = (&*ctx.store, &*ctx.grid);
    let StepBufs {
        schedule,
        heads,
        calls,
        ..
    } = &mut *ctx.bufs;
    let target = schedule[group[0] as usize].to();
    let ni = grid.node_index(target);
    heads[ni] = 0;
    // Residents collapse to the arena's own per-slot length row (handed to
    // the policy as-is, no copy) and each arrival to one byte; a node has
    // four inlinks, so a group has at most four offers.
    let queue_lens = grid.queue_lens_of(ni);
    let size = group.len();
    // A stalled node accepts nothing: the whole arrival group is rejected
    // and its router never observes the offered packets.
    let stalled = ctx.faults.is_some_and(|f| f.node_stalled(t0, target));
    #[cfg(debug_assertions)]
    let before = ctx.node_state[ni].clone();
    let refused = !stalled && router.refuse_if_full(&mut ctx.node_state[ni], queue_lens);
    if refused {
        calls.refused_full += size as u64;
        // The inqueue call the refusal stands for must refuse every offer
        // and leave the same node state.
        #[cfg(debug_assertions)]
        {
            let (mut state, mut accept) = (before, [false; 4]);
            let mut arrivals = arrivals_of(topo, store, schedule, group);
            let cold = FullArrivals::new(store, schedule, group, ctx.faults);
            let (arrivals, accept) = (&mut arrivals[..size], &mut accept[..size]);
            router.inqueue(t0, target, &mut state, queue_lens, arrivals, &cold, accept);
            assert!(
                !accept.contains(&true) && state == ctx.node_state[ni],
                "{}: full-target refusal at {target} is not what inqueue does at step {t0}",
                router.name()
            );
        }
    }
    if stalled || refused {
        for &i in group {
            schedule[i as usize].decide(false);
        }
        return;
    }
    calls.inqueue_offers += size as u64;
    let mut arrivals = arrivals_of(topo, store, schedule, group);
    let mut accept = [false; 4];
    let (arrivals, accept) = (&mut arrivals[..size], &mut accept[..size]);
    let cold = FullArrivals::new(store, schedule, group, ctx.faults);
    let state = &mut ctx.node_state[ni];
    router.inqueue(t0, target, state, queue_lens, arrivals, &cold, accept);
    // Queue degradation: clamp what a (degradation-unaware) router
    // accepted down to the reduced capacity, read off the schedule and the
    // packet store: the exemption is `dst == target`.
    if let Some(f) = ctx.faults {
        let lost = f.degraded_slots(t0, target);
        if lost > 0 {
            let mut room = [usize::MAX; 5];
            for (s, r) in room.iter_mut().enumerate().take(grid.slots()) {
                let kind = grid.slot_kind(s);
                if let Some(cap) = grid.arch().capacity(kind) {
                    let eff = cap.saturating_sub(lost) as usize;
                    *r = eff.saturating_sub(grid.queue_len(ni, s));
                }
            }
            for (a, &i) in accept.iter_mut().zip(group) {
                let m = schedule[i as usize];
                if !*a || store.dst(m.pkt()) == target {
                    continue;
                }
                let s = grid.arch().arrival_queue(m.travel()).slot();
                if room[s] > 0 {
                    room[s] -= 1;
                } else {
                    *a = false;
                }
            }
        }
    }
    for (&i, &a) in group.iter().zip(accept.iter()) {
        schedule[i as usize].decide(a);
    }
}

/// §2 (c): every unstalled target's inqueue policy accepts or rejects its
/// offers, then acceptance at degraded nodes is clamped down to the
/// reduced capacity. Deliveries never occupy a queue slot, so they are
/// exempt from the clamp; residents already over the reduced capacity are
/// not evicted — they drain naturally.
///
/// Offers are grouped by target without a sort: a backward pass threads
/// each target's offers onto a chain in schedule order (`heads`, `next`),
/// and a forward pass accepts each group at its first offer, the first one
/// it meets still pending. Targets are visited in first-touch order, which
/// nothing can observe: every policy call is a deterministic function of
/// its own arguments (the [`Router`] contract), and it writes only its
/// target's node state and its own offers' decisions. The backward pass
/// looks up one node per offer, the forward pass one per target.
pub(crate) fn accept<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    let bufs = &mut *ctx.bufs;
    let (grid, len) = (&*ctx.grid, bufs.schedule.len());
    bufs.next.resize(len, 0);
    for (i, m) in bufs.schedule.iter().enumerate().rev() {
        let head = &mut bufs.heads[grid.node_index(m.to())];
        bufs.next[i] = std::mem::replace(head, i as u32 + 1);
    }
    for i in 0..len {
        if ctx.bufs.schedule[i].decided() {
            continue;
        }
        let (mut group, mut size, mut link) = ([0u32; 4], 0, i as u32 + 1);
        while link != 0 {
            group[size] = link - 1;
            size += 1;
            link = ctx.bufs.next[link as usize - 1];
        }
        accept_group(ctx, &group[..size]);
    }
}

/// §2 (d): accepted and lossy transmissions each count a move and a hop,
/// then accepted packets deliver (arriving at their destination) or enter
/// their target queue, in schedule order, and lossy ones are destroyed
/// (their inqueue policy never saw them offered, so there is no acceptance
/// bookkeeping to undo). Every packet departs before any arrives, so a
/// bound-`k` slot holds at most `k` packets even within the step and the
/// slab never grows for an arrival that replaces a resident. Appending at
/// a queue's tail commutes with removing another packet from it, so the
/// queues, the active list `enter` builds and the events are those of
/// moving each packet in turn. Then the active worklist is rebuilt:
/// previously active nodes that still hold or stage packets stay active;
/// transmission already marked the targets.
pub(crate) fn transmit<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    let accepted = |m: &&ScheduledMove| m.accepted();
    for m in ctx.bufs.schedule.iter().filter(accepted) {
        ctx.store.depart(ctx.grid, ctx.progress, m.pkt(), m.from());
    }
    for m in &ctx.bufs.lost_moves {
        ctx.store.depart(ctx.grid, ctx.progress, m.pkt(), m.from());
    }
    let t = ctx.t0 + 1;
    for m in ctx.bufs.schedule.iter().filter(accepted) {
        let (pkt, to) = (m.pkt(), m.to());
        if ctx.store.dst(pkt) == to {
            ctx.store
                .retire(ctx.progress, ctx.events, pkt, Loc::Delivered, t);
        } else {
            let kind = ctx.grid.arch().arrival_queue(m.travel());
            ctx.store.enter(ctx.topo, ctx.grid, pkt, to, kind);
        }
    }
    for m in &ctx.bufs.lost_moves {
        ctx.store
            .retire(ctx.progress, ctx.events, m.pkt(), Loc::Lost, t);
    }
    // Route emptied the list, and only `enter` has refilled it since: the
    // nodes on it now are exactly those a packet arrived at this step.
    ctx.bufs.arrived = ctx.grid.active().len();
    // Rebuild the active worklist from the route snapshot.
    for idx in 0..ctx.bufs.snapshot.len() {
        let ni = ctx.bufs.snapshot[idx] as usize;
        if ctx.grid.node_load(ni) > 0 || is_staged(&ctx.grid.staged, ni) {
            ctx.grid.mark_active(ni);
        }
    }
}

/// Capacity validation plus occupancy metrics for one node, at its
/// end-of-step load. Overflow panics here are router implementation bugs,
/// not runtime conditions.
fn audit_node<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>, ni: usize) {
    let grid = &*ctx.grid;
    // One pass over the node's length row gives the load total, the
    // capacity check and the bounded maximum. Every slot is visited: a
    // branch on empty slots mispredicts, and cost `steady-sat` about 10 %
    // of its run. Unbounded (injection) queues count toward node load but
    // are skipped for max_queue tracking.
    let (mut load, mut max_bounded) = (0u32, 0u32);
    for (slot, &len) in grid.queue_lens_of(ni).iter().enumerate() {
        load += len;
        let kind = grid.slot_kind(slot);
        if let Some(cap) = grid.arch().capacity(kind) {
            assert!(
                len <= cap,
                "{}: queue {kind:?} of node {:?} overflowed ({len} > {cap}) at step {}",
                ctx.router.name(),
                grid.coord_of(ni),
                ctx.t0
            );
            max_bounded = max_bounded.max(len);
        }
    }
    ctx.progress.max_queue = ctx.progress.max_queue.max(max_bounded);
    ctx.progress.max_node_load = ctx.progress.max_node_load.max(load);
    ctx.grid.note_peak(ni, load);
}

/// The audit of every node that gained a packet this step: those a packet
/// arrived at (the head of the rebuilt active list) and those the inject
/// phase admitted one into. That is exact. A node's load, its queue lengths
/// and so its peak rise only through `NodeGrid::push`, so a node that only
/// lost packets since its last audit can neither overflow nor raise a
/// maximum. The first step after construction or restore sweeps every
/// active node instead, which covers what was queued before it.
pub(crate) fn audit<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    let gained = if ctx.bufs.swept {
        ctx.bufs.arrived
    } else {
        ctx.grid.active().len()
    };
    ctx.bufs.swept = true;
    for idx in 0..gained {
        audit_node(ctx, ctx.grid.active()[idx] as usize);
    }
    for idx in 0..ctx.bufs.admitted.len() {
        audit_node(ctx, ctx.bufs.admitted[idx] as usize);
    }
    ctx.bufs.admitted.clear();
}

/// §2 (e) for one loaded node: runs the router's end-of-step policy and
/// writes the packet states it returns. A packet resides at exactly one
/// node and the policy's handle is gone by then, so no other node's
/// policy can observe the write within the step.
fn update_node<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>, ni: usize) {
    let (store, grid) = (&*ctx.store, &*ctx.grid);
    let StepBufs { masks, states, .. } = &mut *ctx.bufs;
    if grid.node_load(ni) == 0 {
        return;
    }
    let node = grid.coord_of(ni);
    build_packed(ctx.topo, store, grid, ni, masks);
    states.clear();
    states.extend(grid.packets_at(node).map(|p| store.state(p)));
    let cold = FullResidents::new(store, grid, ni, ctx.faults);
    let state = &mut ctx.node_state[ni];
    ctx.router
        .end_of_step(ctx.t0, node, state, masks, &cold, states);
    for (pid, &s) in grid.packets_at(node).zip(states.iter()) {
        ctx.store.set_state(pid, s);
    }
}

/// §2 (e): the end-of-step state update for every loaded active node.
/// Routers whose `end_of_step` is the inherited no-op declare so via
/// `uses_end_of_step`, and the whole pass is skipped: every write it would
/// make is an identity write.
pub(crate) fn update_state<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    if !ctx.router.uses_end_of_step() {
        return;
    }
    for idx in 0..ctx.grid.active().len() {
        let ni = ctx.grid.active()[idx] as usize;
        update_node(ctx, ni);
    }
}
