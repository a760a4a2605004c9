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
//! | [`Phase::Audit`] | engine guarantee: capacity bounds hold, occupancy metrics update |
//! | [`Phase::UpdateState`] | (e) node and packet states update within the information the model permits |
//!
//! Fault enforcement that *gates a policy invocation* — a stalled node's
//! outqueue/inqueue is never consulted, a degraded node's acceptance is
//! clamped after its inqueue ran — necessarily lives inside the
//! route/accept/inject phases; only link faults act on the schedule
//! itself and form their own phase.

use crate::hook::{HookCtx, ScheduledMove, StepHook};
use crate::router::Router;
use crate::snapshot::EventsSnap;
use crate::storage::{Loc, NodeGrid, PacketStore};
use crate::view::{FullArrivals, FullResidents, PackedArrival, PackedView};
use mesh_faults::CompiledFaults;
use mesh_topo::{Topology, ALL_DIRS};
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
    /// Capacity validation and occupancy metrics over the active nodes.
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
        let v = match self {
            AdmissionPolicy::DeferIndefinitely => serde::Value::String("DeferIndefinitely".into()),
            AdmissionPolicy::RejectNew => serde::Value::String("RejectNew".into()),
            AdmissionPolicy::DropOldestDeferred { max_deferred } => serde::Value::Object(vec![(
                "DropOldestDeferred".into(),
                serde::Value::U64(*max_deferred as u64),
            )]),
            AdmissionPolicy::DeadlineExpiry { ttl } => {
                serde::Value::Object(vec![("DeadlineExpiry".into(), serde::Value::U64(*ttl))])
            }
        };
        v.serialize_into(out)
    }
}

impl serde::Deserialize for AdmissionPolicy {
    fn deserialize_from<S: serde::Source>(src: &mut S) -> Result<Self, serde::Error> {
        match serde::Deserialize::deserialize_from(src)? {
            serde::Value::String(s) => match s.as_str() {
                "DeferIndefinitely" => Ok(AdmissionPolicy::DeferIndefinitely),
                "RejectNew" => Ok(AdmissionPolicy::RejectNew),
                other => Err(serde::Error::custom(format!(
                    "unknown admission policy '{other}'"
                ))),
            },
            serde::Value::Object(pairs) if pairs.len() == 1 => match pairs[0].0.as_str() {
                "DropOldestDeferred" => Ok(AdmissionPolicy::DropOldestDeferred {
                    max_deferred: serde::Deserialize::deserialize(&pairs[0].1)?,
                }),
                "DeadlineExpiry" => Ok(AdmissionPolicy::DeadlineExpiry {
                    ttl: serde::Deserialize::deserialize(&pairs[0].1)?,
                }),
                other => Err(serde::Error::custom(format!(
                    "unknown admission policy '{other}'"
                ))),
            },
            _ => Err(serde::Error::custom("malformed admission policy")),
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
/// allocation in the hot loop — every phase works in place).
#[derive(Default)]
pub(crate) struct StepBufs {
    pub(crate) accept: Vec<bool>,
    pub(crate) schedule: Vec<ScheduledMove>,
    pub(crate) order: Vec<u32>,
    pub(crate) accepted: Vec<bool>,
    pub(crate) states: Vec<u64>,
    pub(crate) lost_moves: Vec<ScheduledMove>,
    /// The active-node snapshot the route phase drains from the grid.
    pub(crate) snapshot: Vec<u32>,
    /// Scratch for the inject phase's pending-node sweep.
    pub(crate) inject_nodes: Vec<u32>,
    /// Acceptance groups: `(start, end)` ranges into `order`, one per target
    /// node, in target-node order.
    pub(crate) groups: Vec<(u32, u32)>,
    /// Bit-packed resident descriptors of the node being routed or updated.
    pub(crate) masks: Vec<PackedView>,
    /// Bit-packed arrival descriptors of the group being accepted.
    pub(crate) arr_packed: Vec<PackedArrival>,
    /// Per-target move counts for the counting group-by in `accept_prep`.
    /// Sized `n²` on first use and kept all-zero between steps (only the
    /// `touched` entries are ever dirtied, and they are re-zeroed on exit).
    pub(crate) counts: Vec<u32>,
    /// The distinct target-node ids dirtied in `counts` this step.
    pub(crate) touched: Vec<u32>,
    /// Packets whose destinations the adversary exchanged this step — the
    /// engine refreshes their cached profitable masks after the hook runs.
    pub(crate) exchanged: Vec<PacketId>,
}

/// Everything one step needs, as split borrows of the simulation's parts:
/// phases take `&mut StepCtx` and the borrow checker sees disjoint fields.
pub(crate) struct StepCtx<'a, 't, T: Topology, R: Router> {
    /// The 0-based step being executed (the paper's step `t0 + 1`).
    pub(crate) t0: u64,
    pub(crate) topo: &'t T,
    pub(crate) router: &'a R,
    pub(crate) validate: bool,
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

/// Moves packets whose injection time has come into their origin queues,
/// capacity (and faults) permitting. Returns whether any packet entered
/// the network.
pub(crate) fn inject<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) -> bool {
    let t = ctx.t0;
    let mut injected = false;
    // Closed-system fast path: under `DeferIndefinitely` with no fault
    // plan, a due packet whose origin queue has room enters it directly —
    // the stage-into-bucket/drain-in-sorted-order dance below would admit
    // exactly these packets into exactly these (per-node independent)
    // queues in exactly this order, so skipping the bucket is free of
    // observable effect and saves a HashMap + VecDeque round trip per
    // packet. Anything that cannot enter falls back to the bucket.
    let direct_entry =
        ctx.faults.is_none() && matches!(ctx.admission, AdmissionPolicy::DeferIndefinitely);
    let origin_kind = ctx.grid.arch().origin_queue();
    let origin_cap = ctx.grid.arch().capacity(origin_kind);
    // Stage newly due packets into per-node pending queues.
    while let Some(pid) = ctx.store.next_due(t) {
        let src = ctx.store.src(pid);
        if src == ctx.store.dst(pid) {
            // Trivial packet: delivered without entering the network.
            ctx.store
                .retire(ctx.progress, ctx.events, pid, Loc::Delivered, t);
            continue;
        }
        let ni = ctx.grid.node_index(src);
        if direct_entry
            && origin_cap.is_none_or(|cv| ctx.grid.queue_len(ni, origin_kind.slot()) < cv as usize)
        {
            ctx.store.enter(ctx.topo, ctx.grid, pid, src, origin_kind);
            injected = true;
            continue;
        }
        ctx.grid.stage(ni as u32, pid);
        ctx.grid.mark_active(ni);
    }
    // `DeadlineExpiry` acts before the drain, and inside the network as
    // well as at the edge: a stale packet clogging a bounded queue is
    // dropped wherever it sits, freeing capacity for live traffic.
    // Edge-only shedding cannot un-fill internal queues, so without the
    // in-network sweep central-queue routers congestion-collapse past
    // saturation instead of degrading to a goodput plateau. Sorted node
    // order, like the drain below, keeps HashMap iteration order out of
    // the engine.
    if let AdmissionPolicy::DeadlineExpiry { ttl } = ctx.admission {
        let (store, progress, events) = (&mut *ctx.store, &mut *ctx.progress, &mut *ctx.events);
        let mut expire = |pid: PacketId| {
            let stale = t >= store.inject_at(pid).saturating_add(ttl);
            if stale {
                store.retire(progress, events, pid, Loc::Expired, t);
            }
            stale
        };
        ctx.grid.expire_queued(&mut expire);
        let nodes = &mut ctx.bufs.inject_nodes;
        nodes.clear();
        nodes.extend(ctx.grid.pending.keys().copied());
        nodes.sort_unstable();
        for &ni in nodes.iter() {
            let Some(q) = ctx.grid.pending.get_mut(&ni) else {
                continue;
            };
            q.retain(|&pid| !expire(pid));
            if q.is_empty() {
                ctx.grid.close_pending(ni);
            }
        }
    }
    if !ctx.grid.has_pending() {
        return injected;
    }
    // Drain pending into origin queues while capacity lasts. A stalled
    // node injects nothing; a degraded node only up to its reduced
    // capacity. Sorted node order: behaviorally inert (every pending node
    // is already active and per-node draining is independent), but it
    // keeps the engine independent of HashMap iteration order by
    // construction.
    // Open-system injection throttling: when the origin queue is a
    // bounded queue *shared with transit* (the Central arch), reserve one
    // slot for arrivals. The inject phase runs before accept, so without
    // the reserve sustained injection refills every freed slot first and
    // transit starves — the whole mesh gridlocks at a trickle no matter
    // what the edge sheds. The closed-system default keeps the paper's
    // drain-when-room semantics untouched.
    let cap = match (origin_cap, ctx.admission) {
        (Some(cv), AdmissionPolicy::DeferIndefinitely) => Some(cv),
        (Some(cv), _) => Some(cv.saturating_sub(1)),
        (None, _) => None,
    };
    // Deadline runs drain freshest-first (see `pop_pending`); every
    // other policy drains in injection order.
    let freshest_first = matches!(ctx.admission, AdmissionPolicy::DeadlineExpiry { .. });
    let nodes = &mut ctx.bufs.inject_nodes;
    nodes.clear();
    nodes.extend(ctx.grid.pending.keys().copied());
    nodes.sort_unstable();
    for &ni in nodes.iter() {
        let c = ctx.grid.coord_of(ni as usize);
        let cap = match ctx.faults {
            Some(f) if f.node_stalled(t, c) => {
                ctx.grid.mark_active(ni as usize);
                continue;
            }
            Some(f) => cap.map(|k| k.saturating_sub(f.degraded_slots(t, c))),
            None => cap,
        };
        while cap.is_none_or(|cv| ctx.grid.queue_len(ni as usize, origin_kind.slot()) < cv as usize)
        {
            let Some(pid) = ctx.grid.pop_pending(ni, freshest_first) else {
                break;
            };
            ctx.store.enter(ctx.topo, ctx.grid, pid, c, origin_kind);
            injected = true;
        }
        ctx.grid.mark_active(ni as usize);
    }
    // Post-drain shedding: whatever could not enter this step either
    // waits (DeferIndefinitely / DeadlineExpiry) or is trimmed
    // oldest-first to the per-origin edge budget — `max_deferred`
    // (DropOldestDeferred) or nothing at all (RejectNew). The sorted node
    // list from the drain is reused, so shedding order is deterministic
    // as well; buckets the drain already emptied come back `None`.
    let budget = match ctx.admission {
        AdmissionPolicy::RejectNew => Some(0),
        AdmissionPolicy::DropOldestDeferred { max_deferred } => Some(max_deferred as usize),
        AdmissionPolicy::DeferIndefinitely | AdmissionPolicy::DeadlineExpiry { .. } => None,
    };
    if let Some(budget) = budget {
        for &ni in nodes.iter() {
            let Some(q) = ctx.grid.pending.get_mut(&ni) else {
                continue;
            };
            while q.len() > budget {
                let pid = q.pop_front().expect("length checked above");
                ctx.store
                    .retire(ctx.progress, ctx.events, pid, Loc::Shed, t);
            }
            if q.is_empty() {
                ctx.grid.close_pending(ni);
            }
        }
    }
    // Whatever is still staged was deferred by admission control this
    // step: the origin queue is full (or the node stalled), so the
    // packet waits outside the network instead of overflowing.
    ctx.progress.deferred_injections += ctx.grid.staged_total() as u64;
    injected
}

/// §2 (a) for a single node: a loaded, unstalled node's outqueue policy
/// schedules at most one packet per outlink; its moves go onto
/// `bufs.schedule` in [`ALL_DIRS`] order.
fn route_node<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>, ni: usize) {
    let (t0, topo, router, validate) = (ctx.t0, ctx.topo, ctx.router, ctx.validate);
    let (store, grid) = (&*ctx.store, &*ctx.grid);
    let StepBufs {
        schedule, masks, ..
    } = &mut *ctx.bufs;
    if grid.node_load(ni) == 0 {
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
    if grid.node_load(ni) == 1 {
        // Small-node fast path — the overwhelmingly common case once a
        // run spreads out: the lone resident's descriptor comes straight
        // off the occupancy bitmask, skipping the slot walk and per-slot
        // enumerate. The router policy still runs (node state must advance
        // identically); only descriptor-building machinery is bypassed.
        let slot = grid.occ_mask(ni).trailing_zeros() as usize;
        let pid = grid.queue(ni, slot)[0];
        masks.clear();
        masks.push(PackedView::new(store.profitable(topo, pid), slot, 0));
        single = Some(pid);
    } else {
        build_packed(topo, store, grid, ni, masks);
    }
    let cold = FullResidents::new(store, grid, ni);
    router.outqueue(t0, node, &mut ctx.node_state[ni], masks, &cold, &mut out);
    let len = masks.len();
    if validate {
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
    }
    for d in ALL_DIRS {
        if let Some(i) = out[d.index()] {
            // The small-node fast path already holds the lone resident;
            // multi-packet nodes index the arena's occupancy walk.
            let pkt = single.unwrap_or_else(|| grid.nth_packet(ni, i));
            let to = topo.neighbor(node, d).unwrap_or_else(|| {
                panic!(
                    "{}: scheduled {pkt:?} on missing {d} outlink of {node}",
                    router.name()
                )
            });
            if validate && router.is_minimal() {
                // Checked against the store's own mask, not `masks`: the
                // router was handed that slice mutably.
                let profitable = store.profitable(topo, pkt);
                assert!(
                    profitable.contains(d),
                    "{}: non-minimal move {pkt:?} {d} from {node} (profitable {profitable:?}) step {t0}",
                    router.name()
                );
            }
            schedule.push(ScheduledMove {
                pkt,
                from: node,
                to,
                travel: d,
            });
        }
    }
}

/// §2 (a): every loaded, unstalled node's outqueue policy schedules at
/// most one packet per outlink. Fills `bufs.schedule` in deterministic
/// node-then-direction order; validation panics on malformed schedules.
pub(crate) fn route<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    ctx.bufs.schedule.clear();
    ctx.bufs.lost_moves.clear();
    ctx.grid.drain_active_into(&mut ctx.bufs.snapshot);
    for idx in 0..ctx.bufs.snapshot.len() {
        let ni = ctx.bufs.snapshot[idx] as usize;
        route_node(ctx, ni);
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
        if f.link_down(t0, m.from, m.travel) {
            return false;
        }
        if f.link_lossy(t0, m.from, m.travel) {
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
    }
}

/// §2 (c) for one target node: the inqueue policy of the (unstalled)
/// target of moves `order[start..end]` accepts or rejects each offer;
/// degraded nodes are clamped to their reduced capacity. Decisions land in
/// `bufs.accepted`, indexed like the schedule.
fn accept_group<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>, start: usize, end: usize) {
    let (t0, topo, router) = (ctx.t0, ctx.topo, ctx.router);
    let (store, grid) = (&*ctx.store, &*ctx.grid);
    let StepBufs {
        arr_packed,
        accept,
        schedule,
        order,
        accepted,
        ..
    } = &mut *ctx.bufs;
    let target = schedule[order[start] as usize].to;
    let ni = grid.node_index(target);
    // A stalled node accepts nothing: the whole arrival group stays
    // rejected and its router never observes the offered packets.
    if let Some(f) = ctx.faults {
        if f.node_stalled(t0, target) {
            return;
        }
    }
    accept.clear();
    accept.resize(end - start, false);
    // Residents collapse to the arena's own per-slot length row (handed to
    // the policy as-is, no copy) and each arrival to one byte.
    let queue_lens = grid.queue_lens_of(ni);
    arr_packed.clear();
    for gi in start..end {
        let m = schedule[order[gi] as usize];
        // §2: profitable outlinks of scheduled packets are measured from
        // the node they are coming from — which is exactly where the
        // packet still sits, so its cached mask is that set.
        arr_packed.push(PackedArrival::new(store.profitable(topo, m.pkt), m.travel));
    }
    let cold = FullArrivals::new(store, schedule, &order[start..end]);
    let state = &mut ctx.node_state[ni];
    router.inqueue(t0, target, state, queue_lens, arr_packed, &cold, accept);
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
            for (j, gi) in (start..end).enumerate() {
                let m = schedule[order[gi] as usize];
                if !accept[j] || store.dst(m.pkt) == target {
                    continue;
                }
                let s = grid.arch().arrival_queue(m.travel).slot();
                if room[s] > 0 {
                    room[s] -= 1;
                } else {
                    accept[j] = false;
                }
            }
        }
    }
    for (j, gi) in (start..end).enumerate() {
        accepted[order[gi] as usize] = accept[j];
    }
}

/// Groups the schedule by target node into `bufs.order` and records the
/// per-target group ranges in `bufs.groups` (ascending target id, stable
/// in schedule order within a group — provably the same permutation the
/// old stable sort-by-target produced).
///
/// This is a counting group-by over the persistent `counts` arena instead
/// of a comparison sort: two linear passes over the schedule plus a sort
/// of the *distinct* targets only (at most one comparison-sorted element
/// per loaded node instead of one per move).
fn accept_prep(n: u32, bufs: &mut StepBufs) {
    let nn = (n as usize) * (n as usize);
    if bufs.counts.len() < nn {
        bufs.counts.resize(nn, 0);
    }
    let counts = &mut bufs.counts;
    let touched = &mut bufs.touched;
    touched.clear();
    for m in bufs.schedule.iter() {
        let t = (m.to.y * n + m.to.x) as usize;
        if counts[t] == 0 {
            touched.push(t as u32);
        }
        counts[t] += 1;
    }
    // Ascending-target order, two ways to get it: sort the distinct
    // targets, or — when most nodes were hit anyway — rescan the counts
    // arena in index order. Both produce the identical touched list, so
    // the choice is purely a cost model (dense steps are the common case
    // on loaded meshes and the scan is branch-predictable and sort-free).
    if touched.len() * 8 >= nn {
        touched.clear();
        for (t, &c) in counts.iter().enumerate().take(nn) {
            if c > 0 {
                touched.push(t as u32);
            }
        }
    } else {
        touched.sort_unstable();
    }
    bufs.groups.clear();
    let mut off = 0u32;
    for &t in touched.iter() {
        let c = counts[t as usize];
        bufs.groups.push((off, off + c));
        // Reuse the count cell as the group's placement cursor.
        counts[t as usize] = off;
        off += c;
    }
    bufs.order.clear();
    bufs.order.resize(bufs.schedule.len(), 0);
    for (i, m) in bufs.schedule.iter().enumerate() {
        let t = (m.to.y * n + m.to.x) as usize;
        bufs.order[counts[t] as usize] = i as u32;
        counts[t] += 1;
    }
    // Re-zero the dirtied cells so the arena is clean for the next step.
    for &t in touched.iter() {
        counts[t as usize] = 0;
    }
    bufs.accepted.clear();
    bufs.accepted.resize(bufs.schedule.len(), false);
}

/// §2 (c): group scheduled moves by target node (stable in schedule
/// order), let each unstalled target's inqueue policy accept or reject,
/// then clamp acceptance at degraded nodes down to the reduced capacity.
/// Deliveries never occupy a queue slot, so they are exempt from the
/// clamp; residents already over the reduced capacity are not evicted —
/// they drain naturally.
pub(crate) fn accept<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    accept_prep(ctx.grid.n(), ctx.bufs);
    for gi in 0..ctx.bufs.groups.len() {
        let (start, end) = ctx.bufs.groups[gi];
        accept_group(ctx, start as usize, end as usize);
    }
}

/// §2 (d) for one transmission: the packet departs `m.from` and what
/// happens next is the link's doing — a lossy link destroys it (its
/// inqueue policy never saw it offered, so there is no acceptance
/// bookkeeping to undo), its destination delivers it, any other node
/// queues it.
#[inline]
fn carry<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>, m: ScheduledMove, lossy: bool) {
    ctx.store.depart(ctx.grid, ctx.progress, m.pkt, m.from);
    let t = ctx.t0 + 1;
    if lossy {
        ctx.store
            .retire(ctx.progress, ctx.events, m.pkt, Loc::Lost, t);
    } else if ctx.store.dst(m.pkt) == m.to {
        ctx.store
            .retire(ctx.progress, ctx.events, m.pkt, Loc::Delivered, t);
    } else {
        let kind = ctx.grid.arch().arrival_queue(m.travel);
        ctx.store.enter(ctx.topo, ctx.grid, m.pkt, m.to, kind);
    }
}

/// §2 (d): accepted packets leave their source queues and either deliver
/// (arriving at their destination) or enter their target queue; lossy
/// transmissions count as a move and a hop but destroy the packet. Then
/// the active worklist is rebuilt: previously active nodes that still
/// hold packets (or have pending injections) stay active; transmission
/// already marked the targets.
pub(crate) fn transmit<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    for mi in 0..ctx.bufs.schedule.len() {
        if ctx.bufs.accepted[mi] {
            carry(ctx, ctx.bufs.schedule[mi], false);
        }
    }
    for li in 0..ctx.bufs.lost_moves.len() {
        carry(ctx, ctx.bufs.lost_moves[li], true);
    }
    // Rebuild the active worklist from the route snapshot. The pending
    // lookup is hoisted behind an emptiness check: closed-system runs
    // (and any open-system step whose edge backlog is clear) skip the
    // per-node hash probe entirely.
    let has_pending = ctx.grid.has_pending();
    for idx in 0..ctx.bufs.snapshot.len() {
        let ni = ctx.bufs.snapshot[idx] as usize;
        if ctx.grid.node_load(ni) > 0
            || (has_pending && ctx.grid.pending.contains_key(&(ni as u32)))
        {
            ctx.grid.mark_active(ni);
        }
    }
}

/// Capacity validation plus occupancy metrics over the active nodes.
/// Overflow panics here are router implementation bugs, not runtime
/// conditions.
pub(crate) fn audit<T: Topology, R: Router>(ctx: &mut StepCtx<'_, '_, T, R>) {
    let t0 = ctx.t0;
    for idx in 0..ctx.grid.active().len() {
        let ni = ctx.grid.active()[idx] as usize;
        let grid = &*ctx.grid;
        // The load total comes straight off the arena's load index; only the
        // occupied slots (occupancy bitmask) are visited for the capacity
        // check and the bounded maximum. Unbounded (injection) queues count
        // toward node load but are skipped for max_queue tracking.
        let load = grid.node_load(ni);
        let mut max_bounded = 0u32;
        let lens = grid.queue_lens_of(ni);
        let mut o = grid.occ_mask(ni);
        while o != 0 {
            let slot = o.trailing_zeros() as usize;
            o &= o - 1;
            let len = lens[slot];
            let kind = grid.slot_kind(slot);
            if let Some(cap) = grid.arch().capacity(kind) {
                if ctx.validate {
                    assert!(
                        len <= cap,
                        "{}: queue {kind:?} of node {:?} overflowed ({len} > {cap}) at step {t0}",
                        ctx.router.name(),
                        grid.coord_of(ni)
                    );
                }
                max_bounded = max_bounded.max(len);
            }
        }
        debug_assert_eq!(
            load,
            lens.iter().sum::<u32>(),
            "occupancy index out of sync"
        );
        ctx.progress.max_queue = ctx.progress.max_queue.max(max_bounded);
        ctx.progress.max_node_load = ctx.progress.max_node_load.max(load);
        ctx.grid.note_peak(ni, load as u16);
    }
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
    let cold = FullResidents::new(store, grid, ni);
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
