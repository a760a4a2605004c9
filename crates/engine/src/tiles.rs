//! Tile-sharded execution of the step pipeline.
//!
//! The mesh is partitioned into rectangular **tiles**; each
//! [`STEP_PIPELINE`](crate::phases::STEP_PIPELINE) phase runs across the
//! tiles on a scoped thread pool with a frame barrier between phases, and
//! every cross-tile effect is resolved by a two-phase commit: workers
//! *stage* their tiles' outbound results into ordered mailboxes, and the
//! coordinator *merges* the mailboxes in exactly the order the sequential
//! engine would have produced. The result is bit-identical to
//! `tile_threads = 1` for every tile geometry and thread count — enforced
//! by the golden fixtures and the tiling-equivalence proptest battery.
//!
//! ## Phase schedule
//!
//! Worker phases run the *same per-node functions* as the sequential
//! pipeline ([`phases::route_node`], [`phases::accept_group`],
//! [`phases::audit_node`], [`phases::update_node`]); coordinator phases
//! run between barriers on the main thread:
//!
//! | phase | who | cross-tile coupling |
//! |---|---|---|
//! | inject | coordinator | global admission order (sorted node sweep) |
//! | route | workers | none — reads are node-local, moves are staged |
//! | route-merge + faults + adversary + accept-prep | coordinator | rebuilds the sequential schedule order |
//! | accept | workers | none — one inqueue group per target node |
//! | transmit-stage | workers | dequeues are node-local; arrivals staged into mailboxes |
//! | commit | coordinator | applies mailboxes in schedule order |
//! | audit + update | workers | none — maxima/peaks/state writes staged |
//! | finish | coordinator | order-independent reductions |
//!
//! ## Why the merge reproduces the sequential order
//!
//! *Route*: the sequential engine visits nodes in active-snapshot order
//! and emits each node's moves in `ALL_DIRS` order. Each worker scans the
//! same shared snapshot (filtering to its own tiles), so its per-tile
//! mailbox holds `(snapshot index, move)` pairs in ascending snapshot
//! order; the merge walks the snapshot once, draining each tile's mailbox
//! head while it matches the current index — reproducing the sequential
//! schedule exactly.
//!
//! *Transmit*: dequeues commute (queues are sets under identity-based
//! removal; the step removes and appends but never reorders survivors), so
//! workers dequeue their own tiles' departures in any order. Arrivals do
//! not commute — queue append order and delivery-event order are
//! observable — so workers only *stage* them, tagged with the schedule
//! index, and the commit applies them in ascending schedule order, which
//! is the sequential transmit order.
//!
//! ## Memory discipline
//!
//! Workers own disjoint tile sets and communicate with the coordinator
//! only through raw base pointers published in [`Shared`], under a strict
//! barrier regime: a location is written by at most one thread per phase,
//! and every cross-thread read happens after the barrier that ends the
//! writing phase (the barrier provides the happens-before edge). Shared
//! reference materialization (`&PacketStore`, `&NodeGrid`) happens only in
//! phases where the pointee is read-only for *all* threads.

use crate::hook::{HookCtx, ScheduledMove, StepHook};
use crate::phases::{self, EventLog, Progress, StepBufs};
use crate::queue::{QueueArch, QueueKind};
use crate::router::Router;
use crate::sim::{Sim, SimConfig};
use crate::storage::{GridRaw, Loc, NodeGrid, PacketStore};
use crate::view::{PackedArrival, PackedView};
use mesh_faults::CompiledFaults;
use mesh_topo::{Coord, Topology};
use mesh_traffic::PacketId;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

/// A rectangular partition of the `n × n` mesh into `tx × ty` execution
/// tiles (not to be confused with the paper's §6 offset tilings in
/// `mesh-topo`). Tile boundaries are chosen so the tiles differ in size by
/// at most one row/column.
pub(crate) struct TileMap {
    /// Total tiles (`tx * ty`).
    nt: u32,
    /// Node index → tile id (row-major over the tile grid).
    tile_of: Vec<u32>,
}

impl TileMap {
    pub(crate) fn new(n: u32, tx: u32, ty: u32) -> TileMap {
        let tx = tx.clamp(1, n);
        let ty = ty.clamp(1, n);
        let col = |x: u32| (x as u64 * tx as u64 / n as u64) as u32;
        let row = |y: u32| (y as u64 * ty as u64 / n as u64) as u32;
        let mut tile_of = Vec::with_capacity((n * n) as usize);
        for y in 0..n {
            for x in 0..n {
                tile_of.push(row(y) * tx + col(x));
            }
        }
        TileMap {
            nt: tx * ty,
            tile_of,
        }
    }

    /// Node → tile lookup (the hot path reads `tile_of` through
    /// [`Shared`]'s raw pointer instead).
    #[cfg(test)]
    fn tile(&self, ni: usize) -> u32 {
        self.tile_of[ni]
    }
}

/// A cross-tile transmission staged by the source tile's worker during
/// transmit, applied by the coordinator's commit in schedule order.
/// Mailboxes are kept per *source* tile; the destination tile tag makes
/// each row a sparse representation of the (source tile, destination tile)
/// mailbox matrix without allocating `nt²` rows for fine tilings.
struct Staged {
    /// Schedule index: the merge-order key (and integrity check).
    mi: u32,
    /// Destination tile (integrity check for the sparse pair encoding).
    dst_tile: u32,
    /// The packet arrives at its destination (consumes no queue slot).
    deliver: bool,
    /// Arrival queue at the target when not delivering.
    akind: QueueKind,
}

/// Per-worker scratch and staged output. Workers write only their own
/// entry; the coordinator reads all of them after the closing barrier.
#[derive(Default)]
struct WorkerOut {
    /// Bit-packed resident / arrival descriptors of the node in hand.
    masks: Vec<PackedView>,
    arr_packed: Vec<PackedArrival>,
    accept: Vec<bool>,
    states: Vec<u64>,
    /// Staged congestion-map updates `(node, load)`.
    peaks: Vec<(u32, u16)>,
    /// Staged end-of-step packet-state writes.
    state_writes: Vec<(PacketId, u64)>,
    max_queue: u32,
    max_node_load: u32,
}

/// The tile runtime a [`Sim`] carries when tile-sharded execution is
/// configured: the tile map, the per-tile route mailboxes, the per-tile
/// transmit mailboxes, and the per-worker staging areas.
pub(crate) struct TileRt {
    map: TileMap,
    workers: usize,
    /// Route mailboxes: per tile, `(snapshot index, move)` in snapshot
    /// order.
    route_stage: Vec<Vec<(u32, ScheduledMove)>>,
    /// Merge cursor per tile (coordinator-only).
    route_cursor: Vec<u32>,
    /// Transmit mailboxes, per source tile (see [`Staged`]).
    mailbox: Vec<Vec<Staged>>,
    /// Commit cursor per source tile (coordinator-only).
    mb_cursor: Vec<u32>,
    outs: Vec<WorkerOut>,
}

impl TileRt {
    /// Builds the runtime for `config`, or `None` when the configuration
    /// selects the plain sequential path.
    pub(crate) fn new(n: u32, config: &SimConfig) -> Option<TileRt> {
        let threads = config.tile_threads.max(1);
        if threads == 1 && config.tiles.is_none() {
            return None;
        }
        // Default geometry: horizontal bands, one per thread.
        let (tx, ty) = config.tiles.unwrap_or((1, (threads as u32).min(n).max(1)));
        let map = TileMap::new(n, tx, ty);
        let nt = map.nt as usize;
        let workers = threads.min(nt);
        Some(TileRt {
            map,
            workers,
            route_stage: (0..nt).map(|_| Vec::new()).collect(),
            route_cursor: vec![0; nt],
            mailbox: (0..nt).map(|_| Vec::new()).collect(),
            mb_cursor: vec![0; nt],
            outs: (0..workers).map(|_| WorkerOut::default()).collect(),
        })
    }
}

/// Pointers into the coordinator's per-step buffers, republished by the
/// coordinator whenever a buffer may have been (re)allocated. Workers read
/// the frame only after the barrier that follows the publishing phase.
#[derive(Clone, Copy)]
struct Frame {
    snapshot: *const u32,
    snapshot_len: usize,
    schedule: *const ScheduledMove,
    schedule_len: usize,
    lost: *const ScheduledMove,
    lost_len: usize,
    order: *const u32,
    groups: *const (u32, u32),
    groups_len: usize,
    accepted: *mut bool,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            snapshot: std::ptr::null(),
            snapshot_len: 0,
            schedule: std::ptr::null(),
            schedule_len: 0,
            lost: std::ptr::null(),
            lost_len: 0,
            order: std::ptr::null(),
            groups: std::ptr::null(),
            groups_len: 0,
            accepted: std::ptr::null_mut(),
        }
    }
}

/// Everything one tiled step shares between the coordinator and the
/// workers, as raw base pointers derived once at step start.
///
/// SAFETY contract (upheld by the barrier schedule in [`run_scoped`] /
/// [`run_single`]):
///
/// * During a **worker** phase the coordinator touches nothing reachable
///   from these pointers; workers touch only their own tiles' nodes /
///   their own `WorkerOut` / their own mailbox rows for mutation, and
///   materialize shared references only to data no thread mutates in that
///   phase.
/// * During a **coordinator** phase every worker is parked at a barrier.
/// * The pointed-to vectors are never grown while a pointer derived from
///   them is in use (the frame is republished after any coordinator-side
///   reallocation).
struct Shared<T: Topology, R: Router> {
    t0: u64,
    validate: bool,
    n: u32,
    arch: QueueArch,
    nt: u32,
    workers: usize,
    topo: *const T,
    router: *const R,
    faults: Option<*const CompiledFaults>,
    store: *mut PacketStore,
    grid: *mut NodeGrid,
    grid_raw: GridRaw,
    node_state: *mut R::NodeState,
    progress: *mut Progress,
    events: *mut EventLog,
    bufs: *mut StepBufs,
    tile_of: *const u32,
    route_stage: *mut Vec<(u32, ScheduledMove)>,
    route_cursor: *mut u32,
    mailbox: *mut Vec<Staged>,
    mb_cursor: *mut u32,
    outs: *mut WorkerOut,
    frame: UnsafeCell<Frame>,
    poison: AtomicBool,
    panics: Mutex<Vec<Option<Box<dyn std::any::Any + Send>>>>,
}

// SAFETY: see the struct-level contract; all cross-thread access is
// disjoint-by-construction or sequenced by the phase barriers.
unsafe impl<T: Topology, R: Router> Sync for Shared<T, R> {}

impl<T: Topology, R: Router> Shared<T, R> {
    /// The half-open tile range worker `w` owns.
    fn tile_range(&self, w: usize) -> (u32, u32) {
        let nt = self.nt as usize;
        let lo = w * nt / self.workers;
        let hi = (w + 1) * nt / self.workers;
        (lo as u32, hi as u32)
    }

    #[inline]
    fn node_index(&self, c: Coord) -> usize {
        (c.y * self.n + c.x) as usize
    }

    #[inline]
    unsafe fn tile(&self, ni: usize) -> u32 {
        *self.tile_of.add(ni)
    }

    unsafe fn topo(&self) -> &T {
        &*self.topo
    }

    unsafe fn router(&self) -> &R {
        &*self.router
    }

    unsafe fn faults(&self) -> Option<&CompiledFaults> {
        self.faults.map(|f| &*f)
    }

    /// Read-only store view; callable only in phases where no thread
    /// writes the store.
    unsafe fn store(&self) -> &PacketStore {
        &*self.store
    }

    /// Coordinator-only.
    #[allow(clippy::mut_from_ref)]
    unsafe fn store_mut(&self) -> &mut PacketStore {
        &mut *self.store
    }

    /// Read-only grid view; callable only in phases where no thread
    /// writes the grid.
    unsafe fn grid(&self) -> &NodeGrid {
        &*self.grid
    }

    /// Coordinator-only.
    #[allow(clippy::mut_from_ref)]
    unsafe fn grid_mut(&self) -> &mut NodeGrid {
        &mut *self.grid
    }

    /// The node state of `ni` — owned by the worker whose tiles contain
    /// `ni` during worker phases.
    #[allow(clippy::mut_from_ref)]
    unsafe fn state_of(&self, ni: usize) -> &mut R::NodeState {
        &mut *self.node_state.add(ni)
    }

    /// Coordinator-only.
    #[allow(clippy::mut_from_ref)]
    unsafe fn progress_mut(&self) -> &mut Progress {
        &mut *self.progress
    }

    /// Coordinator-only.
    #[allow(clippy::mut_from_ref)]
    unsafe fn events_mut(&self) -> &mut EventLog {
        &mut *self.events
    }

    /// Coordinator-only.
    #[allow(clippy::mut_from_ref)]
    unsafe fn bufs_mut(&self) -> &mut StepBufs {
        &mut *self.bufs
    }

    /// Worker `w`'s staging area — owned by that worker during worker
    /// phases, read by the coordinator afterwards.
    #[allow(clippy::mut_from_ref)]
    unsafe fn out(&self, w: usize) -> &mut WorkerOut {
        &mut *self.outs.add(w)
    }

    /// A tile's route mailbox — written by its owning worker during route,
    /// drained by the coordinator's merge.
    #[allow(clippy::mut_from_ref)]
    unsafe fn route_row(&self, tile: u32) -> &mut Vec<(u32, ScheduledMove)> {
        &mut *self.route_stage.add(tile as usize)
    }

    /// A source tile's transmit mailbox — written by its owning worker
    /// during transmit-stage, drained by the coordinator's commit.
    #[allow(clippy::mut_from_ref)]
    unsafe fn mailbox_row(&self, tile: u32) -> &mut Vec<Staged> {
        &mut *self.mailbox.add(tile as usize)
    }

    unsafe fn frame(&self) -> Frame {
        *self.frame.get()
    }

    /// Coordinator-only (between barriers).
    #[allow(clippy::mut_from_ref)]
    unsafe fn frame_mut(&self) -> &mut Frame {
        &mut *self.frame.get()
    }

    /// Removes `pid` from a queue of node `ni` through the raw arena
    /// pointers (the caller's worker owns `ni`'s tile). Mirrors
    /// `NodeGrid::remove`: shift the younger cells down one, then update
    /// the length, occupancy bitmask, and load index — all word writes
    /// into regions disjoint from every other worker's tiles.
    unsafe fn dequeue(&self, ni: usize, kind: QueueKind, pid: PacketId, what: &str) {
        let g = &self.grid_raw;
        let s = kind.slot();
        let len_ptr = g.lens.add(ni * g.slots + s);
        let len = *len_ptr as usize;
        let base = g.slab.add(ni * g.stride as usize + g.slot_off[s] as usize);
        let region = std::slice::from_raw_parts_mut(base, len);
        let pos = region.iter().position(|&p| p == pid).expect(what);
        region.copy_within(pos + 1.., pos);
        *len_ptr = (len - 1) as u32;
        if len == 1 {
            *g.occ.add(ni) &= !(1u8 << s);
        }
        *g.load.add(ni) -= 1;
    }

    fn record_panic(&self, slot: usize, payload: Box<dyn std::any::Any + Send>) {
        self.poison.store(true, Ordering::SeqCst);
        let mut panics = self.panics.lock().unwrap();
        if panics[slot].is_none() {
            panics[slot] = Some(payload);
        }
    }

    fn poisoned(&self) -> bool {
        self.poison.load(Ordering::SeqCst)
    }

    /// The first recorded panic (lowest slot wins, so the propagated
    /// message is deterministic when one worker's validation assertion
    /// fires).
    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        if !self.poisoned() {
            return None;
        }
        let mut panics = self.panics.lock().unwrap();
        panics.iter_mut().find_map(|slot| slot.take())
    }
}

// ---- worker phases ----

/// Route phase for worker `w`: §2 (a) over the worker's tiles, staging
/// `(snapshot index, move)` into the per-tile route mailboxes.
unsafe fn worker_route<T: Topology, R: Router>(shared: &Shared<T, R>, w: usize) {
    let topo = shared.topo();
    let router = shared.router();
    let faults = shared.faults();
    // Read-only this phase: routing only reads queues and packet fields.
    let store = shared.store();
    let grid = shared.grid();
    let (lo, hi) = shared.tile_range(w);
    let f = shared.frame();
    let snapshot = std::slice::from_raw_parts(f.snapshot, f.snapshot_len);
    let out = shared.out(w);
    for (idx, &ni) in snapshot.iter().enumerate() {
        let tile = shared.tile(ni as usize);
        if tile < lo || tile >= hi {
            continue;
        }
        let row = shared.route_row(tile);
        phases::route_node(
            shared.t0,
            topo,
            router,
            shared.validate,
            faults,
            store,
            grid,
            ni as usize,
            shared.state_of(ni as usize),
            &mut out.masks,
            &mut |m| row.push((idx as u32, m)),
        );
    }
}

/// Accept phase for worker `w`: §2 (c) for every acceptance group whose
/// target node lies in the worker's tiles. Decisions land in the shared
/// `accepted` flags (disjoint indices across groups).
unsafe fn worker_accept<T: Topology, R: Router>(shared: &Shared<T, R>, w: usize) {
    let topo = shared.topo();
    let router = shared.router();
    let faults = shared.faults();
    // Read-only this phase: acceptance reads queues and packet fields;
    // only node states (disjoint) and accepted flags (disjoint) change.
    let store = shared.store();
    let grid = shared.grid();
    let (lo, hi) = shared.tile_range(w);
    let f = shared.frame();
    let schedule = std::slice::from_raw_parts(f.schedule, f.schedule_len);
    let order = std::slice::from_raw_parts(f.order, f.schedule_len);
    let groups = std::slice::from_raw_parts(f.groups, f.groups_len);
    let out = shared.out(w);
    let WorkerOut {
        arr_packed, accept, ..
    } = out;
    for &(start, end) in groups {
        let target = schedule[order[start as usize] as usize].to;
        let ni = shared.node_index(target);
        let tile = shared.tile(ni);
        if tile < lo || tile >= hi {
            continue;
        }
        phases::accept_group(
            shared.t0,
            topo,
            router,
            faults,
            store,
            grid,
            schedule,
            order,
            start as usize,
            end as usize,
            shared.state_of(ni),
            arr_packed,
            accept,
            &mut |mi, a| *f.accepted.add(mi as usize) = a,
        );
    }
}

/// Transmit-stage phase for worker `w`: dequeues every departing packet of
/// the worker's tiles (accepted and lost moves) and stages each accepted
/// arrival, tagged with its schedule index, into the source tile's
/// transmit mailbox.
unsafe fn worker_stage<T: Topology, R: Router>(shared: &Shared<T, R>, w: usize) {
    // Read-only this phase: only queues (own tiles) and mailboxes (own
    // rows) change; the store is untouched until commit.
    let store = shared.store();
    let (lo, hi) = shared.tile_range(w);
    let f = shared.frame();
    let schedule = std::slice::from_raw_parts(f.schedule, f.schedule_len);
    let accepted = std::slice::from_raw_parts(f.accepted as *const bool, f.schedule_len);
    let lost = std::slice::from_raw_parts(f.lost, f.lost_len);
    for (mi, m) in schedule.iter().enumerate() {
        if !accepted[mi] {
            continue;
        }
        let sni = shared.node_index(m.from);
        let tile = shared.tile(sni);
        if tile < lo || tile >= hi {
            continue;
        }
        let pi = m.pkt.index();
        debug_assert_eq!(store.loc[pi], Loc::At(m.from));
        shared.dequeue(
            sni,
            store.queue_of[pi],
            m.pkt,
            "scheduled packet missing from its queue",
        );
        shared.mailbox_row(tile).push(Staged {
            mi: mi as u32,
            dst_tile: shared.tile(shared.node_index(m.to)),
            deliver: store.dst[pi] == m.to,
            akind: shared.arch.arrival_queue(m.travel),
        });
    }
    for m in lost {
        let sni = shared.node_index(m.from);
        let tile = shared.tile(sni);
        if tile < lo || tile >= hi {
            continue;
        }
        let pi = m.pkt.index();
        debug_assert_eq!(store.loc[pi], Loc::At(m.from));
        shared.dequeue(
            sni,
            store.queue_of[pi],
            m.pkt,
            "lost packet missing from its queue",
        );
    }
}

/// Audit + update phase for worker `w`: capacity validation, occupancy
/// maxima, congestion peaks, and §2 (e) state updates over the worker's
/// tiles — everything staged into the worker's own output.
unsafe fn worker_audit_update<T: Topology, R: Router>(shared: &Shared<T, R>, w: usize) {
    let topo = shared.topo();
    let router = shared.router();
    // Read-only this phase: peaks and state writes are staged, not
    // applied; node states (disjoint) are the only mutation.
    let store = shared.store();
    let grid = shared.grid();
    let (lo, hi) = shared.tile_range(w);
    let out = shared.out(w);
    out.peaks.clear();
    out.state_writes.clear();
    out.max_queue = 0;
    out.max_node_load = 0;
    for idx in 0..grid.active_len() {
        let ni = grid.active_at(idx);
        let tile = shared.tile(ni);
        if tile < lo || tile >= hi {
            continue;
        }
        let a = phases::audit_node(shared.t0, router, shared.validate, grid, ni);
        out.max_queue = out.max_queue.max(a.max_bounded);
        out.max_node_load = out.max_node_load.max(a.load);
        out.peaks.push((ni as u32, a.load as u16));
    }
    // §2 (e) is skippable wholesale for routers whose end_of_step is the
    // inherited no-op: every staged write would be an identity write.
    if !router.uses_end_of_step() {
        return;
    }
    let WorkerOut {
        masks,
        states,
        state_writes,
        ..
    } = out;
    for idx in 0..grid.active_len() {
        let ni = grid.active_at(idx);
        let tile = shared.tile(ni);
        if tile < lo || tile >= hi {
            continue;
        }
        phases::update_node(
            shared.t0,
            topo,
            router,
            store,
            grid,
            ni,
            shared.state_of(ni),
            masks,
            states,
            &mut |p, s| state_writes.push((p, s)),
        );
    }
}

// ---- coordinator phases ----

/// After route: merges the per-tile route mailboxes into `bufs.schedule`
/// in sequential (snapshot) order, enforces link faults, runs the
/// adversary hook, sorts the acceptance groups, and publishes the frame
/// for the accept and transmit-stage phases.
unsafe fn coord_after_route<T: Topology, R: Router, H: StepHook>(
    shared: &Shared<T, R>,
    hook: &mut H,
) {
    let bufs = shared.bufs_mut();
    let nt = shared.nt;
    {
        let cursors = std::slice::from_raw_parts_mut(shared.route_cursor, nt as usize);
        cursors.fill(0);
        for (idx, &ni) in bufs.snapshot.iter().enumerate() {
            let tile = shared.tile(ni as usize);
            let row = shared.route_row(tile);
            let cur = &mut cursors[tile as usize];
            while (*cur as usize) < row.len() && row[*cur as usize].0 == idx as u32 {
                bufs.schedule.push(row[*cur as usize].1);
                *cur += 1;
            }
        }
        for tile in 0..nt {
            let row = shared.route_row(tile);
            debug_assert_eq!(
                cursors[tile as usize] as usize,
                row.len(),
                "route mailbox not fully merged"
            );
            row.clear();
        }
    }
    // Link-fault enforcement (same code path as phases::enforce_faults).
    if let Some(f) = shared.faults() {
        let t0 = shared.t0;
        let lost_moves = &mut bufs.lost_moves;
        bufs.schedule.retain(|m| {
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
    // Adversary hook.
    {
        let store = shared.store_mut();
        let progress = shared.progress_mut();
        bufs.exchanged.clear();
        let mut hctx = HookCtx {
            t: shared.t0 + 1,
            n: shared.n,
            moves: &bufs.schedule,
            dst: &mut store.dst,
            loc: &store.loc,
            src: &store.src,
            exchanges: &mut progress.exchanges,
            dirty: &mut bufs.exchanged,
        };
        hook.on_scheduled(&mut hctx);
        phases::refresh_masks(shared.topo(), store, &bufs.exchanged);
    }
    phases::accept_prep(shared.n, bufs);
    let f = shared.frame_mut();
    f.schedule = bufs.schedule.as_ptr();
    f.schedule_len = bufs.schedule.len();
    f.lost = bufs.lost_moves.as_ptr();
    f.lost_len = bufs.lost_moves.len();
    f.order = bufs.order.as_ptr();
    f.groups = bufs.groups.as_ptr();
    f.groups_len = bufs.groups.len();
    f.accepted = bufs.accepted.as_mut_ptr();
}

/// Commit: applies the staged transmissions in ascending schedule index —
/// the exact order the sequential transmit phase uses — then resolves the
/// lost moves and rebuilds the active worklist from the snapshot.
unsafe fn coord_commit<T: Topology, R: Router>(shared: &Shared<T, R>) {
    let bufs = shared.bufs_mut();
    let grid = shared.grid_mut();
    let store = shared.store_mut();
    let progress = shared.progress_mut();
    let events = shared.events_mut();
    let cursors = std::slice::from_raw_parts_mut(shared.mb_cursor, shared.nt as usize);
    for (mi, m) in bufs.schedule.iter().enumerate() {
        if !bufs.accepted[mi] {
            continue;
        }
        let src_tile = shared.tile(shared.node_index(m.from));
        let cur = &mut cursors[src_tile as usize];
        let staged = &shared.mailbox_row(src_tile)[*cur as usize];
        *cur += 1;
        debug_assert_eq!(staged.mi, mi as u32, "transmit mailbox out of order");
        debug_assert_eq!(
            staged.dst_tile,
            shared.tile(shared.node_index(m.to)),
            "transmit mailbox pair mismatch"
        );
        let pi = m.pkt.index();
        progress.total_moves += 1;
        store.hops[pi] += 1;
        if staged.deliver {
            store.loc[pi] = Loc::Delivered;
            store.delivered_at[pi] = shared.t0 + 1;
            progress.delivered += 1;
            events.delivered.push(m.pkt);
        } else {
            grid.push(m.to, staged.akind, m.pkt);
            store.loc[pi] = Loc::At(m.to);
            store.queue_of[pi] = staged.akind;
            store.mask[pi] = shared.topo().profitable(m.to, store.dst[pi]).bits();
            grid.mark_active(shared.node_index(m.to));
        }
    }
    for tile in 0..shared.nt {
        let row = shared.mailbox_row(tile);
        debug_assert_eq!(
            cursors[tile as usize] as usize,
            row.len(),
            "transmit mailbox not fully committed"
        );
        row.clear();
        cursors[tile as usize] = 0;
    }
    // Lossy-link transmissions: the dequeue already happened in the stage
    // phase; account for the move and destroy the packet, in the same
    // order the sequential transmit phase uses.
    for m in bufs.lost_moves.iter() {
        let pi = m.pkt.index();
        progress.total_moves += 1;
        store.hops[pi] += 1;
        store.loc[pi] = Loc::Lost;
        progress.lost += 1;
        events.lost.push(m.pkt);
    }
    // Rebuild the active worklist from the route snapshot (pending probe
    // hoisted behind an emptiness check, as in the sequential transmit).
    let has_pending = !grid.pending.is_empty();
    for &ni in bufs.snapshot.iter() {
        if grid.node_load(ni as usize) > 0 || (has_pending && grid.pending.contains_key(&ni)) {
            grid.mark_active(ni as usize);
        }
    }
}

/// Finish: folds the workers' staged maxima, congestion peaks, and packet
/// state writes into the simulation. All three are order-independent
/// (max-reductions and writes to disjoint packets), so worker order does
/// not matter — it is fixed anyway.
unsafe fn coord_finish<T: Topology, R: Router>(shared: &Shared<T, R>) {
    let grid = shared.grid_mut();
    let store = shared.store_mut();
    let progress = shared.progress_mut();
    for w in 0..shared.workers {
        let out = shared.out(w);
        progress.max_queue = progress.max_queue.max(out.max_queue);
        progress.max_node_load = progress.max_node_load.max(out.max_node_load);
        for &(ni, load) in &out.peaks {
            grid.note_peak(ni as usize, load);
        }
        for &(p, s) in &out.state_writes {
            store.state[p.index()] = s;
        }
    }
}

// ---- step drivers ----

/// The single-worker tiled step: the full staging/merge machinery with no
/// threads — the commit protocol itself under test, and the shrink-friendly
/// path for the equivalence proptests.
unsafe fn run_single<T: Topology, R: Router, H: StepHook>(shared: &Shared<T, R>, hook: &mut H) {
    worker_route(shared, 0);
    coord_after_route(shared, hook);
    worker_accept(shared, 0);
    worker_stage(shared, 0);
    coord_commit(shared);
    worker_audit_update(shared, 0);
    coord_finish(shared);
}

/// The threaded tiled step: one scope per step, a barrier pair around each
/// worker phase, coordinator phases in between. Panics on any thread (a
/// validation assertion, a hook panic) poison the step — every thread
/// keeps servicing barriers so nobody deadlocks — and the first panic is
/// re-raised after the scope joins.
fn run_scoped<T: Topology, R: Router, H: StepHook>(shared: &Shared<T, R>, hook: &mut H) {
    let workers = shared.workers;
    let barrier = Barrier::new(workers + 1);
    std::thread::scope(|s| {
        for w in 0..workers {
            let barrier = &barrier;
            s.spawn(move || {
                for phase in 0..4u32 {
                    barrier.wait();
                    if !shared.poisoned() {
                        let r = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                            match phase {
                                0 => worker_route(shared, w),
                                1 => worker_accept(shared, w),
                                2 => worker_stage(shared, w),
                                _ => worker_audit_update(shared, w),
                            }
                        }));
                        if let Err(p) = r {
                            shared.record_panic(w, p);
                        }
                    }
                    barrier.wait();
                }
            });
        }
        let coord = |f: &mut dyn FnMut()| {
            if !shared.poisoned() {
                if let Err(p) = panic::catch_unwind(AssertUnwindSafe(&mut *f)) {
                    shared.record_panic(workers, p);
                }
            }
        };
        barrier.wait(); // route begins
        barrier.wait(); // route done
        coord(&mut || unsafe { coord_after_route(shared, hook) });
        barrier.wait(); // accept begins
        barrier.wait(); // accept done
        barrier.wait(); // transmit-stage begins
        barrier.wait(); // transmit-stage done
        coord(&mut || unsafe { coord_commit(shared) });
        barrier.wait(); // audit + update begin
        barrier.wait(); // audit + update done
        coord(&mut || unsafe { coord_finish(shared) });
    });
}

impl<'t, T: Topology, R: Router> Sim<'t, T, R> {
    /// Executes one step through the tile-sharded pipeline. Byte-identical
    /// to [`Sim::step_with_hook`]'s sequential dispatch for every tile
    /// geometry and worker count.
    pub(crate) fn step_tiled_with_hook<H: StepHook>(&mut self, hook: &mut H) -> bool {
        if self.done() {
            return true;
        }
        let t0 = self.progress.steps;
        let delivered_before = self.progress.delivered;
        let resolved_before = self.progress.delivered + self.progress.shed + self.progress.expired;
        let moves_before = self.progress.total_moves;
        self.events.delivered.clear();
        self.events.lost.clear();
        let mut injected_any = false;
        if t0 > 0 {
            injected_any = phases::inject(&mut self.step_ctx(t0));
        }
        // Route prep (sequential route does the same before its node loop).
        self.bufs.schedule.clear();
        self.bufs.lost_moves.clear();
        self.grid.drain_active_into(&mut self.bufs.snapshot);

        let mut rt = self.tile.take().expect("tiled step without tile runtime");
        let panicked = {
            let shared = Shared {
                t0,
                validate: self.config.validate,
                n: self.grid.n(),
                arch: self.grid.arch(),
                nt: rt.map.nt,
                workers: rt.workers,
                topo: self.topo,
                router: &self.router,
                faults: self.faults.as_ref().map(|f| f as *const CompiledFaults),
                store: &mut self.store,
                grid: &mut self.grid,
                grid_raw: self.grid.raw(),
                node_state: self.node_state.as_mut_ptr(),
                progress: &mut self.progress,
                events: &mut self.events,
                bufs: &mut self.bufs,
                tile_of: rt.map.tile_of.as_ptr(),
                route_stage: rt.route_stage.as_mut_ptr(),
                route_cursor: rt.route_cursor.as_mut_ptr(),
                mailbox: rt.mailbox.as_mut_ptr(),
                mb_cursor: rt.mb_cursor.as_mut_ptr(),
                outs: rt.outs.as_mut_ptr(),
                frame: UnsafeCell::new(Frame {
                    snapshot: self.bufs.snapshot.as_ptr(),
                    snapshot_len: self.bufs.snapshot.len(),
                    ..Frame::default()
                }),
                poison: AtomicBool::new(false),
                panics: Mutex::new((0..=rt.workers).map(|_| None).collect()),
            };
            if shared.workers == 1 {
                // SAFETY: single-threaded — the phase sequence below is
                // exactly the barrier schedule with no concurrency at all.
                let r = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                    run_single(&shared, hook);
                }));
                if let Err(p) = r {
                    shared.record_panic(0, p);
                }
            } else {
                run_scoped(&shared, hook);
            }
            shared.take_panic()
        };
        self.tile = Some(rt);
        if let Some(p) = panicked {
            panic::resume_unwind(p);
        }

        self.progress.steps += 1;
        let delivered = self.progress.delivered != delivered_before;
        let resolved =
            self.progress.delivered + self.progress.shed + self.progress.expired != resolved_before;
        let activity = self.progress.total_moves != moves_before || injected_any || delivered;
        self.timers
            .note(self.progress.steps, activity, delivered, resolved);
        #[cfg(debug_assertions)]
        self.assert_conservation();
        self.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;
    use crate::view::{FullArrivals, FullResidents};
    use mesh_topo::Mesh;
    use mesh_traffic::RoutingProblem;

    /// Minimal greedy router for differential smoke tests: oldest packet
    /// first onto its first free profitable outlink, accept while the
    /// central queue has strict headroom.
    struct Greedy {
        k: u32,
    }

    impl Router for Greedy {
        type NodeState = ();

        fn name(&self) -> String {
            format!("tiles-greedy(k={})", self.k)
        }

        fn queue_arch(&self) -> QueueArch {
            QueueArch::Central { k: self.k }
        }

        fn outqueue(
            &self,
            _step: u64,
            _node: Coord,
            _state: &mut (),
            pkts: &mut [PackedView],
            _cold: &FullResidents<'_>,
            out: &mut [Option<usize>; 4],
        ) {
            // A central queue is offered oldest first.
            for (i, p) in pkts.iter().enumerate() {
                if let Some(d) = p.profitable().iter().find(|d| out[d.index()].is_none()) {
                    out[d.index()] = Some(i);
                }
            }
        }

        fn inqueue(
            &self,
            _step: u64,
            _node: Coord,
            _state: &mut (),
            queue_lens: &[u32],
            _arrivals: &mut [PackedArrival],
            _cold: &FullArrivals<'_>,
            accept: &mut [bool],
        ) {
            let room = self.k.saturating_sub(queue_lens[0]) as usize;
            accept.iter_mut().take(room).for_each(|a| *a = true);
        }
    }

    fn smoke_problem(n: u32) -> RoutingProblem {
        RoutingProblem::from_pairs(
            n,
            "tiles-smoke",
            (0..n * n).filter(|i| i % 3 != 0).map(|i| {
                let (x, y) = (i % n, i / n);
                (
                    Coord::new(x, y),
                    Coord::new((x * 5 + y * 3 + 1) % n, (y * 7 + x * 2 + 3) % n),
                )
            }),
        )
    }

    fn assert_tiled_matches_sequential(tiles: Option<(u32, u32)>, threads: usize) {
        let n = 8;
        let topo = Mesh::new(n);
        let pb = smoke_problem(n);
        let mut seq = Sim::new(&topo, Greedy { k: 4 }, &pb);
        let config = SimConfig {
            tile_threads: threads,
            tiles,
            ..SimConfig::default()
        };
        let mut par = Sim::with_config(&topo, Greedy { k: 4 }, &pb, config);
        for step in 0..1000 {
            let a = seq.step();
            let b = par.step();
            assert_eq!(a, b, "done flags diverged at step {step}");
            assert_eq!(
                seq.packet_snapshot(),
                par.packet_snapshot(),
                "packet state diverged at step {step} ({tiles:?}, {threads} threads)"
            );
            assert_eq!(seq.last_step_deliveries(), par.last_step_deliveries());
            par.assert_queue_invariants();
            if a {
                break;
            }
        }
        assert!(seq.done(), "smoke scenario did not finish");
        assert_eq!(format!("{:?}", seq.report()), format!("{:?}", par.report()));
    }

    #[test]
    fn tiled_step_matches_sequential_across_geometries() {
        for (tiles, threads) in [
            (None, 2),
            (None, 4),
            (Some((1, 1)), 4), // single tile
            (Some((8, 8)), 4), // 1×1 tiles
            (Some((3, 2)), 3), // non-square, ragged
            (Some((2, 4)), 8), // more threads than useful
            (Some((4, 4)), 1), // tiled machinery, one worker
        ] {
            assert_tiled_matches_sequential(tiles, threads);
        }
    }

    #[test]
    fn tile_map_partitions_every_geometry() {
        for n in [1u32, 2, 3, 4, 7, 16] {
            for tx in 1..=n.min(6) {
                for ty in 1..=n.min(6) {
                    let map = TileMap::new(n, tx, ty);
                    assert_eq!(map.nt, tx * ty);
                    // Every node has a tile; every tile is nonempty.
                    let mut seen = vec![false; map.nt as usize];
                    for ni in 0..(n * n) as usize {
                        seen[map.tile(ni) as usize] = true;
                    }
                    assert!(seen.iter().all(|&s| s), "empty tile in {n} {tx}x{ty}");
                }
            }
        }
    }

    #[test]
    fn tile_map_tiles_are_rectangles() {
        let n = 16;
        let map = TileMap::new(n, 3, 5);
        // A tile's nodes form a rectangle: x-range and y-range are
        // contiguous and every (x, y) combination is present.
        for t in 0..map.nt {
            let nodes: Vec<Coord> = (0..(n * n))
                .filter(|&ni| map.tile(ni as usize) == t)
                .map(|ni| Coord::new(ni % n, ni / n))
                .collect();
            let (x0, x1) = nodes
                .iter()
                .fold((u32::MAX, 0), |(a, b), c| (a.min(c.x), b.max(c.x)));
            let (y0, y1) = nodes
                .iter()
                .fold((u32::MAX, 0), |(a, b), c| (a.min(c.y), b.max(c.y)));
            assert_eq!(
                nodes.len() as u32,
                (x1 - x0 + 1) * (y1 - y0 + 1),
                "tile {t} is not a rectangle"
            );
        }
    }

    #[test]
    fn tile_map_clamps_degenerate_requests() {
        let map = TileMap::new(4, 99, 99);
        assert_eq!(map.nt, 16); // 1×1 tiles
        for ni in 0..16 {
            assert_eq!(map.tile(ni), ni as u32);
        }
    }
}
