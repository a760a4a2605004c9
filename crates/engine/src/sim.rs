//! The synchronous multi-port simulation façade.
//!
//! [`Sim`] composes the engine's parts — the `PacketStore` packet
//! table and `NodeGrid` queue storage (`storage`), the named step
//! phases (`phases`, see [`STEP_PIPELINE`]), the unified run driver
//! (`driver`), and the no-progress watchdog (`watchdog`) — behind the
//! public API. [`Sim::step_with_hook`] dispatches the phase pipeline;
//! every `run*` entry point is a thin wrapper over the one `run_driver`,
//! and the `*_checkpointed` ones differ only in handing it a sink.

use crate::diag::{DiagnosticSnapshot, NodeOccupancy, StuckPacket};
use crate::driver::{self, HookRunner, ProtocolRunner};
use crate::hook::{NoHook, StepHook};
use crate::invariants;
use crate::metrics::SimReport;
use crate::phases::{self, Phase, PolicyCalls, Progress, StepBufs, StepCtx, STEP_PIPELINE};

use crate::faults::CompiledFaults;
pub use crate::phases::AdmissionPolicy;
use crate::protocol::ProtocolHook;
use crate::router::Router;
use crate::snapshot::EventsSnap;
use crate::storage::{NodeGrid, PacketStore, MAX_SIDE};
use crate::watchdog::Timers;
use mesh_topo::{Coord, Topology};
use mesh_traffic::{PacketId, RoutingProblem};

pub use crate::storage::Loc;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Inert, like `tiles`: every step checks its schedule (one packet per
    /// outlink, profitable moves for minimal routers) and every queue
    /// capacity, and a violation panics — it is a router bug, not a runtime
    /// condition. Kept until `benchmark/` stops naming it.
    #[doc(hidden)]
    pub validate: bool,
    /// No-progress watchdog window, in steps. When set, [`Sim::run_with_hook`]
    /// returns [`SimError::Deadlock`] after `w` consecutive steps with no
    /// accepted move, no delivery, and no injection, and
    /// [`SimError::Livelock`] after `w` consecutive steps with moves but no
    /// delivery. The watchdog stays disarmed while future injections remain
    /// or a *transient* fault might still lift (permanent faults do not
    /// disarm it). `None` (the default) disables it: runs are then
    /// bit-for-bit identical to the pre-watchdog engine.
    pub watchdog: Option<u64>,
    /// Inert, like `tiles`: every configuration runs the one step loop and is
    /// bit-identical by construction. Kept until `benchmark/` stops naming them.
    #[doc(hidden)]
    pub tile_threads: usize,
    #[doc(hidden)]
    pub tiles: Option<(u32, u32)>,
    /// Checkpoint cadence, in steps. When set, the checkpointing run
    /// drivers ([`Sim::run_checkpointed`], [`Sim::run_steady_checkpointed`],
    /// [`Sim::run_with_protocol_checkpointed`]) hand a full
    /// [`Snapshot`](crate::snapshot::Snapshot) to their
    /// [`CheckpointSink`](crate::snapshot::CheckpointSink) after every
    /// `c`-th step. Checkpointing is an *observer*: it never changes what
    /// the simulation computes, and a run resumed from any checkpoint is
    /// bit-identical to one that never stopped. `None` (the default)
    /// disables it; the plain `run`/`run_with_hook`/`run_with_protocol`
    /// entry points ignore it entirely.
    pub checkpoint_every: Option<u64>,
    /// Admission-control policy at the injection edge (open-system
    /// overload robustness; see [`AdmissionPolicy`]). The default,
    /// [`AdmissionPolicy::DeferIndefinitely`], is the closed-system
    /// behavior every pre-existing experiment assumes: nothing is ever
    /// shed or expired, and runs are bit-identical to the pre-admission
    /// engine.
    pub admission: AdmissionPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            validate: true,
            watchdog: None,
            tile_threads: 1,
            tiles: None,
            checkpoint_every: None,
            admission: AdmissionPolicy::DeferIndefinitely,
        }
    }
}

impl SimConfig {
    /// The config's own rule: a watchdog window and a checkpoint cadence,
    /// when set, are at least one step. [`Sim::try_build`] and
    /// [`Sim::restore`] refuse a config that breaks it. (Not named
    /// `validate`: an inert field has that name.)
    pub fn check(&self) -> Result<(), String> {
        match (self.watchdog, self.checkpoint_every) {
            (Some(0), _) => Err("watchdog must be at least 1 step (got 0)".into()),
            (_, Some(0)) => Err("checkpoint_every must be at least 1 step (got 0)".into()),
            _ => Ok(()),
        }
    }
}

/// The environment rules [`Sim::try_build`] and [`Sim::restore`] share: the
/// run's side `n` is the topology's and the fault plan's, and at most
/// `MAX_SIDE`; `k ≥ 1`; and `config` passes [`SimConfig::check`]. Returns
/// the fault plan with an empty one dropped, so that it is exactly no plan.
/// An oversized side (no run could have one) is wrapped by `oversized`,
/// every other refusal by `mismatch`.
pub(crate) fn check_env<T: Topology, E>(
    topo: &T,
    n: u32,
    k: u32,
    config: &SimConfig,
    faults: Option<CompiledFaults>,
    (mismatch, oversized): (impl Fn(String) -> E, impl Fn(String) -> E),
) -> Result<Option<CompiledFaults>, E> {
    let (side, plan_side) = (topo.side(), faults.as_ref().map_or(n, CompiledFaults::n));
    if (side, plan_side) != (n, n) {
        return Err(mismatch(format!(
            "sides differ: run {n}, topology {side}, fault plan {plan_side}"
        )));
    }
    if n > MAX_SIDE {
        return Err(oversized(format!(
            "side {n} exceeds the engine's {MAX_SIDE}"
        )));
    }
    if k == 0 {
        return Err(mismatch("queue capacity k must be at least 1".into()));
    }
    config.check().map_err(mismatch)?;
    Ok(faults.filter(|f| !f.is_empty()))
}

/// Why a run failed, with the network state at failure time.
///
/// Every variant carries a [`DiagnosticSnapshot`]: stuck packet ids,
/// locations, destinations, per-node queue occupancy, and active faults.
/// The snapshot is boxed so a `Result<_, SimError>` on the step loop's
/// return path stays pointer-sized instead of carrying the multi-hundred-
/// byte diagnostic payload inline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The step cap was reached with packets undelivered.
    StepCap(Box<DiagnosticSnapshot>),
    /// Watchdog: a full window with no accepted move, no delivery, and no
    /// injection — nothing can ever change again (under a static fault set).
    Deadlock(Box<DiagnosticSnapshot>),
    /// Watchdog: a full window in which packets moved but none was
    /// delivered.
    Livelock(Box<DiagnosticSnapshot>),
}

impl SimError {
    /// The network state at failure time.
    pub fn snapshot(&self) -> &DiagnosticSnapshot {
        match self {
            SimError::StepCap(s) | SimError::Deadlock(s) | SimError::Livelock(s) => s,
        }
    }

    /// Stable lowercase tag (`"step-cap"`, `"deadlock"`, `"livelock"`) for
    /// result tables.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::StepCap(_) => "step-cap",
            SimError::Deadlock(_) => "deadlock",
            SimError::Livelock(_) => "livelock",
        }
    }
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::StepCap(s) => write!(f, "step limit reached: {s}"),
            SimError::Deadlock(s) => write!(f, "deadlock (no moves or deliveries): {s}"),
            SimError::Livelock(s) => write!(f, "livelock (moves but no deliveries): {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A synchronous simulation of one routing problem under one algorithm.
///
/// See the crate documentation for the step semantics. The engine is
/// deterministic: identical problems and routers produce identical runs.
pub struct Sim<'t, T: Topology, R: Router> {
    pub(crate) topo: &'t T,
    pub(crate) router: R,
    pub(crate) workload: String,
    pub(crate) config: SimConfig,
    // Compiled fault state; `None` (no plan, or an empty plan) is the fast
    // path with zero per-move overhead.
    pub(crate) faults: Option<CompiledFaults>,
    pub(crate) store: PacketStore,
    pub(crate) grid: NodeGrid,
    pub(crate) node_state: Vec<R::NodeState>,
    pub(crate) progress: Progress,
    pub(crate) timers: Timers,
    pub(crate) events: EventsSnap,
    pub(crate) bufs: StepBufs,
}

impl<'t, T: Topology, R: Router> Sim<'t, T, R> {
    /// Sets up a simulation of `problem` under `router` on `topo`; panics
    /// on input [`Sim::try_build`] refuses.
    ///
    /// Static packets are placed in their origin queues immediately. If a
    /// node's origin queue cannot hold all its static packets (an h-h problem
    /// with `h > k`), the excess waits outside the network and is injected as
    /// space appears, per the dynamic-setting remark in §5 of the paper.
    pub fn new(topo: &'t T, router: R, problem: &RoutingProblem) -> Self {
        Self::with_config(topo, router, problem, SimConfig::default())
    }

    /// [`Sim::new`] with explicit configuration.
    pub fn with_config(
        topo: &'t T,
        router: R,
        problem: &RoutingProblem,
        config: SimConfig,
    ) -> Self {
        Self::try_build(topo, router, problem, config, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Sim::with_config`] plus a compiled fault plan. Faults apply from
    /// step 0 (a node stalled at step 0 does not even inject). An empty plan
    /// is dropped entirely, so it is *exactly* equivalent to no plan.
    pub fn with_faults(
        topo: &'t T,
        router: R,
        problem: &RoutingProblem,
        config: SimConfig,
        faults: CompiledFaults,
    ) -> Self {
        Self::try_build(topo, router, problem, config, Some(faults))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one constructor: refuses a problem that fails
    /// [`RoutingProblem::validate`], and an environment that breaks a rule
    /// it shares with [`Sim::restore`] (one side for topology, problem and
    /// fault plan, within the engine's limit; `k ≥ 1`; [`SimConfig::check`]).
    pub fn try_build(
        topo: &'t T,
        router: R,
        problem: &RoutingProblem,
        config: SimConfig,
        faults: Option<CompiledFaults>,
    ) -> Result<Self, String> {
        problem.validate()?;
        let (n, arch) = (problem.n, router.queue_arch());
        let faults = check_env(topo, n, arch.k(), &config, faults, (|m| m, |m| m))?;
        let nodes = (n * n) as usize;

        let mut sim = Sim {
            topo,
            router,
            workload: problem.label.clone(),
            config,
            faults,
            store: PacketStore::new(problem),
            grid: NodeGrid::new(n, arch),
            node_state: vec![R::NodeState::default(); nodes],
            progress: Progress::default(),
            timers: Timers::default(),
            events: EventsSnap::default(),
            bufs: StepBufs::default(),
        };
        phases::inject(&mut sim.step_ctx(0));
        Ok(sim)
    }

    /// Assembles the split-borrow phase context for step `t0`.
    pub(crate) fn step_ctx(&mut self, t0: u64) -> StepCtx<'_, 't, T, R> {
        StepCtx {
            t0,
            topo: self.topo,
            router: &self.router,
            admission: self.config.admission,
            faults: self.faults.as_ref(),
            store: &mut self.store,
            grid: &mut self.grid,
            node_state: &mut self.node_state,
            progress: &mut self.progress,
            events: &mut self.events,
            bufs: &mut self.bufs,
        }
    }

    /// Executes one step under the given hook by dispatching
    /// [`STEP_PIPELINE`] in order. Returns `true` when every packet has
    /// been delivered (in which case nothing was simulated).
    pub fn step_with_hook<H: StepHook>(&mut self, hook: &mut H) -> bool {
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
        let mut ctx = self.step_ctx(t0);
        for phase in STEP_PIPELINE {
            match phase {
                // Construction already injected everything due at step 0.
                Phase::Inject if t0 > 0 => injected_any = phases::inject(&mut ctx),
                Phase::Inject => {}
                Phase::Route => phases::route(&mut ctx),
                Phase::EnforceFaults => phases::enforce_faults(&mut ctx),
                Phase::Adversary => phases::adversary(&mut ctx, hook),
                Phase::Accept => phases::accept(&mut ctx),
                Phase::Transmit => phases::transmit(&mut ctx),
                Phase::Audit => phases::audit(&mut ctx),
                Phase::UpdateState => phases::update_state(&mut ctx),
            }
        }
        self.progress.steps += 1;
        // Watchdog bookkeeping (1-based step stamps; 0 = never). A step
        // *resolves* work when it delivers, sheds, or expires a packet —
        // the overload watchdog's notion of staying live.
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

    /// Executes one step with no adversary.
    pub fn step(&mut self) -> bool {
        self.step_with_hook(&mut NoHook)
    }

    /// Runs (with a hook) until all packets are delivered, `max_steps` total
    /// steps have executed, or — when [`SimConfig::watchdog`] is set — a full
    /// no-progress window elapses.
    pub fn run_with_hook<H: StepHook>(
        &mut self,
        max_steps: u64,
        hook: &mut H,
    ) -> Result<u64, SimError> {
        driver::run_driver(self, max_steps, &mut HookRunner { hook }, |_, _| {})
    }

    /// Runs without an adversary until done or `max_steps`.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, SimError> {
        self.run_with_hook(max_steps, &mut NoHook)
    }

    /// Runs the simulation under a [`ProtocolHook`] (e.g. the
    /// `mesh-reliable` transport): after every step the hook observes that
    /// step's deliveries and losses, may [`spawn`](Sim::spawn)
    /// ACKs/retransmissions, and decides whether the protocol is finished.
    ///
    /// The watchdog (when configured) is protocol-aware — the plain
    /// "injections remain" disarm of [`Sim::run_with_hook`] would be wrong
    /// in both directions here. While the protocol reports outstanding
    /// payloads, periodic retransmissions keep generating *activity*
    /// forever, so the deadlock rule would never fire and a real wedge
    /// would be masked: instead, a full window without any *delivery*
    /// (measured from the last fault transition) is reported as
    /// [`SimError::Livelock`]. Once nothing is outstanding and every
    /// injection (including deferred ones) is in, the ordinary no-activity
    /// deadlock rule applies.
    pub fn run_with_protocol<P: ProtocolHook>(
        &mut self,
        max_steps: u64,
        proto: &mut P,
    ) -> Result<u64, SimError> {
        driver::run_driver(self, max_steps, &mut ProtocolRunner { proto }, |_, _| {})
    }

    // ---- checkpointing run drivers (crash-safe runs) ----

    /// [`Sim::run`] with crash-safe checkpointing: every
    /// [`SimConfig::checkpoint_every`] steps a full
    /// [`Snapshot`](crate::snapshot::Snapshot) goes to `sink`, and if the
    /// run fails (step cap or watchdog) the sink receives the failure
    /// diagnostics too — the hook a [`DirectorySink`](crate::snapshot::DirectorySink)
    /// uses to persist `diag_<step>.json` next to the active checkpoint.
    /// With `checkpoint_every` unset this is exactly [`Sim::run`].
    pub fn run_checkpointed<S: crate::snapshot::CheckpointSink>(
        &mut self,
        max_steps: u64,
        sink: &mut S,
    ) -> Result<u64, SimError>
    where
        R::NodeState: serde::Serialize,
    {
        let mut obs = HookRunner { hook: &mut NoHook };
        driver::run_checkpointed(self, max_steps, &mut obs, sink, |_| (None, None))
    }

    /// [`Sim::run_with_protocol`] with crash-safe checkpointing. The
    /// protocol must implement [`SnapshotHook`](crate::snapshot::SnapshotHook)
    /// so its state (ARQ sequence numbers, seen-sets, backoff RNG, …)
    /// rides along in each checkpoint's `protocol` slot; on restore the
    /// caller rebuilds the protocol and feeds that slot back through
    /// [`SnapshotHook::restore_state`](crate::snapshot::SnapshotHook::restore_state).
    pub fn run_with_protocol_checkpointed<P, S>(
        &mut self,
        max_steps: u64,
        proto: &mut P,
        sink: &mut S,
    ) -> Result<u64, SimError>
    where
        P: ProtocolHook + crate::snapshot::SnapshotHook,
        S: crate::snapshot::CheckpointSink,
        R::NodeState: serde::Serialize,
    {
        let mut obs = ProtocolRunner { proto };
        driver::run_checkpointed(self, max_steps, &mut obs, sink, |o| {
            (None, Some(o.proto.snapshot_state()))
        })
    }

    // ---- runtime packet spawning (protocol layers) ----

    /// Appends a fresh packet to the running simulation, to be injected at
    /// the beginning of step `inject_at` (which must not lie in the past).
    /// Returns its id — always `num_packets()` at call time, so callers can
    /// maintain dense side tables. The injection goes through the same
    /// admission control as everything else: if the origin queue is full,
    /// the packet waits outside the network.
    ///
    /// This is how a transport layer retransmits (and ACKs): a
    /// retransmission is a *new* packet for the same payload, not a revival
    /// of the lost one.
    pub fn spawn(&mut self, src: Coord, dst: Coord, inject_at: u64) -> PacketId {
        assert!(
            inject_at >= self.progress.steps,
            "spawn at step {inject_at} but the simulation is already at {}",
            self.progress.steps
        );
        let n = self.grid.n();
        assert!(
            src.on_grid(n) && dst.on_grid(n),
            "spawn endpoints must lie on the {n}x{n} grid"
        );
        self.store.push(src, dst, inject_at)
    }

    /// Packets delivered during the most recent step, in deterministic
    /// order. Valid until the next step executes.
    pub fn last_step_deliveries(&self) -> &[PacketId] {
        &self.events.delivered
    }

    /// Packets destroyed by lossy links during the most recent step.
    pub fn last_step_losses(&self) -> &[PacketId] {
        &self.events.lost
    }

    /// Router policy calls made and skipped since this `Sim` was built or
    /// restored — diagnostics that no report or snapshot records.
    pub fn policy_calls(&self) -> PolicyCalls {
        self.bufs.calls
    }

    /// True when no future or deferred injection remains: the cursor is
    /// exhausted *and* admission control holds nothing back. While this is
    /// false, outside input can still change the network, so a watchdog
    /// must not declare a wedge on quietness alone.
    pub fn injections_exhausted(&self) -> bool {
        self.store.cursor_exhausted() && self.grid.staged.is_empty()
    }

    /// The last step at which a *transient* fault transitions — the
    /// watchdog's settle horizon.
    pub(crate) fn fault_settle(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.last_transition())
    }

    // ---- accessors ----

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.progress.steps
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> usize {
        self.progress.delivered
    }

    /// Packets destroyed by lossy links so far.
    pub fn lost(&self) -> usize {
        self.progress.lost
    }

    /// Packets currently staged at injection edges — due but not yet
    /// admitted into the network. Unlike the cumulative packet-step
    /// counter [`SimReport::deferred_injections`], this is the
    /// instantaneous backlog, queryable mid-run.
    pub fn pending_injections(&self) -> usize {
        self.grid.staged.len()
    }

    /// Packets rejected at the injection edge by admission control so far
    /// (`RejectNew` refusals and `DropOldestDeferred` evictions).
    pub fn shed(&self) -> usize {
        self.progress.shed
    }

    /// Packets whose deadline passed so far, at the edge or queued
    /// in-network (`DeadlineExpiry`).
    pub fn expired(&self) -> usize {
        self.progress.expired
    }

    /// Packets whose injection time has been reached so far — everything
    /// the open system has *offered* to the network (admitted or not).
    pub fn offered(&self) -> usize {
        self.store.offered()
    }

    /// Step at which a packet is (or was) due for injection.
    pub fn inject_step(&self, p: PacketId) -> u64 {
        self.store.inject_at(p)
    }

    /// Total packets.
    pub fn num_packets(&self) -> usize {
        self.store.len()
    }

    /// True when every packet has been delivered.
    pub fn done(&self) -> bool {
        self.progress.delivered == self.store.len()
    }

    /// Current location of a packet.
    pub fn loc(&self, p: PacketId) -> Loc {
        self.store.loc(p)
    }

    /// Current destination of a packet (reflects adversary exchanges).
    pub fn dst(&self, p: PacketId) -> Coord {
        self.store.dst(p)
    }

    /// Source of a packet.
    pub fn src(&self, p: PacketId) -> Coord {
        self.store.src(p)
    }

    /// Step at which a packet was delivered (1-based), if delivered.
    pub fn delivered_step(&self, p: PacketId) -> Option<u64> {
        self.store.delivered_step(p)
    }

    /// Link traversals performed by each packet so far, indexed by
    /// `PacketId`. Sums to `total_moves`; for a delivered packet of a minimal
    /// router it equals the source→destination L1 distance.
    pub fn packet_hops(&self) -> &[u32] {
        self.store.hops()
    }

    /// The packets currently in a node, over all queues, in queue order —
    /// answered from the `NodeGrid`'s own slab region (no packet-table
    /// scan, no allocation).
    pub fn packets_at(&self, c: Coord) -> impl Iterator<Item = PacketId> + '_ {
        self.grid.packets_at(c)
    }

    /// The routing problem defined by the packets' *current* destinations —
    /// after an adversary run, this is the paper's **constructed
    /// permutation** (step 4 of the §3 construction).
    pub fn current_problem(&self, label: impl Into<String>) -> RoutingProblem {
        RoutingProblem::from_pairs(
            self.grid.n(),
            label,
            self.store
                .ids()
                .map(|p| (self.store.src(p), self.store.dst(p))),
        )
    }

    /// A deterministic digest of packet configuration (location, destination,
    /// state per packet) for replay-equivalence tests (Lemma 12).
    pub fn packet_snapshot(&self) -> Vec<(Loc, Coord, u64)> {
        self.store
            .ids()
            .map(|p| (self.store.loc(p), self.store.dst(p), self.store.state(p)))
            .collect()
    }

    /// Summary of the run so far.
    pub fn report(&self) -> SimReport {
        let (count, sum, max) = self
            .latencies()
            .fold((0u64, 0u64, 0u64), |(c, s, m), l| (c + 1, s + l, m.max(l)));
        SimReport {
            algorithm: self.router.name(),
            workload: self.workload.clone(),
            n: self.grid.n(),
            arch: self.grid.arch(),
            total_packets: self.store.len(),
            delivered: self.progress.delivered,
            lost: self.progress.lost,
            shed: self.progress.shed,
            expired: self.progress.expired,
            deferred_injections: self.progress.deferred_injections,
            steps: self.progress.steps,
            completed: self.done(),
            max_queue: self.progress.max_queue,
            max_node_load: self.progress.max_node_load,
            total_moves: self.progress.total_moves,
            exchanges: self.progress.exchanges,
            avg_latency: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            max_latency: max,
        }
    }

    /// Per-packet latencies (delivery step minus injection step) over
    /// delivered packets.
    fn latencies(&self) -> impl Iterator<Item = u64> + '_ {
        self.delivery_steps()
            .map(|(p, d)| d.saturating_sub(self.store.inject_at(p)))
    }

    /// Delivered packets with their delivery steps, in id order.
    fn delivery_steps(&self) -> impl Iterator<Item = (PacketId, u64)> + '_ {
        self.store
            .ids()
            .filter_map(|p| Some((p, self.store.delivered_step(p)?)))
    }

    /// Latency distribution over delivered packets (delivery step minus
    /// injection step).
    pub fn latency_distribution(&self) -> crate::stats::Distribution {
        crate::stats::Distribution::of_in_place(&mut self.latencies().collect::<Vec<_>>())
    }

    /// Per-node peak occupancy over the whole run (congestion map).
    pub fn congestion_map(&self) -> crate::stats::NodeField {
        crate::stats::NodeField {
            n: self.grid.n(),
            values: self.grid.peak_load.clone(),
        }
    }

    /// The state of the network right now, in the form failure reports
    /// carry: stuck packets, per-node occupancy, active faults.
    pub fn diagnostics(&self) -> DiagnosticSnapshot {
        let mut stuck = Vec::new();
        for id in self.store.ids() {
            if let Loc::At(at) = self.store.loc(id) {
                stuck.push(StuckPacket {
                    id,
                    at,
                    dst: self.store.dst(id),
                    hops: self.store.hops()[id.index()],
                });
            }
        }
        let mut occupancy = Vec::new();
        for ni in 0..self.grid.nodes() {
            let load = self.grid.node_load(ni);
            if load > 0 {
                occupancy.push(NodeOccupancy {
                    node: self.grid.coord_of(ni),
                    load,
                });
            }
        }
        DiagnosticSnapshot {
            step: self.progress.steps,
            delivered: self.progress.delivered,
            total: self.store.len(),
            // Not yet due plus staged: every `Loc::Pending` packet.
            pending: self.store.len() - self.store.offered() + self.pending_injections(),
            lost: self.progress.lost,
            shed: self.progress.shed,
            expired: self.progress.expired,
            deferred: self.pending_injections(),
            offered: self.store.offered(),
            stuck,
            occupancy,
            active_faults: self
                .faults
                .as_ref()
                .map(|f| f.active_at(self.progress.steps))
                .unwrap_or_default(),
        }
    }

    /// Panics unless the queue invariants hold *right now* (capacity,
    /// back-references, staging, active worklist): the rules are
    /// `invariants::check_queues`, shared with [`Sim::restore`].
    ///
    /// The audit phase enforces the capacity bound every step; this accessor
    /// lets tests check the full set *between* steps.
    pub fn assert_queue_invariants(&self) {
        if let Err(e) = invariants::check_queues(&self.store, &self.grid, &self.progress) {
            panic!(
                "queue invariant broken at step {}: {e}",
                self.progress.steps
            );
        }
    }

    /// Panics unless packet conservation holds *right now* — the counters
    /// agree with the location table and `offered == delivered + lost +
    /// shed + expired + in_network + staged`: the rules are
    /// `invariants::check_conservation`, shared with [`Sim::restore`].
    /// Debug builds check this after every step.
    pub fn assert_conservation(&self) {
        if let Err(e) = invariants::check_conservation(&self.store, &self.grid, &self.progress) {
            panic!("conservation broken at step {}: {e}", self.progress.steps);
        }
    }
}

// Keep the compiler honest about the phase list: one entry per `Phase`
// variant, each exactly once (a match would not catch duplicates).
const _: () = {
    let mut seen = [false; 8];
    let mut i = 0;
    while i < STEP_PIPELINE.len() {
        let idx = STEP_PIPELINE[i] as usize;
        assert!(!seen[idx], "phase listed twice");
        seen[idx] = true;
        i += 1;
    }
};
