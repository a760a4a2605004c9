//! Crash-safe checkpoint/restore: the versioned [`Snapshot`] of a full
//! engine run, [`Sim::snapshot`]/[`Sim::restore`], and the
//! [`CheckpointSink`] observer the checkpointing run drivers feed.
//!
//! A snapshot captures *everything* the step pipeline reads or writes —
//! the `PacketStore` SoA arrays, the `NodeGrid` queue slots (with the
//! active worklist **in order**, because the route phase walks it
//! verbatim), admission-control staging, the monotone progress counters,
//! watchdog timers, per-node router state, last-step event buffers, and
//! an opaque protocol-state slot for [`SnapshotHook`] layers (the ARQ
//! transport). Restoring a snapshot and continuing produces a run
//! bit-identical to one that never stopped — fault-free or faulty, raw
//! or under a protocol.
//!
//! What a snapshot deliberately does *not* carry, because it is
//! reconstructible or caller-supplied:
//!
//! - the topology, router, and [`SimConfig`] (the caller re-supplies
//!   them; the snapshot records `n`, the queue architecture, and the
//!   algorithm name, and restore rejects mismatches);
//! - the [`CompiledFaults`] plan — a pure function of the step with no
//!   run-time state; a fingerprint (emptiness, loss-presence, last
//!   transition) is recorded so a mismatched plan is rejected;
//! - the step scratch buffers, which every step refills before reading.
//!
//! The format is self-describing JSON with a leading
//! `format_version` field. [`Snapshot::read_from`] streams a file through
//! a fixed buffer and [`Snapshot::from_json`] reads a text, both in one
//! pass that checks the version as it reaches that key; every load error
//! is a typed [`SnapshotError`] — truncated files, occupancy mismatches,
//! permuted injection orders, and unknown versions all surface as rich
//! errors, never panics.

use crate::diag::DiagnosticSnapshot;
use crate::faults::CompiledFaults;
use crate::invariants;
use crate::phases::{AdmissionPolicy, Progress, StepBufs};
use crate::queue::{QueueArch, QueueKind};
use crate::router::Router;
use crate::sim::{check_env, Sim, SimConfig};
use crate::steady::{self, SteadyConfig};
use crate::storage::{Loc, NodeGrid, PacketStore, Staged, STEP_LIMIT};
use crate::watchdog::Timers;
use mesh_topo::{Coord, Topology};
use mesh_traffic::PacketId;
use serde::{Category, Deserialize, Kind, Serialize, Source, Value};
use serde_json::{Input, RawValue, Reader};
use std::borrow::Cow;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The snapshot format version this build writes, and the only one it
/// reads: a checkpoint is a crash-recovery artefact of the build that
/// wrote it, not an archive format. Bump on any change to the serialized
/// field set or meaning; any other header is then an
/// [`SnapshotError::UnknownVersion`] instead of misinterpreted state.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// Why a snapshot failed to load or validate. Restoring never panics:
/// every malformed input maps to one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(String),
    /// The file is not syntactically valid JSON (truncation included).
    Parse(String),
    /// The file declares a format version this build does not speak.
    UnknownVersion { found: u64, supported: u32 },
    /// The snapshot disagrees with the caller-supplied environment
    /// (topology side, queue architecture, algorithm, fault plan), or the
    /// caller's config fails [`SimConfig::check`].
    Mismatch(String),
    /// Not a state the engine could have produced: a field is missing or
    /// mistyped, an index or coordinate is out of range, or the rebuilt
    /// state breaks an engine invariant (`invariants.rs`), named in the
    /// message.
    Corrupt(String),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Io(m) => write!(f, "snapshot io error: {m}"),
            SnapshotError::Parse(m) => write!(f, "snapshot parse error: {m}"),
            SnapshotError::UnknownVersion { found, supported } => write!(
                f,
                "snapshot format version {found} not supported (this build reads {supported})"
            ),
            SnapshotError::Mismatch(m) => write!(f, "snapshot environment mismatch: {m}"),
            SnapshotError::Corrupt(m) => write!(f, "snapshot corrupt: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Cheap identity of a fault plan, for mismatch detection at restore.
/// [`CompiledFaults`] itself carries no run-time state — it is a pure
/// function of the step — so the plan is re-supplied by the caller and
/// only fingerprint-checked here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultFingerprint {
    /// The plan had no faults at all (the engine's fast path).
    pub empty: bool,
    /// The plan contains lossy links.
    pub has_losses: bool,
    /// Last step at which any finite fault interval lifts.
    pub last_transition: u64,
}

impl FaultFingerprint {
    fn of(faults: Option<&CompiledFaults>) -> FaultFingerprint {
        match faults {
            None => FaultFingerprint {
                empty: true,
                has_losses: false,
                last_transition: 0,
            },
            Some(f) => FaultFingerprint {
                empty: f.is_empty(),
                has_losses: f.has_losses(),
                last_transition: f.last_transition(),
            },
        }
    }
}

/// The steady-state environment of an open-system (`run_steady`) run:
/// everything a flag-free resume needs beyond the packet/grid state. The
/// admission policy is fingerprinted separately ([`Snapshot::admission`]);
/// this block carries the measurement schedule and the offered-load label.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SteadySnap {
    /// Offered load (packets per node per step) the open workload was
    /// built with. A label for reports — the arrivals themselves are
    /// already materialized in the packet table.
    pub lambda: f64,
    /// The measurement schedule the run follows.
    pub config: SteadyConfig,
}

/// The packet table, one column per field. The live `PacketStore` packs
/// the endpoints and the (`loc`, `queue_of`, `delivered_at`) triple into
/// words; its `export`/`import` translate, so these bytes do not depend
/// on the packing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PacketsSnap {
    pub src: Vec<Coord>,
    pub dst: Vec<Coord>,
    pub state: Vec<u64>,
    pub inject_at: Vec<u64>,
    pub loc: Vec<Loc>,
    pub queue_of: Vec<QueueKind>,
    pub delivered_at: Vec<u64>,
    pub hops: Vec<u32>,
    pub inject_order: Vec<PacketId>,
    pub inject_cursor: usize,
}

/// The queue storage: the arena's dense queue contents plus the staging
/// and bookkeeping state the pipeline resumes from.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridSnap {
    /// Every queue's contents concatenated in (node, slot, position)
    /// order — the dense arena form; `lens` gives the cut points.
    pub slab: Vec<PacketId>,
    /// Per-(node, slot) queue lengths, node-major slot-minor.
    pub lens: Vec<u32>,
    /// Admission-deferred injections, one bucket per node that has any,
    /// oldest first. Written in node order; read in any order, but a node
    /// may not have two buckets, nor an empty one.
    pub pending: Vec<(u32, Vec<PacketId>)>,
    /// The active-node worklist **in order** (route-schedule order next
    /// step — reordering it would break bit-identical resumption).
    pub active: Vec<u32>,
    /// Per-node all-time peak occupancy (congestion map).
    pub peak_load: Vec<u32>,
}

/// The most recent step's delivery/loss events, in deterministic
/// (schedule) order: the engine's own per-step event log — the phases
/// append to it, `Sim::run_with_protocol` consumes it, every step clears
/// it — and, verbatim, its snapshot form (the
/// [`Sim::last_step_deliveries`] view survives a restore).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EventsSnap {
    pub delivered: Vec<PacketId>,
    pub lost: Vec<PacketId>,
}

/// The complete serialized state of a run, between two steps.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    /// Always first in the rendered JSON, so version checks never depend
    /// on the rest of the layout.
    pub format_version: u32,
    /// Steps executed when the snapshot was taken (duplicate of
    /// `progress.steps`, hoisted for file naming and quick inspection).
    pub step: u64,
    pub n: u32,
    pub arch: QueueArch,
    pub algorithm: String,
    pub workload: String,
    pub faults: FaultFingerprint,
    /// Admission policy the run executes under. Unlike the checkpoint
    /// cadence this *does* affect simulated state, so restore
    /// rejects a config whose policy disagrees.
    pub admission: AdmissionPolicy,
    /// Steady-state environment, present iff the checkpoint was taken by
    /// a steady driver. Carrying it here is what lets `--resume-from`
    /// alone resume a steady run without re-passing the schedule flags.
    pub steady: Option<SteadySnap>,
    pub(crate) progress: Progress,
    pub(crate) timers: Timers,
    pub packets: PacketsSnap,
    pub grid: GridSnap,
    pub events: EventsSnap,
    /// Per-node router state: one array, node-major, rendered through the
    /// router's own `NodeState: Serialize` impl and read back by its
    /// `Deserialize` impl in [`Sim::restore`].
    pub node_state: RawValue,
    /// Opaque protocol-layer state ([`SnapshotHook::snapshot_state`]),
    /// present when the checkpoint was taken under a protocol run.
    pub protocol: Option<RawValue>,
}

impl Snapshot {
    /// Renders the snapshot as pretty JSON (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("snapshot serialization");
        s.push('\n');
        s
    }

    /// Parses a snapshot in one pass over the text: the typed read, then on
    /// to the end of the text, building no `Value` tree. The read checks
    /// `format_version` when it reaches that key and stops there on a
    /// version this build does not read; after any failure the lexer still
    /// reads the rest. What is wrong is reported in this order: any syntax
    /// error, truncation included ([`SnapshotError::Parse`]); a missing or
    /// non-integer version (`Parse` too) or another build's
    /// ([`SnapshotError::UnknownVersion`]); then the typed read's error
    /// ([`SnapshotError::Corrupt`]). So a truncated or future-format file
    /// never reads as corrupt.
    pub fn from_json(text: &str) -> Result<Snapshot, SnapshotError> {
        read_snapshot(Reader::from_text(text))
    }

    /// Writes the snapshot to `path` atomically and durably: the bytes of
    /// [`to_json`](Self::to_json) stream through a fixed buffer into a temp
    /// file beside it, which is synced to disk and then renamed over
    /// `path`, and the rename is synced through the directory. A crash of
    /// the process or of the OS therefore leaves at `path` either the
    /// complete new checkpoint or whatever was there before, never a
    /// truncated or empty one; once this returns `Ok`, the new checkpoint
    /// survives an OS crash too.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        write_json_file(path, self)
    }

    /// Reads and parses a snapshot file in the one pass of
    /// [`from_json`](Self::from_json), streamed through the JSON reader's
    /// fixed buffer (`serde_json::READ_BUF`): memory holds the snapshot and
    /// that buffer, never the file's text. A file that cannot be read, or
    /// that holds bytes that are not UTF-8 anywhere, is
    /// [`SnapshotError::Io`], ahead of every other error.
    pub fn read_from(path: &Path) -> Result<Snapshot, SnapshotError> {
        let io =
            |e: &dyn std::fmt::Display| SnapshotError::Io(format!("read {}: {e}", path.display()));
        let file = std::fs::File::open(path).map_err(|e| io(&e))?;
        read_snapshot(Reader::from_reader(file)).map_err(|e| match e {
            SnapshotError::Io(e) => io(&e),
            e => e,
        })
    }
}

/// Writes `value` to `path` as pretty JSON with a trailing newline, with
/// the guarantee [`Snapshot::write_to`] states: temp file, sync, rename,
/// directory sync. Checkpoints and diagnostic files are both written here,
/// so neither can be left truncated, and memory stays at the writer's
/// buffer whatever the file's size.
fn write_json_file<T: Serialize + ?Sized>(path: &Path, value: &T) -> Result<(), SnapshotError> {
    let tmp = path.with_extension("json.tmp");
    let io = |e: std::io::Error| SnapshotError::Io(format!("write {}: {e}", tmp.display()));
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    serde_json::to_writer_pretty(&mut file, value).map_err(|e| io(std::io::Error::other(e)))?;
    file.write_all(b"\n").map_err(io)?;
    file.sync_all().map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| SnapshotError::Io(format!("rename to {}: {e}", path.display())))?;
    // A directory is synced through a handle opened on it, which Unix
    // allows and Windows does not.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let dir = dir.unwrap_or(Path::new("."));
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| SnapshotError::Io(format!("sync {}: {e}", dir.display())))?;
    }
    Ok(())
}

/// The one pass of [`Snapshot::from_json`] and [`Snapshot::read_from`]:
/// the typed read through [`Versioned`], then, if it failed before the
/// root object's `format_version`, on through the root to that key, then
/// to the end of the input. The first I/O error comes first (the reader
/// reads every byte, so one that is not UTF-8 is found wherever it is),
/// then the first syntax error, then the version, then the typed read.
fn read_snapshot<I: Input>(mut reader: Reader<I>) -> Result<Snapshot, SnapshotError> {
    let root = reader.peek();
    let mut src = Versioned {
        reader: &mut reader,
        at_version: false,
        verdict: None,
    };
    let read = Snapshot::deserialize_from(&mut src);
    if read.is_err() && src.verdict.is_none() && root == Ok(Kind::Object) {
        // A syntax error on the way is the reader's first, which `end`
        // returns.
        let _ = version_further_on(&mut src);
    }
    let verdict = src.verdict;
    if let Err(e) = reader.end() {
        return Err(match e.classify() {
            Category::Io => SnapshotError::Io(e.to_string()),
            _ => SnapshotError::Parse(e.to_string()),
        });
    }
    match verdict {
        Some(Err(e)) => Err(e),
        Some(Ok(())) => read.map_err(|e| SnapshotError::Corrupt(e.to_string())),
        // No `format_version` was read: the root has none, or is no object.
        None => match root.map_err(|e| SnapshotError::Parse(e.to_string()))? {
            Kind::Object => Err(not_an_integer("null")),
            kind => Err(SnapshotError::Parse(format!(
                "expected object with field `format_version`, found {}",
                kind.name()
            ))),
        },
    }
}

/// Reads on through a root object whose typed read failed to its first
/// `format_version`, which [`Versioned`] then judges; a root without one
/// leaves no verdict.
fn version_further_on<I: Input>(src: &mut Versioned<'_, I>) -> Result<(), serde::Error> {
    if src.reader.depth() == 0 {
        return Ok(());
    }
    src.reader.unwind(1)?;
    while src.next_key()?.is_some() {
        if src.at_version {
            return u32::deserialize_from(src).map(drop);
        }
        src.skip()?;
    }
    Ok(())
}

/// The verdict on a scalar `format_version`: this build's, another
/// build's, or not an integer.
fn version(value: &Value) -> Result<(), SnapshotError> {
    match *value {
        Value::U64(found) if found == SNAPSHOT_FORMAT_VERSION as u64 => Ok(()),
        Value::U64(found) => Err(SnapshotError::UnknownVersion {
            found,
            supported: SNAPSHOT_FORMAT_VERSION,
        }),
        ref other => Err(not_an_integer(other.kind())),
    }
}

fn not_an_integer(kind: &str) -> SnapshotError {
    SnapshotError::Parse(format!("format_version must be an integer, found {kind}"))
}

/// The typed read's view of the reader: every call passes through, and the
/// root object's first `format_version` is judged as the read reaches it.
/// A version this build does not read stops the read there.
struct Versioned<'r, I> {
    reader: &'r mut Reader<I>,
    /// The root's first `format_version` is the next value.
    at_version: bool,
    /// The verdict on that value, once it is read.
    verdict: Option<Result<(), SnapshotError>>,
}

impl<I: Input> Versioned<'_, I> {
    /// Keeps the verdict; a refusal stops the typed read.
    fn judge(&mut self, verdict: Result<(), SnapshotError>) -> Result<(), serde::Error> {
        self.at_version = false;
        let refused = verdict.is_err();
        self.verdict = Some(verdict);
        if refused {
            Err(serde::Error::custom("format_version refused"))
        } else {
            Ok(())
        }
    }
}

impl<I: Input> Source for Versioned<'_, I> {
    fn peek(&mut self) -> Result<Kind, serde::Error> {
        let kind = self.reader.peek()?;
        if self.at_version && !matches!(kind, Kind::Null | Kind::Bool | Kind::Number) {
            self.judge(Err(not_an_integer(kind.name())))?;
        }
        Ok(kind)
    }

    fn scalar(&mut self) -> Result<Value, serde::Error> {
        let value = self.reader.scalar()?;
        if self.at_version {
            self.judge(version(&value))?;
        }
        Ok(value)
    }

    fn string(&mut self) -> Result<Cow<'_, str>, serde::Error> {
        self.reader.string()
    }

    fn begin_array(&mut self) -> Result<(), serde::Error> {
        self.reader.begin_array()
    }

    fn next_element(&mut self) -> Result<bool, serde::Error> {
        self.reader.next_element()
    }

    fn begin_object(&mut self) -> Result<(), serde::Error> {
        self.reader.begin_object()
    }

    fn next_key(&mut self) -> Result<Option<Cow<'_, str>>, serde::Error> {
        let root = self.reader.depth() == 1;
        let key = self.reader.next_key()?;
        self.at_version =
            root && self.verdict.is_none() && key.as_deref() == Some("format_version");
        Ok(key)
    }

    fn skip(&mut self) -> Result<(), serde::Error> {
        self.reader.skip()
    }

    fn span(&mut self) -> usize {
        self.reader.span()
    }
}

impl<'t, T: Topology, R: Router> Sim<'t, T, R> {
    /// Captures the complete run state between steps. The protocol slot is
    /// `None`; checkpointing protocol drivers fill it from their
    /// [`SnapshotHook`].
    pub fn snapshot(&self) -> Snapshot
    where
        R::NodeState: Serialize,
    {
        let pending = (self.grid.staged)
            .chunk_by(|a, b| a.node == b.node)
            .map(|run| (run[0].node, run.iter().map(|s| s.pid).collect()))
            .collect();
        Snapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            step: self.progress.steps,
            n: self.grid.n(),
            arch: self.grid.arch(),
            algorithm: self.router.name(),
            workload: self.workload.clone(),
            faults: FaultFingerprint::of(self.faults.as_ref()),
            admission: self.config.admission,
            steady: None,
            progress: self.progress.clone(),
            timers: self.timers.clone(),
            packets: self.store.export(),
            grid: GridSnap {
                slab: self.grid.export_queues().flatten().copied().collect(),
                lens: self.grid.export_queues().map(|q| q.len() as u32).collect(),
                pending,
                active: self.grid.active().to_vec(),
                peak_load: self.grid.peak_load.clone(),
            },
            events: self.events.clone(),
            node_state: render_node_states(&self.node_state),
            protocol: None,
        }
    }

    /// Reconstructs a live simulation from a snapshot and continues where
    /// it left off. The caller re-supplies the topology, router, config,
    /// and fault plan — they must match what the snapshot was taken under
    /// (side, queue architecture, algorithm name, fault fingerprint), or a
    /// [`SnapshotError::Mismatch`] is returned. The side, fault-plan, `k`
    /// and config rules are the ones [`Sim::try_build`] applies. Observer
    /// config (checkpoint cadence, watchdog) may differ freely within
    /// [`SimConfig::check`]: none of it affects simulated state.
    ///
    /// Restoring never panics. A structural pass establishes what
    /// construction needs (lengths agree, indices and coordinates in
    /// range), the grid is replayed through the live storage code, and the
    /// result must pass the two checkers of `invariants.rs` — the ones the
    /// `Sim::assert_*` accessors panic on; any failure is a
    /// [`SnapshotError::Corrupt`].
    pub fn restore(
        topo: &'t T,
        router: R,
        config: SimConfig,
        faults: Option<CompiledFaults>,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError>
    where
        R::NodeState: Deserialize,
    {
        if snap.format_version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::UnknownVersion {
                found: snap.format_version as u64,
                supported: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let n = snap.n;
        let errors = (SnapshotError::Mismatch, SnapshotError::Corrupt);
        let faults = check_env(topo, n, router.queue_arch().k(), &config, faults, errors)?;
        if router.queue_arch() != snap.arch {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot used queue architecture {:?}, router has {:?}",
                snap.arch,
                router.queue_arch()
            )));
        }
        if router.name() != snap.algorithm {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken under algorithm '{}', restoring under '{}'",
                snap.algorithm,
                router.name()
            )));
        }
        let fp = FaultFingerprint::of(faults.as_ref());
        if fp != snap.faults {
            return Err(SnapshotError::Mismatch(format!(
                "fault plan fingerprint {fp:?} does not match the snapshot's {:?}",
                snap.faults
            )));
        }
        if config.admission != snap.admission {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken under admission policy {:?}, restoring under {:?}",
                snap.admission, config.admission
            )));
        }
        let nodes = (n * n) as usize;
        check_structure(snap, nodes, snap.arch.num_slots()).map_err(SnapshotError::Corrupt)?;
        let store = PacketStore::import(topo, &snap.packets).map_err(SnapshotError::Corrupt)?;
        // Replay the grid through the code a live run fills it with: the
        // slab layout and the per-slot lengths have one writer, `push`. An
        // over-capacity queue is refused before it is pushed: `push` never
        // grows a bounded slot past its bound.
        let mut grid = NodeGrid::new(n, snap.arch);
        let mut slab = snap.grid.slab.iter();
        for (qi, &len) in snap.grid.lens.iter().enumerate() {
            let c = grid.coord_of(qi / grid.slots());
            let kind = grid.slot_kind(qi % grid.slots());
            invariants::check_capacity(snap.arch, kind, c, len as usize)
                .map_err(SnapshotError::Corrupt)?;
            for &pid in slab.by_ref().take(len as usize) {
                grid.push(c, kind, pid);
            }
        }
        // Each bucket is a node's backlog, oldest first: its packets take
        // their place in the listing as `seq`, and the sort makes the list
        // node-ordered whatever order the buckets came in.
        for &(node, ref pids) in &snap.grid.pending {
            for &pid in pids {
                let seq = grid.staged.len() as u32;
                grid.staged.push(Staged { node, seq, pid });
            }
        }
        grid.staged.sort_unstable_by_key(Staged::key);
        let nodes_staged = grid.staged.chunk_by(|a, b| a.node == b.node).count();
        if nodes_staged != snap.grid.pending.len() {
            return Err(SnapshotError::Corrupt(format!(
                "duplicate pending bucket: {} buckets for {nodes_staged} nodes",
                snap.grid.pending.len()
            )));
        }
        for &ni in &snap.grid.active {
            if !grid.mark_active(ni as usize) {
                return Err(SnapshotError::Corrupt(format!(
                    "node {ni} appears twice in the active worklist"
                )));
            }
        }
        grid.peak_load.copy_from_slice(&snap.grid.peak_load);
        invariants::check_queues(&store, &grid, &snap.progress)
            .and_then(|()| invariants::check_conservation(&store, &grid, &snap.progress))
            .map_err(SnapshotError::Corrupt)?;
        let node_state: Vec<R::NodeState> = serde_json::from_str(snap.node_state.get())
            .map_err(|e| SnapshotError::Corrupt(format!("node state: {e}")))?;
        if node_state.len() != nodes {
            return Err(SnapshotError::Corrupt(format!(
                "node-state table has {} entries, expected {nodes}",
                node_state.len()
            )));
        }
        Ok(Sim {
            topo,
            router,
            workload: snap.workload.clone(),
            config,
            faults,
            store,
            grid,
            node_state,
            progress: snap.progress.clone(),
            timers: snap.timers.clone(),
            events: snap.events.clone(),
            bufs: StepBufs::default(),
        })
    }
}

/// Renders the node states as one array, its buffer sized once from the
/// width of the first: exact when every state renders equally wide, as
/// those of every shipped router do.
fn render_node_states<S: Serialize>(states: &[S]) -> RawValue {
    let width = states
        .first()
        .map_or(0, |s| serde_json::to_string(s).map_or(0, |text| text.len()));
    let capacity = (width + 1) * states.len() + 1;
    serde_json::to_raw_value_with_capacity(states, capacity).expect("node state renders")
}

/// The structural pass of [`Sim::restore`]: only what makes building the
/// packet table and replaying the grid safe — lengths, index ranges,
/// coordinates. Whether the state is one the engine could have produced is
/// decided by `invariants` on the rebuilt state.
fn check_structure(snap: &Snapshot, nodes: usize, slots: usize) -> Result<(), String> {
    let (p, g) = (&snap.packets, &snap.grid);
    let len = p.src.len();
    for (name, l) in [
        ("dst", p.dst.len()),
        ("state", p.state.len()),
        ("inject_at", p.inject_at.len()),
        ("loc", p.loc.len()),
        ("queue_of", p.queue_of.len()),
        ("delivered_at", p.delivered_at.len()),
        ("hops", p.hops.len()),
        ("inject_order", p.inject_order.len()),
    ] {
        if l != len {
            return Err(format!(
                "packet array `{name}` has {l} entries, src has {len}"
            ));
        }
    }
    if snap.step != snap.progress.steps {
        return Err(format!(
            "step field {} disagrees with progress.steps {}",
            snap.step, snap.progress.steps
        ));
    }
    if snap.step >= STEP_LIMIT {
        return Err(format!(
            "step {} is past 2^58, the last delivery step the packet table holds",
            snap.step
        ));
    }
    if let Some(env) = &snap.steady {
        steady::check_snapshot(env, snap.protocol.as_ref())?;
    }
    if let Some(c) = p.src.iter().chain(&p.dst).find(|c| !c.on_grid(snap.n)) {
        return Err(format!("endpoint {c} lies off the {0}x{0} grid", snap.n));
    }
    for (i, loc) in p.loc.iter().enumerate() {
        if matches!(loc, Loc::At(c) if !c.on_grid(snap.n)) {
            return Err(format!("packet {i} located off-grid: {loc:?}"));
        }
    }
    if p.inject_cursor > len {
        return Err(format!(
            "inject cursor {} past {len} packets",
            p.inject_cursor
        ));
    }
    let mut seen = vec![false; len];
    for pid in &p.inject_order {
        let Some(slot) = seen.get_mut(pid.index()) else {
            return Err(format!("inject order names unknown packet {pid:?}"));
        };
        if std::mem::replace(slot, true) {
            return Err(format!("inject order repeats packet {pid:?}"));
        }
    }
    let mut events = snap.events.delivered.iter().chain(&snap.events.lost);
    if let Some(pid) = events.find(|pid| pid.index() >= len) {
        return Err(format!("event buffer references unknown packet {pid:?}"));
    }
    if g.lens.len() != nodes * slots {
        return Err(format!(
            "queue table has {} slots, expected {} ({nodes} nodes x {slots} slots)",
            g.lens.len(),
            nodes * slots
        ));
    }
    let total: u64 = g.lens.iter().map(|&l| l as u64).sum();
    if total != g.slab.len() as u64 {
        return Err(format!(
            "queue contents hold {} packets but lengths sum to {total}",
            g.slab.len()
        ));
    }
    if g.peak_load.len() != nodes {
        return Err(format!(
            "peak-load map has {} entries, expected {nodes}",
            g.peak_load.len()
        ));
    }
    if let Some((ni, _)) = g.pending.iter().find(|(ni, _)| *ni as usize >= nodes) {
        return Err(format!("pending bucket for out-of-grid node {ni}"));
    }
    if let Some((ni, _)) = g.pending.iter().find(|(_, pids)| pids.is_empty()) {
        return Err(format!("empty pending bucket at node {ni}"));
    }
    if let Some(ni) = g.active.iter().find(|&&ni| ni as usize >= nodes) {
        return Err(format!("active worklist names out-of-grid node {ni}"));
    }
    Ok(())
}

// ---- checkpoint observers -------------------------------------------------

/// Where periodic checkpoints (and failure post-mortems) go. The
/// checkpointing run drivers call [`on_checkpoint`](Self::on_checkpoint)
/// every [`SimConfig::checkpoint_every`] steps with a fully assembled
/// snapshot, and [`on_failure`](Self::on_failure) once if the run ends in
/// a [`SimError`](crate::SimError) — the hook that persists watchdog
/// post-mortems next to the active checkpoint.
pub trait CheckpointSink {
    fn on_checkpoint(&mut self, snap: &Snapshot);

    /// The run failed (watchdog trip or step cap) at `step` with the given
    /// diagnostics. Default: ignore.
    fn on_failure(&mut self, step: u64, diag: &DiagnosticSnapshot) {
        let _ = (step, diag);
    }
}

/// No sink: a run whose config sets no cadence still goes through the
/// checkpointing drivers, writing nothing and persisting no post-mortem.
impl<S: CheckpointSink> CheckpointSink for Option<S> {
    fn on_checkpoint(&mut self, snap: &Snapshot) {
        if let Some(sink) = self {
            sink.on_checkpoint(snap);
        }
    }

    fn on_failure(&mut self, step: u64, diag: &DiagnosticSnapshot) {
        if let Some(sink) = self {
            sink.on_failure(step, diag);
        }
    }
}

/// Protocol layers that can ride along in a checkpoint: the opaque
/// protocol slot of a [`Snapshot`] round-trips through this pair. The ARQ
/// transport implements it over its sequence numbers, seen-sets, timers,
/// and backoff RNG.
pub trait SnapshotHook {
    /// Renders the layer's complete state.
    fn snapshot_state(&self) -> RawValue;

    /// Replaces the layer's state with a previously captured one.
    fn restore_state(&mut self, v: &RawValue) -> Result<(), serde::Error>;
}

/// Checkpoints into memory — the differential test battery's sink.
#[derive(Default)]
pub struct MemorySink {
    /// Every checkpoint taken, in order.
    pub checkpoints: Vec<Snapshot>,
    /// The failure post-mortem, if the run failed.
    pub failure: Option<(u64, DiagnosticSnapshot)>,
}

impl CheckpointSink for MemorySink {
    fn on_checkpoint(&mut self, snap: &Snapshot) {
        self.checkpoints.push(snap.clone());
    }

    fn on_failure(&mut self, step: u64, diag: &DiagnosticSnapshot) {
        self.failure = Some((step, diag.clone()));
    }
}

/// Checkpoints into a directory as `ckpt_<step>.json` (atomic writes),
/// with failure post-mortems as `diag_<step>.json` beside them. Write
/// errors are recorded in [`error`](Self::error) rather than panicking —
/// a full disk must not take the simulation down with it.
pub struct DirectorySink {
    dir: PathBuf,
    last: Option<PathBuf>,
    /// First write error encountered, if any.
    pub error: Option<SnapshotError>,
}

impl DirectorySink {
    /// Creates the directory (and parents) if needed.
    pub fn new(dir: impl Into<PathBuf>) -> Result<DirectorySink, SnapshotError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SnapshotError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(DirectorySink {
            dir,
            last: None,
            error: None,
        })
    }

    /// Path of the most recent successfully written checkpoint.
    pub fn last_checkpoint(&self) -> Option<&Path> {
        self.last.as_deref()
    }
}

impl CheckpointSink for DirectorySink {
    fn on_checkpoint(&mut self, snap: &Snapshot) {
        let path = self.dir.join(format!("ckpt_{}.json", snap.step));
        match snap.write_to(&path) {
            Ok(()) => self.last = Some(path),
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }

    fn on_failure(&mut self, step: u64, diag: &DiagnosticSnapshot) {
        let path = self.dir.join(format!("diag_{step}.json"));
        if let Err(e) = write_json_file(&path, diag) {
            self.error.get_or_insert(e);
        }
    }
}

/// Takes a checkpoint if the cadence says this step is a boundary.
/// `slots` supplies the steady environment block and the protocol slot
/// lazily (only evaluated when a checkpoint is actually taken). In debug
/// builds every checkpoint write is followed by a full queue-invariant
/// audit, so a corrupt snapshot fails loudly at the source.
pub(crate) fn maybe_checkpoint<T: Topology, R: Router, S: CheckpointSink>(
    sim: &Sim<'_, T, R>,
    sink: &mut S,
    slots: impl FnOnce() -> (Option<SteadySnap>, Option<RawValue>),
) where
    R::NodeState: Serialize,
{
    let Some(every) = sim.config.checkpoint_every else {
        return;
    };
    let step = sim.steps();
    if step == 0 || !step.is_multiple_of(every) {
        return;
    }
    let mut snap = sim.snapshot();
    (snap.steady, snap.protocol) = slots();
    sink.on_checkpoint(&snap);
    #[cfg(debug_assertions)]
    sim.assert_queue_invariants();
}
