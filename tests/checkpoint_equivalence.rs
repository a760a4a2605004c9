//! Crash-safety differential battery for checkpoint/restore: a run
//! killed at an arbitrary step and resumed from its last checkpoint must
//! be **bit-identical** to one that never stopped — same per-step
//! delivery/loss streams, same packet trajectories, same rendered
//! reports, same watchdog verdicts. Checkpointing is an observer, never a
//! semantics change; and a malformed or mismatched snapshot is a typed
//! error, never a panic or a silently wrong resumption. The bytes of one
//! checkpoint per kind of opaque state are recorded through
//! `tests/support/record.rs`.

#[path = "support/record.rs"]
mod record;
mod support;

use mesh_routing::engine::snapshot::CheckpointSink;
use mesh_routing::engine::{
    DirectorySink, Loc, MemorySink, QueueKind, Snapshot, SnapshotError, SnapshotHook, SteadySnap,
};
use mesh_routing::prelude::*;
use proptest::prelude::*;
use record::{Digest, Entry};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use support::{partial_permutation, workload};

/// The per-step observable record of a run: each step's delivery and loss
/// event streams.
type Streams = Vec<(Vec<PacketId>, Vec<PacketId>)>;

/// Steps `sim` to completion (or `max` steps), recording every step's
/// event streams and taking a snapshot after each `cadence`-th step —
/// exactly what the checkpointing driver would do.
fn run_recording<T: Topology, R: Router>(
    sim: &mut Sim<'_, T, R>,
    cadence: u64,
    max: u64,
) -> (Streams, Vec<Snapshot>)
where
    R::NodeState: Serialize,
{
    let mut streams = Streams::new();
    let mut snaps = Vec::new();
    loop {
        let done = sim.step();
        streams.push((
            sim.last_step_deliveries().to_vec(),
            sim.last_step_losses().to_vec(),
        ));
        if sim.steps().is_multiple_of(cadence) {
            snaps.push(sim.snapshot());
        }
        if done || sim.steps() >= max {
            return (streams, snaps);
        }
    }
}

/// The core differential check for raw (non-protocol) runs: run the
/// reference to completion recording streams and checkpoints, "kill" at
/// `kill_at`, restore from the last checkpoint at or before the kill
/// (after a JSON round-trip, so the serialized format itself is under
/// test), resume, and demand the identical tail.
fn check_raw_resume<T: Topology, R: Router>(
    topo: &T,
    mk: impl Fn() -> R,
    pb: &RoutingProblem,
    faults: Option<CompiledFaults>,
    cadence: u64,
    kill_at: u64,
) -> Result<(), TestCaseError>
where
    R::NodeState: Serialize + Deserialize,
{
    let mut reference = match &faults {
        Some(f) => Sim::with_faults(topo, mk(), pb, SimConfig::default(), f.clone()),
        None => Sim::new(topo, mk(), pb),
    };
    let (streams, snaps) = run_recording(&mut reference, cadence, 3_000);
    let Some(snap) = snaps.iter().rev().find(|s| s.step <= kill_at) else {
        return Ok(()); // killed before the first checkpoint: nothing to resume
    };
    let snap = Snapshot::from_json(&snap.to_json()).expect("snapshot JSON round-trip");
    let mut resumed = Sim::restore(topo, mk(), SimConfig::default(), faults, &snap)
        .expect("a snapshot the engine wrote must restore");
    prop_assert_eq!(resumed.steps(), snap.step);
    // The last step's events are state too: `last_step_deliveries` and
    // `last_step_losses` report them until the next step.
    let (delivered, lost) = &streams[snap.step as usize - 1];
    prop_assert_eq!(resumed.last_step_deliveries(), delivered.as_slice());
    prop_assert_eq!(resumed.last_step_losses(), lost.as_slice());
    let mut i = snap.step as usize;
    while i < streams.len() {
        let done = resumed.step();
        prop_assert!(
            resumed.last_step_deliveries() == streams[i].0.as_slice()
                && resumed.last_step_losses() == streams[i].1.as_slice(),
            "event streams diverged at step {} (resumed from checkpoint at {})",
            i + 1,
            snap.step
        );
        i += 1;
        if done {
            break;
        }
    }
    prop_assert_eq!(resumed.steps(), reference.steps());
    prop_assert_eq!(
        serde_json::to_string(&resumed.report()).unwrap(),
        serde_json::to_string(&reference.report()).unwrap()
    );
    prop_assert_eq!(resumed.packet_snapshot(), reference.packet_snapshot());
    prop_assert_eq!(resumed.diagnostics(), reference.diagnostics());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole property, fault-free: for arbitrary workloads, routers,
    /// checkpoint cadences, and kill steps, a resumed run is
    /// bit-identical.
    #[test]
    fn resumed_runs_are_bit_identical_fault_free(
        pb in workload(12),
        cadence in 1u64..24,
        kill_at in 0u64..200,
        router in 0usize..3,
    ) {
        prop_assume!(!pb.is_empty());
        let topo = Mesh::new(pb.n);
        match router {
            0 => check_raw_resume(&topo, || Dx::new(DimOrder::new(2)), &pb, None, cadence, kill_at)?,
            1 => check_raw_resume(&topo, || Dx::new(Theorem15::new(2)), &pb, None, cadence, kill_at)?,
            _ => check_raw_resume(&topo, || Dx::new(WestFirst::new(2)), &pb, None, cadence, kill_at)?,
        }
    }

    /// Tentpole property, faults active: the checkpoint must carry
    /// fault-dependent state (losses, stalls, deferred injections) and the
    /// fingerprint must accept the re-supplied plan.
    #[test]
    fn resumed_runs_are_bit_identical_under_faults(
        pb in partial_permutation(10),
        cadence in 1u64..16,
        kill_at in 0u64..300,
        rate_permille in 0u64..=150,
        fault_seed in 0u64..10_000,
    ) {
        prop_assume!(!pb.is_empty());
        let n = 10u32;
        let topo = Mesh::new(n);
        let rate = rate_permille as f64 / 1000.0;
        let faults = FaultPlan::random(n, rate, 6 * n as u64, fault_seed).compile();
        check_raw_resume(
            &topo,
            || FaultAware::new(Dx::new(Theorem15::new(2))),
            &pb,
            Some(faults),
            cadence,
            kill_at,
        )?;
    }

    /// Tentpole property, ARQ protocol runs under lossy faults: the
    /// checkpoint carries the transport's full state (sequence numbers,
    /// seen-sets, timers, backoff RNG); a run resumed mid-protocol —
    /// possibly mid-retransmission — ends with the byte-identical
    /// `TransportReport` and `SimReport`, and the identical outcome.
    #[test]
    fn resumed_protocol_runs_are_bit_identical(
        pb in partial_permutation(8),
        cadence in 1u64..32,
        pick in 0usize..64,
        rate_permille in 0u64..=120,
        fault_seed in 0u64..10_000,
    ) {
        prop_assume!(!pb.is_empty());
        let n = 8u32;
        let topo = Mesh::new(n);
        let rate = rate_permille as f64 / 1000.0;
        let faults = FaultPlan::random(n, rate, 6 * n as u64, fault_seed).compile();
        let policy = BackoffPolicy::exponential(16, 128, 8);
        let config = SimConfig {
            watchdog: Some(512),
            checkpoint_every: Some(cadence),
            ..SimConfig::default()
        };
        let mk_sim = |cfg| Sim::with_faults(
            &topo,
            FaultAware::new(Dx::new(Theorem15::new(2))),
            &pb,
            cfg,
            faults.clone(),
        );
        let mut sim_a = mk_sim(config);
        let mut tp_a = Transport::new(&pb, policy, 5);
        let mut sink = MemorySink::default();
        let res_a = sim_a.run_with_protocol_checkpointed(20_000, &mut tp_a, &mut sink);
        if sink.checkpoints.is_empty() {
            return Ok(()); // finished (or failed) before the first checkpoint
        }
        let snap = &sink.checkpoints[pick % sink.checkpoints.len()];
        let snap = Snapshot::from_json(&snap.to_json()).expect("snapshot JSON round-trip");
        let mut sim_b = Sim::restore(
            &topo,
            FaultAware::new(Dx::new(Theorem15::new(2))),
            SimConfig { watchdog: Some(512), ..SimConfig::default() },
            Some(faults.clone()),
            &snap,
        ).expect("a snapshot the engine wrote must restore");
        let mut tp_b = Transport::new(&pb, policy, 5);
        tp_b.restore_state(snap.protocol.as_ref().expect("protocol slot"))
            .expect("transport state must restore");
        let res_b = sim_b.run_with_protocol(20_000, &mut tp_b);
        prop_assert!(res_a == res_b, "outcomes diverged: {:?} vs {:?}", res_a, res_b);
        prop_assert_eq!(
            serde_json::to_string(&tp_a.report(sim_a.steps())).unwrap(),
            serde_json::to_string(&tp_b.report(sim_b.steps())).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&sim_a.report()).unwrap(),
            serde_json::to_string(&sim_b.report()).unwrap()
        );
        prop_assert_eq!(sim_a.packet_snapshot(), sim_b.packet_snapshot());
    }
}

/// A central queue whose bound exceeds the arena's inline cells starts
/// small and grows by slab rebuilds. Checkpoints taken while a queue sits
/// in grown cells must restore into a grid that holds it — and resume
/// bit-identically.
#[test]
fn grown_central_queue_resumes_bit_identically() {
    let n = 16;
    let topo = Mesh::new(n);
    let pb = workloads::column_funnel(n);
    let mk = || Dx::new(DimOrder::new(n * n));
    let mut probe = Sim::new(&topo, mk(), &pb);
    probe.run(1_000).unwrap();
    assert!(
        probe.report().max_queue > 4,
        "the funnel must outgrow the inline cells"
    );
    for kill_at in [3, 6, 9, 12, 18] {
        check_raw_resume(&topo, mk, &pb, None, 1, kill_at)
            .unwrap_or_else(|e| panic!("kill at {kill_at}: {e:?}"));
    }
}

/// Satellite: a checkpoint taken *between* an ARQ data loss and its
/// retransmission resumes to exactly-once delivery with the identical
/// transport report. The scenario is pinned: the payload's first crossing
/// of (1,0)→E is eaten around step 2, the fixed(8) timer fires around
/// step 9, and the cadence-4 checkpoint at step 4 lands in between — the
/// restored transport must carry the armed timer and the recorded loss.
#[test]
fn checkpoint_between_loss_and_retransmission_resumes_exactly_once() {
    let n = 4;
    let topo = Mesh::new(n);
    let pb = RoutingProblem::from_pairs(n, "one", [(Coord::new(0, 0), Coord::new(3, 0))]);
    let faults = FaultPlan::none(n)
        .lossy(Coord::new(1, 0), Dir::East, 0, Some(6))
        .compile();
    let policy = BackoffPolicy::fixed(8);
    let config = SimConfig {
        watchdog: Some(128),
        checkpoint_every: Some(4),
        ..SimConfig::default()
    };
    let mut sim_a = Sim::with_faults(
        &topo,
        Dx::new(Theorem15::new(2)),
        &pb,
        config,
        faults.clone(),
    );
    let mut tp_a = Transport::new(&pb, policy, 1);
    let steps_a = sim_a
        .run_with_protocol_checkpointed(10_000, &mut tp_a, &mut MemoryAt4::default())
        .unwrap();
    let rep_a = tp_a.report(steps_a);
    assert!(rep_a.exactly_once);
    assert!(rep_a.data_lost >= 1 && rep_a.retransmits >= 1, "{rep_a:?}");

    // Re-run to harvest the checkpoint cleanly (MemoryAt4 kept only step 4).
    let mut sim = Sim::with_faults(
        &topo,
        Dx::new(Theorem15::new(2)),
        &pb,
        config,
        faults.clone(),
    );
    let mut tp = Transport::new(&pb, policy, 1);
    let mut sink = MemorySink::default();
    sim.run_with_protocol_checkpointed(10_000, &mut tp, &mut sink)
        .unwrap();
    let snap = sink
        .checkpoints
        .iter()
        .find(|s| s.step == 4)
        .expect("cadence-4 run must checkpoint at step 4");

    let mut sim_b = Sim::restore(
        &topo,
        Dx::new(Theorem15::new(2)),
        SimConfig {
            watchdog: Some(128),
            ..SimConfig::default()
        },
        Some(faults),
        snap,
    )
    .unwrap();
    let mut tp_b = Transport::new(&pb, policy, 1);
    tp_b.restore_state(snap.protocol.as_ref().unwrap()).unwrap();
    // The checkpoint sits between the loss and the recovery: the loss is
    // recorded, no retransmission has fired yet, the payload is still
    // outstanding with its timer armed.
    let mid = tp_b.report(4);
    assert!(mid.data_lost >= 1, "{mid:?}");
    assert_eq!(mid.retransmits, 0, "{mid:?}");
    assert_eq!(tp_b.outstanding(), 1);

    let steps_b = sim_b.run_with_protocol(10_000, &mut tp_b).unwrap();
    assert_eq!(steps_b, steps_a);
    assert!(tp_b.exactly_once());
    assert_eq!(
        serde_json::to_string(&tp_b.report(steps_b)).unwrap(),
        serde_json::to_string(&rep_a).unwrap()
    );
}

/// A sink keeping only the step-4 checkpoint — exercises a custom
/// [`CheckpointSink`] implementation through the public trait.
#[derive(Default)]
struct MemoryAt4 {
    snap: Option<Snapshot>,
}

impl CheckpointSink for MemoryAt4 {
    fn on_checkpoint(&mut self, snap: &Snapshot) {
        if snap.step == 4 {
            self.snap = Some(snap.clone());
        }
    }
}

/// Malformed input never panics: truncation, non-objects, and unknown
/// format versions are each a distinct typed error.
#[test]
fn malformed_snapshot_files_are_typed_errors() {
    assert!(matches!(
        Snapshot::from_json("{\"format_version\": 1, \"trunc"),
        Err(SnapshotError::Parse(_))
    ));
    assert!(matches!(
        Snapshot::from_json("[1, 2, 3]"),
        Err(SnapshotError::Parse(_))
    ));
    assert!(matches!(
        Snapshot::from_json("{\"n\": 8}"),
        Err(SnapshotError::Parse(_)) // format_version missing (reads as null)
    ));
    let err = Snapshot::from_json("{\"format_version\": 99}").unwrap_err();
    assert_eq!(
        err,
        SnapshotError::UnknownVersion {
            found: 99,
            supported: mesh_routing::engine::SNAPSHOT_FORMAT_VERSION
        }
    );
    assert!(matches!(
        Snapshot::read_from(Path::new("/nonexistent/ckpt.json")),
        Err(SnapshotError::Io(_))
    ));
    // One format: every header but the writer's own is refused, older
    // ones included.
    for found in [1, 2, 4] {
        let err = Snapshot::from_json(&format!("{{\"format_version\": {found}}}")).unwrap_err();
        let supported = mesh_routing::engine::SNAPSHOT_FORMAT_VERSION;
        assert_eq!(err, SnapshotError::UnknownVersion { found, supported });
    }
    // A current-version file with a mangled body is Corrupt, not a panic.
    assert!(matches!(
        Snapshot::from_json("{\"format_version\": 3, \"step\": \"NaN\"}"),
        Err(SnapshotError::Corrupt(_))
    ));
    // Nor is a missing field a silent zero: a v3 body without the `shed`
    // counter, the queue `lens` or the `last_resolution` stamp does not load.
    let snap = mid_run_snapshot(&Mesh::new(8), Dx::new(Theorem15::new(2)));
    for field in ["shed", "lens", "last_resolution"] {
        let text = snap
            .to_json()
            .replacen(&format!("\"{field}\":"), "\"gone\":", 1);
        assert!(
            matches!(Snapshot::from_json(&text), Err(SnapshotError::Corrupt(_))),
            "a body without `{field}` must be Corrupt"
        );
    }
    // Keys read as `Value::field` reads them: the first of duplicate keys
    // wins, and an unknown key is skipped.
    let text = snap.to_json();
    let step = format!("\"step\": {},", snap.step);
    let duplicated = text.replacen(&step, &format!("{step}\n  \"step\": 99999,"), 1);
    assert_ne!(duplicated, text);
    let loaded = Snapshot::from_json(&duplicated).expect("a duplicated key loads");
    assert_eq!(loaded.step, snap.step, "the first `step` must win");
    assert!(loaded.to_json() == text);
    let extra = text.replacen(
        &step,
        &format!("{step}\n  \"note\": {{\"step\": [1, \"x\"]}},"),
        1,
    );
    assert_ne!(extra, text);
    let loaded = Snapshot::from_json(&extra).expect("an unknown key is ignored");
    assert!(loaded.to_json() == text);
}

/// What `from_json` reads is what `to_json` wrote: an n=32 snapshot's text
/// is the rendering of the `Value` it parses to, and a `Snapshot` read from
/// it renders back byte-identically.
#[test]
fn snapshot_json_round_trips_as_value() {
    let topo = Mesh::new(32);
    let pb = workloads::random_permutation(32, 9);
    let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(2)), &pb);
    for _ in 0..20 {
        sim.step();
    }
    let snap = sim.snapshot();
    let text = snap.to_json();
    let parsed: serde::Value = serde_json::from_str(&text).unwrap();
    assert!(serde_json::to_string_pretty(&parsed).unwrap() + "\n" == text);
    assert!(Snapshot::from_json(&text).unwrap().to_json() == text);
}

/// A fault-free open-system run stopped mid-flight, so the snapshot holds
/// queued, delivered and not-yet-due packets at once: the base of the
/// malformed-file, tamper and mismatch tests.
fn mid_run_snapshot<R: Router>(topo: &Mesh, router: R) -> Snapshot
where
    R::NodeState: Serialize,
{
    let pb = workloads::open_bernoulli(topo.side(), 0.3, 12, 5);
    let mut sim = Sim::new(topo, router, &pb);
    for _ in 0..6 {
        sim.step();
    }
    sim.snapshot()
}

/// Rewrites a counter of the crate-private progress block, through the
/// JSON form — which also shows that tampered *files*, not just tampered
/// structs, are caught. Each counter's first occurrence is the progress
/// block's.
fn poke(snap: &mut Snapshot, counter: &str, f: fn(u64) -> u64) {
    let mut text = snap.to_json();
    let needle = format!("\"{counter}\":");
    let at = text.find(&needle).unwrap() + needle.len();
    let end = text[at..].find([',', '\n']).unwrap() + at;
    let v: u64 = text[at..end].trim().parse().unwrap();
    text.replace_range(at..end, &format!(" {}", f(v)));
    *snap = Snapshot::from_json(&text).unwrap();
}

fn bump(snap: &mut Snapshot, counter: &str) {
    poke(snap, counter, |v| v + 1)
}

fn queued(s: &Snapshot) -> usize {
    s.grid.slab[0].index()
}

fn delivered(s: &Snapshot) -> usize {
    let is_delivered = |l: &Loc| *l == Loc::Delivered;
    s.packets.loc.iter().position(is_delivered).unwrap()
}

/// The first packet not yet due, and its origin's node index.
fn future(s: &Snapshot) -> (PacketId, u32) {
    let pid = s.packets.inject_order[s.packets.inject_cursor];
    let src = s.packets.src[pid.index()];
    (pid, src.y * s.n + src.x)
}

fn idle_node(s: &Snapshot) -> u32 {
    (0..s.n * s.n)
        .find(|ni| !s.grid.active.contains(ni))
        .unwrap()
}

fn unknown(s: &Snapshot) -> PacketId {
    PacketId(s.packets.src.len() as u32)
}

/// Makes `s` a steady checkpoint with an empty measurement state, its
/// schedule edited by `edit`.
fn steady(s: &mut Snapshot, edit: fn(&mut SteadyConfig)) {
    let mut config = SteadyConfig::default();
    edit(&mut config);
    s.steady = Some(SteadySnap {
        lambda: 0.3,
        config,
    });
    let state = r#"{"frames": [], "cur_lat": [], "pooled": [], "base": null}"#;
    s.protocol = Some(serde_json::from_str(state).unwrap());
}

/// `(fragment of the expected message, mutation)`.
type Tamper = (&'static str, fn(&mut Snapshot));

/// One mutation of a valid snapshot per rule of the restore path — the
/// structural pass of `Sim::restore`, the packet table's import and the
/// engine's two invariant checkers — with a fragment of the message that
/// must name the rule.
const TAMPERS: &[Tamper] = &[
    // ---- structural pass ----
    ("packet array `hops`", |s| {
        s.packets.hops.pop();
    }),
    ("disagrees with progress.steps", |s| s.step += 1),
    ("past 2^58", |s| {
        s.step = 1 << 58;
        poke(s, "steps", |_| 1 << 58);
    }),
    ("endpoint", |s| s.packets.src[0].x = s.n),
    ("endpoint", |s| s.packets.dst[0].y = s.n),
    ("located off-grid", |s| {
        let at = queued(s);
        s.packets.loc[at] = Loc::At(Coord::new(0, s.n));
    }),
    ("inject cursor", |s| {
        s.packets.inject_cursor = s.packets.src.len() + 1
    }),
    ("inject order repeats", |s| {
        s.packets.inject_order[0] = s.packets.inject_order[1]
    }),
    ("inject order names unknown", |s| {
        s.packets.inject_order[0] = unknown(s)
    }),
    ("event buffer", |s| s.events.lost.push(unknown(s))),
    ("queue table has", |s| s.grid.lens.push(0)),
    ("lengths sum", |s| {
        let qi = s.grid.lens.iter().position(|&l| l > 0).unwrap();
        s.grid.lens[qi] -= 1;
    }),
    ("peak-load map", |s| {
        s.grid.peak_load.pop();
    }),
    ("node-state table", |s| {
        let mut states: Vec<serde::Value> = serde_json::from_str(s.node_state.get()).unwrap();
        states.pop();
        s.node_state = serde_json::to_raw_value(&states).unwrap();
    }),
    ("pending bucket for out-of-grid node", |s| {
        s.grid.pending.push((s.n * s.n, vec![future(s).0]))
    }),
    ("duplicate pending bucket", |s| {
        let (pid, ni) = future(s);
        s.grid.pending.push((ni, vec![pid]));
        s.grid.pending.push((ni, vec![pid]));
    }),
    ("active worklist names out-of-grid node", |s| {
        s.grid.active.push(s.n * s.n)
    }),
    ("appears twice in the active worklist", |s| {
        s.grid.active.push(s.grid.active[0])
    }),
    // A steady checkpoint's schedule and measurement state, which resuming
    // would otherwise trust.
    ("empty steady schedule", |s| steady(s, |c| c.window = 0)),
    ("empty steady schedule", |s| steady(s, |c| c.windows = 0)),
    ("overflows a u64", |s| steady(s, |c| c.warmup = u64::MAX)),
    ("no steady measurement state", |s| {
        steady(s, |_| {});
        s.protocol = Some(serde_json::from_str(r#"{"bogus": 1}"#).unwrap());
    }),
    // ---- PacketStore::import: what the location word cannot hold ----
    ("delivery step", |s| {
        let at = queued(s);
        s.packets.delivered_at[at] = 3;
    }),
    ("delivery step", |s| {
        let at = delivered(s);
        s.packets.delivered_at[at] = u64::MAX;
    }),
    ("delivery step", |s| {
        let at = delivered(s);
        s.packets.delivered_at[at] = 1 << 58;
    }),
    // ---- check_queues ----
    ("> capacity", |s| {
        // Slot 0 of node 0 is bounded by k = 2 under both architectures.
        let pid = s.grid.slab[0];
        s.grid.slab.splice(0..0, [pid; 3]);
        s.grid.lens[0] += 3;
    }),
    ("holds unknown packet", |s| s.grid.slab[0] = unknown(s)),
    ("appears in two queues", |s| s.grid.slab[1] = s.grid.slab[0]),
    ("its location says", |s| {
        let at = queued(s);
        s.packets.loc[at] = Loc::Pending;
    }),
    ("its record says", |s| {
        let at = queued(s);
        s.packets.queue_of[at] = match s.packets.queue_of[at] {
            QueueKind::Injection => QueueKind::Central,
            _ => QueueKind::Injection,
        };
    }),
    ("occupancy/slot-sum mismatch", |s| {
        // Drop a packet from its queue; its location still claims it.
        let qi = s.grid.lens.iter().position(|&l| l > 0).unwrap();
        s.grid.lens[qi] -= 1;
        s.grid.slab.remove(0);
    }),
    ("empty pending bucket", |s| {
        s.grid.pending.push((idle_node(s), vec![]))
    }),
    ("pending bucket", |s| {
        s.grid.pending.push((idle_node(s), vec![unknown(s)]))
    }),
    ("staged at node", |s| {
        let pid = PacketId(delivered(s) as u32);
        s.grid.pending.push((idle_node(s), vec![pid]));
    }),
    ("but originates at", |s| {
        let (pid, ni) = future(s);
        s.grid.pending.push(((ni + 1) % (s.n * s.n), vec![pid]));
    }),
    ("active worklist disagrees", |s| {
        s.grid.active.pop();
    }),
    ("active worklist disagrees", |s| {
        s.grid.active.push(idle_node(s))
    }),
    // ---- check_conservation ----
    ("delivered, the packet table says", |s| bump(s, "delivered")),
    ("lost, the packet table says", |s| bump(s, "lost")),
    ("shed, the packet table says", |s| bump(s, "shed")),
    ("expired, the packet table says", |s| bump(s, "expired")),
    ("uninjected tail out of order", |s| {
        let (c, last) = (s.packets.inject_cursor, s.packets.src.len() - 1);
        s.packets.inject_order.swap(c, last);
    }),
    ("are Pending", |s| s.packets.inject_cursor -= 1),
    // Counters bounded by the run's length: none of these may load and
    // overflow on a later step.
    ("moves, the packet table says", |s| bump(s, "total_moves")),
    ("moves, the packet table says", |s| {
        poke(s, "total_moves", |_| u64::MAX - 1)
    }),
    ("counts 4294967295 hops", |s| {
        let at = queued(s);
        s.packets.hops[at] = u32::MAX;
    }),
    ("delivery step Some(7), in a run of 6 steps", |s| {
        let at = delivered(s);
        s.packets.delivered_at[at] = s.step + 1;
    }),
    ("deferred injections exceed", |s| {
        poke(s, "deferred_injections", |_| u64::MAX - 1)
    }),
];

/// Every row of [`TAMPERS`] is [`SnapshotError::Corrupt`] with a message
/// naming the broken rule — never a wrong-but-running simulation, never a
/// panic — under a central-queue and a per-inlink router alike.
#[test]
fn corrupt_snapshots_are_rejected() {
    fn check<R: Router>(mk: impl Fn() -> R)
    where
        R::NodeState: Serialize + Deserialize,
    {
        let topo = Mesh::new(8);
        let snap = mid_run_snapshot(&topo, mk());
        let restore =
            |s: &Snapshot| Sim::restore(&topo, mk(), SimConfig::default(), None, s).map(|_| ());
        restore(&snap).expect("the untampered snapshot restores");
        let mut steady_snap = snap.clone();
        steady(&mut steady_snap, |_| {});
        restore(&steady_snap).expect("a well-formed steady checkpoint restores");
        for (row, (rule, tamper)) in TAMPERS.iter().enumerate() {
            let mut t = snap.clone();
            tamper(&mut t);
            match restore(&t) {
                Err(SnapshotError::Corrupt(m)) if m.contains(rule) => {}
                other => panic!("row {row} ({rule}) under {}: {other:?}", snap.algorithm),
            }
        }
    }
    check(|| Dx::new(DimOrder::new(2)));
    check(|| Dx::new(Theorem15::new(2)));
}

/// Construction lists every node it stages a packet at, and admission may
/// shed the whole bucket in the same call: a snapshot taken before the
/// first step can name an idle node in its worklist and must still load.
#[test]
fn construction_time_snapshot_restores() {
    let topo = Mesh::new(4);
    let pb = RoutingProblem::from_pairs(4, "one", [(Coord::new(0, 0), Coord::new(3, 0))]);
    let config = SimConfig {
        admission: AdmissionPolicy::RejectNew,
        ..SimConfig::default()
    };
    // Open-system central queues reserve one of their k slots for transit,
    // so at k = 1 nothing is ever admitted.
    let sim = Sim::with_config(&topo, Dx::new(DimOrder::new(1)), &pb, config);
    sim.assert_queue_invariants();
    let snap = sim.snapshot();
    assert_eq!((snap.step, snap.grid.active.len()), (0, 1));
    let restored = Sim::restore(&topo, Dx::new(DimOrder::new(1)), config, None, &snap);
    assert_eq!(restored.map(|s| s.shed()), Ok(1));
}

/// A side past 65,535 has no `u32` node index and no 16-bit coordinate:
/// no run could have written it, so restore calls it corrupt before it
/// computes `n²`, even under a topology of that side.
#[test]
fn oversized_side_is_corrupt() {
    let mut snap = mid_run_snapshot(&Mesh::new(8), Dx::new(DimOrder::new(2)));
    snap.n = 1 << 16;
    let big = Mesh::new(snap.n);
    let restored = Sim::restore(
        &big,
        Dx::new(DimOrder::new(2)),
        SimConfig::default(),
        None,
        &snap,
    );
    match restored.map(|_| ()) {
        Err(SnapshotError::Corrupt(m)) if m.contains("exceeds") => {}
        other => panic!("{other:?}"),
    }
}

/// Restoring under the wrong environment — different topology side,
/// different algorithm, wrong fault plan — is a
/// [`SnapshotError::Mismatch`] naming the disagreement.
#[test]
fn environment_mismatches_are_rejected() {
    let snap = mid_run_snapshot(&Mesh::new(8), Dx::new(Theorem15::new(2)));

    let bigger = Mesh::new(9);
    assert!(matches!(
        Sim::restore(
            &bigger,
            Dx::new(Theorem15::new(2)),
            SimConfig::default(),
            None,
            &snap
        ),
        Err(SnapshotError::Mismatch(_))
    ));

    let topo = Mesh::new(8);
    assert!(matches!(
        Sim::restore(
            &topo,
            Dx::new(Theorem15::new(3)),
            SimConfig::default(),
            None,
            &snap
        ),
        Err(SnapshotError::Mismatch(_))
    ));

    // The snapshot was taken fault-free; a live fault plan must be refused.
    let faults = FaultPlan::random_outages(8, 0.2, 64, 7).compile();
    if !faults.is_empty() {
        assert!(matches!(
            Sim::restore(
                &topo,
                Dx::new(Theorem15::new(2)),
                SimConfig::default(),
                Some(faults),
                &snap
            ),
            Err(SnapshotError::Mismatch(_))
        ));
    }
}

/// The directory sink: periodic `ckpt_<step>.json` files written
/// atomically, a `diag_<step>.json` post-mortem beside them when the run
/// fails, and a round-trip through the on-disk file resumes the run.
#[test]
fn directory_sink_persists_checkpoints_and_failure_diagnostics() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_sink_test");
    let _ = std::fs::remove_dir_all(&dir);
    let n = 8;
    let topo = Mesh::new(n);
    let pb = RoutingProblem::from_pairs(n, "far", [(Coord::new(0, 0), Coord::new(7, 7))]);
    let config = SimConfig {
        checkpoint_every: Some(4),
        ..SimConfig::default()
    };
    let mut sim = Sim::with_config(&topo, Dx::new(Theorem15::new(2)), &pb, config);
    let mut sink = DirectorySink::new(&dir).unwrap();
    // Cap the run well short of the 14 steps the packet needs: the run
    // fails with StepCap and the sink must write the post-mortem.
    let err = sim.run_checkpointed(8, &mut sink).unwrap_err();
    assert_eq!(err.kind(), "step-cap");
    assert!(sink.error.is_none(), "{:?}", sink.error);
    assert!(dir.join("ckpt_4.json").is_file());
    assert!(dir.join("ckpt_8.json").is_file());
    let diag = std::fs::read_to_string(dir.join("diag_8.json")).expect("failure post-mortem");
    assert_eq!(
        diag,
        serde_json::to_string_pretty(err.snapshot()).unwrap() + "\n"
    );
    assert!(!dir.join("diag_8.json.tmp").exists(), "renamed into place");
    assert_eq!(
        sink.last_checkpoint().unwrap(),
        dir.join("ckpt_8.json").as_path()
    );

    // Resume from the on-disk checkpoint and finish the journey.
    let snap = Snapshot::read_from(&dir.join("ckpt_8.json")).unwrap();
    let mut resumed = Sim::restore(
        &topo,
        Dx::new(Theorem15::new(2)),
        SimConfig::default(),
        None,
        &snap,
    )
    .unwrap();
    let steps = resumed.run(1_000).unwrap();
    assert_eq!(steps, 14, "L1 distance of (0,0)→(7,7)");
    assert!(resumed.done());

    // The uninterrupted reference agrees byte-for-byte.
    let mut reference = Sim::new(&topo, Dx::new(Theorem15::new(2)), &pb);
    reference.run(1_000).unwrap();
    assert_eq!(
        serde_json::to_string(&resumed.report()).unwrap(),
        serde_json::to_string(&reference.report()).unwrap()
    );
}

/// One checkpoint of each kind of state a snapshot carries opaquely: null
/// and round-robin node states, the steady measurement state of two
/// admission policies (float frames mid-window), and ARQ transport state
/// over lossy links.
fn recorded_checkpoints() -> Vec<(&'static str, Snapshot)> {
    vec![
        ("theorem15-k2", twelve_steps_in(Dx::new(Theorem15::new(2)))),
        ("dimorder-k2", twelve_steps_in(Dx::new(DimOrder::new(2)))),
        (
            "steady-deadline",
            steady_checkpoint(AdmissionPolicy::DeadlineExpiry { ttl: 24 }, 40),
        ),
        (
            "steady-drop-oldest",
            steady_checkpoint(AdmissionPolicy::DropOldestDeferred { max_deferred: 2 }, 60),
        ),
        ("transport-lossy", transport_checkpoint()),
    ]
}

/// A 16x16 permutation under `router`, twelve steps in.
fn twelve_steps_in<R: Router>(router: R) -> Snapshot
where
    R::NodeState: Serialize,
{
    let topo = Mesh::new(16);
    let pb = workloads::random_permutation(16, 3);
    let mut sim = Sim::new(&topo, router, &pb);
    for _ in 0..12 {
        sim.step();
    }
    sim.snapshot()
}

/// An overloaded 8x8 soak under `admission`, checkpointed every 20 steps:
/// the checkpoint at `step`. Step 40 lies inside the second window, with
/// one frame closed.
fn steady_checkpoint(admission: AdmissionPolicy, step: u64) -> Snapshot {
    let n = 8;
    let topo = Mesh::new(n);
    let schedule = SteadyConfig {
        warmup: 16,
        window: 16,
        windows: 4,
    };
    let pb = workloads::open_bernoulli(n, 0.4, schedule.horizon(), 17);
    let config = SimConfig {
        admission,
        checkpoint_every: Some(20),
        ..SimConfig::default()
    };
    let mut sim = Sim::with_config(&topo, Dx::new(DimOrder::new(2)), &pb, config);
    let mut sink = MemorySink::default();
    sim.run_steady_checkpointed(schedule, 0.4, None, &mut sink, None)
        .expect("the soak runs its schedule");
    let snap = sink.checkpoints.into_iter().find(|s| s.step == step);
    snap.expect("a checkpoint at the requested step")
}

/// A reliable-transport run through transient lossy outages on 8x8,
/// checkpointed every 8 steps: its second checkpoint.
fn transport_checkpoint() -> Snapshot {
    let n = 8;
    let topo = Mesh::new(n);
    let pb = workloads::random_permutation(n, 5);
    let faults = FaultPlan::random_outages(n, 0.12, 6 * n as u64, 21).compile();
    assert!(faults.has_losses());
    let config = SimConfig {
        watchdog: Some(512),
        checkpoint_every: Some(8),
        ..SimConfig::default()
    };
    let router = FaultAware::new(Dx::new(Theorem15::new(2)));
    let mut sim = Sim::with_faults(&topo, router, &pb, config, faults);
    let mut tp = Transport::new(&pb, BackoffPolicy::exponential(16, 128, 8), 5);
    let mut sink = MemorySink::default();
    sim.run_with_protocol_checkpointed(20_000, &mut tp, &mut sink)
        .expect("the transport delivers everything");
    sink.checkpoints.swap_remove(1)
}

/// Checkpoint bytes are recorded: each case of [`recorded_checkpoints`]
/// files the length and digest of its `to_json` text
/// (`tests/fixtures/checkpoint_equivalence.txt`), the text reads back to
/// itself, and the file a [`DirectorySink`] streams to disk holds exactly
/// that text (four of the five cross the writer's 64 KiB buffer).
#[test]
fn checkpoint_bytes_match_recording() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_bytes");
    let _ = std::fs::remove_dir_all(&dir);
    let mut sink = DirectorySink::new(&dir).unwrap();
    let cases = recorded_checkpoints();
    for (name, snap) in &cases {
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            back.to_json() == text,
            "{name} does not read back to itself"
        );
        sink.on_checkpoint(snap);
        assert!(sink.error.is_none(), "{name}: {:?}", sink.error);
        let file = std::fs::read(sink.last_checkpoint().unwrap()).unwrap();
        assert!(file == text.as_bytes(), "{name}: the file is not to_json");
        let entry = Entry::new(name)
            .with("step", snap.step)
            .with("bytes", text.len())
            .with("json", Digest::of(&text).hex());
        record::check(cases.len(), entry).unwrap_or_else(|e| panic!("{e}"));
    }
}
