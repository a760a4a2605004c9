//! Golden-run battery: the engine's observable behavior is frozen across
//! refactors.
//!
//! Scenarios on a 16×16 mesh — a partial permutation and a transpose under
//! Theorem 15, the same two under hot-potato, alt-adaptive, farthest-first
//! and bounded-deflect, two faulty runs, one reliable-transport run and one
//! overloaded steady-state soak — plus a dense 64×64 permutation. Each run
//! goes through the recording harness (`tests/support/record.rs`): its
//! outcome, step and delivery counts, the digest of its whole step stream
//! and one digest per 64-step block are filed under the scenario's name in
//! `tests/fixtures/golden_run.txt`. A refactor that perturbs scheduling
//! order, fault enforcement, acceptance or protocol timing fails, naming the
//! scenario and its first diverging block.
//!
//! Each scenario is also replayed once under a non-default value of
//! `SimConfig`'s three inert fields and must produce the same entry: every
//! configuration runs the one step loop, with its checks always on.
//!
//! Re-record only when a behavior change is *intended*:
//! `GOLDEN_RECORD=1 cargo test --release -p mesh-routing --test golden_run`.

#[path = "support/record.rs"]
mod record;

use mesh_routing::prelude::*;
use mesh_routing::routers::{alt_adaptive, hot_potato, BoundedDeflect};
use record::{Digest, Entry, Fold};

/// A non-default value of `SimConfig`'s three inert fields. The repo
/// benchmark's `perm-tiled == perm-packed` cross-check relies on such a
/// config changing nothing; this is the one place the repo pins that.
fn inert_fields_config() -> SimConfig {
    SimConfig {
        validate: false,
        tile_threads: 8,
        tiles: Some((4, 4)),
        ..SimConfig::default()
    }
}

/// Builds a scenario under the default config and under
/// [`inert_fields_config`], requires the same entry from both, and checks it
/// as the next of the running test's `cases` cases.
fn check(cases: usize, build: impl Fn(SimConfig) -> Entry) {
    let entry = build(SimConfig::default());
    let replay = build(inert_fields_config());
    assert_eq!(replay, entry, "diverged under the inert config fields");
    record::check(cases, entry).unwrap_or_else(|e| panic!("{e}"));
}

/// Steps `sim` up to `cap` steps through the fold: the entry of `scenario`.
fn stepped<T: Topology, R: Router>(scenario: &str, sim: &mut Sim<'_, T, R>, cap: u64) -> Entry {
    let mut fold = Fold::new();
    fold.steps(sim, cap);
    fold.entry(scenario, sim)
}

/// An overloaded open-system soak on 16×16: Bernoulli injection past the
/// saturation point under deadline expiry, measured in four windows. The
/// digest of its [`SteadyReport`] and [`SimReport`] pins the whole overload
/// layer — admission accounting, window framing, latency percentiles.
/// Dim-order's bounded central queue makes the injection edge back-pressure
/// (Theorem 15's per-inlink model has an unbounded injection queue, which
/// admission control never touches).
#[test]
fn golden_steady16() {
    let schedule = SteadyConfig {
        warmup: 64,
        window: 64,
        windows: 4,
    };
    check(1, |config| {
        let n = 16;
        let topo = Mesh::new(n);
        let pb = workloads::open_bernoulli(n, 0.35, schedule.horizon(), 2024);
        let config = SimConfig {
            admission: AdmissionPolicy::DeadlineExpiry { ttl: 48 },
            watchdog: Some(256),
            ..config
        };
        let mut sim = Sim::with_config(&topo, Dx::new(DimOrder::new(4)), &pb, config);
        let steady = sim
            .run_steady(schedule)
            .expect("an overloaded-but-shedding soak must stay live");
        let report = sim.report();
        assert!(report.expired > 0, "0.35 > saturation must expire");
        let mut run = Digest::new();
        run.json(&steady);
        run.json(&report);
        Entry::new("steady16")
            .with("steps", report.steps)
            .with("delivered", report.delivered)
            .with("run", run.hex())
    });
}

/// Theorem 15 (k = 2) on `pb`, stepped up to `cap` steps: `scenario`.
fn check_theorem15(scenario: &str, pb: RoutingProblem, cap: u64) {
    check(1, |config| {
        let topo = Mesh::new(pb.n);
        let sim = &mut Sim::with_config(&topo, Dx::new(Theorem15::new(2)), &pb, config);
        stepped(scenario, sim, cap)
    });
}

#[test]
fn golden_partial_permutation() {
    let pb = workloads::random_partial_permutation(16, 0.5, 2024);
    check_theorem15("partial_perm", pb, 5_000);
}

#[test]
fn golden_transpose() {
    check_theorem15("transpose", workloads::transpose(16), 5_000);
}

/// A dense workload on a larger mesh: a full random permutation on 64×64.
#[test]
fn golden_dense64() {
    check_theorem15("dense64", workloads::random_permutation(64, 2024), 20_000);
}

/// A faulty scenario mirrors a chaos-soak cell: seeded random faults, a
/// fault-aware router, manual stepping so the step stream (not just the
/// verdict) is part of the frozen record.
fn check_faulty<R: Router>(scenario: &str, inner: impl Fn() -> R) {
    check(1, |config| {
        let n = 16;
        let topo = Mesh::new(n);
        let pb = workloads::random_partial_permutation(n, 0.5, 2024);
        let faults = FaultPlan::random(n, 0.15, 8 * n as u64, 4045).compile();
        let config = SimConfig {
            watchdog: Some(8 * n as u64),
            ..config
        };
        let sim = &mut Sim::with_faults(&topo, FaultAware::new(inner()), &pb, config, faults);
        stepped(scenario, sim, 5_000)
    });
}

#[test]
fn golden_faulty() {
    check_faulty("faulty", || Dx::new(DimOrder::new(4)));
}

/// The same fault plan under a router whose policies read packet state: the
/// wrapper's masking reaches the outqueue, inqueue *and* end-of-step
/// policies, and its capacity guard runs on a non-empty table.
#[test]
fn golden_faulty_alt_adaptive() {
    check_faulty("faulty_alt_adaptive", || alt_adaptive(4));
}

/// The routers beyond dim-order/Theorem 15, each frozen on the two n = 16
/// workloads the first scenarios use: a random partial permutation and the
/// transpose. Their policies read packet state words, sources, ids and (for
/// farthest-first) destinations, so these records pin every tie-break a
/// policy rewrite could perturb. Bounded central queues may wedge a run;
/// the step budget then records it as `capped`, which is just as frozen.
fn check_router_on_both_workloads<R: Router>(name: &str, mk: impl Fn() -> R) {
    let workloads = [
        (
            "partial_perm",
            workloads::random_partial_permutation(16, 0.5, 2024),
        ),
        ("transpose", workloads::transpose(16)),
    ];
    for (workload, pb) in &workloads {
        check(workloads.len(), |config| {
            let topo = Mesh::new(16);
            let sim = &mut Sim::with_config(&topo, mk(), pb, config);
            stepped(&format!("{name}_{workload}"), sim, 5_000)
        });
    }
}

#[test]
fn golden_hot_potato() {
    check_router_on_both_workloads("hot_potato", || hot_potato(16));
}

#[test]
fn golden_alt_adaptive() {
    check_router_on_both_workloads("alt_adaptive", || alt_adaptive(2));
}

#[test]
fn golden_farthest_first() {
    check_router_on_both_workloads("farthest_first", || FarthestFirst::new(2));
}

#[test]
fn golden_bounded_deflect() {
    check_router_on_both_workloads("bounded_deflect", || Dx::new(BoundedDeflect::new(16, 2, 1)));
}

/// A [`ProtocolHook`] adapter folding each step before forwarding its
/// events to the real transport.
struct Recording<P> {
    inner: P,
    fold: Fold,
}

impl<P: ProtocolHook> ProtocolHook for Recording<P> {
    fn on_step<T: Topology, R: Router>(
        &mut self,
        sim: &mut Sim<'_, T, R>,
        events: &StepEvents,
    ) -> ProtocolControl {
        self.fold
            .step(sim, sim.done(), &events.delivered, &events.lost);
        self.inner.on_step(sim, events)
    }
}

/// The reliable scenario mirrors a `reliable`-experiment cell: dynamic
/// injection under lossy outages, ACK + retransmission recovering every
/// payload, driven through `run_with_protocol`.
#[test]
fn golden_reliable() {
    check(1, |config| {
        let n = 16;
        let topo = Mesh::new(n);
        let pb = workloads::dynamic_bernoulli(n, 0.02, 4 * n as u64, 2024);
        let faults = FaultPlan::random_outages(n, 0.12, 8 * n as u64, 40).compile();
        let config = SimConfig {
            watchdog: Some(1024),
            ..config
        };
        let router = FaultAware::new(Dx::new(Theorem15::new(2)));
        let mut sim = Sim::with_faults(&topo, router, &pb, config, faults);
        let inner = Transport::new(&pb, BackoffPolicy::exponential(64, 512, 16), 7);
        let mut recorder = Recording {
            inner,
            fold: Fold::new(),
        };
        let verdict = sim.run_with_protocol(200_000, &mut recorder);
        recorder.fold.verdict(verdict, &sim);
        recorder.fold.entry("reliable", &sim)
    });
}
