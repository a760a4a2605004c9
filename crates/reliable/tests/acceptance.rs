//! The headline acceptance scenario: an `n = 16` mesh under a seeded plan of
//! transient link outages (lossy windows plus short cable cuts, no permanent
//! partition). Raw dynamic injection demonstrably loses packets — the run can
//! never complete and the watchdog flags it — while the reliable transport
//! layered over the *same* problem, plan, and router delivers every payload
//! exactly once, verified by payload-id accounting.

use mesh_engine::faults::FaultPlan;
use mesh_engine::{Dx, Sim, SimConfig, SimError};
use mesh_reliable::{BackoffPolicy, Transport};
use mesh_routers::{FaultAware, Theorem15};
use mesh_topo::Mesh;
use mesh_traffic::{workloads, PayloadId};

const N: u32 = 16;
const FAULT_SEED: u64 = 40;
const DENSITY: f64 = 0.12;
const HORIZON: u64 = 8 * N as u64;

fn config() -> SimConfig {
    SimConfig {
        // Must exceed the backoff policy's longest quiet wait, or lawful
        // timer gaps would read as starvation.
        watchdog: Some(512),
        ..SimConfig::default()
    }
}

#[test]
fn raw_injection_loses_packets_and_reliable_delivers_exactly_once() {
    let topo = Mesh::new(N);
    let pb = workloads::dynamic_bernoulli(N, 0.02, 64, 2024);
    let plan = FaultPlan::random_outages(N, DENSITY, HORIZON, FAULT_SEED);
    plan.validate().expect("generated plans are always valid");
    assert!(
        !plan.losses.is_empty(),
        "scenario needs lossy links; bump the density or reseed"
    );
    let faults = plan.compile();

    // ---- Raw dynamic injection over the faulty mesh. ----
    let mut raw = Sim::with_faults(
        &topo,
        FaultAware::new(Dx::new(Theorem15::new(2))),
        &pb,
        config(),
        faults.clone(),
    );
    let raw_err = raw
        .run(200_000)
        .expect_err("losses make completion impossible");
    assert!(raw.lost() > 0, "the plan must actually destroy packets");
    assert_eq!(
        raw.delivered() + raw.lost(),
        pb.len(),
        "every undelivered packet is accounted to a lossy link"
    );
    assert!(
        matches!(raw_err, SimError::Deadlock(_) | SimError::Livelock(_)),
        "the watchdog flags the wedge rather than spinning to the cap: {raw_err}"
    );
    assert_eq!(raw_err.snapshot().lost, raw.lost());

    // ---- The reliable transport over the same problem, plan, and router. ----
    let mut sim = Sim::with_faults(
        &topo,
        FaultAware::new(Dx::new(Theorem15::new(2))),
        &pb,
        config(),
        faults,
    );
    let mut tp = Transport::new(&pb, BackoffPolicy::exponential(32, 256, 16), 7);
    let steps = sim
        .run_with_protocol(200_000, &mut tp)
        .expect("the transport recovers every loss");
    let rep = tp.report(steps);

    // Payload-id accounting: every payload delivered exactly once.
    assert!(rep.exactly_once, "{rep:?}");
    assert_eq!(rep.delivered, pb.len());
    assert_eq!(rep.acked, pb.len());
    for i in 0..pb.len() {
        assert!(
            tp.first_delivery(PayloadId(i as u32)).is_some(),
            "payload y{i} missing"
        );
    }
    // The reliability was earned, not vacuous: packets really were destroyed
    // and really were retransmitted.
    assert!(rep.data_lost + rep.acks_lost > 0, "{rep:?}");
    assert!(rep.retransmits > 0, "{rep:?}");
    assert!(
        sim.steps() > HORIZON,
        "recovery outlives the fault horizon: {} steps",
        sim.steps()
    );
    assert!(rep.goodput > 0.0);
}
