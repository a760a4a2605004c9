//! Recorded battery for the policy surface: every shipped router, bare and
//! under `FaultAware`, must reproduce the run recorded for each case in
//! `tests/fixtures/golden_policy_cases.json`, step for step.
//!
//! The fixture was recorded (commit `156c40a`) while a second sim still
//! ran every case in lockstep on the router's former *view* policies — one
//! struct per packet, plus the UpdateState pass the packed routers skip —
//! so each entry is a run the two forms agreed on; unlike that lockstep,
//! whose sims shared one engine, the recording also catches engine changes.
//! A case folds what its sim showed (per step the done flag, delivery and
//! loss streams and packet configuration; then the verdict, report and
//! diagnostics) into an FNV-1a digest, filed under a digest of its inputs.
//! The proptest stub seeds each case from the test's name and index, so the
//! cases are the same everywhere: a case the fixture lacks, or a changed
//! case count, fails as "unrecorded case".
//!
//! Axes: all seven routers, bare and under `FaultAware` with a non-empty
//! fault table, × static and dynamic workloads × every admission policy ×
//! random fault plans (stalls, link faults, queue degradation — exercising
//! the engine-side acceptance clamp). Re-record only for an intended
//! change, since nothing checks a new entry:
//! `GOLDEN_RECORD=1 cargo test --release -p mesh-routing --test packed_equivalence`.

mod support;

use mesh_routing::engine::Loc;
use mesh_routing::prelude::*;
use mesh_routing::routers::{alt_adaptive, dim_order, hot_potato, theorem15, BoundedDeflect};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use support::{partial_permutation, workload};

/// 64-bit FNV-1a: the digest of a case's inputs and of its observed run.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn json(&mut self, value: &impl Serialize) {
        self.bytes(serde_json::to_string(value).expect("serialize").as_bytes());
    }
}

/// Folds the whole packet configuration — location, destination and state
/// word per packet — into `d`.
fn observe_packets<T: Topology, R: Router>(d: &mut Fnv, sim: &Sim<'_, T, R>) {
    for (loc, dst, state) in sim.packet_snapshot() {
        let (tag, at) = match loc {
            Loc::At(at) => (0, at),
            Loc::Pending => (1, dst),
            Loc::Delivered => (2, dst),
            Loc::Lost => (3, dst),
            Loc::Shed => (4, dst),
            Loc::Expired => (5, dst),
        };
        for w in [tag, at.x, at.y, dst.x, dst.y] {
            d.word(w as u64);
        }
        d.word(state);
    }
}

/// Steps `sim` until it is done or `max_steps` have run, folding each
/// step's done flag, delivery and loss streams and packet configuration
/// into `d`, then the report and diagnostics; returns the step and delivery
/// counts.
fn observe_steps<T: Topology, R: Router>(
    sim: &mut Sim<'_, T, R>,
    max_steps: u64,
    d: &mut Fnv,
) -> (u64, usize) {
    for _ in 0..max_steps {
        let done = sim.step();
        d.word(done as u64);
        for ids in [sim.last_step_deliveries(), sim.last_step_losses()] {
            d.word(ids.len() as u64);
            ids.iter().for_each(|p| d.word(p.0 as u64));
        }
        observe_packets(d, sim);
        if done {
            break;
        }
    }
    d.json(&sim.report());
    d.json(&sim.diagnostics());
    (sim.steps(), sim.delivered())
}

/// Runs `sim` to its verdict (completion, a watchdog trip, or the step
/// cap) and folds the whole outcome into `d`: the step count or the error
/// kind and its diagnostic snapshot, the packet configuration, the report
/// and the diagnostics; returns the step and delivery counts.
fn observe_verdict<T: Topology, R: Router>(sim: &mut Sim<'_, T, R>, d: &mut Fnv) -> (u64, usize) {
    match sim.run(20_000) {
        Ok(steps) => d.word(steps),
        Err(e) => {
            d.bytes(e.kind().as_bytes());
            d.json(e.snapshot());
        }
    }
    observe_packets(d, sim);
    d.json(&sim.report());
    d.json(&sim.diagnostics());
    (sim.steps(), sim.delivered())
}

/// What one case observed, filed under the digest of its inputs: its run's
/// digest, plus the step and delivery counts in clear text to read a
/// mismatch by.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Entry {
    input: String,
    steps: u64,
    delivered: usize,
    run: String,
}

/// One test's recorded cases: how many it runs, and what each observed.
#[derive(Serialize, Deserialize)]
struct Property {
    name: String,
    cases: u32,
    entries: Vec<Entry>,
}

#[derive(Serialize, Deserialize, Default)]
struct Fixture {
    properties: Vec<Property>,
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_policy_cases.json")
}

fn read_fixture() -> Option<Fixture> {
    let text = std::fs::read_to_string(fixture_path()).ok()?;
    Some(serde_json::from_str(&text).expect("parse golden_policy_cases.json"))
}

/// Every case this process has run, by test name. A test runs its cases in
/// order on one thread, so its entries here are in case order.
static SEEN: Mutex<Vec<(&str, Entry)>> = Mutex::new(Vec::new());

/// Files `entry` as the next of `property`'s `cases` cases. Under
/// `GOLDEN_RECORD` the property's section is written once its last case is
/// in. Otherwise the fixture must hold exactly `cases` cases for
/// `property`, and the one at this case's position must have the same
/// input digest and the same run: a renamed test, a new case count or an
/// edited strategy cannot silently weaken the battery.
fn check_case(property: &'static str, cases: u32, entry: Entry) -> Result<(), TestCaseError> {
    let mut seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
    seen.push((property, entry.clone()));
    let mine: Vec<&Entry> = seen
        .iter()
        .filter(|(p, _)| *p == property)
        .map(|(_, e)| e)
        .collect();
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        if mine.len() == cases as usize {
            let mut fixture = read_fixture().unwrap_or_default();
            fixture.properties.retain(|p| p.name != property);
            let entries = mine.into_iter().cloned().collect();
            let name = property.into();
            fixture.properties.push(Property {
                name,
                cases,
                entries,
            });
            fixture.properties.sort_by(|a, b| a.name.cmp(&b.name));
            let text = serde_json::to_string_pretty(&fixture).expect("serialize fixture") + "\n";
            std::fs::write(fixture_path(), text).expect("write fixture");
        }
        return Ok(());
    }
    static RECORDED: OnceLock<Option<Fixture>> = OnceLock::new();
    let recorded = RECORDED.get_or_init(read_fixture).as_ref();
    let unrecorded = |why| TestCaseError::Fail(format!("unrecorded case: {property} {why}"));
    let rec = recorded
        .and_then(|f| f.properties.iter().find(|p| p.name == property))
        .filter(|p| p.cases == cases && p.entries.len() == cases as usize)
        .ok_or_else(|| unrecorded(format!("is not recorded with {cases} cases")))?;
    let want = &rec.entries[mine.len() - 1];
    if want.input != entry.input {
        return Err(unrecorded(format!(
            "drew {entry:?} where the fixture holds {want:?}"
        )));
    }
    prop_assert!(
        *want == entry,
        "{}: case {} diverged from its recorded run\n  recorded: {:?}\n  now:      {:?}",
        property,
        entry.input,
        want,
        entry
    );
    Ok(())
}

/// How a case drives its router.
enum Shape<'a> {
    /// Property 1: fault-free, stepped up to 3,000 steps.
    FaultFree(SimConfig),
    /// Property 2: a fault plan with the watchdog armed, run to its verdict.
    UnderFaults(SimConfig, &'a CompiledFaults),
    /// Property 3: behind `FaultAware` over the table the engine enforces,
    /// watchdog armed: stepped up to 1,000 steps, and a run still live after
    /// that is driven to its verdict.
    Wrapped(&'a Arc<CompiledFaults>),
}

/// One case of `property`, which runs `cases` of them: a problem, how its
/// router is driven, and `params`, every other drawn input. The problem's
/// packets and `params` name the case in the fixture.
struct Case<'a, P> {
    property: &'static str,
    cases: u32,
    pb: &'a RoutingProblem,
    shape: Shape<'a>,
    params: P,
}

impl<P: std::fmt::Debug> Case<'_, P> {
    /// Runs `router` through the case and files what it observed.
    fn check<R: Router>(&self, router: R) -> Result<(), TestCaseError> {
        let (pb, topo, mut d) = (self.pb, Mesh::new(self.pb.n), Fnv::new());
        let (steps, delivered) = match self.shape {
            Shape::FaultFree(config) => {
                let sim = &mut Sim::with_config(&topo, router, pb, config);
                observe_steps(sim, 3_000, &mut d)
            }
            Shape::UnderFaults(config, faults) => {
                let sim = &mut Sim::with_faults(&topo, router, pb, config, faults.clone());
                observe_verdict(sim, &mut d)
            }
            Shape::Wrapped(faults) => {
                let config = SimConfig {
                    watchdog: Some(8 * pb.n as u64),
                    ..SimConfig::default()
                };
                let router = FaultAware::new(router, Arc::clone(faults));
                let sim = &mut Sim::with_faults(&topo, router, pb, config, faults.as_ref().clone());
                let stepped = observe_steps(sim, 1_000, &mut d);
                if sim.done() {
                    stepped
                } else {
                    observe_verdict(sim, &mut d)
                }
            }
        };
        let mut key = Fnv::new();
        key.word(pb.n as u64);
        key.json(&pb.packets);
        key.bytes(format!("{:?}", self.params).as_bytes());
        let (input, run) = (format!("{:016x}", key.0), format!("{:016x}", d.0));
        let entry = Entry {
            input,
            steps,
            delivered,
            run,
        };
        check_case(self.property, self.cases, entry)
    }

    /// The router axis: checks router number `which` of the seven, sized
    /// for the case's grid with queue bound `k`. A new router takes the next
    /// number and a re-recorded fixture.
    fn check_router(&self, which: usize, k: u32) -> Result<(), TestCaseError> {
        match which {
            0 => self.check(dim_order(k)),
            1 => self.check(Dx::new(WestFirst::new(k))),
            2 => self.check(alt_adaptive(k)),
            3 => self.check(Dx::new(BoundedDeflect::new(self.pb.n, k, 1))),
            4 => self.check(FarthestFirst::new(k)),
            5 => self.check(theorem15(k)),
            _ => self.check(hot_potato(self.pb.n)),
        }
    }
}

/// Routers `0..CONSERVATIVE` accept only into strict headroom, so they
/// survive an arbitrary fault plan unwrapped. Theorem 15's always-accept
/// vertical queues and hot-potato's always-accept buffers rely on
/// guaranteed ejection, which a link fault breaks — the queue overflows and
/// the capacity audit panics. Guarding that is `FaultAware`'s job; the
/// wrapped combination is property 3.
const CONSERVATIVE: usize = 5;
const ROUTERS: usize = 7;

/// Cases per property; the fixture records the same count.
const CASES: u32 = 64;

/// All four admission policies, parameters included.
fn admission() -> impl Strategy<Value = AdmissionPolicy> {
    (0u32..4, 0u32..4, 1u64..64).prop_map(|(which, max_deferred, ttl)| match which {
        0 => AdmissionPolicy::DeferIndefinitely,
        1 => AdmissionPolicy::RejectNew,
        2 => AdmissionPolicy::DropOldestDeferred { max_deferred },
        _ => AdmissionPolicy::DeadlineExpiry { ttl },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Property 1: every router reproduces its recorded runs, for
    /// arbitrary workloads and admission policies.
    #[test]
    fn packed_path_is_bit_identical_fault_free(
        pb in workload(16),
        adm in admission(),
        k in 1u32..4,
        router in 0usize..ROUTERS,
    ) {
        prop_assume!(!pb.is_empty());
        let config = SimConfig {
            admission: adm,
            ..SimConfig::default()
        };
        let property = "packed_path_is_bit_identical_fault_free";
        let shape = Shape::FaultFree(config);
        Case { property, cases: CASES, pb: &pb, shape, params: (router, k, adm) }.check_router(router, k)?;
    }

    /// Property 2: arbitrary fault plans with the watchdog armed. The
    /// routers here are *unwrapped* (no FaultAware), so the engine's own
    /// fault machinery carries the whole burden: stalled-node gates and the
    /// engine-side degradation clamp.
    #[test]
    fn packed_path_is_bit_identical_under_faults(
        pb in partial_permutation(12),
        adm in admission(),
        k in 1u32..4,
        rate_permille in 0u64..=200,
        fault_seed in 0u64..10_000,
        router in 0usize..CONSERVATIVE,
    ) {
        prop_assume!(!pb.is_empty());
        let n = 12u32;
        let rate = rate_permille as f64 / 1000.0;
        let faults = FaultPlan::random(n, rate, 6 * n as u64, fault_seed).compile();
        let config = SimConfig {
            watchdog: Some(8 * n as u64),
            admission: adm,
            ..SimConfig::default()
        };
        let property = "packed_path_is_bit_identical_under_faults";
        let (shape, params) = (Shape::UnderFaults(config, &faults), (router, k, adm, rate_permille, fault_seed));
        Case { property, cases: CASES, pb: &pb, shape, params }.check_router(router, k)?;
    }

    /// Property 3: `FaultAware` masks the packed descriptors in place
    /// (residents at the holding node, arrivals at their sender) and guards
    /// capacity off `queue_lens`; every router wrapped that way reproduces
    /// its recorded runs down to the watchdog's verdict. Rate 0 compiles to
    /// an empty table, the pass-through branch.
    #[test]
    fn fault_aware_wrapper_forwards_packed_path_soundly(
        pb in partial_permutation(12),
        k in 1u32..4,
        rate_permille in 0u64..=150,
        fault_seed in 0u64..10_000,
        router in 0usize..ROUTERS,
    ) {
        prop_assume!(!pb.is_empty());
        let n = 12u32;
        let rate = rate_permille as f64 / 1000.0;
        let faults = Arc::new(FaultPlan::random(n, rate, 6 * n as u64, fault_seed).compile());
        let property = "fault_aware_wrapper_forwards_packed_path_soundly";
        let (shape, params) = (Shape::Wrapped(&faults), (router, k, rate_permille, fault_seed));
        Case { property, cases: CASES, pb: &pb, shape, params }.check_router(router, k)?;
    }
}

/// The empty-table pass-through every unfaulted `FaultAware` run takes,
/// pinned explicitly for all seven routers (property 3 only reaches it when
/// it happens to draw rate 0).
#[test]
fn fault_aware_empty_table_is_a_pass_through_for_every_router() {
    let n = 12u32;
    let pb = workloads::random_permutation(n, 5);
    let faults = Arc::new(FaultPlan::none(n).compile());
    assert!(faults.is_empty());
    for router in 0..ROUTERS {
        let case = Case {
            property: "fault_aware_empty_table_is_a_pass_through_for_every_router",
            cases: ROUTERS as u32,
            pb: &pb,
            shape: Shape::Wrapped(&faults),
            params: router,
        };
        case.check_router(router, 2)
            .unwrap_or_else(|e| panic!("router {router}: {e:?}"));
    }
}
