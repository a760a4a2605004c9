//! Recorded battery for the policy surface: every shipped router, bare and
//! under `FaultAware`, must reproduce the run recorded for each case in
//! `tests/fixtures/packed_equivalence.txt`, step for step.
//!
//! The runs were recorded (commit `156c40a`) while a second sim still ran
//! every case in lockstep on the router's former *view* policies — one
//! struct per packet, plus the UpdateState pass the packed routers skip —
//! so each entry is a run the two forms agreed on; unlike that lockstep,
//! whose sims shared one engine, the recording also catches engine changes.
//! A case folds what its sim showed through the recording harness's step
//! fold (`tests/support/record.rs`) and files it under a digest of its
//! inputs. The proptest stub seeds each case from the test's name and
//! index, so the cases are the same everywhere: a case the fixture lacks, or
//! a changed case count, fails as "unrecorded case".
//!
//! Axes: all seven routers, bare and under `FaultAware` with a non-empty
//! fault table, × static and dynamic workloads × every admission policy ×
//! random fault plans (stalls, link faults, queue degradation — exercising
//! the engine-side acceptance clamp). Re-record only for an intended
//! change, since nothing checks a new entry:
//! `GOLDEN_RECORD=1 cargo test --release -p mesh-routing --test packed_equivalence`.

#[path = "support/record.rs"]
mod record;
mod support;

use mesh_routing::prelude::*;
use mesh_routing::routers::{alt_adaptive, dim_order, hot_potato, theorem15, BoundedDeflect};
use proptest::prelude::*;
use record::{Digest, Fold};
use support::{partial_permutation, workload};

/// How a case drives its router.
enum Shape<'a> {
    /// Property 1: fault-free, stepped up to 3,000 steps.
    FaultFree(SimConfig),
    /// Property 2: a fault plan with the watchdog armed, run to its verdict.
    UnderFaults(SimConfig, &'a CompiledFaults),
    /// Property 3: behind `FaultAware` over the table the engine enforces,
    /// watchdog armed: stepped up to 1,000 steps, and a run still live after
    /// that is driven to its verdict.
    Wrapped(&'a CompiledFaults),
}

/// One case of a test that runs `cases` of them: a problem, how its router
/// is driven, and `params`, every other drawn input. The problem's packets
/// and `params` name the case in the fixture.
struct Case<'a, P> {
    cases: u32,
    pb: &'a RoutingProblem,
    shape: Shape<'a>,
    params: P,
}

impl<P: std::fmt::Debug> Case<'_, P> {
    /// Runs `router` through the case and files what it observed.
    fn check<R: Router>(&self, router: R) -> Result<(), TestCaseError> {
        let (pb, topo, mut fold) = (self.pb, Mesh::new(self.pb.n), Fold::new());
        let mut key = Digest::new();
        key.word(pb.n as u64);
        key.json(&pb.packets);
        key.bytes(format!("{:?}", self.params).as_bytes());
        let key = key.hex();
        let entry = match self.shape {
            Shape::FaultFree(config) => {
                let sim = &mut Sim::with_config(&topo, router, pb, config);
                fold.steps(sim, 3_000);
                fold.entry(&key, sim)
            }
            Shape::UnderFaults(config, faults) => {
                let sim = &mut Sim::with_faults(&topo, router, pb, config, faults.clone());
                fold.verdict(sim.run(20_000), sim);
                fold.entry(&key, sim)
            }
            Shape::Wrapped(faults) => {
                let config = SimConfig {
                    watchdog: Some(8 * pb.n as u64),
                    ..SimConfig::default()
                };
                let router = FaultAware::new(router);
                let sim = &mut Sim::with_faults(&topo, router, pb, config, faults.clone());
                fold.steps(sim, 1_000);
                if !sim.done() {
                    fold.verdict(sim.run(20_000), sim);
                }
                fold.entry(&key, sim)
            }
        };
        record::check(self.cases as usize, entry).map_err(TestCaseError::Fail)
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
        let shape = Shape::FaultFree(config);
        Case { cases: CASES, pb: &pb, shape, params: (router, k, adm) }.check_router(router, k)?;
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
        let (shape, params) = (Shape::UnderFaults(config, &faults), (router, k, adm, rate_permille, fault_seed));
        Case { cases: CASES, pb: &pb, shape, params }.check_router(router, k)?;
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
        let faults = FaultPlan::random(n, rate, 6 * n as u64, fault_seed).compile();
        let (shape, params) = (Shape::Wrapped(&faults), (router, k, rate_permille, fault_seed));
        Case { cases: CASES, pb: &pb, shape, params }.check_router(router, k)?;
    }
}

/// The empty-table pass-through every unfaulted `FaultAware` run takes,
/// pinned explicitly for all seven routers (property 3 only reaches it when
/// it happens to draw rate 0).
#[test]
fn fault_aware_empty_table_is_a_pass_through_for_every_router() {
    let n = 12u32;
    let pb = workloads::random_permutation(n, 5);
    let faults = FaultPlan::none(n).compile();
    assert!(faults.is_empty());
    for router in 0..ROUTERS {
        let case = Case {
            cases: ROUTERS as u32,
            pb: &pb,
            shape: Shape::Wrapped(&faults),
            params: router,
        };
        case.check_router(router, 2)
            .unwrap_or_else(|e| panic!("router {router}: {e:?}"));
    }
}
