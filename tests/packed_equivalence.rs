//! Differential battery for the policy surface: every shipped router's
//! packed policies (`PackedView`/`PackedArrival` descriptors, per-slot
//! occupancy counts, cold columns read through a handle) must make
//! **identical** decisions to its reference view policies. The oracle is
//! the router itself behind [`ViewOracle`], which materializes one view
//! struct per packet through the handle's accessors and runs the view
//! policy — so both sims run on the same engine and differ only in the
//! policy representation. Any divergence in per-step event streams, packet
//! trajectories, end-of-step state words, reports, or diagnostics is a
//! policy-port bug.
//!
//! Coverage axes: all seven routers, bare and under `FaultAware` with a
//! non-empty fault table, × random workloads (static partial permutations
//! and dynamic Bernoulli) × every admission policy × random fault plans
//! (stalls, link faults, queue degradation — exercising the engine-side
//! acceptance clamp).

mod support;

use mesh_routing::prelude::*;
use mesh_routing::routers::oracle::{DxViewPolicy, ViewOracle};
use mesh_routing::routers::{BoundedDeflect, HotPotato};
use proptest::prelude::*;
use std::sync::Arc;
use support::{partial_permutation, workload};

/// A check to run on one (packed, oracle) router pair.
trait PairCheck {
    fn check<RA: Router, RB: Router>(&self, fast: RA, oracle: RB) -> Result<(), TestCaseError>;
}

fn dx_pair<R: DxViewPolicy>(
    check: &impl PairCheck,
    mk: impl Fn() -> R,
) -> Result<(), TestCaseError> {
    check.check(Dx::new(mk()), Dx::new(ViewOracle(mk())))
}

/// The router axis: runs `check` on router number `which` of the seven,
/// sized for a side-`n` grid with queue bound `k`.
fn for_router(which: usize, n: u32, k: u32, check: &impl PairCheck) -> Result<(), TestCaseError> {
    match which {
        0 => dx_pair(check, || DimOrder::new(k)),
        1 => dx_pair(check, || WestFirst::new(k)),
        2 => dx_pair(check, || AltAdaptive::new(k)),
        3 => dx_pair(check, || BoundedDeflect::new(n, k, 1)),
        4 => check.check(FarthestFirst::new(k), ViewOracle(FarthestFirst::new(k))),
        5 => dx_pair(check, || Theorem15::new(k)),
        _ => dx_pair(check, || HotPotato::new(n)),
    }
}

/// Routers `0..CONSERVATIVE` accept only into strict headroom, so they
/// survive an arbitrary fault plan unwrapped. Theorem 15's always-accept
/// vertical queues and hot-potato's always-accept buffers rely on
/// guaranteed ejection, which a link fault breaks — the queue overflows
/// (identically in both sims) and the capacity audit panics. Guarding that
/// is `FaultAware`'s job; the wrapped combination is property 3.
const CONSERVATIVE: usize = 5;
const ROUTERS: usize = 7;

/// All four admission policies, parameters included.
fn admission() -> impl Strategy<Value = AdmissionPolicy> {
    (0u32..4, 0u32..4, 1u64..64).prop_map(|(which, max_deferred, ttl)| match which {
        0 => AdmissionPolicy::DeferIndefinitely,
        1 => AdmissionPolicy::RejectNew,
        2 => AdmissionPolicy::DropOldestDeferred { max_deferred },
        _ => AdmissionPolicy::DeadlineExpiry { ttl },
    })
}

/// Steps the fast (packed) and oracle (view) sims in lockstep, checking
/// after every step that the observable state — state words included — is
/// identical.
fn assert_lockstep_identical<T: Topology, RA: Router, RB: Router>(
    fast: &mut Sim<'_, T, RA>,
    oracle: &mut Sim<'_, T, RB>,
    max_steps: u64,
) -> Result<(), TestCaseError> {
    for step in 0..max_steps {
        let a = fast.step();
        let b = oracle.step();
        prop_assert!(a == b, "done flags diverged at step {}", step);
        prop_assert!(
            fast.last_step_deliveries() == oracle.last_step_deliveries(),
            "delivery stream diverged at step {}",
            step
        );
        prop_assert!(
            fast.last_step_losses() == oracle.last_step_losses(),
            "loss stream diverged at step {}",
            step
        );
        prop_assert!(
            fast.packet_snapshot() == oracle.packet_snapshot(),
            "packet configuration diverged at step {}",
            step
        );
        if a {
            break;
        }
    }
    prop_assert_eq!(
        serde_json::to_string(&fast.report()).unwrap(),
        serde_json::to_string(&oracle.report()).unwrap()
    );
    prop_assert_eq!(fast.diagnostics(), oracle.diagnostics());
    Ok(())
}

/// Runs both sims to their verdict (completion, a watchdog trip, or the
/// step cap) and checks the whole outcome matches, not just the happy path.
fn assert_same_verdict<T: Topology, RA: Router, RB: Router>(
    fast: &mut Sim<'_, T, RA>,
    oracle: &mut Sim<'_, T, RB>,
) -> Result<(), TestCaseError> {
    let res_fast = fast.run(20_000);
    let res_oracle = oracle.run(20_000);
    prop_assert!(
        res_fast == res_oracle,
        "run outcomes diverged: {:?} vs {:?}",
        res_fast,
        res_oracle
    );
    prop_assert_eq!(
        serde_json::to_string(&fast.report()).unwrap(),
        serde_json::to_string(&oracle.report()).unwrap()
    );
    prop_assert_eq!(fast.packet_snapshot(), oracle.packet_snapshot());
    prop_assert_eq!(fast.diagnostics(), oracle.diagnostics());
    Ok(())
}

/// Property 1's check: a fault-free problem, stepped in lockstep.
struct FaultFree<'a> {
    pb: &'a RoutingProblem,
    config: SimConfig,
}

impl PairCheck for FaultFree<'_> {
    fn check<RA: Router, RB: Router>(&self, fast: RA, oracle: RB) -> Result<(), TestCaseError> {
        let topo = Mesh::new(self.pb.n);
        let mut fast = Sim::with_config(&topo, fast, self.pb, self.config);
        let mut oracle = Sim::with_config(&topo, oracle, self.pb, self.config);
        assert_lockstep_identical(&mut fast, &mut oracle, 3_000)
    }
}

/// Property 2's check: a fault plan with the watchdog armed, run to its
/// verdict.
struct UnderFaults<'a> {
    pb: &'a RoutingProblem,
    config: SimConfig,
    faults: &'a CompiledFaults,
}

impl PairCheck for UnderFaults<'_> {
    fn check<RA: Router, RB: Router>(&self, fast: RA, oracle: RB) -> Result<(), TestCaseError> {
        let topo = Mesh::new(self.pb.n);
        let mut fast = Sim::with_faults(&topo, fast, self.pb, self.config, self.faults.clone());
        let mut oracle = Sim::with_faults(&topo, oracle, self.pb, self.config, self.faults.clone());
        assert_same_verdict(&mut fast, &mut oracle)
    }
}

/// Property 3's check: both routers behind `FaultAware` over the same
/// table the engine enforces, watchdog armed: stepped in lockstep, and a
/// run still live after that is driven to its verdict.
struct Wrapped<'a> {
    pb: &'a RoutingProblem,
    faults: &'a Arc<CompiledFaults>,
}

impl Wrapped<'_> {
    fn sim<'t, R: Router>(&self, topo: &'t Mesh, router: R) -> Sim<'t, Mesh, FaultAware<R>> {
        let config = SimConfig {
            watchdog: Some(8 * self.pb.n as u64),
            ..SimConfig::default()
        };
        Sim::with_faults(
            topo,
            FaultAware::new(router, Arc::clone(self.faults)),
            self.pb,
            config,
            self.faults.as_ref().clone(),
        )
    }
}

impl PairCheck for Wrapped<'_> {
    fn check<RA: Router, RB: Router>(&self, fast: RA, oracle: RB) -> Result<(), TestCaseError> {
        let topo = Mesh::new(self.pb.n);
        let mut fast = self.sim(&topo, fast);
        let mut oracle = self.sim(&topo, oracle);
        assert_lockstep_identical(&mut fast, &mut oracle, 1_000)?;
        if fast.done() {
            return Ok(());
        }
        assert_same_verdict(&mut fast, &mut oracle)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: every router is decision-identical through its packed
    /// and view policies, for arbitrary workloads and admission policies.
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
        for_router(router, pb.n, k, &FaultFree { pb: &pb, config })?;
    }

    /// Property 2: equivalence under arbitrary fault plans with the
    /// watchdog armed. The routers here are *unwrapped* (no FaultAware),
    /// so the engine's own fault machinery carries the whole burden: the
    /// packed policies must agree with the view policies through
    /// stalled-node gates and the engine-side degradation clamp.
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
        for_router(router, n, k, &UnderFaults { pb: &pb, config, faults: &faults })?;
    }

    /// Property 3: `FaultAware` masks the packed descriptors in place
    /// (residents at the holding node, arrivals at their sender) and guards
    /// capacity off `queue_lens`; every router wrapped that way matches its
    /// oracle wrapped the same way — through the wrapper the oracle's views
    /// are built from the masked descriptors — down to the watchdog's
    /// verdict. Rate 0 compiles to an empty table, the pass-through branch.
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
        for_router(router, n, k, &Wrapped { pb: &pb, faults: &faults })?;
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
        for_router(
            router,
            n,
            2,
            &Wrapped {
                pb: &pb,
                faults: &faults,
            },
        )
        .unwrap_or_else(|e| panic!("router {router}: {e:?}"));
    }
}
