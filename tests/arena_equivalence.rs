//! Differential battery for the flat-slab queue arena: the engine's
//! queues now live in one contiguous slab with per-(node, slot) lengths
//! and a per-node occupancy bitmask (`NodeGrid`, DESIGN.md §14). This
//! battery drives simulations while maintaining a **retained reference
//! shadow** of every queue — the exact per-queue `Vec` contents the old
//! `Vec<Vec<_>>` grid held — and checks after every step that the arena
//! tells the same story: identical FIFO contents, order-preserving
//! removal/retain/expiry (survivors keep their relative order, arrivals
//! append at the tail), and bitmask ↔ `queue_lens` ↔ load-index
//! agreement (via `Sim::assert_queue_invariants`), across routers ×
//! fault plans × admission policies.

mod support;

use mesh_routing::engine::QueueKind;
use mesh_routing::prelude::*;
use mesh_routing::routers::HotPotato;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use support::{partial_permutation, workload};

/// The retained reference shadow: per-(node, queue-slot) FIFO contents,
/// exactly what each queue held after the previous step.
type Shadow = HashMap<(u32, u32, usize), Vec<PacketId>>;

/// A queue's step-over-step transition is legal iff the new contents are
/// an order-preserving subsequence of the old (removals — transmit
/// dequeues, deadline expiry — shift survivors down without reordering)
/// followed by a tail of packets the queue did not hold before (arrivals
/// and injections append). This is precisely the `Vec` push/remove/retain
/// semantics the arena must reproduce.
fn legal_transition(old: &[PacketId], new: &[PacketId]) -> bool {
    let split = new
        .iter()
        .position(|p| !old.contains(p))
        .unwrap_or(new.len());
    let (survivors, fresh) = new.split_at(split);
    let mut it = old.iter();
    survivors.iter().all(|s| it.any(|o| o == s)) && fresh.iter().all(|p| !old.contains(p))
}

/// Checks one stepped simulation against (and then advances) the shadow:
/// every queue's transition is legal, `packets_at` agrees with the
/// flattened `queues_at` (the two zero-allocation slab iterators), and
/// the grid's internal indices agree with its contents.
fn check_against_shadow<T: Topology, R: Router>(
    sim: &Sim<'_, T, R>,
    n: u32,
    shadow: &mut Shadow,
) -> Result<(), TestCaseError> {
    sim.assert_queue_invariants();
    for y in 0..n {
        for x in 0..n {
            let c = Coord::new(x, y);
            let flat: Vec<PacketId> = sim.packets_at(c).collect();
            let mut seen = 0usize;
            let mut prev_slot = None;
            for (kind, q) in sim.queues_at(c) {
                let slot = kind.slot();
                prop_assert!(
                    prev_slot < Some(slot),
                    "queues_at yielded slots out of order at {c}"
                );
                prev_slot = Some(slot);
                prop_assert!(!q.is_empty(), "queues_at yielded an empty queue at {c}");
                prop_assert!(
                    &flat[seen..seen + q.len()] == q,
                    "packets_at disagrees with queues_at at {c}"
                );
                seen += q.len();
                let old = shadow.remove(&(x, y, slot)).unwrap_or_default();
                prop_assert!(
                    legal_transition(&old, q),
                    "illegal queue transition at {c} {kind:?}: {old:?} -> {q:?}"
                );
                shadow.insert((x, y, slot), q.to_vec());
            }
            prop_assert_eq!(seen, flat.len());
            // Queues that drained to empty this step made a trivially
            // legal transition (removing everything preserves order);
            // drop their shadow entries so the next step starts clean.
            let mut occ = 0u8;
            for (kind, _) in sim.queues_at(c) {
                occ |= 1 << kind.slot();
            }
            shadow.retain(|&(sx, sy, slot), _| !(sx == x && sy == y && occ & (1 << slot) == 0));
        }
    }
    Ok(())
}

/// Steps a simulation to completion (bounded), shadow-checking every step.
fn run_shadowed<T: Topology, R: Router>(
    sim: &mut Sim<'_, T, R>,
    n: u32,
    max_steps: u64,
) -> Result<(), TestCaseError> {
    let mut shadow = Shadow::new();
    check_against_shadow(sim, n, &mut shadow)?;
    for _ in 0..max_steps {
        let done = sim.step();
        check_against_shadow(sim, n, &mut shadow)?;
        if done {
            return Ok(());
        }
    }
    Ok(())
}

/// The four admission policies, by index (no `prop_oneof` in the shim).
fn admission(which: u32, n: u32) -> AdmissionPolicy {
    match which {
        0 => AdmissionPolicy::DeferIndefinitely,
        1 => AdmissionPolicy::RejectNew,
        2 => AdmissionPolicy::DropOldestDeferred { max_deferred: 4 },
        _ => AdmissionPolicy::DeadlineExpiry { ttl: 3 * n as u64 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arena vs shadow across the router spectrum (central-queue and
    /// per-inlink architectures), fault-free.
    #[test]
    fn arena_matches_shadow_across_routers(
        pb in workload(12),
        k in 1u32..4,
        router in 0usize..4,
    ) {
        prop_assume!(!pb.is_empty());
        let topo = Mesh::new(12);
        match router {
            0 => run_shadowed(&mut Sim::new(&topo, Dx::new(DimOrder::new(k)), &pb), 12, 2_000)?,
            1 => run_shadowed(&mut Sim::new(&topo, Dx::new(Theorem15::new(k)), &pb), 12, 2_000)?,
            2 => run_shadowed(&mut Sim::new(&topo, Dx::new(WestFirst::new(k)), &pb), 12, 2_000)?,
            _ => run_shadowed(&mut Sim::new(&topo, Dx::new(HotPotato::new(12)), &pb), 12, 2_000)?,
        }
    }

    /// Arena vs shadow under random fault plans (outages freeze queues,
    /// degradations clamp acceptance, losses delete in-flight packets —
    /// none of which may corrupt slab order or the occupancy indices).
    #[test]
    fn arena_matches_shadow_under_faults(
        pb in partial_permutation(10),
        rate_permille in 0u64..=200,
        fault_seed in 0u64..5_000,
    ) {
        prop_assume!(!pb.is_empty());
        let n = 10u32;
        let topo = Mesh::new(n);
        let faults = Arc::new(FaultPlan::random(n, rate_permille as f64 / 1000.0, 6 * n as u64, fault_seed).compile());
        let config = SimConfig { watchdog: Some(8 * n as u64), ..SimConfig::default() };
        let mut sim = Sim::with_faults(
            &topo,
            FaultAware::new(Dx::new(Theorem15::new(2)), Arc::clone(&faults)),
            &pb,
            config,
            faults.as_ref().clone(),
        );
        run_shadowed(&mut sim, n, 2_000)?;
    }

    /// Arena vs shadow under every admission policy over open-system
    /// arrivals: deferred staging, shedding, and deadline expiry all
    /// mutate queues through retain-style sweeps whose survivor order
    /// must match the reference semantics. High rates push the unbounded
    /// injection slot past its initial inline capacity, forcing the
    /// grow-by-rebuild path.
    #[test]
    fn arena_matches_shadow_under_admission(
        which in 0u32..4,
        rate_permille in 50u64..=900,
        seed in 0u64..5_000,
    ) {
        let n = 8u32;
        let pb = workloads::dynamic_bernoulli(n, rate_permille as f64 / 1000.0, 6 * n as u64, seed);
        prop_assume!(!pb.is_empty());
        let topo = Mesh::new(n);
        let config = SimConfig {
            admission: admission(which, n),
            ..SimConfig::default()
        };
        let mut sim = Sim::with_config(&topo, Dx::new(Theorem15::new(1)), &pb, config);
        run_shadowed(&mut sim, n, 1_500)?;
    }
}

/// A burst of same-origin packets overflows the injection slot's initial
/// inline capacity (k cells), forcing the slab to grow by rebuild — the
/// queue must stay FIFO across the reallocation and the run must still
/// deliver everything.
#[test]
fn injection_slot_growth_preserves_order() {
    let n = 6u32;
    let topo = Mesh::new(n);
    let src = Coord::new(0, 0);
    let pairs: Vec<(Coord, Coord)> = (0..(n * n))
        .map(|i| (src, Coord::new(i % n, i / n)))
        .collect();
    let pb = RoutingProblem::from_pairs(n, "burst", pairs);
    let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(1)), &pb);
    let mut shadow = Shadow::new();
    let mut steps = 0u64;
    loop {
        let done = sim.step();
        check_against_shadow(&sim, n, &mut shadow).unwrap();
        steps += 1;
        assert!(steps < 10_000, "burst run did not complete");
        if done {
            break;
        }
    }
    let rep = sim.report();
    assert_eq!(rep.delivered, (n * n) as usize);
}

/// `queues_at` labels slots with the right `QueueKind` for both
/// architectures: the single central queue, and inlink/injection slots
/// under per-inlink queueing.
#[test]
fn queues_at_labels_kinds() {
    let n = 4u32;
    let topo = Mesh::new(n);
    let pb = workloads::random_permutation(n, 7);
    // Central architecture: every occupied queue is the central one.
    let sim = Sim::new(&topo, Dx::new(DimOrder::new(2)), &pb);
    for y in 0..n {
        for x in 0..n {
            for (kind, q) in sim.queues_at(Coord::new(x, y)) {
                assert_eq!(kind, QueueKind::Central);
                assert!(!q.is_empty());
            }
        }
    }
    // Per-inlink architecture: at step 0 all packets sit in injection.
    let sim = Sim::new(&topo, Dx::new(Theorem15::new(2)), &pb);
    for y in 0..n {
        for x in 0..n {
            for (kind, _) in sim.queues_at(Coord::new(x, y)) {
                assert_eq!(kind, QueueKind::Injection);
            }
        }
    }
}
