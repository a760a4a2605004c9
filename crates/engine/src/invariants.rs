//! The engine's state invariants, stated once: no queue ever holds more
//! than `k` packets, and every packet is in exactly one place.
//!
//! [`Sim::assert_queue_invariants`](crate::sim::Sim::assert_queue_invariants)
//! and [`Sim::assert_conservation`](crate::sim::Sim::assert_conservation)
//! panic on these two checkers; [`Sim::restore`](crate::sim::Sim::restore)
//! replays a snapshot through the live storage code and maps a failure of
//! either to `SnapshotError::Corrupt`. Both assume what any live store has
//! and restore's structural pass establishes first — equal column lengths,
//! an injection order that is a permutation, a cursor in range — and
//! verify every other reference they follow.

use crate::phases::Progress;
use crate::storage::{Loc, NodeGrid, PacketStore};

/// Capacity per bounded slot; the occupancy index and bitmask in sync
/// with the queue lengths; every queued id known, queued once and pointed
/// back at by its packet record; staged packets consistent with their
/// bucket; the active worklist exactly the nodes holding or awaiting packets.
pub(crate) fn check_queues(
    store: &PacketStore,
    grid: &NodeGrid,
    progress: &Progress,
) -> Result<(), String> {
    let mut queued = vec![false; store.len()];
    let mut in_network = 0usize;
    for ni in 0..grid.nodes() {
        let c = grid.coord_of(ni);
        let (mut load, mut occ) = (0u32, 0u8);
        for slot in 0..grid.slots() {
            let kind = grid.slot_kind(slot);
            let q = grid.queue(ni, slot);
            load += q.len() as u32;
            if !q.is_empty() {
                occ |= 1 << slot;
            }
            if let Some(cap) = grid.arch().capacity(kind) {
                if q.len() > cap as usize {
                    return Err(format!(
                        "queue {kind:?} of node {c} holds {} > capacity {cap}",
                        q.len()
                    ));
                }
            }
            for &pid in q {
                let Some(seen) = queued.get_mut(pid.index()) else {
                    return Err(format!(
                        "queue {kind:?} of {c} holds unknown packet {pid:?}"
                    ));
                };
                if std::mem::replace(seen, true) {
                    return Err(format!("packet {pid:?} appears in two queues"));
                }
                if store.loc(pid) != Loc::At(c) {
                    return Err(format!(
                        "packet {pid:?} queued at {c} but its location says {:?}",
                        store.loc(pid)
                    ));
                }
                if store.queue_of(pid) != kind {
                    return Err(format!(
                        "packet {pid:?} queued in {kind:?} at {c} but its record says {:?}",
                        store.queue_of(pid)
                    ));
                }
            }
            in_network += q.len();
        }
        if load != grid.node_load(ni) {
            return Err(format!(
                "occupancy index out of sync at {c}: queues hold {load}, index says {}",
                grid.node_load(ni)
            ));
        }
        if occ != grid.occ_mask(ni) {
            return Err(format!(
                "occupancy bitmask out of sync at {c}: queues give {occ:#b}, mask says {:#b}",
                grid.occ_mask(ni)
            ));
        }
    }
    let at_count = store
        .ids()
        .filter(|&p| matches!(store.loc(p), Loc::At(_)))
        .count();
    if at_count != in_network {
        return Err(format!(
            "{at_count} packets locate themselves in the network, queues hold {in_network} \
             (occupancy/slot-sum mismatch)"
        ));
    }
    for (&ni, bucket) in &grid.pending {
        if bucket.is_empty() {
            // A bucket is dropped the moment it drains.
            return Err(format!("empty pending bucket at node {ni}"));
        }
        for &pid in bucket {
            if pid.index() >= store.len() {
                return Err(format!("pending bucket {ni} holds unknown packet {pid:?}"));
            }
            if store.loc(pid) != Loc::Pending {
                return Err(format!(
                    "packet {pid:?} staged at node {ni} but its location says {:?}",
                    store.loc(pid)
                ));
            }
            let src = store.src(pid);
            if grid.node_index(src) as u32 != ni {
                return Err(format!(
                    "packet {pid:?} staged at node {ni} but originates at {src}"
                ));
            }
        }
    }
    // The worklist's *set* is determined (its order is history). A node
    // the list lacks would never be routed again. A node it should not
    // have is inert, and only construction can leave one: it lists every
    // node it staged at, and admission may shed the whole bucket in the
    // same call; each step's transmit phase rebuilds the list exactly.
    let mut listed = vec![false; grid.nodes()];
    for &ni in grid.active() {
        if std::mem::replace(&mut listed[ni as usize], true) {
            return Err(format!("node {ni} appears twice in the active worklist"));
        }
    }
    for (ni, &listed) in listed.iter().enumerate() {
        let pending = grid.pending.contains_key(&(ni as u32));
        let expect = grid.node_load(ni) > 0 || pending;
        let inert_extra = listed && !expect && progress.steps == 0;
        if listed != expect && !inert_extra {
            return Err(format!(
                "active worklist disagrees with occupancy at node {ni} \
                 (load {}, pending {pending}, listed {listed})",
                grid.node_load(ni)
            ));
        }
    }
    Ok(())
}

/// The four resolution counters agree with the location table; the
/// uninjected tail is sorted by due step (the inject phase's early exit
/// relies on it); and every offered packet is in exactly one bucket:
/// `offered == delivered + lost + shed + expired + in_network + staged`.
/// (A delivery step exists exactly for delivered packets by the location
/// word's construction; `PacketStore::import` refuses a snapshot that
/// says otherwise.)
///
/// The monotone counters are bounded by the run's length, so none can
/// load near its integer limit and overflow on a later step: a packet
/// takes at most one hop per step and is delivered within the run, `Σ
/// hops == total_moves`, and each run of the inject phase (one per step,
/// one at construction) defers a packet at most once.
pub(crate) fn check_conservation(
    store: &PacketStore,
    grid: &NodeGrid,
    progress: &Progress,
) -> Result<(), String> {
    let (mut at, mut delivered, mut lost, mut shed, mut expired, mut pending, mut hops_total) =
        (0usize, 0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    let steps = progress.steps;
    for (pid, &hops) in store.ids().zip(store.hops()) {
        let (loc, step) = (store.loc(pid), store.delivered_step(pid));
        if (hops as u64).max(step.unwrap_or(0)) > steps {
            return Err(format!(
                "packet {pid:?} counts {hops} hops, delivery step {step:?}, in a run of {steps} steps"
            ));
        }
        hops_total += hops as usize;
        match loc {
            Loc::Pending => pending += 1,
            Loc::At(_) => at += 1,
            Loc::Delivered => delivered += 1,
            Loc::Lost => lost += 1,
            Loc::Shed => shed += 1,
            Loc::Expired => expired += 1,
        }
    }
    for (name, counter, located) in [
        ("delivered", progress.delivered, delivered),
        ("lost", progress.lost, lost),
        ("shed", progress.shed, shed),
        ("expired", progress.expired, expired),
        ("moves", progress.total_moves as usize, hops_total),
    ] {
        if counter != located {
            return Err(format!(
                "progress says {counter} {name}, the packet table says {located}"
            ));
        }
    }
    // `None`: the bound itself is past u64, so it binds nothing.
    let inject_runs = steps.max(1).checked_mul(store.len() as u64);
    if inject_runs.is_some_and(|cap| progress.deferred_injections > cap) {
        return Err(format!(
            "{} deferred injections exceed {steps} steps x {} packets",
            progress.deferred_injections,
            store.len()
        ));
    }
    for w in store.uninjected().windows(2) {
        let (a, b) = (store.inject_at(w[0]), store.inject_at(w[1]));
        if a > b {
            return Err(format!(
                "uninjected tail out of order: {:?} (due {a}) before {:?} (due {b})",
                w[0], w[1]
            ));
        }
    }
    let staged = grid.staged_total();
    let future = store.len() - store.offered();
    if pending != staged + future {
        return Err(format!(
            "{pending} packets are Pending, but {staged} are staged and {future} not yet due"
        ));
    }
    if store.offered() != delivered + lost + shed + expired + at + staged {
        return Err(format!(
            "conservation violated: offered {} != delivered {delivered} + lost {lost} + \
             shed {shed} + expired {expired} + in-network {at} + staged {staged}",
            store.offered()
        ));
    }
    Ok(())
}
