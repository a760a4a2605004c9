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
use crate::queue::{QueueArch, QueueKind};
use crate::storage::{is_staged, Loc, NodeGrid, PacketStore, Staged};
use mesh_topo::Coord;

/// A queue of `kind` at `c` holds at most its architecture's bound.
/// [`Sim::restore`](crate::sim::Sim::restore) asks this before it replays
/// a queue, since the arena never grows a bounded slot past its bound.
pub(crate) fn check_capacity(
    arch: QueueArch,
    kind: QueueKind,
    c: Coord,
    len: usize,
) -> Result<(), String> {
    match arch.capacity(kind) {
        Some(cap) if len > cap as usize => Err(format!(
            "queue {kind:?} of node {c} holds {len} > capacity {cap}"
        )),
        _ => Ok(()),
    }
}

/// Capacity per bounded slot; every queued id known, queued once and
/// pointed back at by its packet record; every staged id known, staged
/// once, `Pending` and at its own source; the active worklist exactly the
/// nodes holding or awaiting packets. The queue lengths are the only count
/// of what a node holds, so there is no second count to hold them against.
pub(crate) fn check_queues(
    store: &PacketStore,
    grid: &NodeGrid,
    progress: &Progress,
) -> Result<(), String> {
    let mut queued = vec![false; store.len()];
    let mut in_network = 0usize;
    for ni in 0..grid.nodes() {
        let c = grid.coord_of(ni);
        for slot in 0..grid.slots() {
            let kind = grid.slot_kind(slot);
            let q = grid.queue(ni, slot);
            check_capacity(grid.arch(), kind, c, q.len())?;
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
    for &Staged { node: ni, pid, .. } in &grid.staged {
        let Some(seen) = queued.get_mut(pid.index()) else {
            return Err(format!("pending bucket {ni} holds unknown packet {pid:?}"));
        };
        if store.loc(pid) != Loc::Pending {
            return Err(format!(
                "packet {pid:?} staged at node {ni} but its location says {:?}",
                store.loc(pid)
            ));
        }
        if std::mem::replace(seen, true) {
            return Err(format!("packet {pid:?} is staged twice"));
        }
        let src = store.src(pid);
        if grid.node_index(src) as u32 != ni {
            return Err(format!(
                "packet {pid:?} staged at node {ni} but originates at {src}"
            ));
        }
    }
    // The worklist's *set* is determined (its order is history). A node
    // the list lacks would never be routed again. A node it should not
    // have is inert, and only construction can leave one: it lists every
    // node it staged at, and admission may shed that node's whole backlog
    // in the same call; each step's transmit phase rebuilds the list exactly.
    let mut listed = vec![false; grid.nodes()];
    for &ni in grid.active() {
        if std::mem::replace(&mut listed[ni as usize], true) {
            return Err(format!("node {ni} appears twice in the active worklist"));
        }
    }
    for (ni, &listed) in listed.iter().enumerate() {
        let pending = is_staged(&grid.staged, ni);
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
    let staged = grid.staged.len();
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
