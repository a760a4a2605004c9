//! Fault-tolerant wrapper: route around what is broken.
//!
//! [`FaultAware`] wraps any [`Router`] and masks outlinks that the shared
//! [`CompiledFaults`] table says are down *right now* out of every packet
//! descriptor the inner router sees. The inner algorithm needs no changes: to
//! dimension order, west-first, or the Theorem 15 router, a faulted East
//! link simply looks like East not being profitable, and their ordinary
//! direction fallback does the rerouting.
//!
//! Two properties make the mask sound:
//!
//! * **Minimality is preserved** — the masked set is a subset of the true
//!   profitable set, so every move the inner router schedules from it still
//!   passes the engine's minimality validation.
//! * **Destination-exchangeability is preserved** — the mask depends only on
//!   the step, the node, and the fault table, never on a destination, so a
//!   wrapped `Dx` router is still destination-exchangeable.
//!
//! The wrapper is advisory, not load-bearing: the engine independently drops
//! transmissions over down links, so an inner router that schedules onto a
//! faulted link anyway (e.g. a nonminimal one whose choices the mask cannot
//! steer) loses the move but stays correct. Masking merely lets the router
//! spend its step on a link that works.

use mesh_engine::{FullArrivals, FullResidents, PackedArrival, PackedView, QueueArch, Router};
use mesh_faults::CompiledFaults;
use mesh_topo::{Coord, DirSet, ALL_DIRS};
use std::sync::Arc;

/// A [`Router`] adapter that hides faulted outlinks from the inner router.
///
/// Share one compiled fault table between the wrapper and
/// [`Sim::with_faults`](mesh_engine::Sim::with_faults) so the router's view
/// of the network and the engine's enforcement always agree.
///
/// The mask is applied in place to the descriptors the engine hands over
/// (its per-node scratch, rebuilt for every call), so wrapping copies
/// nothing. With an empty table every method is a plain pass-through.
/// Only what is handed over is masked: an inqueue policy sees its own
/// residents as per-slot occupancy, which no mask applies to.
pub struct FaultAware<R> {
    inner: R,
    faults: Arc<CompiledFaults>,
}

impl<R> FaultAware<R> {
    /// Wraps `inner`, masking against `faults`.
    pub fn new(inner: R, faults: Arc<CompiledFaults>) -> FaultAware<R> {
        FaultAware { inner, faults }
    }

    /// The wrapped router.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// `profitable` minus the outlinks of `node` that are down at `step`.
    fn mask_at(&self, step: u64, node: Coord, mut profitable: DirSet) -> DirSet {
        for d in profitable.iter() {
            if self.faults.link_down(step, node, d) {
                profitable.remove(d);
            }
        }
        profitable
    }

    /// Masks every resident descriptor at the holding node.
    fn mask_residents(&self, step: u64, node: Coord, pkts: &mut [PackedView]) {
        for p in pkts.iter_mut() {
            *p = p.with_profitable(self.mask_at(step, node, p.profitable()));
        }
    }
}

impl<R: Router> Router for FaultAware<R> {
    type NodeState = R::NodeState;

    fn name(&self) -> String {
        format!("fault-aware({})", self.inner.name())
    }

    fn queue_arch(&self) -> QueueArch {
        self.inner.queue_arch()
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &mut [PackedView],
        cold: &FullResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        if self.faults.is_empty() {
            return self.inner.outqueue(step, node, state, pkts, cold, out);
        }
        self.mask_residents(step, node, pkts);
        self.inner.outqueue(step, node, state, pkts, cold, out);
        // Belt and braces: a nonminimal inner router may still have picked a
        // down link (the mask only edits *profitable* sets). Clear it — the
        // engine would drop the move anyway.
        for (di, slot) in out.iter_mut().enumerate() {
            if slot.is_some() && self.faults.link_down(step, node, ALL_DIRS[di]) {
                *slot = None;
            }
        }
    }

    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        queue_lens: &[u32],
        arrivals: &mut [PackedArrival],
        cold: &FullArrivals<'_>,
        accept: &mut [bool],
    ) {
        if self.faults.is_empty() {
            return self
                .inner
                .inqueue(step, node, state, queue_lens, arrivals, cold, accept);
        }
        // An arrival is masked at the node it is coming *from* (§2 measures
        // a scheduled packet's profitable outlinks from its sender). The
        // sender is the schedule's, not `node - travel`: across a torus seam
        // the two differ.
        for (i, a) in arrivals.iter_mut().enumerate() {
            *a = a.with_profitable(self.mask_at(step, cold.from(i), a.profitable()));
        }
        self.inner
            .inqueue(step, node, state, queue_lens, arrivals, cold, accept);
        // Capacity guard: some acceptance rules assume fault-free progress
        // invariants (e.g. Theorem 15's vertical queues always accept
        // because a vertical packet always departs next step). Faults void
        // such guarantees, so veto anything that would overflow a bounded
        // queue — the sender keeps the packet and backpressure replaces
        // overflow.
        let arch = self.inner.queue_arch();
        let mut extra = [0u32; 5];
        for (i, a) in arrivals.iter().enumerate() {
            if !accept[i] || cold.dst(i) == node {
                continue; // rejected, or delivered on arrival (no slot used)
            }
            let kind = arch.arrival_queue(a.travel());
            if let Some(cap) = arch.capacity(kind) {
                let slot = kind.slot();
                if queue_lens[slot] + extra[slot] < cap {
                    extra[slot] += 1;
                } else {
                    accept[i] = false;
                }
            }
        }
    }

    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &mut [PackedView],
        cold: &FullResidents<'_>,
        states: &mut [u64],
    ) {
        if !self.faults.is_empty() {
            self.mask_residents(step, node, pkts);
        }
        self.inner
            .end_of_step(step, node, state, pkts, cold, states);
    }

    /// Masking never changes whether the *inner* end-of-step does anything:
    /// if it is the no-op, masked descriptors feed a no-op all the same.
    fn uses_end_of_step(&self) -> bool {
        self.inner.uses_end_of_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimOrder;
    use mesh_engine::{Dx, Sim, SimConfig, SimError};
    use mesh_faults::FaultPlan;
    use mesh_topo::{Dir, Mesh, Torus};
    use mesh_traffic::{workloads, RoutingProblem};

    fn wrapped_dim_order(k: u32, faults: &Arc<CompiledFaults>) -> FaultAware<Dx<DimOrder>> {
        FaultAware::new(Dx::new(DimOrder::new(k)), Arc::clone(faults))
    }

    /// With no faults the wrapper is a pure pass-through: identical steps
    /// and identical packet trajectories.
    #[test]
    fn no_faults_is_transparent() {
        let topo = Mesh::new(8);
        let pb = workloads::random_permutation(8, 4);
        let faults = Arc::new(FaultPlan::none(8).compile());
        let mut plain = Sim::new(&topo, Dx::new(DimOrder::new(8)), &pb);
        let mut wrapped = Sim::new(&topo, wrapped_dim_order(8, &faults), &pb);
        let a = plain.run(100_000).unwrap();
        let b = wrapped.run(100_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(plain.packet_snapshot(), wrapped.packet_snapshot());
    }

    /// A single packet whose row is cut reroutes around the fault and still
    /// arrives, two steps later than the L1 distance.
    #[test]
    fn reroutes_around_a_cut_row() {
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_pairs(4, "one", [(Coord::new(0, 0), Coord::new(3, 2))]);
        let faults = Arc::new(
            FaultPlan::none(4)
                .link_down(Coord::new(1, 0), Dir::East, 0, None)
                .compile(),
        );
        let mut sim = Sim::with_faults(
            &topo,
            wrapped_dim_order(4, &faults),
            &pb,
            SimConfig::default(),
            faults.as_ref().clone(),
        );
        let steps = sim.run(100).expect("fault-aware must deliver");
        // Path: E to (1,0), N (east is masked), E E along row 1, N to (3,2):
        // same L1 distance — the detour is even free here because the packet
        // needed to go north anyway.
        assert_eq!(steps, 5);
    }

    /// The acceptance scenario: a random partial permutation on n = 16 and
    /// one persistent East link fault, chosen so that (a) at least one
    /// packet's row leg crosses the link, and (b) no packet *terminates*
    /// east of the fault on that row after crossing it (such a packet would
    /// be unroutable by any XY strategy confined to minimal paths).
    ///
    /// Plain dimension order must be reported deadlocked by the watchdog —
    /// not panic, not hit the step cap — while the fault-aware wrapper
    /// delivers 100%.
    #[test]
    fn acceptance_partial_permutation_single_link_fault() {
        let n: u32 = 16;
        let topo = Mesh::new(n);
        let pb = workloads::random_partial_permutation(n, 0.5, 2024);

        // Deterministically pick the faulted link per the criteria above.
        let mut fault_at = None;
        'search: for y in 0..n {
            for x in 0..n - 1 {
                let crossing = |src: Coord, dst: Coord| src.y == y && src.x <= x && x < dst.x;
                let crossers = pb.packets.iter().filter(|p| crossing(p.src, p.dst)).count();
                let doomed = pb
                    .packets
                    .iter()
                    .filter(|p| crossing(p.src, p.dst) && p.dst.y == y)
                    .count();
                if crossers > 0 && doomed == 0 {
                    fault_at = Some(Coord::new(x, y));
                    break 'search;
                }
            }
        }
        let at = fault_at.expect("workload must admit a suitable fault");
        let faults = Arc::new(
            FaultPlan::none(n)
                .link_down(at, Dir::East, 0, None)
                .compile(),
        );
        let config = SimConfig {
            watchdog: Some(200),
            ..SimConfig::default()
        };

        // Unwrapped dimension order: stuck packets pile up at the fault and
        // the watchdog reports it (k is ample, so it is the link, not
        // capacity, that wedges the run).
        let mut plain = Sim::with_faults(
            &topo,
            Dx::new(DimOrder::new(n * n)),
            &pb,
            config,
            faults.as_ref().clone(),
        );
        let err = plain.run(1_000_000).unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock(_) | SimError::Livelock(_)),
            "expected watchdog verdict, got {err}"
        );
        assert!(!err.snapshot().stuck.is_empty());
        assert_eq!(err.snapshot().active_faults.len(), 1);

        // Fault-aware wrapper over the same router, same faults: 100%.
        let mut wrapped = Sim::with_faults(
            &topo,
            wrapped_dim_order(n * n, &faults),
            &pb,
            config,
            faults.as_ref().clone(),
        );
        let steps = wrapped
            .run(1_000_000)
            .expect("fault-aware dimension order must deliver everything");
        assert!(wrapped.done());
        assert_eq!(wrapped.delivered(), pb.len());
        assert!(steps < 1_000_000);
    }

    /// An arrival across a torus seam is masked at the node it really
    /// comes from. Deriving the sender as `node - travel` gave `u32::MAX`
    /// there, and the fault-table lookup overflowed (debug builds) or
    /// consulted a wrong link (release). Any non-empty table turns the
    /// masking on; this one's link is nowhere near the packet.
    #[test]
    fn torus_seam_arrival_is_masked_at_its_sender() {
        let topo = Torus::new(8);
        let pb = RoutingProblem::from_pairs(8, "seam", [(Coord::new(6, 1), Coord::new(1, 1))]);
        let faults = Arc::new(
            FaultPlan::none(8)
                .link_down(Coord::new(3, 5), Dir::North, 0, None)
                .compile(),
        );
        let mut sim = Sim::with_faults(
            &topo,
            wrapped_dim_order(4, &faults),
            &pb,
            SimConfig::default(),
            faults.as_ref().clone(),
        );
        let steps = sim.run(100).expect("delivers across the seam");
        assert_eq!(steps, 3, "6 → 7 → 0 → 1, eastward over the wrap-around");
    }

    /// Wrapped name advertises the wrapper.
    #[test]
    fn name_reflects_wrapping() {
        let faults = Arc::new(FaultPlan::none(4).compile());
        let r = wrapped_dim_order(2, &faults);
        assert_eq!(r.name(), "fault-aware(dim-order-xy(k=2))");
    }
}
