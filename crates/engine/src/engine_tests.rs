//! Behavior tests of the engine, exercised through the [`Sim`] façade —
//! step semantics, faults, statistics, conservation invariants, chaos
//! fuzzing, and the protocol driving loop. These predate the phase-
//! pipeline split and pin its behavior from the outside.

use crate::hook::HookCtx;
use crate::router::Router;
use crate::sim::{Loc, Sim, SimConfig, SimError};
use crate::view::{DxArrivals, DxResidents, PackedArrival, PackedView};
use mesh_topo::{Coord, Dir, Topology};
use mesh_traffic::PacketId;

mod tests {
    use super::*;
    use crate::queue::QueueArch;
    use crate::router::{Dx, DxRouter};
    use crate::view::{FullArrivals, FullResidents};
    use mesh_topo::{DirSet, Mesh};
    use mesh_traffic::RoutingProblem;

    /// Minimal destination-exchangeable test router: greedy "first profitable
    /// direction in canonical order", FIFO outqueue, accept while the central
    /// queue has strict headroom at the beginning of the step.
    pub(super) struct Greedy {
        pub(super) k: u32,
    }

    impl DxRouter for Greedy {
        type NodeState = ();

        fn name(&self) -> String {
            format!("test-greedy(k={})", self.k)
        }

        fn queue_arch(&self) -> QueueArch {
            QueueArch::Central { k: self.k }
        }

        fn outqueue(
            &self,
            _step: u64,
            _node: Coord,
            _state: &mut (),
            pkts: &[PackedView],
            _cold: &DxResidents<'_>,
            out: &mut [Option<usize>; 4],
        ) {
            // Oldest packet first (a central queue is offered in that
            // order); each packet takes its first profitable direction
            // whose outlink is still free.
            for (i, p) in pkts.iter().enumerate() {
                if let Some(d) = p.profitable().iter().find(|d| out[d.index()].is_none()) {
                    out[d.index()] = Some(i);
                }
            }
        }

        fn inqueue(
            &self,
            _step: u64,
            _node: Coord,
            _state: &mut (),
            queue_lens: &[u32],
            _arrivals: &[PackedArrival],
            _cold: &DxArrivals<'_>,
            accept: &mut [bool],
        ) {
            let room = self.k.saturating_sub(queue_lens[0]) as usize;
            accept.iter_mut().take(room).for_each(|a| *a = true);
        }
    }

    fn greedy(k: u32) -> Dx<Greedy> {
        Dx::new(Greedy { k })
    }

    #[test]
    fn single_packet_takes_shortest_path_time() {
        let topo = Mesh::new(8);
        let pb = RoutingProblem::from_pairs(8, "one", [(Coord::new(0, 0), Coord::new(5, 3))]);
        let mut sim = Sim::new(&topo, greedy(2), &pb);
        let steps = sim.run(100).unwrap();
        assert_eq!(steps, 8); // manhattan distance
        let r = sim.report();
        assert!(r.completed);
        assert_eq!(r.total_moves, 8);
        assert_eq!(r.max_queue, 1);
        assert_eq!(sim.delivered_step(PacketId(0)), Some(8));
    }

    #[test]
    fn trivial_packet_is_delivered_at_injection() {
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_pairs(4, "trivial", [(Coord::new(2, 2), Coord::new(2, 2))]);
        let mut sim = Sim::new(&topo, greedy(1), &pb);
        assert!(sim.done());
        assert_eq!(sim.run(10).unwrap(), 0);
        assert_eq!(sim.delivered_step(PacketId(0)), Some(0));
    }

    #[test]
    fn two_packets_share_a_link_one_waits() {
        // Both packets must traverse the single link (0,0)->(1,0) ... build a
        // 2x1-ish scenario on a 2x2 mesh: packets at (0,0) and (0,1), both to
        // (1,1) is not a partial permutation; instead two packets whose only
        // profitable dir from their shared node differs. Simpler: two packets
        // starting at the same node is impossible (k=1). Use k=2 with both
        // packets at (0,0): to (1,0) and (2,0) on a 3x1 row — they compete for
        // the East outlink.
        let topo = Mesh::new(3);
        let pb = RoutingProblem::from_pairs(
            3,
            "contend",
            [
                (Coord::new(0, 0), Coord::new(2, 0)),
                (Coord::new(0, 0), Coord::new(1, 0)),
            ],
        );
        let mut sim = Sim::new(&topo, greedy(2), &pb);
        let steps = sim.run(100).unwrap();
        // Packet 0 (older in queue) goes first: delivered at step 2.
        // Packet 1 waits one step, delivered at step 2 as well (moves at
        // step 2 after the link frees at step 2? it moves at step 2).
        assert!(sim.done());
        assert!(steps >= 2);
        let r = sim.report();
        assert_eq!(r.total_moves, 3);
    }

    #[test]
    fn capacity_blocks_acceptance() {
        // k=1: a chain 4 long with all packets moving east; heads block tails.
        let topo = Mesh::new(5);
        let pairs: Vec<_> = (0..4u32)
            .map(|x| (Coord::new(x, 0), Coord::new(x + 1, 0)))
            .collect();
        let pb = RoutingProblem::from_pairs(5, "chain", pairs);
        let mut sim = Sim::new(&topo, greedy(1), &pb);
        let steps = sim.run(100).unwrap();
        assert!(sim.done());
        // The head (packet at x=3) is delivered at step 1, freeing space;
        // everything drains in a wave.
        assert!(steps <= 4, "chain should drain quickly, took {steps}");
        assert_eq!(sim.report().max_queue, 1, "k=1 never exceeded");
    }

    #[test]
    fn dynamic_injection_waits_for_time() {
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_packets(
            4,
            "late",
            vec![mesh_traffic::Packet::injected_at(
                0,
                Coord::new(0, 0),
                Coord::new(1, 0),
                5,
            )],
        );
        let mut sim = Sim::new(&topo, greedy(1), &pb);
        let steps = sim.run(100).unwrap();
        assert_eq!(steps, 6); // waits 5 steps, moves during step 6
        assert_eq!(sim.delivered_step(PacketId(0)), Some(6));
        // Latency counts from injection: 6 - 5 = 1.
        assert_eq!(sim.report().max_latency, 1);
    }

    #[test]
    fn hook_exchange_swaps_destinations() {
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_pairs(
            4,
            "swap",
            [
                (Coord::new(0, 0), Coord::new(3, 0)),
                (Coord::new(0, 1), Coord::new(3, 1)),
            ],
        );
        let mut sim = Sim::new(&topo, greedy(1), &pb);
        let mut swapped = false;
        let mut hook = |ctx: &mut HookCtx<'_>| {
            if !swapped {
                ctx.exchange(PacketId(0), PacketId(1));
                swapped = true;
            }
        };
        sim.run_with_hook(100, &mut hook).unwrap();
        assert!(sim.done());
        // Destinations were exchanged before any move: packet 0 now ends at (3,1).
        assert_eq!(sim.dst(PacketId(0)), Coord::new(3, 1));
        assert_eq!(sim.dst(PacketId(1)), Coord::new(3, 0));
        assert_eq!(sim.report().exchanges, 1);
    }

    #[test]
    fn exchange_is_invisible_to_dx_router_lemma_10() {
        // Run the same problem twice: once plainly, once with an adversary
        // that exchanges two same-profitable-direction packets at step 1.
        // The *trajectories as a multiset* must be identical with the two
        // packets' roles swapped — here we check the coarser consequence
        // that total steps and total moves agree.
        let topo = Mesh::new(6);
        let pb = RoutingProblem::from_pairs(
            6,
            "lemma10",
            [
                (Coord::new(0, 0), Coord::new(4, 3)),
                (Coord::new(1, 1), Coord::new(3, 4)),
                (Coord::new(2, 0), Coord::new(5, 5)),
            ],
        );
        let mut plain = Sim::new(&topo, greedy(2), &pb);
        plain.run(1000).unwrap();

        let mut adv = Sim::new(&topo, greedy(2), &pb);
        let mut done_once = false;
        let mut hook = |ctx: &mut HookCtx<'_>| {
            if !done_once {
                // Both packets are northeast-bound; exchange is legal in the
                // Lemma 10 sense (both destinations stay northeast of both).
                ctx.exchange(PacketId(0), PacketId(1));
                done_once = true;
            }
        };
        adv.run_with_hook(1000, &mut hook).unwrap();

        assert_eq!(plain.steps(), adv.steps());
        assert_eq!(plain.report().total_moves, adv.report().total_moves);
        assert_eq!(plain.report().max_queue, adv.report().max_queue);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn engine_panics_on_overflowing_router() {
        /// A broken router that accepts everything regardless of capacity.
        struct Overflower;
        impl DxRouter for Overflower {
            type NodeState = ();
            fn name(&self) -> String {
                "overflower".into()
            }
            fn queue_arch(&self) -> QueueArch {
                QueueArch::Central { k: 1 }
            }
            fn outqueue(
                &self,
                _s: u64,
                _n: Coord,
                _st: &mut (),
                pkts: &[PackedView],
                _c: &DxResidents<'_>,
                out: &mut [Option<usize>; 4],
            ) {
                for (i, p) in pkts.iter().enumerate() {
                    if let Some(d) = p.profitable().iter().find(|d| out[d.index()].is_none()) {
                        out[d.index()] = Some(i);
                    }
                }
            }
            fn inqueue(
                &self,
                _s: u64,
                _n: Coord,
                _st: &mut (),
                _l: &[u32],
                _a: &[PackedArrival],
                _c: &DxArrivals<'_>,
                accept: &mut [bool],
            ) {
                accept.iter_mut().for_each(|f| *f = true);
            }
        }
        let topo = Mesh::new(3);
        // Two packets converge on (1,1) from both sides and both keep going;
        // with k=1 and accept-everything the queue must overflow.
        let pb = RoutingProblem::from_pairs(
            3,
            "overflow",
            [
                (Coord::new(0, 1), Coord::new(2, 1)),
                (Coord::new(1, 0), Coord::new(1, 2)),
            ],
        );
        let mut sim = Sim::new(&topo, Dx::new(Overflower), &pb);
        let _ = sim.run(10);
    }

    #[test]
    #[should_panic(expected = "non-minimal move")]
    fn minimality_check_ignores_router_edits_to_the_descriptors() {
        /// A broken wrapper: widens every profitable set in the slice it was
        /// handed mutably, then lets greedy route on the widened sets.
        struct Widener(Dx<Greedy>);
        impl Router for Widener {
            type NodeState = ();
            fn name(&self) -> String {
                "widener".into()
            }
            fn queue_arch(&self) -> QueueArch {
                self.0.queue_arch()
            }
            fn outqueue(
                &self,
                s: u64,
                n: Coord,
                st: &mut (),
                pkts: &mut [PackedView],
                c: &FullResidents<'_>,
                out: &mut [Option<usize>; 4],
            ) {
                for p in pkts.iter_mut() {
                    *p = p.with_profitable(DirSet::ALL);
                }
                self.0.outqueue(s, n, st, pkts, c, out);
            }
            fn inqueue(
                &self,
                s: u64,
                n: Coord,
                st: &mut (),
                l: &[u32],
                a: &mut [PackedArrival],
                c: &FullArrivals<'_>,
                accept: &mut [bool],
            ) {
                self.0.inqueue(s, n, st, l, a, c, accept);
            }
        }
        // Only East is profitable; greedy's canonical order takes North
        // first once the set is widened.
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_pairs(4, "widen", [(Coord::new(1, 1), Coord::new(3, 1))]);
        let mut sim = Sim::new(&topo, Widener(greedy(2)), &pb);
        let _ = sim.run(10);
    }

    #[test]
    fn determinism() {
        // k = 64 is effectively unbounded on an 8x8 mesh (64 packets total),
        // so the naive test router cannot deadlock.
        let topo = Mesh::new(8);
        let pb = mesh_traffic::workloads::random_permutation(8, 42);
        let mut a = Sim::new(&topo, greedy(64), &pb);
        let mut b = Sim::new(&topo, greedy(64), &pb);
        a.run(10_000).unwrap();
        b.run(10_000).unwrap();
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.packet_snapshot(), b.packet_snapshot());
    }

    #[test]
    fn report_counts_are_consistent() {
        let topo = Mesh::new(8);
        let pb = mesh_traffic::workloads::random_permutation(8, 7);
        let mut sim = Sim::new(&topo, greedy(64), &pb);
        sim.run(100_000).unwrap();
        let r = sim.report();
        assert!(r.completed);
        assert_eq!(r.delivered, r.total_packets);
        // Every packet moved exactly its manhattan distance (greedy is
        // minimal): total moves == total work.
        assert_eq!(r.total_moves, pb.total_work());
        assert!(r.max_latency as u64 <= r.steps);
        assert!(r.steps >= pb.diameter_bound() as u64);
    }

    #[test]
    fn step_limit_reports_error() {
        let topo = Mesh::new(8);
        let pb = RoutingProblem::from_pairs(8, "far", [(Coord::new(0, 0), Coord::new(7, 7))]);
        let mut sim = Sim::new(&topo, greedy(1), &pb);
        let err = sim.run(3).unwrap_err();
        assert!(matches!(err, SimError::StepCap(_)));
        assert_eq!(err.kind(), "step-cap");
        let snap = err.snapshot();
        assert_eq!(snap.step, 3);
        assert_eq!(snap.delivered, 0);
        assert_eq!(snap.total, 1);
        assert_eq!(snap.stuck.len(), 1);
        assert_eq!(snap.stuck[0].dst, Coord::new(7, 7));
        assert_eq!(snap.stuck[0].hops, 3);
        let msg = err.to_string();
        assert!(msg.contains("step limit reached"), "got: {msg}");
        assert!(msg.contains("0/1 delivered"), "got: {msg}");
    }

    /// A two-packet cyclic wait: on a 1-wide corridor with k=1 and a router
    /// that never yields, the two packets face each other forever. The
    /// watchdog must report `Deadlock` within its window — not spin to the
    /// step cap.
    #[test]
    fn watchdog_reports_cyclic_wait_as_deadlock() {
        let topo = Mesh::new(2);
        // (0,0)->(1,0) and (1,0)->(0,0): each needs the cell the other holds;
        // greedy's inqueue demands strict headroom, so neither ever moves.
        let pb = RoutingProblem::from_pairs(
            2,
            "face-off",
            [
                (Coord::new(0, 0), Coord::new(1, 0)),
                (Coord::new(1, 0), Coord::new(0, 0)),
            ],
        );
        let config = SimConfig {
            watchdog: Some(25),
            ..SimConfig::default()
        };
        let mut sim = Sim::with_config(&topo, greedy(1), &pb, config);
        let err = sim.run(100_000).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)), "got {err}");
        assert!(sim.steps() <= 30, "watchdog should fire within the window");
        let snap = err.snapshot();
        assert_eq!(snap.stuck.len(), 2);
        assert_eq!(snap.occupancy.len(), 2);
        assert!(snap.active_faults.is_empty());
    }

    /// The watchdog must never fire on a fault-free run that is making
    /// progress — even with the smallest sensible window.
    #[test]
    fn watchdog_never_trips_on_healthy_permutation() {
        let topo = Mesh::new(8);
        let pb = mesh_traffic::workloads::random_permutation(8, 13);
        let config = SimConfig {
            watchdog: Some(20),
            ..SimConfig::default()
        };
        let mut sim = Sim::with_config(&topo, greedy(64), &pb, config);
        sim.run(100_000).expect("healthy run must complete");
        assert!(sim.done());
    }

    /// The watchdog stays disarmed while injections are still scheduled:
    /// a long quiet gap before a late packet is not a deadlock.
    #[test]
    fn watchdog_waits_for_scheduled_injections() {
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_packets(
            4,
            "late",
            vec![mesh_traffic::Packet::injected_at(
                0,
                Coord::new(0, 0),
                Coord::new(1, 0),
                80,
            )],
        );
        let config = SimConfig {
            watchdog: Some(10),
            ..SimConfig::default()
        };
        let mut sim = Sim::with_config(&topo, greedy(1), &pb, config);
        let steps = sim.run(1000).expect("late injection is not a deadlock");
        assert_eq!(steps, 81);
    }
}

mod fault_tests {
    use super::tests::Greedy;
    use super::*;
    use crate::router::Dx;
    use mesh_faults::FaultPlan;
    use mesh_topo::Mesh;
    use mesh_traffic::{workloads, RoutingProblem};

    fn greedy(k: u32) -> Dx<Greedy> {
        Dx::new(Greedy { k })
    }

    /// An *empty* fault plan must be indistinguishable from no plan at all:
    /// identical step counts and identical per-packet trajectories.
    #[test]
    fn empty_plan_is_exactly_no_plan() {
        let topo = Mesh::new(8);
        let pb = workloads::random_permutation(8, 99);
        let mut plain = Sim::new(&topo, greedy(3), &pb);
        let mut faulted = Sim::with_faults(
            &topo,
            greedy(3),
            &pb,
            SimConfig::default(),
            FaultPlan::none(8).compile(),
        );
        let a = plain.run(100_000).unwrap();
        let b = faulted.run(100_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(plain.packet_snapshot(), faulted.packet_snapshot());
        assert_eq!(plain.report().total_moves, faulted.report().total_moves);
    }

    /// A down link carries nothing while down; traffic resumes once it
    /// lifts. One packet, one link on its only path, fault for steps [0, 10).
    #[test]
    fn transient_link_fault_delays_crossing() {
        let topo = Mesh::new(3);
        let pb = RoutingProblem::from_pairs(3, "cross", [(Coord::new(0, 0), Coord::new(1, 0))]);
        let faults = FaultPlan::none(3)
            .link_down(Coord::new(0, 0), Dir::East, 0, Some(10))
            .compile();
        let mut sim = Sim::with_faults(&topo, greedy(1), &pb, SimConfig::default(), faults);
        let steps = sim.run(100).unwrap();
        // The link is down during steps 0..10 (t0 = 0..=9); the move happens
        // during t0 = 10, i.e. run completes after 11 steps.
        assert_eq!(steps, 11);
    }

    /// A stalled node neither sends nor accepts: neighbors' packets aimed at
    /// it wait, and its own packets freeze.
    #[test]
    fn stalled_node_freezes_traffic_through_it() {
        let topo = Mesh::new(3);
        // Packet A crosses the center; packet B starts at the center.
        let pb = RoutingProblem::from_pairs(
            3,
            "through-center",
            [
                (Coord::new(0, 1), Coord::new(2, 1)),
                (Coord::new(1, 1), Coord::new(1, 2)),
            ],
        );
        let faults = FaultPlan::none(3)
            .stall(Coord::new(1, 1), 0, Some(5))
            .compile();
        let mut sim = Sim::with_faults(&topo, greedy(2), &pb, SimConfig::default(), faults);
        for _ in 0..5 {
            sim.step();
        }
        // While stalled: A could not enter the center, and B — whose source
        // *is* the stalled node — could not even inject.
        assert_eq!(
            sim.loc(mesh_traffic::PacketId(0)),
            Loc::At(Coord::new(0, 1))
        );
        assert_eq!(sim.loc(mesh_traffic::PacketId(1)), Loc::Pending);
        let steps = sim.run(100).unwrap();
        assert!(sim.done());
        assert!(
            steps >= 7,
            "stall must have cost at least 5 steps, took {steps}"
        );
    }

    /// Queue degradation clamps *new* acceptance without evicting residents:
    /// with k=2 degraded by 1, a node holding one packet accepts nothing.
    #[test]
    fn degraded_queue_rejects_at_reduced_capacity() {
        let topo = Mesh::new(3);
        // B parks at (1,0) (its destination is further, but it is boxed in by
        // A's passage); simpler: A at (0,0) moving east to (2,0), B resident
        // at (1,0) headed to (1,2) but stalled by... use a plain check: A
        // wants to enter (1,0) which already holds B; degraded k=2 -> room 0.
        let pb = RoutingProblem::from_pairs(
            3,
            "degrade",
            [
                (Coord::new(0, 0), Coord::new(2, 0)),
                (Coord::new(1, 0), Coord::new(1, 1)),
            ],
        );
        // Stall B's node? No: degrade (1,0) by one slot for the whole run and
        // ALSO make B immobile by downing its only profitable link. Then A
        // can never pass through (1,0) while degradation holds.
        let faults = FaultPlan::none(3)
            .degrade(Coord::new(1, 0), 1, 0, Some(20))
            .link_down(Coord::new(1, 0), Dir::North, 0, Some(20))
            .compile();
        let mut sim = Sim::with_faults(&topo, greedy(2), &pb, SimConfig::default(), faults);
        for _ in 0..20 {
            sim.step();
        }
        // Throughout the fault window, A never entered (1,0): k=2 minus one
        // degraded slot leaves room 1, fully used by resident B.
        assert_eq!(
            sim.loc(mesh_traffic::PacketId(0)),
            Loc::At(Coord::new(0, 0))
        );
        // After the faults lift everything drains.
        sim.run(100).unwrap();
        assert!(sim.done());
    }

    /// Deliveries are exempt from degradation: a packet arriving *at its
    /// destination* consumes no queue slot and must not be clamped.
    #[test]
    fn degradation_does_not_block_delivery() {
        let topo = Mesh::new(2);
        let pb = RoutingProblem::from_pairs(2, "deliver", [(Coord::new(0, 0), Coord::new(1, 0))]);
        // Degrade the destination to zero effective capacity.
        let faults = FaultPlan::none(2)
            .degrade(Coord::new(1, 0), 1, 0, None)
            .compile();
        let mut sim = Sim::with_faults(&topo, greedy(1), &pb, SimConfig::default(), faults);
        assert_eq!(sim.run(10).unwrap(), 1);
    }

    /// A permanent link fault on the only profitable path, plus the watchdog:
    /// the run must end in `Deadlock` carrying the fault in its snapshot —
    /// not a panic, not a step-cap timeout.
    #[test]
    fn permanent_fault_is_reported_as_deadlock_with_fault_context() {
        let topo = Mesh::new(3);
        let pb = RoutingProblem::from_pairs(3, "blocked", [(Coord::new(0, 0), Coord::new(2, 0))]);
        let faults = FaultPlan::none(3)
            .link_down(Coord::new(0, 0), Dir::East, 0, None)
            .compile();
        let config = SimConfig {
            watchdog: Some(30),
            ..SimConfig::default()
        };
        let mut sim = Sim::with_faults(&topo, greedy(1), &pb, config, faults);
        let err = sim.run(100_000).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)), "got {err}");
        let snap = err.snapshot();
        assert_eq!(snap.active_faults.len(), 1);
        assert_eq!(snap.stuck.len(), 1);
        assert!(err.to_string().contains("link (0,0)-E down"), "got {err}");
    }

    /// The watchdog holds off while a *transient* fault might still lift,
    /// then the run completes normally.
    #[test]
    fn watchdog_waits_out_transient_faults() {
        let topo = Mesh::new(3);
        let pb = RoutingProblem::from_pairs(3, "patience", [(Coord::new(0, 0), Coord::new(1, 0))]);
        let faults = FaultPlan::none(3)
            .link_down(Coord::new(0, 0), Dir::East, 0, Some(200))
            .compile();
        let config = SimConfig {
            watchdog: Some(10),
            ..SimConfig::default()
        };
        let mut sim = Sim::with_faults(&topo, greedy(1), &pb, config, faults);
        let steps = sim.run(1000).expect("fault lifts; not a deadlock");
        assert_eq!(steps, 201);
    }

    /// A node stalled from step 0 does not inject its static packet until
    /// the stall lifts.
    #[test]
    fn stall_at_step_zero_blocks_injection() {
        let topo = Mesh::new(3);
        let pb = RoutingProblem::from_pairs(3, "held", [(Coord::new(0, 0), Coord::new(1, 0))]);
        let faults = FaultPlan::none(3)
            .stall(Coord::new(0, 0), 0, Some(4))
            .compile();
        let mut sim = Sim::with_faults(&topo, greedy(1), &pb, SimConfig::default(), faults);
        assert_eq!(sim.loc(mesh_traffic::PacketId(0)), Loc::Pending);
        let steps = sim.run(100).unwrap();
        assert!(steps >= 5, "stall held injection, took {steps}");
        assert!(sim.done());
    }
}

mod stats_tests {
    use super::*;
    use crate::router::Dx;
    use mesh_topo::Mesh;

    #[test]
    fn stats_accessors_are_consistent() {
        // Reuse the greedy test router defined in `tests`.
        let topo = Mesh::new(8);
        let pb = mesh_traffic::workloads::random_permutation(8, 21);
        let mut sim = Sim::new(&topo, Dx::new(tests::Greedy { k: 64 }), &pb);
        sim.run(10_000).unwrap();
        let d = sim.latency_distribution();
        assert_eq!(d.count, 64);
        assert!(d.max as u64 <= sim.steps());
        assert!(d.min >= 1 || pb.packets.iter().any(|p| p.src == p.dst));
        let map = sim.congestion_map();
        assert_eq!(map.values.len(), 64);
        assert_eq!(
            map.values.iter().copied().max().unwrap(),
            sim.report().max_node_load
        );
        let curve = sim.delivery_curve();
        assert_eq!(
            curve.per_step.iter().map(|&c| c as usize).sum::<usize>(),
            64
        );
        assert_eq!(
            curve.completion_step(64, 1.0),
            Some(sim.report().max_latency)
        );
    }
}

mod conservation_tests {
    use super::*;
    use crate::router::Dx;
    use mesh_topo::{Mesh, Topology};
    use mesh_traffic::workloads;

    /// Packet conservation: at every step, delivered + in-network + pending
    /// partitions the packet set, and queue contents are globally consistent
    /// with per-packet locations.
    #[test]
    fn packets_are_conserved_every_step() {
        let topo = Mesh::new(12);
        let pb = workloads::dynamic_bernoulli(12, 0.05, 40, 3);
        let mut sim = Sim::new(&topo, Dx::new(super::tests::Greedy { k: 3 }), &pb);
        for _ in 0..600 {
            let done = sim.step();
            let mut delivered = 0;
            let mut in_network = 0;
            let mut pending = 0;
            let mut lost = 0;
            for i in 0..sim.num_packets() {
                match sim.loc(mesh_traffic::PacketId(i as u32)) {
                    Loc::Delivered => delivered += 1,
                    Loc::At(c) => {
                        in_network += 1;
                        // The node's queues must actually contain it.
                        assert!(
                            sim.packets_at(c)
                                .any(|p| p == mesh_traffic::PacketId(i as u32)),
                            "packet {i} location desynchronized"
                        );
                    }
                    Loc::Pending => pending += 1,
                    Loc::Lost => lost += 1,
                    Loc::Shed | Loc::Expired => {
                        panic!("packet {i} shed/expired under the closed-system default policy")
                    }
                }
            }
            assert_eq!(delivered + in_network + pending + lost, sim.num_packets());
            assert_eq!(delivered, sim.delivered());
            assert_eq!(lost, sim.lost());
            assert_eq!(lost, 0, "no lossy faults in this plan");
            // And the reverse: every queued id maps back to that node.
            for c in topo.coords() {
                for p in sim.packets_at(c) {
                    assert_eq!(sim.loc(p), Loc::At(c));
                }
            }
            if done {
                break;
            }
        }
        assert!(sim.done(), "dynamic traffic should drain");
    }

    /// Moves are monotone: total_moves never decreases and increases by at
    /// most one per directed link per step (4·n² absolute cap).
    #[test]
    fn move_accounting_is_bounded_per_step() {
        let topo = Mesh::new(10);
        let pb = workloads::random_permutation(10, 5);
        let mut sim = Sim::new(&topo, Dx::new(super::tests::Greedy { k: 100 }), &pb);
        let mut last = 0;
        while !sim.step() {
            let now = sim.report().total_moves;
            assert!(now >= last);
            assert!(now - last <= 4 * 100, "more moves than links in a step");
            last = now;
            assert!(
                sim.steps() <= 10_000,
                "did not finish within 10000 steps: {}",
                sim.diagnostics()
            );
        }
    }
}

mod chaos_tests {
    //! Fuzzing the engine with a "chaos router": a deterministic but
    //! arbitrary-looking destination-exchangeable policy (decisions from a
    //! hash of step/node/packet data). Whatever the policy does, the engine
    //! must uphold the model: one packet per link, capacity bounds, packet
    //! conservation, minimality of scheduled moves.

    use super::*;
    use crate::queue::QueueArch;
    use crate::router::{Dx, DxRouter};
    use mesh_topo::{Mesh, ALL_DIRS};
    use mesh_traffic::workloads;

    struct Chaos {
        seed: u64,
        k: u32,
    }

    fn hash(mut x: u64) -> u64 {
        // splitmix64
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    impl DxRouter for Chaos {
        type NodeState = u64;

        fn name(&self) -> String {
            format!("chaos({})", self.seed)
        }

        fn queue_arch(&self) -> QueueArch {
            QueueArch::Central { k: self.k }
        }

        fn outqueue(
            &self,
            step: u64,
            node: Coord,
            state: &mut u64,
            pkts: &[PackedView],
            cold: &DxResidents<'_>,
            out: &mut [Option<usize>; 4],
        ) {
            *state = hash(*state ^ step);
            for (i, p) in pkts.iter().enumerate() {
                let dirs = p.profitable();
                if dirs.is_empty() {
                    continue;
                }
                let h = hash(
                    self.seed
                        ^ step
                        ^ ((node.x as u64) << 32)
                        ^ node.y as u64
                        ^ cold.id(i).0 as u64,
                );
                // Sometimes refuse to schedule at all.
                if h.is_multiple_of(5) {
                    continue;
                }
                let pick = (h as usize / 7) % dirs.len() as usize;
                let d = dirs.iter().nth(pick).expect("pick < len");
                if out[d.index()].is_none() {
                    out[d.index()] = Some(i);
                }
            }
        }

        fn inqueue(
            &self,
            step: u64,
            node: Coord,
            _state: &mut u64,
            queue_lens: &[u32],
            _arrivals: &[PackedArrival],
            cold: &DxArrivals<'_>,
            accept: &mut [bool],
        ) {
            let mut room = self.k.saturating_sub(queue_lens[0]);
            for (i, a) in accept.iter_mut().enumerate() {
                let h = hash(
                    self.seed
                        ^ step
                        ^ node.x as u64
                        ^ ((node.y as u64) << 16)
                        ^ cold.id(i).0 as u64,
                );
                if room > 0 && !h.is_multiple_of(3) {
                    *a = true;
                    room -= 1;
                }
            }
        }

        fn end_of_step(
            &self,
            step: u64,
            _node: Coord,
            _state: &mut u64,
            _pkts: &[PackedView],
            _cold: &DxResidents<'_>,
            states: &mut [u64],
        ) {
            for s in states.iter_mut() {
                *s = hash(*s ^ step);
            }
        }
    }

    #[test]
    fn engine_invariants_hold_under_arbitrary_policies() {
        for seed in 0..8u64 {
            for k in [1u32, 2, 5] {
                let topo = Mesh::new(9);
                let pb = workloads::random_partial_permutation(9, 0.6, seed);
                let mut sim = Sim::new(&topo, Dx::new(Chaos { seed, k }), &pb);
                // Chaos may never finish; run a bounded window. The
                // engine's internal validation (capacity, minimality, one
                // packet per link) panics on any violation — and the
                // occupancy-within-capacity audit must hold after *every*
                // step, not just at the end.
                for _ in 0..600 {
                    let done = sim.step();
                    sim.assert_queue_invariants();
                    if done {
                        break;
                    }
                }
                let r = sim.report();
                assert!(r.max_queue <= k, "seed={seed} k={k}");
                assert!(r.delivered <= r.total_packets);
                // Moves of delivered packets are exactly their distances
                // (minimal moves only) — undelivered ones are en route,
                // so total moves never exceeds total work.
                assert!(r.total_moves <= pb.total_work());
            }
        }
    }

    #[test]
    fn chaos_runs_are_reproducible() {
        let topo = Mesh::new(9);
        let pb = workloads::random_partial_permutation(9, 0.5, 3);
        let run = |seed| {
            let mut sim = Sim::new(&topo, Dx::new(Chaos { seed, k: 2 }), &pb);
            let _ = sim.run(400);
            sim.packet_snapshot()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different chaos seeds should diverge");
    }

    #[test]
    fn chaos_respects_link_exclusivity() {
        // Count arrivals per (node, from) per step via a hook: at most one.
        let topo = Mesh::new(9);
        let pb = workloads::random_partial_permutation(9, 0.8, 11);
        let mut sim = Sim::new(&topo, Dx::new(Chaos { seed: 5, k: 3 }), &pb);
        let mut hook = |ctx: &mut crate::hook::HookCtx<'_>| {
            let mut seen = std::collections::HashSet::new();
            for m in ctx.moves {
                assert!(
                    seen.insert((m.from, m.travel)),
                    "two packets scheduled on one link"
                );
                for d in ALL_DIRS {
                    let _ = d;
                }
            }
        };
        let _ = sim.run_with_hook(400, &mut hook);
    }
}

mod loss_and_protocol_tests {
    //! Lossy links, runtime spawning, and the protocol driving loop.

    use super::*;
    use crate::protocol::{ProtocolControl, ProtocolHook, StepEvents};
    use crate::router::Dx;
    use mesh_faults::FaultPlan;
    use mesh_topo::Mesh;
    use mesh_traffic::RoutingProblem;

    fn one_packet(n: u32, src: Coord, dst: Coord) -> RoutingProblem {
        RoutingProblem::from_pairs(n, "one", [(src, dst)])
    }

    #[test]
    fn lossy_link_destroys_the_packet_in_flight() {
        let topo = Mesh::new(4);
        let pb = one_packet(4, Coord::new(0, 0), Coord::new(3, 0));
        let faults = FaultPlan::none(4)
            .lossy(Coord::new(1, 0), Dir::East, 0, None)
            .compile();
        let mut sim = Sim::with_faults(
            &topo,
            Dx::new(tests::Greedy { k: 4 }),
            &pb,
            SimConfig {
                watchdog: Some(8),
                ..SimConfig::default()
            },
            faults,
        );
        // Step 1: (0,0) -> (1,0). Step 2: transmitted over the lossy link,
        // destroyed.
        assert!(!sim.step());
        assert_eq!(sim.loc(PacketId(0)), Loc::At(Coord::new(1, 0)));
        assert!(!sim.step());
        assert_eq!(sim.loc(PacketId(0)), Loc::Lost);
        assert_eq!(sim.lost(), 1);
        assert_eq!(sim.last_step_losses(), &[PacketId(0)]);
        assert_eq!(sim.packet_hops()[0], 2, "the fatal hop counts");
        assert_eq!(sim.report().total_moves, 2);
        assert!(sim.packets_at(Coord::new(1, 0)).next().is_none());
        // The run can never finish; the watchdog reports the wedge and the
        // diagnostics account for the loss.
        let err = sim.run(1_000).unwrap_err();
        let snap = err.snapshot();
        assert_eq!(snap.lost, 1);
        assert_eq!(snap.pending, 0);
        assert!(snap.stuck.is_empty());
        assert!(err.to_string().contains("1 lost to faulty links"), "{err}");
    }

    #[test]
    fn loss_interval_boundaries_are_respected() {
        // The same route, but the loss interval ends before the packet
        // reaches the link: it crosses unharmed.
        let topo = Mesh::new(4);
        let pb = one_packet(4, Coord::new(0, 0), Coord::new(3, 0));
        let faults = FaultPlan::none(4)
            .lossy(Coord::new(1, 0), Dir::East, 0, Some(1))
            .compile();
        let mut sim = Sim::with_faults(
            &topo,
            Dx::new(tests::Greedy { k: 4 }),
            &pb,
            SimConfig::default(),
            faults,
        );
        assert_eq!(sim.run(100).unwrap(), 3);
        assert_eq!(sim.lost(), 0);
    }

    #[test]
    fn down_takes_precedence_over_lossy_on_the_same_link() {
        // A link both down and lossy blocks the move (packet survives at
        // its sender) rather than eating the packet.
        let topo = Mesh::new(4);
        let pb = one_packet(4, Coord::new(0, 0), Coord::new(2, 0));
        let faults = FaultPlan::none(4)
            .link_down(Coord::new(1, 0), Dir::East, 0, Some(5))
            .lossy(Coord::new(1, 0), Dir::East, 0, Some(5))
            .compile();
        let mut sim = Sim::with_faults(
            &topo,
            Dx::new(tests::Greedy { k: 4 }),
            &pb,
            SimConfig::default(),
            faults,
        );
        for _ in 0..4 {
            sim.step();
        }
        assert_eq!(sim.loc(PacketId(0)), Loc::At(Coord::new(1, 0)));
        assert_eq!(sim.lost(), 0);
        assert!(sim.run(100).is_ok(), "delivers after the fault lifts");
    }

    #[test]
    fn spawn_injects_like_any_other_packet() {
        let topo = Mesh::new(4);
        let pb = one_packet(4, Coord::new(0, 0), Coord::new(3, 3));
        let mut sim = Sim::new(&topo, Dx::new(tests::Greedy { k: 4 }), &pb);
        sim.step();
        let id = sim.spawn(Coord::new(3, 0), Coord::new(0, 0), sim.steps());
        assert_eq!(id, PacketId(1));
        assert_eq!(sim.num_packets(), 2);
        assert_eq!(sim.loc(id), Loc::Pending);
        sim.run(100).unwrap();
        assert!(sim.done());
        assert_eq!(sim.delivered(), 2);
        assert!(sim.delivered_step(id).unwrap() >= 2);
        // Deliveries surfaced through the per-step events as they happened.
        assert_eq!(sim.last_step_deliveries().len(), 1);
    }

    #[test]
    #[should_panic(expected = "spawn at step")]
    fn spawn_rejects_past_injection_times() {
        let topo = Mesh::new(4);
        let pb = one_packet(4, Coord::new(0, 0), Coord::new(3, 3));
        let mut sim = Sim::new(&topo, Dx::new(tests::Greedy { k: 4 }), &pb);
        sim.step();
        sim.spawn(Coord::new(0, 0), Coord::new(1, 1), 0);
    }

    #[test]
    fn deferred_injections_are_counted() {
        // k = 1 and three same-source packets: two wait outside the network
        // on the first step.
        let n = 4;
        let topo = Mesh::new(n);
        let s = Coord::new(0, 0);
        let pb = RoutingProblem::from_pairs(
            n,
            "burst",
            [
                (s, Coord::new(3, 0)),
                (s, Coord::new(3, 1)),
                (s, Coord::new(3, 2)),
            ],
        );
        let mut sim = Sim::new(&topo, Dx::new(tests::Greedy { k: 1 }), &pb);
        assert_eq!(sim.deferred_injections(), 2, "two deferred at t=0");
        assert!(!sim.injections_exhausted());
        sim.run(100).unwrap();
        assert!(sim.injections_exhausted());
        assert!(sim.report().deferred_injections >= 2);
    }

    /// A deliberately minimal transport: resend every lost packet once per
    /// loss event, succeed when everything (original or resend) arrived.
    struct Resend {
        outstanding: usize,
    }

    impl ProtocolHook for Resend {
        fn on_step<T: Topology, R: Router>(
            &mut self,
            sim: &mut Sim<'_, T, R>,
            events: &StepEvents,
        ) -> ProtocolControl {
            self.outstanding -= events.delivered.len();
            for &p in &events.lost {
                let (src, dst) = (sim.src(p), sim.dst(p));
                sim.spawn(src, dst, events.step);
            }
            if self.outstanding == 0 {
                ProtocolControl::Done
            } else {
                ProtocolControl::Continue {
                    outstanding: self.outstanding,
                }
            }
        }
    }

    #[test]
    fn run_with_protocol_recovers_a_lost_packet() {
        let topo = Mesh::new(4);
        let pb = one_packet(4, Coord::new(0, 0), Coord::new(3, 0));
        // Lossy only during the first crossing; the resend gets through.
        let faults = FaultPlan::none(4)
            .lossy(Coord::new(1, 0), Dir::East, 0, Some(2))
            .compile();
        let mut sim = Sim::with_faults(
            &topo,
            Dx::new(tests::Greedy { k: 4 }),
            &pb,
            SimConfig {
                watchdog: Some(16),
                ..SimConfig::default()
            },
            faults,
        );
        let mut proto = Resend { outstanding: 1 };
        let steps = sim.run_with_protocol(1_000, &mut proto).unwrap();
        assert_eq!(sim.lost(), 1);
        assert_eq!(sim.delivered(), 1);
        assert_eq!(sim.num_packets(), 2, "one original + one resend");
        assert!(steps > 3, "loss plus resend costs extra steps");
    }

    #[test]
    fn run_with_protocol_reports_livelock_when_starved() {
        // Permanently lossy link on the only minimal path: every resend is
        // eaten too. The protocol-aware watchdog must flag the wedge (as
        // delivery starvation) instead of waiting forever on the endless
        // resend activity.
        let topo = Mesh::new(4);
        let pb = one_packet(4, Coord::new(0, 0), Coord::new(3, 0));
        let faults = FaultPlan::none(4)
            .lossy(Coord::new(0, 0), Dir::East, 0, None)
            .compile();
        let mut sim = Sim::with_faults(
            &topo,
            Dx::new(tests::Greedy { k: 4 }),
            &pb,
            SimConfig {
                watchdog: Some(12),
                ..SimConfig::default()
            },
            faults,
        );
        let mut proto = Resend { outstanding: 1 };
        let err = sim.run_with_protocol(10_000, &mut proto).unwrap_err();
        assert!(matches!(err, SimError::Livelock(_)), "got {err}");
        assert!(err.snapshot().lost >= 1);
    }
}

mod steady_tests {
    use super::*;
    use crate::protocol::{ProtocolControl, ProtocolHook, StepEvents};
    use crate::router::Dx;
    use crate::sim::AdmissionPolicy;
    use crate::snapshot::{MemorySink, SnapshotHook};
    use crate::steady::SteadyConfig;
    use mesh_topo::Mesh;
    use mesh_traffic::workloads;

    fn config(admission: AdmissionPolicy) -> SimConfig {
        SimConfig {
            admission,
            watchdog: Some(64),
            ..SimConfig::default()
        }
    }

    #[test]
    fn sub_saturation_run_measures_all_windows() {
        let topo = Mesh::new(8);
        let cfg = SteadyConfig {
            warmup: 32,
            window: 32,
            windows: 3,
        };
        let pb = workloads::open_bernoulli(8, 0.05, cfg.horizon(), 11);
        let mut sim = Sim::with_config(
            &topo,
            Dx::new(tests::Greedy { k: 3 }),
            &pb,
            config(AdmissionPolicy::DeferIndefinitely),
        );
        let rep = sim.run_steady(cfg).expect("sub-saturation steady run");
        assert_eq!(rep.frames.len(), 3);
        assert!(rep.goodput() > 0.0, "λ=0.05 must deliver");
        for f in &rep.frames {
            assert_eq!(f.shed + f.expired, 0, "closed-system policy never sheds");
            assert!(f.end_step > f.start_step);
        }
        assert!(rep.latency.count > 0);
        sim.assert_conservation();
    }

    #[test]
    fn overloaded_reject_new_sheds_and_stays_live() {
        let topo = Mesh::new(6);
        let cfg = SteadyConfig {
            warmup: 32,
            window: 32,
            windows: 3,
        };
        // λ = 2.0: two packets per node per step, far past saturation.
        let pb = workloads::open_bernoulli(6, 2.0, cfg.horizon(), 7);
        let mut sim = Sim::with_config(
            &topo,
            Dx::new(tests::Greedy { k: 2 }),
            &pb,
            config(AdmissionPolicy::RejectNew),
        );
        let rep = sim
            .run_steady(cfg)
            .expect("overload watchdog must not trip while shedding");
        assert!(sim.shed() > 0, "2x saturation under RejectNew must shed");
        assert_eq!(
            sim.pending_injections(),
            0,
            "RejectNew never leaves an edge backlog"
        );
        assert!(rep.goodput() > 0.0, "saturated but making progress");
        sim.assert_conservation();
        let r = sim.report();
        assert_eq!(r.shed, sim.shed());
        assert_eq!(r.expired, 0);
    }

    #[test]
    fn deadline_expiry_expires_stale_staged_packets() {
        let topo = Mesh::new(6);
        let cfg = SteadyConfig {
            warmup: 32,
            window: 32,
            windows: 3,
        };
        let pb = workloads::open_bernoulli(6, 1.5, cfg.horizon(), 9);
        let mut sim = Sim::with_config(
            &topo,
            Dx::new(tests::Greedy { k: 2 }),
            &pb,
            config(AdmissionPolicy::DeadlineExpiry { ttl: 4 }),
        );
        sim.run_steady(cfg).expect("expiry keeps the run live");
        assert!(sim.expired() > 0, "stale staged packets must expire");
        assert_eq!(sim.shed(), 0, "expiry is not shedding");
        sim.assert_conservation();
    }

    #[test]
    fn drop_oldest_bounds_the_edge_backlog_every_step() {
        let topo = Mesh::new(6);
        let horizon = 120;
        let pb = workloads::open_bernoulli(6, 1.5, horizon, 13);
        let max_deferred = 2u32;
        let mut sim = Sim::with_config(
            &topo,
            Dx::new(tests::Greedy { k: 2 }),
            &pb,
            config(AdmissionPolicy::DropOldestDeferred { max_deferred }),
        );
        let cap = max_deferred as usize * 36;
        for _ in 0..horizon {
            sim.step();
            assert!(
                sim.pending_injections() <= cap,
                "edge backlog {} exceeds bound {cap}",
                sim.pending_injections()
            );
            sim.assert_conservation();
            sim.assert_queue_invariants();
        }
        assert!(sim.shed() > 0, "1.5x saturation must evict oldest");
    }

    #[test]
    fn diagnostics_surface_overload_counters() {
        let topo = Mesh::new(6);
        let pb = workloads::open_bernoulli(6, 2.0, 64, 3);
        let mut sim = Sim::with_config(
            &topo,
            Dx::new(tests::Greedy { k: 2 }),
            &pb,
            config(AdmissionPolicy::RejectNew),
        );
        for _ in 0..64 {
            sim.step();
        }
        let d = sim.diagnostics();
        assert_eq!(d.shed, sim.shed());
        assert!(d.shed > 0);
        assert_eq!(d.offered, sim.offered());
        let text = d.to_string();
        assert!(text.contains("overload:"), "got: {text}");
        assert!(text.contains("offered rate"), "got: {text}");
    }

    #[test]
    fn steady_resume_mid_soak_is_byte_identical() {
        let topo = Mesh::new(6);
        let cfg = SteadyConfig {
            warmup: 24,
            window: 24,
            windows: 4,
        };
        let pb = workloads::open_bernoulli(6, 0.4, cfg.horizon(), 21);
        let mk_config = || SimConfig {
            admission: AdmissionPolicy::DeadlineExpiry { ttl: 16 },
            watchdog: Some(64),
            checkpoint_every: Some(10),
            ..SimConfig::default()
        };
        let mut full_sink = MemorySink::default();
        let mut sim = Sim::with_config(&topo, Dx::new(tests::Greedy { k: 2 }), &pb, mk_config());
        let full = sim
            .run_steady_checkpointed(cfg, 0.4, None, &mut full_sink, None)
            .expect("full soak");
        let full_json = serde_json::to_string(&full).unwrap();
        let full_report = serde_json::to_string(&sim.report()).unwrap();
        assert!(
            !full_sink.checkpoints.is_empty(),
            "cadence 10 must checkpoint"
        );
        // Every steady checkpoint carries its environment block.
        for snap in &full_sink.checkpoints {
            let env = snap.steady.expect("steady checkpoint must stamp env");
            assert_eq!(env.lambda, 0.4);
            assert_eq!(env.config, cfg);
        }
        // Resume from every checkpoint (warmup, mid-window, boundary) and
        // demand the identical report each time.
        for snap in &full_sink.checkpoints {
            let mut resumed = Sim::restore(
                &topo,
                Dx::new(tests::Greedy { k: 2 }),
                mk_config(),
                None,
                snap,
            )
            .expect("restore mid-soak checkpoint");
            let mut sink = MemorySink::default();
            let rep = resumed
                .run_steady_checkpointed(cfg, 0.4, snap.protocol.as_ref(), &mut sink, None)
                .expect("resumed soak");
            assert_eq!(
                serde_json::to_string(&rep).unwrap(),
                full_json,
                "resume from step {} diverged",
                snap.step
            );
            assert_eq!(
                serde_json::to_string(&resumed.report()).unwrap(),
                full_report,
                "final report after resume from step {} diverged",
                snap.step
            );
        }
    }

    /// A protocol with no behaviour of its own: finished once every packet
    /// has arrived.
    struct Passive {
        outstanding: usize,
    }

    impl ProtocolHook for Passive {
        fn on_step<T: Topology, R: Router>(
            &mut self,
            _sim: &mut Sim<'_, T, R>,
            events: &StepEvents,
        ) -> ProtocolControl {
            self.outstanding -= events.delivered.len();
            match self.outstanding {
                0 => ProtocolControl::Done,
                outstanding => ProtocolControl::Continue { outstanding },
            }
        }
    }

    impl SnapshotHook for Passive {
        fn snapshot_state(&self) -> serde::Value {
            serde::Value::U64(self.outstanding as u64)
        }

        fn restore_state(&mut self, v: &serde::Value) -> Result<(), serde::Error> {
            self.outstanding = serde::Deserialize::deserialize(v)?;
            Ok(())
        }
    }

    /// The invariant the one checkpointing path owns: for every run flavor
    /// it changes nothing the simulation computes, it sees every surviving
    /// step, and it never sees the terminal one.
    #[test]
    fn checkpointing_observes_every_flavor_and_never_a_terminal_step() {
        let topo = Mesh::new(6);
        let pb = workloads::random_permutation(6, 3);
        let schedule = SteadyConfig {
            warmup: 4,
            window: 8,
            windows: 64,
        };
        let sim = || {
            let config = SimConfig {
                checkpoint_every: Some(1),
                ..SimConfig::default()
            };
            Sim::with_config(&topo, Dx::new(tests::Greedy { k: 2 }), &pb, config)
        };
        let passive = || Passive {
            outstanding: pb.len(),
        };
        let mut plain = [sim(), sim(), sim()];
        plain[0].run(1_000).unwrap();
        plain[1].run_with_protocol(1_000, &mut passive()).unwrap();
        plain[2].run_steady(schedule).unwrap();
        let mut observed = [sim(), sim(), sim()];
        let mut sinks: [MemorySink; 3] = Default::default();
        observed[0].run_checkpointed(1_000, &mut sinks[0]).unwrap();
        observed[1]
            .run_with_protocol_checkpointed(1_000, &mut passive(), &mut sinks[1])
            .unwrap();
        observed[2]
            .run_steady_checkpointed(schedule, 0.0, None, &mut sinks[2], None)
            .unwrap();

        let want = serde_json::to_string(&plain[0].report()).unwrap();
        let steps = plain[0].steps();
        assert!(plain[0].done() && steps > 2);
        for sim in plain.iter().chain(&observed) {
            assert_eq!(serde_json::to_string(&sim.report()).unwrap(), want);
        }
        for (flavor, sink) in sinks.iter().enumerate() {
            let taken: Vec<u64> = sink.checkpoints.iter().map(|s| s.step).collect();
            let surviving: Vec<u64> = (1..steps).collect();
            assert_eq!(taken, surviving, "flavor {flavor}");
            assert!(sink.failure.is_none());
        }
    }

    #[test]
    fn restore_rejects_admission_policy_mismatch() {
        let topo = Mesh::new(6);
        let pb = workloads::open_bernoulli(6, 0.3, 40, 5);
        let cfg = SimConfig {
            admission: AdmissionPolicy::RejectNew,
            ..SimConfig::default()
        };
        let mut sim = Sim::with_config(&topo, Dx::new(tests::Greedy { k: 2 }), &pb, cfg);
        for _ in 0..10 {
            sim.step();
        }
        let snap = sim.snapshot();
        let res = Sim::restore(
            &topo,
            Dx::new(tests::Greedy { k: 2 }),
            SimConfig::default(),
            None,
            &snap,
        );
        match res {
            Err(crate::snapshot::SnapshotError::Mismatch(_)) => {}
            Err(other) => panic!("wrong error kind: {other}"),
            Ok(_) => panic!("restore must reject an admission-policy mismatch"),
        }
    }
}

mod storage_tests {
    use crate::invariants::{check_conservation, check_queues};
    use crate::phases::Progress;
    use crate::queue::QueueArch;
    use crate::snapshot::EventsSnap;
    use crate::storage::{Loc, NodeGrid, PacketStore};
    use mesh_topo::{Coord, Mesh, Topology};
    use mesh_traffic::{PacketId, RoutingProblem};

    /// Deterministic 64-bit LCG, top bits only (as in `arena_tests`).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Op-level check of the packet table's three transitions: a random
    /// enter/depart/retire stream, one operation per simulated step, with
    /// both state checkers (and the cached masks) consulted after every
    /// one. No router and no phase code runs: what holds here holds because
    /// `storage.rs` moves a location, its counter and its queue together.
    /// The faulted stream adds what only faults and admission control do:
    /// losses in flight, shedding and expiry at the edge, expiry in-queue.
    #[test]
    fn transitions_keep_every_invariant_under_random_ops() {
        for (arch, faulted, seed) in [
            (QueueArch::Central { k: 2 }, false, 21u64),
            (QueueArch::PerInlink { k: 1 }, true, 22),
        ] {
            let n = 4u32;
            let topo = Mesh::new(n);
            let mut rng = seed;
            let cell = |r: u64| Coord::new(r as u32 % n, r as u32 / n % n);
            let pairs: Vec<_> = (0..200)
                .map(|_| (cell(lcg(&mut rng)), cell(lcg(&mut rng))))
                .collect();
            let pb = RoutingProblem::from_pairs(n, "ops", pairs);
            let mut store = PacketStore::new(&pb);
            let mut grid = NodeGrid::new(n, arch);
            let (mut progress, mut events) = (Progress::default(), EventsSnap::default());
            let origin = arch.origin_queue();
            let room = |grid: &NodeGrid, ni: usize, kind| {
                arch.capacity(kind)
                    .is_none_or(|cap| grid.queue_len(ni, kind.slot()) < cap as usize)
            };
            let mut worklist = Vec::new();
            for t in 1..=3_000u64 {
                grid.drain_active_into(&mut worklist);
                let staged: Vec<u32> = grid.pending.keys().copied().collect();
                let queued: Vec<PacketId> = (0..grid.nodes())
                    .flat_map(|ni| grid.packets_at(grid.coord_of(ni)))
                    .collect();
                match lcg(&mut rng) % 8 {
                    // A due packet is offered: delivered on the spot, queued
                    // at its origin, or staged at the edge.
                    0 if !store.cursor_exhausted() => {
                        let pid = store.next_due(u64::MAX).unwrap();
                        let src = store.src(pid);
                        let ni = grid.node_index(src);
                        if src == store.dst(pid) {
                            store.retire(&mut progress, &mut events, pid, Loc::Delivered, t);
                        } else if room(&grid, ni, origin) && !lcg(&mut rng).is_multiple_of(4) {
                            store.enter(&topo, &mut grid, pid, src, origin);
                        } else {
                            grid.stage(ni as u32, pid);
                            grid.mark_active(ni);
                        }
                    }
                    // A staged packet is admitted, or (faulted) shed/expired.
                    1 if !staged.is_empty() => {
                        let ni = staged[lcg(&mut rng) as usize % staged.len()];
                        let c = grid.coord_of(ni as usize);
                        if faulted && lcg(&mut rng).is_multiple_of(2) {
                            let pid = grid.pop_pending(ni, true).unwrap();
                            let end = [Loc::Shed, Loc::Expired][lcg(&mut rng) as usize % 2];
                            store.retire(&mut progress, &mut events, pid, end, t);
                        } else if room(&grid, ni as usize, origin) {
                            let pid = grid.pop_pending(ni, false).unwrap();
                            store.enter(&topo, &mut grid, pid, c, origin);
                        }
                    }
                    // In-queue expiry sweep.
                    2 if faulted => grid.expire_queued(|pid| {
                        let stale = lcg(&mut rng).is_multiple_of(4);
                        if stale {
                            store.retire(&mut progress, &mut events, pid, Loc::Expired, t);
                        }
                        stale
                    }),
                    // A queued packet crosses a profitable link: lost in
                    // flight (faulted), delivered, or queued at the far end.
                    _ if !queued.is_empty() => {
                        let pid = queued[lcg(&mut rng) as usize % queued.len()];
                        let Loc::At(from) = store.loc(pid) else {
                            panic!("{pid:?} is queued but not located")
                        };
                        let dirs = store.profitable(&topo, pid);
                        let d = dirs
                            .iter()
                            .nth(lcg(&mut rng) as usize % dirs.len() as usize)
                            .unwrap();
                        let to = topo.neighbor(from, d).unwrap();
                        let kind = arch.arrival_queue(d);
                        if faulted && lcg(&mut rng).is_multiple_of(8) {
                            store.depart(&mut grid, &mut progress, pid, from);
                            store.retire(&mut progress, &mut events, pid, Loc::Lost, t);
                        } else if to == store.dst(pid) {
                            store.depart(&mut grid, &mut progress, pid, from);
                            store.retire(&mut progress, &mut events, pid, Loc::Delivered, t);
                        } else if room(&grid, grid.node_index(to), kind) {
                            store.depart(&mut grid, &mut progress, pid, from);
                            store.enter(&topo, &mut grid, pid, to, kind);
                        }
                    }
                    _ => {}
                }
                // The transmit phase's worklist rebuild, then the step ends.
                for &ni in &worklist {
                    if grid.node_load(ni as usize) > 0 || grid.pending.contains_key(&ni) {
                        grid.mark_active(ni as usize);
                    }
                }
                progress.steps = t;
                check_queues(&store, &grid, &progress)
                    .and_then(|()| check_conservation(&store, &grid, &progress))
                    .unwrap_or_else(|e| panic!("{arch:?} step {t}: {e}"));
                for ni in 0..grid.nodes() {
                    let c = grid.coord_of(ni);
                    for pid in grid.packets_at(c) {
                        let want = topo.profitable(c, store.dst(pid));
                        assert_eq!(store.profitable(&topo, pid), want, "{arch:?} step {t}");
                    }
                }
            }
            assert_eq!(events.delivered.len(), progress.delivered);
            assert_eq!(events.lost.len(), progress.lost);
            assert!(progress.delivered > 50 && progress.total_moves > 300);
            assert_eq!(
                faulted,
                progress.lost + progress.shed + progress.expired > 0
            );
        }
    }
}
