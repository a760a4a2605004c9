//! Cross-crate integration tests: every algorithm against every workload
//! family, checking delivery, minimality, queue discipline, and determinism.

use mesh_routing::prelude::*;

/// Workloads on a side-27 mesh (power of 3 so §6 can run everywhere).
fn workload_suite(n: u32) -> Vec<RoutingProblem> {
    vec![
        workloads::random_permutation(n, 1),
        workloads::random_partial_permutation(n, 0.5, 2),
        workloads::transpose(n),
        workloads::rotation(n, n / 2, 1),
        workloads::hotspot(n, 3, 3),
        workloads::column_funnel(n),
    ]
}

fn always_terminating_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::GreedyUnbounded,
        Algorithm::DimOrder { k: 27 * 27 },
        Algorithm::Theorem15 { k: 1 },
        Algorithm::Theorem15 { k: 4 },
        Algorithm::Section6,
        Algorithm::Section6Improved,
    ]
}

#[test]
fn every_algorithm_delivers_every_workload() {
    let n = 27;
    for pb in workload_suite(n) {
        for algo in always_terminating_algorithms() {
            let out = mesh_routing::route(algo, &pb);
            assert!(
                out.completed,
                "{} failed on {} ({}/{} delivered)",
                out.algorithm, pb.label, out.delivered, out.total_packets
            );
            assert_eq!(out.delivered, pb.len());
        }
    }
}

#[test]
fn minimal_algorithms_do_exactly_total_work() {
    // Every router here is minimal: total link traversals must equal the
    // sum of source→destination distances.
    let n = 27;
    for pb in workload_suite(n) {
        for algo in always_terminating_algorithms() {
            let out = mesh_routing::route(algo, &pb);
            assert_eq!(
                out.total_moves,
                pb.total_work(),
                "{} on {}: moves != work",
                out.algorithm,
                pb.label
            );
        }
    }
}

#[test]
fn no_algorithm_beats_the_diameter_bound() {
    let n = 27;
    for pb in workload_suite(n) {
        let lb = pb.diameter_bound() as u64;
        for algo in always_terminating_algorithms() {
            let out = mesh_routing::route(algo, &pb);
            assert!(
                out.steps >= lb,
                "{} claims {} steps < diameter bound {}",
                out.algorithm,
                out.steps,
                lb
            );
        }
    }
}

#[test]
fn queue_bounds_are_respected() {
    let n = 27;
    for pb in workload_suite(n) {
        for k in [1u32, 2, 4] {
            let out = mesh_routing::route(Algorithm::Theorem15 { k }, &pb);
            assert!(
                out.max_queue <= k,
                "theorem15(k={k}) queue {}",
                out.max_queue
            );
            let out = mesh_routing::route_with_cap(Algorithm::DimOrder { k }, &pb, 50_000);
            assert!(out.max_queue <= k);
            let out = mesh_routing::route_with_cap(Algorithm::AltAdaptive { k }, &pb, 50_000);
            assert!(out.max_queue <= k);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let pb = workloads::random_permutation(27, 99);
    for algo in always_terminating_algorithms() {
        let a = mesh_routing::route(algo, &pb);
        let b = mesh_routing::route(algo, &pb);
        assert_eq!(a.steps, b.steps, "{}", a.algorithm);
        assert_eq!(a.total_moves, b.total_moves);
        assert_eq!(a.max_queue, b.max_queue);
    }
}

#[test]
fn dynamic_traffic_drains_under_theorem15() {
    // §5's dynamic setting: Bernoulli injection, destination-independent
    // timing. Theorem 15's router must deliver everything eventually.
    let pb = workloads::dynamic_bernoulli(16, 0.02, 64, 5);
    let topo = Mesh::new(16);
    let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(2)), &pb);
    let steps = sim.run(1_000_000).expect("dynamic traffic must drain");
    assert!(steps >= 1);
    assert!(sim.report().completed);
}

#[test]
fn hh_traffic_routes() {
    let pb = workloads::hh_random(16, 3, 8);
    let topo = Mesh::new(16);
    // h = 3 fits k = 4 queues statically…
    let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(4)), &pb);
    sim.run(1_000_000).expect("h-h traffic must drain");
    // …and the engine's pending-injection path covers h > k.
    let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(1)), &pb);
    sim.run(1_000_000)
        .expect("h > k must drain via deferred injection");
}

#[test]
fn torus_runs_dimension_order() {
    let pb = workloads::random_permutation(16, 3);
    let topo = Torus::new(16);
    let mut sim = Sim::new(&topo, Dx::new(DimOrder::new(16 * 16)), &pb);
    let steps = sim.run(100_000).expect("torus routing");
    // Torus diameter is n (= 16): with wraparound minimal paths the greedy
    // router finishes fast.
    assert!(steps <= 64, "torus took {steps}");
    let work: u64 = pb
        .packets
        .iter()
        .map(|p| topo.distance(p.src, p.dst) as u64)
        .sum();
    assert_eq!(sim.report().total_moves, work);
}

#[test]
fn section6_handles_partial_and_skewed_permutations() {
    for pb in [
        workloads::random_partial_permutation(81, 0.1, 4),
        workloads::random_partial_permutation(81, 0.9, 5),
        workloads::column_funnel(81),
        workloads::hotspot(81, 9, 6),
    ] {
        let r = Section6Router::new().route(&pb);
        assert_eq!(r.delivered, pb.len(), "{}", pb.label);
        assert!(r.max_node_load <= 834);
        assert!(r.scheduled_steps <= 972 * 81);
    }
}

/// A fault plan whose only fault is never active changes nothing: every
/// packet is delivered at the step of the fault-free run. Three packets
/// leave (0,0) eastward at step 0 through its one-packet queue, so two
/// wait staged; a fourth from (0,0), due at step 1, waits behind them
/// rather than taking the room the first one left.
#[test]
fn a_fault_that_never_fires_leaves_injection_order_alone() {
    let n = 4;
    let (origin, east, north) = (Coord::new(0, 0), Coord::new(3, 0), Coord::new(0, 3));
    let packets = vec![
        Packet::injected_at(0, origin, east, 0),
        Packet::injected_at(1, origin, east, 0),
        Packet::injected_at(2, origin, east, 0),
        Packet::injected_at(3, origin, north, 1),
    ];
    let pb = RoutingProblem::from_packets(n, "backlog", packets);
    let topo = Mesh::new(n);
    let late = FaultPlan::none(n).link_down(Coord::new(3, 3), Dir::West, 1000, Some(1001));
    let dim_order = mesh_routing::routers::dim_order;
    let plain = &mut Sim::new(&topo, dim_order(1), &pb);
    let config = SimConfig::default();
    let faulted = &mut Sim::with_faults(&topo, dim_order(1), &pb, config, late.compile());
    let mut delivered = Vec::new();
    for sim in [plain, faulted] {
        sim.run(100).expect("four packets on an idle mesh");
        let steps: Vec<u64> = (0..4)
            .map(|i| sim.delivered_step(PacketId(i)).unwrap())
            .collect();
        delivered.push(steps);
    }
    assert_eq!(delivered[0], [3, 5, 7, 8], "fault-free");
    assert_eq!(delivered[1], delivered[0], "under a fault that never fires");
}
