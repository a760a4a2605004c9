//! Property-based tests (proptest) on the core invariants:
//! delivery + minimality on arbitrary problems, exchange-invariance of
//! destination-exchangeable routers (Lemma 10), tiling coverage (Lemma 19),
//! quadrant/geometry algebra, and the open-system overload seam
//! (per-step packet conservation and queue caps under any offered load
//! and admission policy; overload watchdog liveness), and the per-step
//! queue invariants under random fault plans.

mod support;

use mesh_routing::prelude::*;
use mesh_routing::Section6Router;
use mesh_topo::TilingSet;
use proptest::prelude::*;
use support::{partial_permutation, workload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theorem15_delivers_and_stays_minimal(pb in partial_permutation(16), k in 1u32..4) {
        let topo = Mesh::new(16);
        let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(k)), &pb);
        let steps = sim.run(500_000).expect("theorem15 always delivers");
        let r = sim.report();
        prop_assert!(r.completed);
        prop_assert_eq!(r.total_moves, pb.total_work());
        prop_assert!(r.max_queue <= k);
        prop_assert!(steps >= pb.diameter_bound() as u64);
    }

    #[test]
    fn greedy_unbounded_meets_2n_minus_2_on_permutations(seed in 0u64..1000) {
        let n = 12;
        let pb = workloads::random_permutation(n, seed);
        let topo = Mesh::new(n);
        let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
        let steps = sim.run(10_000).unwrap();
        prop_assert!(steps <= (2 * n - 2) as u64, "greedy took {} steps", steps);
    }

    #[test]
    fn section6_delivers_arbitrary_partial_permutations(pb in partial_permutation(27)) {
        let r = Section6Router::new().route(&pb);
        prop_assert_eq!(r.delivered, pb.len());
        prop_assert!(r.max_node_load <= 834);
        prop_assert!(r.scheduled_steps <= 972 * 27);
    }

    #[test]
    fn section6_and_theorem15_do_identical_minimal_work(pb in partial_permutation(27)) {
        // Both are minimal routers: on any problem they must perform exactly
        // the same number of link traversals (the total work), despite
        // completely different strategies.
        let s6 = Section6Router::new().route(&pb);
        let topo = Mesh::new(27);
        let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(2)), &pb);
        sim.run(1_000_000).unwrap();
        prop_assert_eq!(s6.total_moves, sim.report().total_moves);
        prop_assert_eq!(s6.total_moves, pb.total_work());
    }

    #[test]
    fn lemma_10_one_step_exchange_equivalence(seed in 0u64..500, k in 2u32..5, steps in 1u64..4) {
        // Lemma 10 (literally): if x and x' both have destinations strictly
        // northeast of both packets' positions — so the exchange does not
        // change any profitable set — then δ(S_{x,x'}, 1) equals δ(S, 1)
        // with x and x' exchanged. We iterate it for a few steps while the
        // precondition provably still holds (margin ≥ steps in every
        // coordinate gap).
        let n = 12;
        let pb = workloads::random_permutation(n, seed);
        let topo = Mesh::new(n);

        let margin = steps as u32 + 1;
        let mut pair = None;
        'outer: for (i, a) in pb.packets.iter().enumerate() {
            if !(a.dst.x > a.src.x + margin && a.dst.y > a.src.y + margin) { continue; }
            for b in pb.packets.iter().skip(i + 1) {
                if b.dst.x > b.src.x + margin && b.dst.y > b.src.y + margin
                    && b.dst.x > a.src.x + margin && b.dst.y > a.src.y + margin
                    && a.dst.x > b.src.x + margin && a.dst.y > b.src.y + margin {
                    pair = Some((a.id, b.id));
                    break 'outer;
                }
            }
        }
        prop_assume!(pair.is_some());
        let (pa, pb_id) = pair.unwrap();

        let mut plain = Sim::new(&topo, Dx::new(DimOrder::new(k)), &pb);
        let mut adv = Sim::new(&topo, Dx::new(DimOrder::new(k)), &pb);
        let mut fired = false;
        let mut hook = |ctx: &mut mesh_routing::engine::HookCtx<'_>| {
            if !fired {
                ctx.exchange(pa, pb_id);
                fired = true;
            }
        };
        for s in 0..steps {
            plain.step();
            if s == 0 {
                adv.step_with_hook(&mut hook);
            } else {
                adv.step();
            }
        }

        // δ(S_{x,x'}, t) must be δ(S, t) with the destinations swapped back.
        let sa = plain.packet_snapshot();
        let mut sb = adv.packet_snapshot();
        let da = sb[pa.index()].1;
        sb[pa.index()].1 = sb[pb_id.index()].1;
        sb[pb_id.index()].1 = da;
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn lemma_19_tiling_coverage(x in 0u32..60, y in 0u32..60, dx in -9i64..=9, dy in -9i64..=9) {
        // Tile side 27, third = 9: any pair within 9 in both dims shares a
        // tile of one of the three tilings.
        let set = TilingSet::new(27);
        let bx = x as i64 + dx;
        let by = y as i64 + dy;
        prop_assume!(bx >= 0 && by >= 0);
        let a = Coord::new(x, y);
        let b = Coord::new(bx as u32, by as u32);
        prop_assert!(set.common_tile(a, b).is_some());
    }

    #[test]
    fn quadrant_partition_is_total(fx in 0u32..30, fy in 0u32..30, tx in 0u32..30, ty in 0u32..30) {
        let from = Coord::new(fx, fy);
        let to = Coord::new(tx, ty);
        match Quadrant::of(from, to) {
            None => prop_assert_eq!(from, to),
            Some(q) => {
                let (sx, sy) = q.signs();
                let dx = to.x as i64 - from.x as i64;
                let dy = to.y as i64 - from.y as i64;
                prop_assert!(dx * sx >= 0 && dy * sy >= 0, "{:?} mismatch", q);
            }
        }
    }

    #[test]
    fn profitable_outlinks_always_decrease_distance(
        n in 2u32..20, fx in 0u32..19, fy in 0u32..19, tx in 0u32..19, ty in 0u32..19
    ) {
        prop_assume!(fx < n && fy < n && tx < n && ty < n);
        let from = Coord::new(fx, fy);
        let to = Coord::new(tx, ty);
        for topo_kind in 0..2 {
            let (profitable, dist, check): (DirSet, u32, Box<dyn Fn(Coord) -> u32>) = if topo_kind == 0 {
                let m = Mesh::new(n);
                (m.profitable(from, to), m.distance(from, to), Box::new(move |c| Mesh::new(n).distance(c, to)))
            } else {
                let t = Torus::new(n);
                (t.profitable(from, to), t.distance(from, to), Box::new(move |c| Torus::new(n).distance(c, to)))
            };
            prop_assert_eq!(profitable.is_empty(), from == to);
            for d in profitable.iter() {
                let nb = if topo_kind == 0 {
                    Mesh::new(n).neighbor(from, d)
                } else {
                    Torus::new(n).neighbor(from, d)
                };
                let nb = nb.expect("profitable dir must have a neighbor");
                prop_assert_eq!(check(nb) + 1, dist);
            }
        }
    }

    #[test]
    fn workload_generators_produce_valid_problems(n in 4u32..24, seed in 0u64..100) {
        prop_assert!(workloads::random_permutation(n, seed).is_permutation());
        prop_assert!(workloads::transpose(n).is_permutation());
        prop_assert!(workloads::rotation(n, seed as u32 % n, (seed / 7) as u32 % n).is_permutation());
        prop_assert!(workloads::column_funnel(n).is_partial_permutation());
        prop_assert!(workloads::hh_random(n, 2, seed).is_hh(2));
    }
}

/// Runs `pb` under `router` twice — once untouched, once with a hook that
/// exchanges the destinations of `a` and `b` during the first step — for
/// `steps` steps, and returns the two packet snapshots with the exchange
/// undone in the second. Lemma 10 (iterated) says they must be equal
/// whenever the exchange leaves every profitable set unchanged throughout.
type Snapshot = Vec<(mesh_routing::engine::Loc, Coord, u64)>;

fn lemma10_snapshots<R: Router>(
    n: u32,
    pb: &RoutingProblem,
    a: PacketId,
    b: PacketId,
    steps: u64,
    plain_router: R,
    adv_router: R,
) -> (Snapshot, Snapshot) {
    let topo = Mesh::new(n);
    let mut plain = Sim::new(&topo, plain_router, pb);
    let mut adv = Sim::new(&topo, adv_router, pb);
    let mut fired = false;
    let mut hook = |ctx: &mut mesh_routing::engine::HookCtx<'_>| {
        if !fired {
            ctx.exchange(a, b);
            fired = true;
        }
    };
    for s in 0..steps {
        plain.step();
        if s == 0 {
            adv.step_with_hook(&mut hook);
        } else {
            adv.step();
        }
    }
    let sa = plain.packet_snapshot();
    let mut sb = adv.packet_snapshot();
    let da = sb[a.index()].1;
    sb[a.index()].1 = sb[b.index()].1;
    sb[b.index()].1 = da;
    (sa, sb)
}

/// Finds a packet pair whose destinations stay strictly northeast of both
/// packets' reachable positions for `margin` steps, so exchanging their
/// destinations provably never changes a profitable set (the Lemma 10
/// precondition).
fn margin_pair(pb: &RoutingProblem, margin: u32) -> Option<(PacketId, PacketId)> {
    for (i, a) in pb.packets.iter().enumerate() {
        if !(a.dst.x > a.src.x + margin && a.dst.y > a.src.y + margin) {
            continue;
        }
        for b in pb.packets.iter().skip(i + 1) {
            if b.dst.x > b.src.x + margin
                && b.dst.y > b.src.y + margin
                && b.dst.x > a.src.x + margin
                && b.dst.y > a.src.y + margin
                && a.dst.x > b.src.x + margin
                && a.dst.y > b.src.y + margin
            {
                return Some((a.id, b.id));
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lemma_10_exchange_invisible_for_every_shipped_dx_router(
        seed in 0u64..400, k in 1u32..4, steps in 1u64..4
    ) {
        // Lemma 10 holds by parametricity for *every* router behind the
        // `Dx` adapter — including the nonminimal deflection routers, whose
        // packets can also move away from their destinations (hence the
        // extra margin). Exercise each shipped DxRouter through the same
        // exchange scenario.
        let n = 14;
        let pb = workloads::random_permutation(n, seed);
        // Deflection routers can move a packet 1 step away per step, so
        // positions drift at most `steps` in any coordinate.
        let margin = steps as u32 + 1;
        let pair = margin_pair(&pb, margin);
        prop_assume!(pair.is_some());
        let (pa, pb_id) = pair.unwrap();

        macro_rules! check {
            ($name:expr, $mk:expr) => {{
                let (sa, sb) = lemma10_snapshots(n, &pb, pa, pb_id, steps, $mk, $mk);
                prop_assert!(sa == sb, "Lemma 10 violated for {}", $name);
            }};
        }
        use mesh_routing::routers::{BoundedDeflect, HotPotato, WestFirst};
        check!("dim-order(xy)", Dx::new(DimOrder::new(k)));
        check!("dim-order(yx)", Dx::new(DimOrder::yx(k)));
        check!("alt-adaptive", Dx::new(AltAdaptive::new(k)));
        check!("theorem15", Dx::new(Theorem15::new(k)));
        check!("west-first", Dx::new(WestFirst::new(k)));
        check!("hot-potato", Dx::new(HotPotato::new(n)));
        check!("bounded-deflect", Dx::new(BoundedDeflect::new(n, k, 1)));
    }

    #[test]
    fn total_moves_equals_sum_of_packet_hops(pb in partial_permutation(12), k in 1u32..4) {
        // The engine's global move counter must equal the sum of per-packet
        // hop counts, for completing, stalling, and deflecting routers alike.
        let topo = Mesh::new(12);
        use mesh_routing::routers::HotPotato;

        let mut t15 = Sim::new(&topo, Dx::new(Theorem15::new(k)), &pb);
        t15.run(500_000).expect("theorem15 always delivers");
        let hops: u64 = t15.packet_hops().iter().map(|&h| h as u64).sum();
        prop_assert_eq!(t15.report().total_moves, hops);

        // Small central queues may deadlock — the invariant must hold at
        // the cap too.
        let mut dor = Sim::new(&topo, Dx::new(DimOrder::new(k)), &pb);
        let _ = dor.run(2_000);
        let hops: u64 = dor.packet_hops().iter().map(|&h| h as u64).sum();
        prop_assert_eq!(dor.report().total_moves, hops);

        // Nonminimal: deflections are moves too.
        let mut hp = Sim::new(&topo, Dx::new(HotPotato::new(12)), &pb);
        let _ = hp.run(2_000);
        let hops: u64 = hp.packet_hops().iter().map(|&h| h as u64).sum();
        prop_assert_eq!(hp.report().total_moves, hops);
    }

    #[test]
    fn delivered_packets_of_minimal_routers_take_minimal_paths(
        pb in partial_permutation(14), k in 1u32..4
    ) {
        // Minimality, per packet: every *delivered* packet's hop count is
        // exactly its source→destination L1 distance — even in runs that
        // stall at the step cap with some packets still in flight.
        let topo = Mesh::new(14);
        let mut t15 = Sim::new(&topo, Dx::new(Theorem15::new(k)), &pb);
        t15.run(500_000).expect("theorem15 always delivers");
        for p in &pb.packets {
            prop_assert_eq!(
                t15.packet_hops()[p.id.index()],
                topo.distance(p.src, p.dst),
            );
        }

        let mut dor = Sim::new(&topo, Dx::new(DimOrder::new(k)), &pb);
        let _ = dor.run(2_000);
        for p in &pb.packets {
            if dor.delivered_step(p.id).is_some() {
                prop_assert_eq!(
                    dor.packet_hops()[p.id.index()],
                    topo.distance(p.src, p.dst),
                );
            }
        }
    }

    #[test]
    fn bounded_queues_never_exceed_k(pb in partial_permutation(12), k in 1u32..5) {
        // The capacity contract of §2: no queue ever holds more than k
        // packets, whether the run completes or stalls at the cap.
        use mesh_routing::routers::{BoundedDeflect, HotPotato, WestFirst};
        let topo = Mesh::new(12);
        macro_rules! check {
            ($name:expr, $router:expr, $cap:expr) => {{
                let mut sim = Sim::new(&topo, $router, &pb);
                let _ = sim.run(2_000);
                let q = sim.report().max_queue;
                prop_assert!(q <= $cap, "{}: max_queue {} > {}", $name, q, $cap);
            }};
        }
        check!("dim-order", Dx::new(DimOrder::new(k)), k);
        check!("alt-adaptive", Dx::new(AltAdaptive::new(k)), k);
        check!("west-first", Dx::new(WestFirst::new(k)), k);
        check!("farthest-first", FarthestFirst::new(k), k);
        check!("theorem15", Dx::new(Theorem15::new(k)), k);
        check!("bounded-deflect", Dx::new(BoundedDeflect::new(12, k, 1)), k);
        check!("hot-potato", Dx::new(HotPotato::new(12)), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn watchdog_never_fires_on_fault_free_dynamic_bernoulli(
        rate_permille in 1u64..=80,
        seed in 0u64..10_000,
    ) {
        // The protocol-aware watchdog semantics must not misread lawful
        // quiet (packets released far apart, empty stretches between
        // injections) as a wedge on a healthy network.
        let n = 8;
        let rate = rate_permille as f64 / 1000.0;
        let pb = workloads::dynamic_bernoulli(n, rate, 4 * n as u64, seed);
        prop_assume!(!pb.is_empty());
        let topo = Mesh::new(n);
        let config = SimConfig {
            watchdog: Some(8 * n as u64),
            ..SimConfig::default()
        };
        // Plain run under the watchdog…
        let mut sim = Sim::with_config(&topo, Dx::new(Theorem15::new(2)), &pb, config);
        let res = sim.run(500_000);
        prop_assert!(res.is_ok(), "raw watchdog fired fault-free: {:?}", res.err());
        // …and the reliable transport under the protocol-aware watchdog
        // (quiet waits between lawful timer deadlines included).
        let mut sim = Sim::with_config(&topo, Dx::new(Theorem15::new(2)), &pb, config);
        let mut tp = Transport::new(&pb, BackoffPolicy::exponential(16, 48, 4), seed ^ 0x5a);
        let res = sim.run_with_protocol(500_000, &mut tp);
        prop_assert!(res.is_ok(), "protocol watchdog fired fault-free: {:?}", res.err());
        prop_assert!(tp.exactly_once());
    }

    #[test]
    fn open_system_conservation_and_caps_hold_every_step(
        rate_permille in 50u64..2_000,
        policy_sel in 0u8..4,
        ttl in 4u64..64,
        max_deferred in 0u32..8,
        seed in 0u64..10_000,
        k in 1u32..4,
        arch_sel in 0u8..2,
    ) {
        // The overload seam's accounting identity — injected == delivered +
        // in-flight + shed + expired + lost — and the §2 queue-capacity
        // contract must hold after *every* step, for any offered load
        // (including far past saturation) and any admission policy, not
        // just at quiescence.
        let n = 6;
        let rate = rate_permille as f64 / 1000.0;
        let pb = workloads::open_bernoulli(n, rate, 6 * n as u64, seed);
        prop_assume!(!pb.is_empty());
        let topo = Mesh::new(n);
        let admission = match policy_sel {
            0 => AdmissionPolicy::DeferIndefinitely,
            1 => AdmissionPolicy::RejectNew,
            2 => AdmissionPolicy::DropOldestDeferred { max_deferred },
            _ => AdmissionPolicy::DeadlineExpiry { ttl },
        };
        let config = SimConfig {
            admission,
            ..SimConfig::default()
        };
        macro_rules! check {
            ($router:expr, $cap:expr) => {{
                let mut sim = Sim::with_config(&topo, $router, &pb, config);
                for _ in 0..(12 * n as u64) {
                    let done = sim.step();
                    sim.assert_conservation();
                    sim.assert_queue_invariants();
                    prop_assert!(sim.report().max_queue <= $cap);
                    if done {
                        break;
                    }
                }
            }};
        }
        check!(Dx::new(DimOrder::new(k)), k);
        check!(Dx::new(Theorem15::new(k)), k);
    }

    #[test]
    fn queue_invariants_hold_every_step_under_faults(
        pb in workload(12),
        k in 1u32..4,
        rate_permille in 0u64..=150,
        fault_seed in 0u64..10_000,
    ) {
        // Every bounded queue within capacity, the occupancy index in sync,
        // packet location records consistent — after *every* step of a
        // fault-aware run under a random fault plan (stalls, link faults,
        // queue degradation), not merely at the end of the run.
        prop_assume!(!pb.is_empty());
        let n = 12u32;
        let topo = Mesh::new(n);
        let rate = rate_permille as f64 / 1000.0;
        let faults =
            std::sync::Arc::new(FaultPlan::random(n, rate, 6 * n as u64, fault_seed).compile());
        let mut sim = Sim::with_faults(
            &topo,
            FaultAware::new(Dx::new(DimOrder::new(k)), std::sync::Arc::clone(&faults)),
            &pb,
            SimConfig::default(),
            faults.as_ref().clone(),
        );
        for _ in 0..1_500 {
            let done = sim.step();
            sim.assert_queue_invariants();
            sim.assert_conservation();
            if done {
                break;
            }
        }
    }

    #[test]
    fn overload_watchdog_never_fires_on_saturated_fault_free_runs(
        rate_permille in 300u64..3_000,
        policy_sel in 0u8..3,
        seed in 0u64..10_000,
    ) {
        // The Overload watchdog must distinguish "saturated but resolving
        // packets" (deliveries, sheds, or expiries every window) from a
        // genuine wedge: on a fault-free open-system run it never fires,
        // however far past saturation the offered load sits.
        let n = 6;
        let rate = rate_permille as f64 / 1000.0;
        let schedule = SteadyConfig { warmup: 16, window: 16, windows: 3 };
        let pb = workloads::open_bernoulli(n, rate, schedule.horizon(), seed);
        prop_assume!(!pb.is_empty());
        let topo = Mesh::new(n);
        let admission = match policy_sel {
            0 => AdmissionPolicy::RejectNew,
            1 => AdmissionPolicy::DropOldestDeferred { max_deferred: 4 },
            _ => AdmissionPolicy::DeadlineExpiry { ttl: 4 * n as u64 },
        };
        let config = SimConfig {
            admission,
            watchdog: Some(8 * n as u64),
            ..SimConfig::default()
        };
        let mut sim = Sim::with_config(&topo, Dx::new(DimOrder::new(2)), &pb, config);
        let res = sim.run_steady(schedule);
        prop_assert!(
            res.is_ok(),
            "overload watchdog fired on a fault-free saturated run: {:?}",
            res.err().map(|e| e.kind()),
        );
    }

    #[test]
    fn duplicate_suppression_never_drops_a_first_delivery(seed in 0u64..5_000) {
        // An aggressively small timeout floods the mesh with premature
        // retransmissions under a lossy outage plan; however many copies
        // race, every payload must reach the application exactly once.
        let n = 8;
        let pb = workloads::random_partial_permutation(n, 0.4, seed);
        prop_assume!(!pb.is_empty());
        let topo = Mesh::new(n);
        let faults = std::sync::Arc::new(
            FaultPlan::random_outages(n, 0.2, 8 * n as u64, seed ^ 0x0dd).compile(),
        );
        let config = SimConfig {
            watchdog: Some(2048),
            ..SimConfig::default()
        };
        let mut sim = Sim::with_faults(
            &topo,
            FaultAware::new(Dx::new(Theorem15::new(2)), std::sync::Arc::clone(&faults)),
            &pb,
            config,
            faults.as_ref().clone(),
        );
        let mut tp = Transport::new(&pb, BackoffPolicy::fixed(4), seed ^ 0xf00d);
        let steps = sim.run_with_protocol(500_000, &mut tp)
            .expect("transient outages are always recoverable");
        let rep = tp.report(steps);
        prop_assert!(rep.exactly_once, "{:?}", rep);
        prop_assert_eq!(rep.delivered, pb.len());
        prop_assert_eq!(rep.acked, pb.len());
        // Suppressed duplicates never leak into the application count even
        // when the premature timer produced plenty of them.
        prop_assert!(rep.duplicate_deliveries as usize + rep.delivered >= rep.delivered);
    }
}
