//! End-to-end tests of the lower-bound constructions (Theorems 13/14 and the
//! §5 variants): construction invariants, bound certification, and Lemma 12
//! replay equivalence.
//!
//! Each construction's smallest grid is also pinned bit for bit ([`Pinned`]):
//! partner choice decides every later exchange, so one changed tie-break in
//! the search moves all four numbers.

use mesh_adversary::dimorder::DimOrderConstruction;
use mesh_adversary::farthest::FarthestFirstConstruction;
use mesh_adversary::general::ConstructionOutcome;
use mesh_adversary::{
    verify_lower_bound, Class, ConstructionBreakdown, DimOrderParams, GeneralConstruction,
    GeneralParams,
};
use mesh_routers::{alt_adaptive, dim_order, hot_potato, theorem15, FarthestFirst};
use mesh_topo::Mesh;

/// What one construction produced, as recorded from the three per-construction
/// hooks this crate had before `driver.rs`.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    exchanges: u64,
    undelivered_at_bound: usize,
    /// FNV-1a of the `Debug` rendering of `constructed`.
    constructed: u64,
    /// FNV-1a of the `Debug` rendering of `final_snapshot`.
    final_snapshot: u64,
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pinned(o: &ConstructionOutcome) -> Pinned {
    Pinned {
        exchanges: o.exchanges,
        undelivered_at_bound: o.undelivered_at_bound,
        constructed: fnv1a(&format!("{:?}", o.constructed)),
        final_snapshot: fnv1a(&format!("{:?}", o.final_snapshot)),
    }
}

#[test]
fn general_construction_beats_dim_order_k1() {
    let params = GeneralParams::new(216, 1).unwrap();
    let cons = GeneralConstruction::new(params);
    let topo = Mesh::new(216);
    let outcome = cons.run(&topo, dim_order(1), true);
    assert!(outcome.undelivered_at_bound > 0, "Corollary 9");
    assert_eq!(
        pinned(&outcome),
        Pinned {
            exchanges: 103,
            undelivered_at_bound: 966,
            constructed: 4_338_592_025_241_201_329,
            final_snapshot: 16_405_310_086_247_462_211,
        }
    );
    let report = verify_lower_bound(&topo, dim_order(1), &outcome, None);
    assert!(report.undelivered_at_bound > 0, "Theorem 13");
    assert!(report.replay_matches_construction, "Lemma 12");
}

#[test]
fn general_construction_beats_alt_adaptive_k1() {
    let params = GeneralParams::new(216, 1).unwrap();
    let cons = GeneralConstruction::new(params);
    let topo = Mesh::new(216);
    let outcome = cons.run(&topo, alt_adaptive(1), true);
    assert!(outcome.undelivered_at_bound > 0);
    assert_eq!(
        pinned(&outcome),
        Pinned {
            exchanges: 1013,
            undelivered_at_bound: 959,
            constructed: 5_282_621_635_639_512_543,
            final_snapshot: 10_335_690_206_213_527_495,
        }
    );
    let report = verify_lower_bound(&topo, alt_adaptive(1), &outcome, None);
    assert!(report.undelivered_at_bound > 0);
    assert!(report.replay_matches_construction);
}

#[test]
fn general_construction_beats_theorem15_k1() {
    // Theorem 15's router is destination-exchangeable, so the Ω(n²/k²)
    // bound applies to it as well (k enters through its inlink queues).
    let params = GeneralParams::new(216, 1).unwrap();
    let cons = GeneralConstruction::new(params);
    let topo = Mesh::new(216);
    let outcome = cons.run(&topo, theorem15(1), true);
    let report = verify_lower_bound(&topo, theorem15(1), &outcome, Some(2_000_000));
    assert!(report.undelivered_at_bound > 0);
    assert!(report.replay_matches_construction);
    // Theorem 15's router always completes; its time must respect both the
    // lower bound and the O(n²/k + n) upper bound.
    let total = report.completion_steps.expect("theorem15 completes");
    assert!(total >= outcome.bound_steps);
    let n = 216u64;
    assert!(total <= 8 * (n * n + n), "upper bound violated: {total}");
}

#[test]
fn general_construction_k2() {
    let params = GeneralParams::new(384, 2).unwrap();
    let cons = GeneralConstruction::new(params);
    let topo = Mesh::new(384);
    let outcome = cons.run(&topo, dim_order(2), true);
    let report = verify_lower_bound(&topo, dim_order(2), &outcome, None);
    assert!(report.undelivered_at_bound > 0);
    assert!(report.replay_matches_construction);
}

#[test]
fn dimorder_construction_k1() {
    let params = DimOrderParams::new(216, 1).unwrap();
    let cons = DimOrderConstruction::new(params);
    let topo = Mesh::new(216);
    let outcome = cons.run(&topo, dim_order(1));
    assert!(outcome.undelivered_at_bound > 0);
    assert_eq!(
        pinned(&outcome),
        Pinned {
            exchanges: 1690,
            undelivered_at_bound: 3924,
            constructed: 17_346_849_368_619_751_031,
            final_snapshot: 10_709_243_260_713_602_082,
        }
    );
    let report = verify_lower_bound(&topo, dim_order(1), &outcome, None);
    assert!(
        report.undelivered_at_bound > 0,
        "Theorem: Ω(n²/k) for dim order"
    );
    assert!(report.replay_matches_construction);
}

#[test]
fn farthest_first_construction_k1() {
    let params = DimOrderParams::farthest_first(216, 1).unwrap();
    let cons = FarthestFirstConstruction::new(params);
    let topo = Mesh::new(216);
    let outcome = cons.run(&topo, FarthestFirst::new(1));
    assert!(outcome.undelivered_at_bound > 0);
    assert_eq!(
        pinned(&outcome),
        Pinned {
            exchanges: 6314,
            undelivered_at_bound: 2828,
            constructed: 4_472_295_222_277_138_699,
            final_snapshot: 9_137_037_557_394_471_292,
        }
    );
    let report = verify_lower_bound(&topo, FarthestFirst::new(1), &outcome, None);
    assert!(report.undelivered_at_bound > 0);
    assert!(
        report.replay_matches_construction,
        "farthest-first exchange commutation failed"
    );
}

#[test]
fn farthest_first_construction_k2_pins_its_tie_breaks() {
    // At k = 2 a node holds two packets, the westernmost-partner search meets
    // ties, and the replay legitimately diverges from the construction (see
    // the module doc of `farthest`): the bound still certifies.
    let params = DimOrderParams::farthest_first(216, 2).unwrap();
    let cons = FarthestFirstConstruction::new(params);
    let topo = Mesh::new(216);
    let outcome = cons.run(&topo, FarthestFirst::new(2));
    assert_eq!(
        pinned(&outcome),
        Pinned {
            exchanges: 7070,
            undelivered_at_bound: 621,
            constructed: 9_423_116_428_904_498_821,
            final_snapshot: 23_972_765_043_560_732,
        }
    );
    let report = verify_lower_bound(&topo, FarthestFirst::new(2), &outcome, None);
    assert!(report.undelivered_at_bound > 0);
    assert!(!report.replay_matches_construction);
}

#[test]
fn nonminimal_victim_breaks_the_construction_down_as_a_value() {
    // Hot potato deflects packets out of the boxes, so Lemmas 3/4 stop
    // supplying partners (E11): a typed error naming the step and the class,
    // not a panic for the caller to catch.
    let cons = GeneralConstruction::new(GeneralParams::new(216, 1).unwrap());
    let res = cons.try_run(&Mesh::new(216), hot_potato(216), false);
    assert_eq!(
        res.err(),
        Some(ConstructionBreakdown {
            step: 12,
            wanted: Class::E(1)
        })
    );
}
