//! End-to-end tests of the lower-bound constructions (Theorems 13/14 and the
//! §5 variants): construction invariants, bound certification, and Lemma 12
//! replay equivalence.
//!
//! Each construction's smallest grid is also pinned bit for bit through the
//! recording harness (`tests/support/record.rs`, fixture
//! `tests/fixtures/construction.txt`): partner choice decides every later
//! exchange, so one changed tie-break in the search moves all four fields.

#[path = "../../../tests/support/record.rs"]
mod record;

use mesh_adversary::dimorder::DimOrderConstruction;
use mesh_adversary::farthest::FarthestFirstConstruction;
use mesh_adversary::general::ConstructionOutcome;
use mesh_adversary::{
    verify_lower_bound, Class, ConstructionBreakdown, DimOrderParams, GeneralConstruction,
    GeneralParams,
};
use mesh_routers::{alt_adaptive, dim_order, hot_potato, theorem15, FarthestFirst};
use mesh_topo::Mesh;
use record::{Digest, Entry};
use std::fmt::Debug;

/// Checks `o` against the entry the running test recorded under `key`: its
/// exchange count, its undelivered packets, and digests of the `Debug` text
/// of the constructed permutation and of the final configuration.
fn check_recorded(key: &str, o: &ConstructionOutcome) {
    let debug = |v: &dyn Debug| Digest::of(format!("{v:?}")).hex();
    let entry = Entry::new(key)
        .with("exchanges", o.exchanges)
        .with("undelivered_at_bound", o.undelivered_at_bound)
        .with("constructed", debug(&o.constructed))
        .with("final_snapshot", debug(&o.final_snapshot));
    record::check(1, entry).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn general_construction_beats_dim_order_k1() {
    let params = GeneralParams::new(216, 1).unwrap();
    let cons = GeneralConstruction::new(params);
    let topo = Mesh::new(216);
    let outcome = cons.run(&topo, dim_order(1), true);
    assert!(outcome.undelivered_at_bound > 0, "Corollary 9");
    check_recorded("n216-k1", &outcome);
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
    check_recorded("n216-k1", &outcome);
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
    check_recorded("n216-k1", &outcome);
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
    check_recorded("n216-k1", &outcome);
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
    check_recorded("n216-k2", &outcome);
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
