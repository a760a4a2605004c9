//! The paper's bounds, one test per result. Where an experiment cell
//! measures a bound, the claim is an `assert!` in that cell of
//! `mesh_bench::experiments`, and the test runs the cell: a false claim
//! panics it, and its message is printed above the failure. The growth of
//! Theorem 14's parameters, the §3 adversary against a router no experiment
//! attacks, and a ratio across two §6 runs are checked here.

use mesh_bench::experiments::build;
use mesh_bench::runner::{run_cells, RunnerConfig};
use mesh_routing::prelude::*;
use mesh_routing::Section6Router;

/// Runs, one trial each, the cells of experiment `id` whose labels start
/// with one of `prefixes` (`""` is all), and fails if any claim is false.
fn claims_hold(id: &str, prefixes: &[&str]) {
    let exp = build(id, false).unwrap();
    for p in prefixes {
        let found = exp.cells.iter().any(|cell| cell.label.starts_with(p));
        assert!(found, "{id} has no cell {p:?}");
    }
    let cells = exp
        .cells
        .into_iter()
        .filter(|cell| prefixes.iter().any(|p| cell.label.starts_with(p)))
        .map(|mut cell| {
            cell.label = format!("{id} {}", cell.label);
            cell
        })
        .collect();
    let results = run_cells(cells, &RunnerConfig::serial());
    let failed: Vec<_> = results
        .iter()
        .filter(|c| c.failed)
        .map(|c| &c.label)
        .collect();
    assert!(failed.is_empty(), "a claim is false in {failed:?}");
}

/// Theorem 13/14: E1's n = 216 and 432, k = 1 attacks on the dim-order and
/// alternating-adaptive routers leave packets undelivered at the bound,
/// replay exactly, and at n = 432 the bound exceeds 2n − 2.
#[test]
fn theorem_14_lower_bound_certified() {
    claims_hold("e1", &["n=216 k=1 alt-adaptive", "n=432 k=1 "]);
}

/// E1's n = 216, k = 1 dim-order cell: the constructed instance is a
/// partial permutation of `total_packets()` packets.
#[test]
fn constructed_instance_is_a_partial_permutation() {
    claims_hold("e1", &["n=216 k=1 dim-order"]);
}

/// Theorem 14's growth: at fixed k the bound grows ~n²; at fixed n it falls
/// ~1/k².
#[test]
fn theorem_14_growth_shape() {
    let b216 = GeneralParams::new(216, 1).unwrap().bound_steps() as f64;
    let b432 = GeneralParams::new(432, 1).unwrap().bound_steps() as f64;
    let b864 = GeneralParams::new(864, 1).unwrap().bound_steps() as f64;
    assert!(
        b432 / b216 > 2.5,
        "doubling n must much more than double the bound"
    );
    assert!(b864 / b432 > 2.5);
    let bk1 = GeneralParams::new(864, 1).unwrap().bound_steps() as f64;
    let bk2 = GeneralParams::new(864, 2).unwrap().bound_steps() as f64;
    assert!(bk1 / bk2 > 1.8, "k=1 bound must dwarf k=2 bound");
}

/// §5 dimension-order bound, Ω(n²/k): E3's n = 216, k = 1 cell certifies
/// it by replay, and it is at least Theorem 14's bound at the same n, k.
#[test]
fn dimension_order_lower_bound_certified() {
    claims_hold("e3", &["n=216 k=1"]);
}

/// §5 farthest-first bound, for an algorithm outside the
/// destination-exchangeable class: E4's n = 216, k = 1 cell.
#[test]
fn farthest_first_lower_bound_certified() {
    claims_hold("e4", &["n=216 k=1"]);
}

/// The §3 adversary applies to *any* destination-exchangeable minimal
/// adaptive algorithm — including the turn-model family cited in §2
/// (west-first, standing in for Chien–Kim planar-adaptive).
#[test]
fn theorem_14_applies_to_west_first() {
    use mesh_routing::routers::WestFirst;
    let params = GeneralParams::new(216, 1).unwrap();
    let cons = GeneralConstruction::new(params);
    let topo = Mesh::new(216);
    let outcome = cons.run(&topo, Dx::new(WestFirst::new(1)), true);
    let rep = verify_lower_bound(&topo, Dx::new(WestFirst::new(1)), &outcome, None);
    assert!(rep.undelivered_at_bound > 0);
    assert!(rep.replay_matches_construction);
}

/// §5 torus extension: E9's construction embedded in a corner of the
/// torus still certifies the bound.
#[test]
fn torus_lower_bound_certified() {
    claims_hold("e9", &[""]);
}

/// §5 h-h extension (h ≤ k static placement): E8's n = 600, k = 4, h = 2
/// cell builds an h-h problem and certifies the bound.
#[test]
fn hh_lower_bound_certified() {
    claims_hold("e8", &["n=600 k=4 h=2"]);
}

/// Theorem 15: O(n²/k + n) with four inlink queues of size k. E5's n = 216,
/// k ∈ {1, 2, 4} transpose and §5 hard-instance cells complete within
/// 0.1 (n²/k + n) steps, and the hard instance takes at least its
/// construction's bound.
#[test]
fn theorem_15_upper_bound() {
    claims_hold(
        "e5",
        &[
            "n=216 k=1 transpose",
            "n=216 k=1 hard-instance",
            "n=216 k=2 transpose",
            "n=216 k=2 hard-instance",
            "n=216 k=4 transpose",
            "n=216 k=4 hard-instance",
        ],
    );
}

/// Theorem 34: every E6 cell delivers within 972n scheduled steps (564n
/// improved) with at most 834 packets per node, on minimal paths.
#[test]
fn theorem_34_upper_bound() {
    claims_hold("e6", &[""]);
}

/// §1.1's greedy dichotomy: every E7 cell routes the three permutations
/// within 2n − 2 steps, its column funnel queues exactly n/2, and random
/// destinations queue at most 8.
#[test]
fn greedy_queue_dichotomy() {
    claims_hold("e7", &[""]);
}

/// §6 is O(n): scheduled steps per n stay bounded as n grows (they approach
/// the 972 constant from below rather than growing).
#[test]
fn section6_linear_scaling() {
    let r81 = Section6Router::new().route(&workloads::random_permutation(81, 3));
    let r243 = Section6Router::new().route(&workloads::random_permutation(243, 3));
    let per_n_81 = r81.steps_per_n();
    let per_n_243 = r243.steps_per_n();
    assert!(per_n_81 < 972.0 && per_n_243 < 972.0);
    // Growth in steps is ~3x for 3x n (not ~9x as for the Ω(n²/k²) class).
    let ratio = r243.scheduled_steps as f64 / r81.scheduled_steps as f64;
    assert!(ratio < 4.5, "scheduled steps grew superlinearly: {ratio}");
}
