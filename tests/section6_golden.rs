//! Golden §6 battery: the phased engine's full [`Section6Report`] —
//! scheduled and quiescent steps, `max_node_load` (which sees intra-step
//! transients and so pins the order moves are applied in), moves, and the
//! per-class breakdown — is frozen across refactors.
//!
//! Each scenario's report is filed through the recording harness
//! (`tests/support/record.rs`) as an entry of
//! `tests/fixtures/section6_golden.txt`: the digest of its JSON, with
//! `scheduled_steps` and `max_node_load` in clear text. Re-record only when
//! a behavior change is *intended*:
//! `GOLDEN_RECORD=1 cargo test --release -p mesh-routing --test section6_golden`.

#[path = "support/record.rs"]
mod record;

use mesh_routing::prelude::*;
use record::{Digest, Entry};

/// A partial permutation whose packets all belong to one quadrant class: a
/// shift by `n/3` per dimension in the quadrant's direction, restricted to
/// the sources whose target stays on the grid.
fn single_quadrant_shift(n: u32, q: Quadrant) -> RoutingProblem {
    let (sx, sy) = q.signs();
    let d = (n / 3) as i64;
    let mut pairs = Vec::new();
    for y in 0..n {
        for x in 0..n {
            let tx = x as i64 + sx * d;
            let ty = y as i64 + sy * d;
            if tx >= 0 && ty >= 0 && (tx as u32) < n && (ty as u32) < n {
                pairs.push((Coord::new(x, y), Coord::new(tx as u32, ty as u32)));
            }
        }
    }
    RoutingProblem::from_pairs(n, format!("quadrant-{q}"), pairs)
}

fn scenarios() -> Vec<(String, Section6Router, RoutingProblem)> {
    let base = Section6Router::new;
    let mut out = Vec::new();
    for n in [27, 81, 243] {
        for seed in [1, 2] {
            out.push((
                format!("perm-n{n}-s{seed}"),
                base(),
                workloads::random_permutation(n, seed),
            ));
        }
    }
    out.push(("transpose-n81".into(), base(), workloads::transpose(81)));
    for seed in 0..3 {
        out.push((
            format!("partial-n81-f0.7-s{seed}"),
            base(),
            workloads::random_partial_permutation(81, 0.7, seed),
        ));
    }
    for q in [Quadrant::NE, Quadrant::NW, Quadrant::SE, Quadrant::SW] {
        out.push((
            format!("quadrant-{q}-n81"),
            base(),
            single_quadrant_shift(81, q),
        ));
    }
    out.push((
        "improved-perm-n81-s1".into(),
        Section6Router::improved(),
        workloads::random_permutation(81, 1),
    ));
    out.push((
        "improved-transpose-n81".into(),
        Section6Router::improved(),
        workloads::transpose(81),
    ));
    out
}

#[test]
fn section6_reports_match_golden_fixture() {
    let scenarios = scenarios();
    for (scenario, router, pb) in &scenarios {
        let report = router.route(pb);
        let mut run = Digest::new();
        run.json(&report);
        let entry = Entry::new(scenario)
            .with("scheduled_steps", report.scheduled_steps)
            .with("max_node_load", report.max_node_load)
            .with("run", run.hex());
        record::check(scenarios.len(), entry).unwrap_or_else(|e| panic!("{e}"));
    }
}
