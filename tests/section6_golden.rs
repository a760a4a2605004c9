//! Golden §6 battery: the phased engine's full [`Section6Report`] —
//! scheduled and quiescent steps, `max_node_load` (which sees intra-step
//! transients and so pins the order moves are applied in), moves, and the
//! per-class breakdown — is frozen across refactors.
//!
//! The test regenerates every scenario and asserts the serialized document
//! is **byte-identical** to `tests/fixtures/golden_section6.json`.
//! Regenerate it (only when a behavior change is *intended*):
//!
//! ```sh
//! GOLDEN_RECORD=1 cargo test --release -p mesh-routing --test section6_golden
//! ```

use mesh_routing::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

#[derive(Serialize, Deserialize)]
struct GoldenEntry {
    scenario: String,
    report: Section6Report,
}

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
    let doc: Vec<GoldenEntry> = scenarios()
        .into_iter()
        .map(|(scenario, router, pb)| GoldenEntry {
            scenario,
            report: router.route(&pb),
        })
        .collect();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_section6.json");
    let rendered = serde_json::to_string_pretty(&doc).expect("serialize golden doc") + "\n";
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); record with GOLDEN_RECORD=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, recorded,
        "a §6 report diverged from its golden fixture — the phased engine's \
         observable behavior changed"
    );
}
