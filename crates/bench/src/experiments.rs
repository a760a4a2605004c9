//! The experiments: one per theorem/claim of the paper (DESIGN.md §3).
//!
//! Every function builds an [`Experiment`]: table metadata plus a flat list
//! of independent trial cells that the [`crate::runner`] executes across a
//! thread pool. `full = true` extends the parameter grids (longer runs for
//! the record, used when regenerating EXPERIMENTS.md).
//!
//! Cells that draw a seeded workload are registered with
//! [`Experiment::seeded`] and re-run once per requested `--trials`, deriving
//! the trial seed with [`derive_seed`] (trial 0 keeps the historical seed,
//! so the recorded tables stay byte-for-byte reproducible). Deterministic
//! cells (the adversary constructions, fixed workloads) run exactly once.

use crate::cells;
use crate::runner::{derive_seed, Experiment, TrialOutput};
use crate::sweep::{
    engine_only, outcome_tag, per_n, ratio, routed, section6_router, short_label, stall_cap,
    steps_or_dash,
};
use mesh_routing::adversary::dimorder::DimOrderConstruction;
use mesh_routing::adversary::farthest::FarthestFirstConstruction;
use mesh_routing::adversary::{ConstructionOutcome, LowerBoundReport};
use mesh_routing::prelude::*;
use mesh_routing::with_engine_router;
use std::sync::Arc;

/// Runs the §3 construction `cons` against `victim` on `topo`, then replays
/// the constructed permutation under a second, fresh copy of the victim
/// (Theorem 13 and Lemma 12). `check` verifies Lemmas 1–8 after every step
/// of the construction and panics if one fails.
fn attack<T: Topology>(
    cons: &GeneralConstruction,
    topo: &T,
    victim: Algorithm,
    check: bool,
) -> (ConstructionOutcome, LowerBoundReport) {
    with_engine_router!(victim, topo.side(), |router| {
        let outcome = cons.run(topo, router(), check);
        let rep = verify_lower_bound(topo, router(), &outcome, None);
        (outcome, rep)
    }, section6 => engine_only(victim))
}

/// The E3/E4 cell: replays a §5 dimension-order construction's `outcome`
/// under a fresh `victim` and sets the forced bound against `n²/k`.
fn section5_cell<R: Router>(
    params: DimOrderParams,
    topo: &Mesh,
    outcome: &ConstructionOutcome,
    victim: R,
) -> TrialOutput {
    let rep = verify_lower_bound(topo, victim, outcome, None);
    let nf = params.n as f64;
    let row = cells!(
        params.n,
        params.k,
        params.cn,
        params.dn,
        params.p,
        params.l,
        params.bound_steps(),
        ratio(params.bound_steps(), nf * nf / params.k as f64),
        rep.undelivered_at_bound,
        rep.replay_matches_construction
    );
    TrialOutput::with_report(row, rep.replay)
}

/// E1 — Theorem 14: `Ω(n²/k²)` for destination-exchangeable minimal
/// adaptive algorithms, via the §3 construction. For each `(n, k)` the
/// adversary attacks the dimension-order and alternating-adaptive routers;
/// we report the forced bound, its ratio to `n²/k²`, and how many packets
/// remain undelivered at the bound during the replay.
pub fn e1(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e1",
        "Theorem 14 lower bound: constructed permutations vs destination-exchangeable routers",
        "bound/(n²/k²) stays ≈ constant as n grows at fixed k, and does not collapse as k grows: time = Ω(n²/k²); undelivered > 0 certifies Theorem 13 on every row",
        &[
            "n", "k", "cn", "dn", "p", "l", "bound=l*dn", "bound/(n2/k2)",
            "victim", "undeliv@bound", "exchanges", "replay=construction",
        ],
    );
    let mut grid: Vec<(u32, u32)> = vec![(216, 1), (432, 1), (648, 1), (384, 2), (600, 3)];
    if full {
        grid.extend([(864, 1), (1080, 1), (768, 2), (864, 4)]);
    }
    for (n, k) in grid {
        if let Err(err) = GeneralParams::new(n, k) {
            eprintln!("e1: skipping n={n} k={k}: {err}");
            continue;
        }
        for (victim, algo) in [
            ("dim-order", Algorithm::DimOrder { k }),
            ("alt-adaptive", Algorithm::AltAdaptive { k }),
        ] {
            e.fixed(format!("n={n} k={k} {victim}"), move |_trial| {
                let params = GeneralParams::new(n, k).unwrap();
                let cons = GeneralConstruction::new(params);
                let (outcome, rep) = attack(&cons, &Mesh::new(n), algo, false);
                let nf = n as f64;
                let kf = k as f64;
                let row = cells!(
                    n,
                    k,
                    params.cn,
                    params.dn,
                    params.p,
                    params.l,
                    params.bound_steps(),
                    ratio(params.bound_steps(), nf * nf / (kf * kf)),
                    victim,
                    rep.undelivered_at_bound,
                    outcome.exchanges,
                    rep.replay_matches_construction
                );
                TrialOutput::with_report(row, rep.replay)
            });
        }
    }
    e
}

/// E2 — Lemmas 1–8 and Lemma 12: run the construction with the invariant
/// checker enabled (every lemma verified after every step) and check the
/// exact replay equivalence.
pub fn e2(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e2",
        "Construction validity: Lemmas 1-8 checked per step; Lemma 12 replay equivalence",
        "all rows PASS: the invariants of §4.1 hold throughout, and replaying the constructed permutation reproduces the construction's exact final configuration",
        &["n", "k", "victim", "steps checked", "lemmas 1-8", "lemma 12", "corollary 9"],
    );
    let mut grid = vec![(216u32, 1u32), (384, 2)];
    if full {
        grid.push((600, 3));
        grid.push((432, 1));
    }
    for (n, k) in grid {
        // The theorem15 victim's four inlink queues hold up to 4k+1 packets
        // per node, which exceeds §4.3's partner-counting budget (the §5
        // "Other Queue Types" remark: recompute constants for a 4k central
        // queue, which needs n ≥ 24(4k+3)²). We demonstrate it empirically
        // on the one cell where the adversary's actual partner consumption
        // stays within supply.
        let mut victims = vec![
            ("dim-order", Algorithm::DimOrder { k }),
            ("alt-adaptive", Algorithm::AltAdaptive { k }),
        ];
        if (n, k) == (216, 1) {
            victims.push(("theorem15", Algorithm::Theorem15 { k }));
        }
        for (victim, algo) in victims {
            e.fixed(format!("n={n} k={k} {victim}"), move |_trial| {
                let params = GeneralParams::new(n, k).unwrap();
                let cons = GeneralConstruction::new(params);
                // The checked construction panics if any lemma fails;
                // reaching the end is the PASS certificate.
                let (outcome, rep) = attack(&cons, &Mesh::new(n), algo, true);
                let row = cells!(
                    n,
                    k,
                    victim,
                    outcome.bound_steps,
                    "PASS",
                    if rep.replay_matches_construction {
                        "PASS"
                    } else {
                        "FAIL"
                    },
                    if rep.undelivered_at_bound > 0 {
                        "PASS"
                    } else {
                        "FAIL"
                    }
                );
                TrialOutput::with_report(row, rep.replay)
            });
        }
    }
    e
}

/// E3 — §5 dimension-order bound `Ω(n²/k)`.
pub fn e3(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e3",
        "§5 lower bound for destination-exchangeable dimension-order routers",
        "bound·k/n² = k/(4(k+2)) — between 1/12 (k=1) and 1/4 (k→∞), constant in n: time = Ω(n²/k); every replay leaves packets undelivered and matches the construction exactly",
        &["n", "k", "cn", "dn", "p", "l", "bound", "bound/(n2/k)", "undeliv@bound", "replay="],
    );
    let mut grid: Vec<(u32, u32)> = vec![(216, 1), (432, 1), (216, 2), (216, 4)];
    if full {
        grid.extend([(648, 1), (432, 2), (432, 4), (432, 8)]);
    }
    for (n, k) in grid {
        e.fixed(format!("n={n} k={k}"), move |_trial| {
            let params = DimOrderParams::new(n, k).unwrap();
            let topo = Mesh::new(n);
            let victim = || mesh_routing::routers::dim_order(k);
            let outcome = DimOrderConstruction::new(params).run(&topo, victim());
            section5_cell(params, &topo, &outcome, victim())
        });
    }
    e
}

/// E4 — §5 farthest-first bound `Ω(n²/k)` (an algorithm *outside* the
/// destination-exchangeable class).
pub fn e4(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e4",
        "§5 lower bound for farthest-first dimension order (full-destination algorithm)",
        "bound/(n²/k) ≈ constant and undelivered > 0 on every row: the bound certifies empirically for all k. Replay equality (the §5 commutation sketch) holds exactly at k = 1; at k ≥ 2 it depends on tie-breaking details the paper leaves open (see DESIGN.md) — the certified bound is unaffected",
        &["n", "k", "cn", "dn", "p", "l", "bound", "bound/(n2/k)", "undeliv@bound", "replay="],
    );
    let mut grid: Vec<(u32, u32)> = vec![(216, 1), (432, 1), (216, 2)];
    if full {
        grid.extend([(648, 1), (432, 2), (432, 4)]);
    }
    for (n, k) in grid {
        e.fixed(format!("n={n} k={k}"), move |_trial| {
            let params = DimOrderParams::farthest_first(n, k).unwrap();
            let topo = Mesh::new(n);
            let outcome = FarthestFirstConstruction::new(params).run(&topo, FarthestFirst::new(k));
            section5_cell(params, &topo, &outcome, FarthestFirst::new(k))
        });
    }
    e
}

/// E5 — Theorem 15: the bounded-queue dimension-order router routes *every*
/// tested instance in `O(n²/k + n)` steps — including its own hard instance
/// from E3 — and the measured times actually track `n²/k`.
pub fn e5(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e5",
        "Theorem 15 upper bound: O(n²/k + n) with four inlink queues of size k",
        "steps/(n²/k + n) bounded by a small constant on every workload; time falls ≈ linearly as k grows (matching the §5 lower bound's k-dependence); max queue ≤ k always",
        &["n", "k", "workload", "steps", "steps/(n2/k+n)", "max queue"],
    );
    let mut grid = vec![(216u32, 1u32), (216, 2), (216, 4), (216, 8)];
    if full {
        grid.extend([(432, 1), (432, 2), (432, 4), (432, 8), (432, 16)]);
    }
    let route_cell = |n: u32, k: u32, pb: RoutingProblem| -> TrialOutput {
        let denom = (n as u64 * n as u64) / k as u64 + n as u64;
        let out = mesh_routing::route_with_cap(Algorithm::Theorem15 { k }, &pb, 32 * denom);
        let label = short_label(&pb);
        assert!(out.completed, "theorem15 must complete on {label}");
        let row = cells!(
            n,
            k,
            label,
            out.steps,
            ratio(out.steps, denom as f64),
            out.max_queue
        );
        routed(row, out)
    };
    for (n, k) in grid {
        e.fixed(format!("n={n} k={k} transpose"), move |_| {
            route_cell(n, k, workloads::transpose(n))
        });
        e.seeded(format!("n={n} k={k} random-permutation"), move |trial| {
            route_cell(
                n,
                k,
                workloads::random_permutation(n, derive_seed(1, trial)),
            )
        });
        e.fixed(format!("n={n} k={k} column-funnel"), move |_| {
            route_cell(n, k, workloads::column_funnel(n))
        });
        // Hard instance built against this very router (with the §5 "Other
        // Queue Types" adjustment: four inlink queues of k behave like a
        // central queue of 4k+1 for the adversary's counting).
        if DimOrderParams::new(n, 4 * k + 1).is_ok() {
            e.fixed(format!("n={n} k={k} hard-instance"), move |_| {
                let params = DimOrderParams::new(n, 4 * k + 1).unwrap();
                let cons = DimOrderConstruction::new(params);
                let topo = Mesh::new(n);
                let hard = cons
                    .run(&topo, mesh_routing::routers::theorem15(k))
                    .constructed;
                route_cell(n, k, hard)
            });
        }
    }
    e
}

/// E6 — Theorem 34: the §6 algorithm routes any permutation in `O(n)` time
/// with `O(1)` queues.
pub fn e6(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e6",
        "Theorem 34: the §6 minimal adaptive algorithm — O(n) time, O(1) queues",
        "scheduled/n ≤ 972 (564 improved) for every n and workload — constant, not growing: time = O(n); max node load ≤ 834 always; moves = total work (minimal paths)",
        &[
            "n", "workload", "variant", "scheduled", "sched/n", "quiescent",
            "quiet/n", "max load", "moves=work",
        ],
    );
    let mut sizes = vec![27u32, 81, 243];
    if full {
        sizes.push(729);
    }
    let s6_cell = |n: u32, pb: RoutingProblem, variant: &'static str| -> TrialOutput {
        let router = section6_router(variant != "q=408");
        let r = router.route(&pb);
        TrialOutput::new(cells!(
            n,
            short_label(&pb),
            variant,
            r.scheduled_steps,
            format!("{:.1}", r.steps_per_n()),
            r.quiescent_steps,
            per_n(r.quiescent_steps, n),
            r.max_node_load,
            r.total_moves == pb.total_work()
        ))
    };
    for n in sizes {
        for variant in ["q=408", "q=102 (improved)"] {
            e.seeded(
                format!("n={n} random-permutation {variant}"),
                move |trial| {
                    s6_cell(
                        n,
                        workloads::random_permutation(n, derive_seed(11, trial)),
                        variant,
                    )
                },
            );
        }
        for variant in ["q=408", "q=102 (improved)"] {
            e.fixed(format!("n={n} transpose {variant}"), move |_| {
                s6_cell(n, workloads::transpose(n), variant)
            });
        }
    }
    e
}

/// E7 — §1.1 context results for the classic greedy router: `2n − 2` steps
/// with `Θ(n)` queues in the worst case, but `2n + O(log n)` steps with
/// queues ≤ 4 on random destinations.
pub fn e7(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e7",
        "§1.1 greedy dimension order (farthest-first, unbounded queues)",
        "steps ≤ 2n−2 on every permutation; max queue grows ≈ n/4 on the column funnel (the Θ(n) queue requirement) but stays ≤ ~4 on random destinations (Leighton's average case)",
        &["n", "workload", "steps", "2n-2", "max queue", "queue/n"],
    );
    let mut sizes = vec![32u32, 64, 128];
    if full {
        sizes.extend([256, 512]);
    }
    let greedy_cell = |n: u32, pb: RoutingProblem| -> TrialOutput {
        let topo = Mesh::new(n);
        let mut sim = Sim::new(&topo, FarthestFirst::unbounded(n), &pb);
        sim.run(100 * n as u64).expect("greedy completes");
        let r = sim.report();
        let row = cells!(
            n,
            short_label(&pb),
            r.steps,
            2 * n - 2,
            r.max_queue,
            ratio(r.max_queue as u64, n as f64)
        );
        TrialOutput::with_report(row, r)
    };
    for n in sizes {
        e.seeded(format!("n={n} random-permutation"), move |trial| {
            greedy_cell(n, workloads::random_permutation(n, derive_seed(5, trial)))
        });
        e.fixed(format!("n={n} transpose"), move |_| {
            greedy_cell(n, workloads::transpose(n))
        });
        e.fixed(format!("n={n} column-funnel"), move |_| {
            greedy_cell(n, workloads::column_funnel(n))
        });
        e.seeded(format!("n={n} random-destinations"), move |trial| {
            greedy_cell(n, workloads::random_destinations(n, derive_seed(5, trial)))
        });
    }
    e
}

/// E8 — §5 h-h extension: `Ω(h³n²/(k+h)²)`.
pub fn e8(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e8",
        "§5 h-h lower bound (h packets per node; static placement needs h ≤ k)",
        "bound grows with h at fixed (n, k) — more traffic per node forces more time even relative to the added load; undelivered > 0 certifies each instance",
        &["n", "k", "h", "p", "l", "bound", "bound/(h3n2/(k+h)2)", "undeliv@bound", "replay="],
    );
    let mut grid = vec![(864u32, 4u32, 1u32), (600, 4, 2)];
    if full {
        grid.extend([(600, 4, 3), (600, 4, 4), (900, 6, 2)]);
    }
    for (n, k, h) in grid {
        if let Err(err) = GeneralParams::hh(n, k, h) {
            eprintln!("e8: skipping n={n} k={k} h={h}: {err}");
            continue;
        }
        e.fixed(format!("n={n} k={k} h={h}"), move |_trial| {
            let params = GeneralParams::hh(n, k, h).unwrap();
            let cons = GeneralConstruction::new(params);
            let (_, rep) = attack(&cons, &Mesh::new(n), Algorithm::DimOrder { k }, false);
            let nf = n as f64;
            let denom = (h as f64).powi(3) * nf * nf / ((k + h) as f64).powi(2);
            let row = cells!(
                n,
                k,
                h,
                params.p,
                params.l,
                params.bound_steps(),
                ratio(params.bound_steps(), denom),
                rep.undelivered_at_bound,
                rep.replay_matches_construction
            );
            TrialOutput::with_report(row, rep.replay)
        });
    }
    e
}

/// E9 — §5 torus extension: the construction in an (m × m) corner of a
/// side-2m torus.
pub fn e9(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e9",
        "§5 torus extension: Ω(n²/k²) on the torus via an (n/2)×(n/2) submesh",
        "same bound values as the mesh at submesh side m (torus wraparound never helps: minimal paths of the construction stay inside the submesh); undelivered > 0 on every row",
        &["torus n", "submesh m", "k", "bound", "undeliv@bound", "replay="],
    );
    let mut grid = vec![(216u32, 1u32)];
    if full {
        grid.extend([(432, 1), (384, 2)]);
    }
    for (m, k) in grid {
        e.fixed(format!("m={m} k={k}"), move |_trial| {
            let n = 2 * m;
            let params = GeneralParams::new(m, k).unwrap();
            let cons = GeneralConstruction::embedded(params, n);
            let (_, rep) = attack(&cons, &Torus::new(n), Algorithm::DimOrder { k }, false);
            let row = cells!(
                n,
                m,
                k,
                params.bound_steps(),
                rep.undelivered_at_bound,
                rep.replay_matches_construction
            );
            TrialOutput::with_report(row, rep.replay)
        });
    }
    e
}

/// E10 — the paper's closing trade-off (§7): all algorithms × workloads.
pub fn e10(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e10",
        "§7 trade-off matrix: steps (and max queue) per algorithm × workload",
        "greedy is ~2n fast with big queues; theorem15 bounds queues but pays on adversarial loads; §6 is O(n) with bounded queues; small-k dim-order/adaptive can stall (reported as '-') — exactly the impossibility the paper proves",
        &["workload", "algorithm", "steps", "steps/n", "max queue", "done"],
    );
    let n = if full { 243 } else { 81 };
    let cap = stall_cap(n);
    let algos = [
        Algorithm::GreedyUnbounded,
        Algorithm::DimOrder { k: 4 },
        Algorithm::AltAdaptive { k: 4 },
        Algorithm::Theorem15 { k: 4 },
        Algorithm::Section6,
        Algorithm::Section6Improved,
    ];
    let matrix_cell = move |pb: RoutingProblem, algo: Algorithm| -> TrialOutput {
        let out = mesh_routing::route_with_cap(algo, &pb, cap);
        let row = cells!(
            short_label(&pb),
            out.algorithm,
            steps_or_dash(out.completed, out.steps),
            if out.completed {
                per_n(out.steps, n)
            } else {
                format!("stalled {}/{}", out.delivered, out.total_packets)
            },
            out.max_queue,
            out.completed
        );
        routed(row, out)
    };
    // Workloads: name, historical seed (`None` for a fixed workload, which
    // runs once), and builder from `(n, seed)`.
    type Build = fn(u32, u64) -> RoutingProblem;
    let workload_list: [(&str, Option<u64>, Build); 6] = [
        ("random-permutation", Some(7), workloads::random_permutation),
        ("transpose", None, |n, _| workloads::transpose(n)),
        ("bit-complement", None, |n, _| workloads::bit_complement(n)),
        ("tornado", None, |n, _| workloads::tornado(n)),
        ("column-funnel", None, |n, _| workloads::column_funnel(n)),
        ("hotspot", None, |n, _| workloads::hotspot(n, 9, 7)),
    ];
    for (wname, seed, build) in workload_list {
        for algo in algos {
            let label = format!("{wname} {}", algo.name());
            match seed {
                Some(s) => e.seeded(label, move |trial| {
                    matrix_cell(build(n, derive_seed(s, trial)), algo)
                }),
                None => e.fixed(label, move |_| matrix_cell(build(n, 0), algo)),
            }
        }
    }
    e
}

/// The A1/A2 sweep: per queue size `k`, the two algorithms of `pair(k)` side
/// by side on the transpose, the column funnel and a random permutation
/// (historical seed `seed`).
fn ablation_cells(
    e: &mut Experiment,
    n: u32,
    ks: &[u32],
    seed: u64,
    pair: fn(u32) -> (Algorithm, Algorithm),
) {
    let pair_cell = move |k: u32, pb: RoutingProblem| -> TrialOutput {
        let cap = stall_cap(n);
        let (left, right) = pair(k);
        let l = mesh_routing::route_with_cap(left, &pb, cap);
        let r = mesh_routing::route_with_cap(right, &pb, cap);
        TrialOutput::new(cells!(
            n,
            k,
            short_label(&pb),
            steps_or_dash(l.completed, l.steps),
            steps_or_dash(r.completed, r.steps),
            l.completed,
            r.completed
        ))
    };
    for &k in ks {
        e.fixed(format!("k={k} transpose"), move |_| {
            pair_cell(k, workloads::transpose(n))
        });
        e.fixed(format!("k={k} column-funnel"), move |_| {
            pair_cell(k, workloads::column_funnel(n))
        });
        e.seeded(format!("k={k} random-permutation"), move |trial| {
            pair_cell(
                k,
                workloads::random_permutation(n, derive_seed(seed, trial)),
            )
        });
    }
}

/// A1 — ablation: FIFO vs farthest-first outqueue arbitration at equal k.
pub fn a1(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "a1",
        "Ablation: outqueue policy (FIFO dim-order vs farthest-first) at equal queue size",
        "farthest-first should match or beat FIFO on funneling workloads (it is the policy behind the 2n−2 result) — but §5 shows neither escapes Ω(n²/k)",
        &["n", "k", "workload", "fifo steps", "farthest steps", "fifo done", "farthest done"],
    );
    let n = if full { 128 } else { 64 };
    ablation_cells(&mut e, n, &[2, 4, 8, 16], 3, |k| {
        (Algorithm::DimOrder { k }, Algorithm::FarthestFirst { k })
    });
    e
}

/// A2 — ablation: queue architecture at equal total buffer (central 4k vs
/// four inlink queues of k).
pub fn a2(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "a2",
        "Ablation: central queue of 4k vs four inlink queues of k (equal buffer budget)",
        "per-inlink structure (theorem15) always completes thanks to its progress guarantees; the central-queue router with the same budget can stall on funneling traffic — structure matters as much as capacity (§5 'Other Queue Types')",
        &["n", "k", "workload", "central-4k steps", "inlink-k steps", "central done", "inlink done"],
    );
    let n = if full { 128 } else { 64 };
    ablation_cells(&mut e, n, &[1, 2, 4], 9, |k| {
        (Algorithm::DimOrder { k: 4 * k }, Algorithm::Theorem15 { k })
    });
    e
}

/// A3 — ablation: the §6.4 improved `q = 102` vs the base `q = 408`.
pub fn a3(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "a3",
        "Ablation: §6 node bound q = 408 vs improved q = 102 for iterations j ≥ 1",
        "the improved constants cut the scheduled bound by ≈ 35-45% (toward 564n) with identical delivery, identical quiescent time, and the same measured queue loads — the q refinement only tightens the worst-case schedule",
        &["n", "workload", "q", "scheduled", "sched/n", "quiescent", "max load"],
    );
    let mut sizes = vec![81u32, 243];
    if full {
        sizes.push(729);
    }
    let s6_cell = |n: u32, pb: RoutingProblem, q: &'static str| -> TrialOutput {
        let router = section6_router(q != "408");
        let r = router.route(&pb);
        TrialOutput::new(cells!(
            n,
            short_label(&pb),
            q,
            r.scheduled_steps,
            format!("{:.1}", r.steps_per_n()),
            r.quiescent_steps,
            r.max_node_load
        ))
    };
    for n in sizes {
        for q in ["408", "102"] {
            e.seeded(format!("n={n} random-permutation q={q}"), move |trial| {
                s6_cell(
                    n,
                    workloads::random_permutation(n, derive_seed(13, trial)),
                    q,
                )
            });
        }
        for q in ["408", "102"] {
            e.fixed(format!("n={n} transpose q={q}"), move |_| {
                s6_cell(n, workloads::transpose(n), q)
            });
        }
    }
    e
}

/// E11 — §5's nonminimal escape: hot-potato routing is destination-
/// exchangeable but nonminimal, so Theorem 14 does not apply to it. Two
/// demonstrations: (a) the hard instance built against dimension order is
/// *easy* for hot potato; (b) aiming the adversary at hot potato itself
/// breaks the construction's invariants (packets deflect out of the boxes),
/// so the adversary cannot even run to completion — exactly why the paper's
/// bound needs minimality.
pub fn e11(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e11",
        "§5 nonminimal escape: hot-potato vs the minimal-routing adversary",
        "hot potato solves dim-order's hard instance in ≈ O(n) steps (vs the Ω(n²/k) it forces on dimension order); the adversary aimed at hot potato fails (invariant breakdown) — minimality cannot be dropped from Theorem 14",
        &["n", "k", "scenario", "result"],
    );
    let mut grid = vec![(216u32, 1u32)];
    if full {
        grid.push((432, 1));
    }
    for (n, k) in grid {
        // (a) dim-order's hard instance, fed to hot potato.
        e.fixed(
            format!("n={n} k={k} hot-potato-on-hard-instance"),
            move |_| {
                let topo = Mesh::new(n);
                let params = DimOrderParams::new(n, k).unwrap();
                let cons = DimOrderConstruction::new(params);
                let outcome = cons.run(&topo, mesh_routing::routers::dim_order(k));
                let hp = mesh_routing::route_with_cap(
                    Algorithm::HotPotato,
                    &outcome.constructed,
                    16 * (n as u64) * (n as u64),
                );
                let row = cells!(
                    n,
                    k,
                    "hot-potato on dim-order's hard instance",
                    if hp.completed {
                        format!(
                            "{} steps ({}n) — vs the >= {} it forces on dim-order",
                            hp.steps,
                            per_n(hp.steps, n),
                            outcome.bound_steps
                        )
                    } else {
                        format!("stalled at {}/{}", hp.delivered, hp.total_packets)
                    }
                );
                routed(row, hp)
            },
        );
        // (b) the general adversary aimed at hot potato itself.
        e.fixed(format!("n={n} k={k} adversary-vs-hot-potato"), move |_| {
            let topo = Mesh::new(n);
            let gparams = GeneralParams::new(n, k).unwrap();
            let gcons = GeneralConstruction::new(gparams);
            let res = gcons.try_run(&topo, mesh_routing::routers::hot_potato(n), false);
            TrialOutput::new(cells!(
                n,
                k,
                "general adversary vs hot-potato",
                match res {
                    Ok(o) => format!(
                        "ran; {} undelivered at bound {} (bound not meaningful for nonminimal)",
                        o.undelivered_at_bound, o.bound_steps
                    ),
                    Err(_) => "construction breaks down (packets deflect out of the boxes; \
                               Lemma 3/4 partner supply exhausted)"
                        .to_string(),
                }
            ))
        });
    }
    e
}

/// E12 — §5's nonminimal-extensions sweep: the δ-bounded deflection class.
/// The unmodified §3 adversary is aimed at a `BoundedDeflect(δ)` victim for
/// growing δ. At δ = 0 (minimal) the bound certifies exactly as in E1; for
/// δ ≥ 1 the paper's sketch requires scaling p by (δ+1) and widening the
/// protected bands — the unmodified adversary progressively loses its grip
/// (fewer undelivered packets at the bound, or outright invariant
/// breakdown), quantifying how deviation erodes the lower bound toward the
/// predicted Ω(n²/(δ+1)³k²).
pub fn e12(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e12",
        "§5 nonminimal extensions: the unmodified adversary vs δ-bounded deflection",
        "δ = 0 certifies like E1 (undelivered > 0, replay exact). Measured finding: small-δ deflection inside a conservative queueing discipline cannot escape the constructed congestion either (deflection still needs queue space — only hot potato's always-forward discipline does, see E11), so the unmodified bound keeps certifying; the paper's (δ+1)-scaled constants are needed only for algorithms that exploit the full δ corridor",
        &["n", "k", "delta", "result", "undeliv@bound", "replay="],
    );
    let (n, k) = if full { (384u32, 2u32) } else { (216, 1) };
    let deltas: &[u8] = if full { &[0, 1, 2, 3] } else { &[0, 1, 2] };
    for &delta in deltas {
        e.fixed(format!("n={n} k={k} delta={delta}"), move |_| {
            let params = GeneralParams::new(n, k).unwrap();
            let cons = GeneralConstruction::new(params);
            let topo = Mesh::new(n);
            let make = || {
                mesh_routing::engine::Dx::new(mesh_routing::routers::BoundedDeflect::new(
                    n, k, delta,
                ))
            };
            match cons.try_run(&topo, make(), false) {
                Ok(outcome) => {
                    let rep = verify_lower_bound(&topo, make(), &outcome, None);
                    let row = cells!(
                        n,
                        k,
                        delta,
                        "construction ran",
                        rep.undelivered_at_bound,
                        rep.replay_matches_construction
                    );
                    TrialOutput::with_report(row, rep.replay)
                }
                Err(_) => TrialOutput::new(cells!(
                    n,
                    k,
                    delta,
                    "adversary breakdown (partner supply exhausted)",
                    "-",
                    "-"
                )),
            }
        });
    }
    e
}

/// E13 — the §5 dynamic setting: Bernoulli injection at rate λ per node per
/// step with uniform destinations. Sweeps λ to locate each router's
/// saturation knee (latency blow-up); the paper's lower bound applies to
/// dynamic problems too, as long as injection timing is
/// destination-independent (ours is).
pub fn e13(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "e13",
        "Dynamic Bernoulli traffic: latency vs injection rate (saturation sweep)",
        "all routers drain at low λ with latency ≈ flight time (~2n/3 hops mean); as λ approaches each router's capacity the p99 latency and drain time blow up — bounded-queue minimal routers saturate first, hot potato degrades by deflection detours instead of queueing",
        &[
            "n", "rate", "router", "drain steps", "mean lat", "p99 lat", "max queue", "done",
        ],
    );
    let n = if full { 48 } else { 32 };
    let window = 40 * n as u64;
    // The uniform-traffic capacity of the mesh bisection is λ ≈ 4/n
    // (λ·n²/2 packets cross 2n bisection links per step); straddle it.
    let rates = [0.02f64, 0.06, 0.10, 0.14];
    for rate in rates {
        for (router, algo) in [
            ("theorem15(k=2)", Algorithm::Theorem15 { k: 2 }),
            ("hot-potato", Algorithm::HotPotato),
            ("greedy", Algorithm::GreedyUnbounded),
        ] {
            e.seeded(format!("rate={rate} {router}"), move |trial| {
                let pb = workloads::dynamic_bernoulli(n, rate, window / 4, derive_seed(99, trial));
                if pb.is_empty() {
                    return TrialOutput::new(cells!(n, rate, router, 0, "-", "-", 0, true));
                }
                let topo = Mesh::new(n);
                with_engine_router!(algo, n, |make| {
                    let mut sim = Sim::new(&topo, make(), &pb);
                    let res = sim.run(window * 4);
                    let lat = sim.latency_distribution();
                    let rep = sim.report();
                    let row = cells!(
                        n,
                        rate,
                        router,
                        rep.steps,
                        format!("{:.1}", lat.mean),
                        lat.p99,
                        rep.max_queue,
                        res.is_ok()
                    );
                    TrialOutput::with_report(row, rep)
                }, section6 => engine_only(algo))
            });
        }
    }
    e
}

/// PERF — fixed routing workloads with deterministic rows. Every cell is a
/// fixed (unseeded) workload routed under a fixed step cap, so the
/// deterministic document is a pure function of the experiment id. The
/// quick tier ends at n = 256; `--full` adds the n = 512 and 1024 rows.
/// Wall-clock per cell goes to the timing sidecar, but speed claims are
/// made by the repo benchmark (`BENCHMARK.json`), not from here.
///
/// Small-n cells finish in single-digit milliseconds cold: each cell
/// repeats its (identical, deterministic) run `reps = max(256/n, 1)` times
/// so the sidecar times a warm loop. At n >= 256 `reps` is 1.
pub fn perf(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "perf",
        "Engine workloads: fixed routing problems under a 16n step cap",
        "rows are a pure function of the experiment id (steps, deliveries, moves and max queue per router and n); wall-clock per cell lives in the timing sidecar, and speed claims come from the repo benchmark (BENCHMARK.json), not from this table",
        &[
            "n",
            "router",
            "workload",
            "reps",
            "steps",
            "delivered",
            "moves",
            "max queue",
            "done",
        ],
    );
    let mut sizes = vec![16u32, 64, 256];
    if full {
        sizes.extend([512, 1024]);
    }
    let route_cell = move |n: u32, router: &'static str, algo: Algorithm| -> TrialOutput {
        let reps = (256 / n).max(1);
        let topo = Mesh::new(n);
        let pb = workloads::random_permutation(n, 2024);
        with_engine_router!(algo, n, |make| {
            let mut last = None;
            for _ in 0..reps {
                let mut sim = Sim::new(&topo, make(), &pb);
                let res = sim.run(16 * n as u64);
                let rep = sim.report();
                last = Some((res.is_ok(), rep));
            }
            let (ok, rep) = last.expect("reps >= 1");
            let row = cells!(
                n,
                router,
                "random-permutation",
                reps,
                rep.steps,
                format!("{}/{}", rep.delivered, rep.total_packets),
                rep.total_moves,
                rep.max_queue,
                ok
            );
            TrialOutput::with_report(row, rep)
        }, section6 => engine_only(algo))
    };
    for n in sizes {
        for (router, algo) in [
            ("dim-order(k=4)", Algorithm::DimOrder { k: 4 }),
            ("theorem15(k=2)", Algorithm::Theorem15 { k: 2 }),
            ("hot-potato(k=1)", Algorithm::HotPotato),
        ] {
            e.fixed(format!("n={n} {router}"), move |_| {
                route_cell(n, router, algo)
            });
        }
    }
    e
}

/// CHAOS — the robustness soak. Seeded random fault plans (transient cable
/// cuts, node stalls, queue-slot degradations — see `mesh_faults`) at
/// increasing density are run against [`FaultAware`]-wrapped routers, with
/// the raw (unwrapped) dimension-order router alongside for contrast, under
/// the engine's livelock watchdog. Reported per cell: the watchdog verdict
/// (`completed`, or `deadlock`/`livelock`/`step-cap` — never a panic), the
/// delivered fraction, and the stretch (link traversals per unit of L1
/// distance, over delivered packets). Every cell is fully determined by the
/// trial seed, so the table is byte-identical across `--threads` settings.
pub fn chaos(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "chaos",
        "Chaos soak: fault density × router × workload under the livelock watchdog",
        "density-0 rows match the fault-free engine exactly (stretch 1.000, frac 1.000); at positive density the fault-aware wrappers keep delivering everything that remains routable, outages inflate steps rather than crashing the run, and any permanent wedge surfaces as a deadlock/livelock verdict with diagnostics, never a panic or a silent step-cap",
        &[
            "n", "density", "router", "workload", "outcome", "delivered", "frac", "steps",
            "stretch",
        ],
    );
    let n: u32 = if full { 24 } else { 16 };
    let densities: &[f64] = if full {
        &[0.0, 0.05, 0.15, 0.30]
    } else {
        &[0.0, 0.05, 0.15]
    };
    // Faults start within [0, horizon) and last at most horizon/2; the
    // watchdog measures its window from the last fault transition, so a
    // verdict always means a genuine wedge, not an outage still in progress.
    let horizon = 8 * n as u64;
    let k = 4;
    for &density in densities {
        for (router, algo, fault_aware) in [
            ("dim-order/raw", Algorithm::DimOrder { k }, false),
            ("dim-order/fault-aware", Algorithm::DimOrder { k }, true),
            ("west-first/fault-aware", Algorithm::WestFirst { k }, true),
            (
                "theorem15(k=2)/fault-aware",
                Algorithm::Theorem15 { k: 2 },
                true,
            ),
            // Nonminimal: the mask cannot steer deflections, so this leans
            // on the wrapper's outlink post-filter and capacity guard;
            // stretch > 1 measures the deflection detours.
            ("hot-potato/fault-aware", Algorithm::HotPotato, true),
        ] {
            for workload in ["partial-perm", "transpose"] {
                e.seeded(
                    format!("density={density} {router} {workload}"),
                    move |trial| {
                        let topo = Mesh::new(n);
                        let pb = match workload {
                            "partial-perm" => workloads::random_partial_permutation(
                                n,
                                0.5,
                                derive_seed(2024, trial),
                            ),
                            _ => workloads::transpose(n),
                        };
                        let plan = FaultPlan::random(n, density, horizon, derive_seed(4045, trial))
                            .compile();
                        let config = SimConfig {
                            watchdog: Some(8 * n as u64),
                            ..SimConfig::default()
                        };
                        let tags = (density, router, workload);
                        with_engine_router!(algo, n, |make| if fault_aware {
                            let aware = FaultAware::new(make(), Arc::new(plan.clone()));
                            chaos_row(Sim::with_faults(&topo, aware, &pb, config, plan), &pb, tags)
                        } else {
                            chaos_row(Sim::with_faults(&topo, make(), &pb, config, plan), &pb, tags)
                        }, section6 => engine_only(algo))
                    },
                );
            }
        }
    }
    e
}

/// Runs one chaos cell's simulation to its watchdog verdict and renders the
/// row; `tags` are the cell's density, router and workload labels.
fn chaos_row<R: Router>(
    mut sim: Sim<'_, Mesh, R>,
    pb: &RoutingProblem,
    (density, router, workload): (f64, &str, &str),
) -> TrialOutput {
    let res = sim.run(50_000);
    // Stretch over delivered packets only: hops actually walked per unit
    // of L1 distance.
    let (mut hops, mut l1) = (0u64, 0u64);
    for p in &pb.packets {
        if sim.delivered_step(p.id).is_some() {
            hops += sim.packet_hops()[p.id.index()] as u64;
            l1 += p.src.manhattan(p.dst) as u64;
        }
    }
    let stretch = if l1 == 0 {
        "-".to_string()
    } else {
        format!("{:.3}", hops as f64 / l1 as f64)
    };
    let rep = sim.report();
    let row = cells!(
        pb.n,
        density,
        router,
        workload,
        outcome_tag(&res),
        format!("{}/{}", sim.delivered(), pb.len()),
        ratio(sim.delivered() as u64, pb.len() as f64),
        rep.steps,
        stretch
    );
    TrialOutput::with_report(row, rep)
}

/// RELIABLE — end-to-end reliable delivery over transient outages. Seeded
/// plans of lossy-link windows plus short cable cuts
/// ([`FaultPlan::random_outages`]) destroy packets in flight; raw dynamic
/// injection rows lose them for good (the watchdog flags the incompletable
/// run), while the [`Transport`] rows —
/// same problem, same plan, same fault-aware Theorem 15 router — recover
/// every payload exactly once via ACKs and deterministic retransmission,
/// sweeping the backoff policy. Every cell is a pure function of the trial
/// seed, so the table is byte-identical across `--threads` settings.
pub fn reliable(full: bool) -> Experiment {
    use mesh_routing::reliable::{BackoffPolicy, Transport};

    let mut e = Experiment::new(
        "reliable",
        "Reliable transport: raw injection vs ACK+retransmission under lossy-link outages",
        "density-0 rows complete with zero losses and zero retransmits in both layers; at positive density the raw layer strands exactly its lost packets (outcome deadlock/livelock, exactly-once '-'), while every reliable row reports exactly-once yes with retx > 0 covering the losses — exponential backoff needs no more retransmissions than the fixed timeout at equal delivery, and goodput degrades gracefully with density",
        &[
            "n", "density", "layer", "backoff", "outcome", "delivered", "exactly-once", "retx",
            "dup-drops", "lost", "steps", "goodput", "mean lat",
        ],
    );
    let n: u32 = if full { 24 } else { 16 };
    let densities: &[f64] = if full {
        &[0.0, 0.06, 0.12, 0.20]
    } else {
        &[0.0, 0.06, 0.12]
    };
    // Outages start within [0, horizon) and are all transient; the injection
    // window ends well before the horizon so recovery happens under fire.
    let horizon = 8 * n as u64;
    let layers = [
        ("raw", "-", None),
        ("reliable", "fixed(64)", Some(BackoffPolicy::fixed(64))),
        (
            "reliable",
            "expo(64..512,j16)",
            Some(BackoffPolicy::exponential(64, 512, 16)),
        ),
    ];
    for &density in densities {
        for (layer, backoff, policy) in layers {
            e.seeded(
                format!("density={density} {layer} {backoff}"),
                move |trial| {
                    let topo = Mesh::new(n);
                    let pb = workloads::dynamic_bernoulli(
                        n,
                        0.02,
                        4 * n as u64,
                        derive_seed(2024, trial),
                    );
                    let faults = Arc::new(
                        FaultPlan::random_outages(n, density, horizon, derive_seed(40, trial))
                            .compile(),
                    );
                    let config = SimConfig {
                        // Must exceed the longest lawful retransmission
                        // gap (cap + jitter), or quiet timer waits would
                        // read as starvation.
                        watchdog: Some(1024.max(8 * n as u64)),
                        ..SimConfig::default()
                    };
                    let mut sim = Sim::with_faults(
                        &topo,
                        FaultAware::new(Dx::new(Theorem15::new(2)), Arc::clone(&faults)),
                        &pb,
                        config,
                        faults.as_ref().clone(),
                    );
                    let (outcome, exactly_once, retx, dup_drops, goodput, mean_lat) = match policy {
                        None => {
                            let res = sim.run(200_000);
                            let outcome = outcome_tag(&res);
                            let lat = sim.latency_distribution();
                            let steps = sim.steps().max(1);
                            (
                                outcome,
                                "-".to_string(),
                                "-".to_string(),
                                "-".to_string(),
                                format!("{:.4}", sim.delivered() as f64 / steps as f64),
                                format!("{:.1}", lat.mean),
                            )
                        }
                        Some(policy) => {
                            let mut tp = Transport::new(&pb, policy, derive_seed(7, trial));
                            let res = sim.run_with_protocol(200_000, &mut tp);
                            let outcome = outcome_tag(&res);
                            let rep = tp.report(sim.steps());
                            (
                                outcome,
                                if rep.exactly_once { "yes" } else { "NO" }.to_string(),
                                rep.retransmits.to_string(),
                                rep.duplicate_deliveries.to_string(),
                                format!("{:.4}", rep.goodput),
                                format!("{:.1}", rep.latency.mean),
                            )
                        }
                    };
                    let rep = sim.report();
                    let row = cells!(
                        n,
                        density,
                        layer,
                        backoff,
                        outcome,
                        format!("{}/{}", sim.delivered(), sim.num_packets()),
                        exactly_once,
                        retx,
                        dup_drops,
                        rep.lost,
                        rep.steps,
                        goodput,
                        mean_lat
                    );
                    TrialOutput::with_report(row, rep)
                },
            );
        }
    }
    e
}

/// CRASHREC — crash-recovery soak over the checkpoint/restore subsystem
/// (DESIGN.md §11). Each trial runs a faulty workload to completion while
/// writing cadenced checkpoints, then simulates a crash at every recorded
/// checkpoint: the snapshot is round-tripped through its JSON wire format,
/// restored into a fresh engine (and, on the reliable layer, a fresh
/// [`Transport`] rehydrated from the
/// protocol slot), and run to completion. A row passes only if **every**
/// resumed run reproduces the uninterrupted run byte-for-byte — same
/// outcome, same rendered report, same per-packet trajectories.
pub fn crashrec(full: bool) -> Experiment {
    use mesh_routing::engine::{MemorySink, Snapshot, SnapshotHook};
    use mesh_routing::reliable::{BackoffPolicy, Transport};

    let mut e = Experiment::new(
        "crashrec",
        "Crash recovery soak: kill at every checkpoint, resume, byte-compare vs the uninterrupted run",
        "every row reports identical=yes with resumes == ckpts: a run killed at any checkpoint and resumed from the snapshot's JSON wire form replays the remaining steps bit-identically — same outcome, report, and packet trajectories — on both the raw and the ACK+retransmission layer, at every cadence and fault density",
        &[
            "n", "density", "layer", "cadence", "outcome", "steps", "ckpts", "resumes",
            "identical",
        ],
    );
    let n: u32 = if full { 16 } else { 12 };
    let densities: &[f64] = if full {
        &[0.0, 0.08, 0.16]
    } else {
        &[0.0, 0.12]
    };
    let cadences: &[u64] = if full { &[4, 16, 64] } else { &[8, 32] };
    let horizon = 8 * n as u64;
    for &density in densities {
        for layer in ["raw", "reliable"] {
            for &cadence in cadences {
                e.seeded(
                    format!("density={density} {layer} ck={cadence}"),
                    move |trial| {
                        let topo = Mesh::new(n);
                        let pb = workloads::dynamic_bernoulli(
                            n,
                            0.02,
                            4 * n as u64,
                            derive_seed(3111, trial),
                        );
                        let faults = Arc::new(
                            FaultPlan::random_outages(n, density, horizon, derive_seed(41, trial))
                                .compile(),
                        );
                        let config = SimConfig {
                            watchdog: Some(1024.max(8 * n as u64)),
                            checkpoint_every: Some(cadence),
                            ..SimConfig::default()
                        };
                        let make_router =
                            || FaultAware::new(Dx::new(Theorem15::new(2)), Arc::clone(&faults));
                        let resume_config = SimConfig {
                            checkpoint_every: None,
                            ..config
                        };
                        // The reliable layer is the raw run plus a transport:
                        // its state rides each checkpoint's protocol slot and
                        // its report joins the byte comparison.
                        let make_transport = || {
                            (layer == "reliable").then(|| {
                                let policy = BackoffPolicy::exponential(64, 512, 16);
                                Transport::new(&pb, policy, derive_seed(7, trial))
                            })
                        };
                        let tp_json = |tp: &Option<Transport>, steps| {
                            tp.as_ref()
                                .map(|tp| serde_json::to_string(&tp.report(steps)).unwrap())
                        };
                        let mut sim = Sim::with_faults(
                            &topo,
                            make_router(),
                            &pb,
                            config,
                            faults.as_ref().clone(),
                        );
                        let mut sink = MemorySink::default();
                        let mut tp = make_transport();
                        let res = match &mut tp {
                            Some(tp) => sim.run_with_protocol_checkpointed(200_000, tp, &mut sink),
                            None => sim.run_checkpointed(200_000, &mut sink),
                        };
                        let want = serde_json::to_string(&sim.report()).unwrap();
                        let want_tp = tp_json(&tp, sim.steps());
                        let mut resumes = 0u64;
                        let mut identical = true;
                        for ckpt in &sink.checkpoints {
                            let snap = Snapshot::from_json(&ckpt.to_json())
                                .expect("engine-written snapshot must round-trip");
                            let mut sim_b = Sim::restore(
                                &topo,
                                make_router(),
                                resume_config,
                                Some(faults.as_ref().clone()),
                                &snap,
                            )
                            .expect("engine-written snapshot must restore");
                            let mut tp_b = make_transport();
                            let res_b = match &mut tp_b {
                                Some(tp_b) => {
                                    tp_b.restore_state(
                                        snap.protocol.as_ref().expect("protocol slot"),
                                    )
                                    .expect("transport state must restore");
                                    sim_b.run_with_protocol(200_000, tp_b)
                                }
                                None => sim_b.run(200_000),
                            };
                            resumes += 1;
                            identical &= res_b == res
                                && serde_json::to_string(&sim_b.report()).unwrap() == want
                                && tp_json(&tp_b, sim_b.steps()) == want_tp
                                && sim_b.packet_snapshot() == sim.packet_snapshot();
                        }
                        let row = cells!(
                            n,
                            density,
                            layer,
                            cadence,
                            outcome_tag(&res),
                            sim.steps(),
                            sink.checkpoints.len(),
                            resumes,
                            if identical { "yes" } else { "NO" }
                        );
                        TrialOutput::with_report(row, sim.report())
                    },
                );
            }
        }
    }
    e
}

/// An `overload` router: the algorithm, and whether it runs fault-aware
/// over a seeded random fault plan (the `+faults` rows).
type OverloadRouter = (Algorithm, bool);

/// One open-system steady run for an `overload` router. The `+faults`
/// variant routes around a seeded random fault plan with the fault-aware
/// wrapper (fixed plan seed: the fault landscape is part of the cell's
/// identity, only the workload varies per trial).
fn overload_run(
    (algo, faulty): OverloadRouter,
    n: u32,
    lambda: f64,
    schedule: SteadyConfig,
    admission: AdmissionPolicy,
    seed: u64,
) -> (Result<SteadyReport, SimError>, SimReport) {
    fn drive<R: Router>(
        mut sim: Sim<'_, Mesh, R>,
        schedule: SteadyConfig,
    ) -> (Result<SteadyReport, SimError>, SimReport) {
        let res = sim.run_steady(schedule);
        (res, sim.report())
    }
    let topo = Mesh::new(n);
    let pb = workloads::open_bernoulli(n, lambda, schedule.horizon(), seed);
    let config = SimConfig {
        admission,
        watchdog: Some((4 * schedule.window).max(8 * n as u64)),
        ..SimConfig::default()
    };
    with_engine_router!(algo, n, |make| if faulty {
        let plan = FaultPlan::random(n, 0.05, 4 * n as u64, derive_seed(8997, 0)).compile();
        let aware = FaultAware::new(make(), Arc::new(plan.clone()));
        drive(Sim::with_faults(&topo, aware, &pb, config, plan), schedule)
    } else {
        drive(Sim::with_config(&topo, make(), &pb, config), schedule)
    }, section6 => engine_only(algo))
}

/// Whether `router` sustains offered load `lambda`: the run stays live
/// under `DeferIndefinitely` and delivers ≥ 90% of what the measurement
/// windows offered.
fn overload_sustained(
    router: OverloadRouter,
    n: u32,
    lambda: f64,
    schedule: SteadyConfig,
    seed: u64,
) -> bool {
    let (res, _) = overload_run(
        router,
        n,
        lambda,
        schedule,
        AdmissionPolicy::DeferIndefinitely,
        seed,
    );
    match res {
        Ok(rep) => {
            let offered: u64 = rep.frames.iter().map(|f| f.offered).sum();
            let delivered: u64 = rep.frames.iter().map(|f| f.delivered).sum();
            offered == 0 || delivered as f64 >= 0.9 * offered as f64
        }
        Err(_) => false,
    }
}

/// Binary search for the saturation point λ*: the largest offered load
/// (packets per node per step) the router sustains. Random traffic on an
/// n-mesh is bisection-limited near 4/n per node, so `[0, 1]` brackets
/// every router here; 7 halvings resolve λ* to under 1% of the bracket.
fn saturation_lambda(router: OverloadRouter, n: u32, schedule: SteadyConfig, seed: u64) -> f64 {
    if overload_sustained(router, n, 1.0, schedule, seed) {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        if overload_sustained(router, n, mid, schedule, seed) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo.max(1.0 / 128.0)
}

/// OVERLOAD — open-system saturation and graceful degradation (the
/// robustness layer over the paper's closed-system model). Per router the
/// cell binary-searches the saturation point λ* (sustained =
/// delivered/offered ≥ 0.9 under `DeferIndefinitely`), then measures a
/// throughput–latency point at `x·λ*` under a shedding admission policy;
/// `vs-l*` is the goodput ratio against the same policy's run at λ*
/// itself, so degradation past saturation is read directly off the row.
pub fn overload(full: bool) -> Experiment {
    let mut e = Experiment::new(
        "overload",
        "Open-system overload: saturation point lambda* per router, throughput-latency curves, graceful degradation under admission control",
        "below lambda* goodput tracks offered load with low p99; past lambda* the response splits by queue architecture — per-inlink routers (theorem15, hot-potato) plateau under every shedding policy (vs-l* ~>= 0.95 at x=2.0) because injection has its own queue, while the shared-central-queue dim-order router buffer-gridlocks under edge-only shedding (reject-new / drop-oldest collapse to vs-l* < 0.01: in-network wait cycles survive any edge decision) and only deadline's in-network TTL expiry keeps it progressing (goodput an order of magnitude above the edge-only policies, p99 capped by the TTL); under faults the same expiry is what holds theorem15's plateau (vs-l* ~1.1 at x=2.0 vs ~0.15 edge-only)",
        &[
            "router", "policy", "l*", "x", "lambda", "outcome", "offered", "delivered", "shed",
            "expired", "goodput", "vs-l*", "p50", "p99", "p999",
        ],
    );
    let n: u32 = if full { 16 } else { 12 };
    let schedule = if full {
        SteadyConfig {
            warmup: 128,
            window: 64,
            windows: 4,
        }
    } else {
        SteadyConfig {
            warmup: 64,
            window: 48,
            windows: 3,
        }
    };
    let routers = [
        ("dim-order", (Algorithm::DimOrder { k: 4 }, false)),
        ("theorem15", (Algorithm::Theorem15 { k: 2 }, false)),
        ("theorem15+faults", (Algorithm::Theorem15 { k: 2 }, true)),
        ("hot-potato", (Algorithm::HotPotato, false)),
    ];
    let routers = if full { &routers[..] } else { &routers[..2] };
    let policies = [
        ("reject-new", AdmissionPolicy::RejectNew),
        (
            "drop-oldest",
            AdmissionPolicy::DropOldestDeferred { max_deferred: 8 },
        ),
        (
            "deadline",
            AdmissionPolicy::DeadlineExpiry { ttl: 4 * n as u64 },
        ),
    ];
    let policies = if full {
        &policies[..]
    } else {
        &[policies[0], policies[2]][..]
    };
    let multiples: &[f64] = if full {
        &[0.5, 0.9, 1.0, 1.5, 2.0]
    } else {
        &[0.5, 1.0, 2.0]
    };
    for &(router, algo) in routers {
        for &(policy, admission) in policies {
            for &x in multiples {
                e.seeded(format!("{router} {policy} x={x}"), move |trial| {
                    let seed = derive_seed(8001, trial);
                    let lstar = saturation_lambda(algo, n, schedule, seed);
                    let lambda = x * lstar;
                    let (res, rep) = overload_run(algo, n, lambda, schedule, admission, seed);
                    let base_goodput = if x == 1.0 {
                        res.as_ref().ok().map(SteadyReport::goodput)
                    } else {
                        overload_run(algo, n, lstar, schedule, admission, seed)
                            .0
                            .ok()
                            .map(|r| r.goodput())
                    };
                    let [offered, delivered, shed, expired, goodput, vs, p50, p99, p999] =
                        match &res {
                            Ok(r) => {
                                let sum = |f: fn(&WindowFrame) -> u64| -> u64 {
                                    r.frames.iter().map(f).sum()
                                };
                                [
                                    sum(|f| f.offered).to_string(),
                                    sum(|f| f.delivered).to_string(),
                                    sum(|f| f.shed).to_string(),
                                    sum(|f| f.expired).to_string(),
                                    format!("{:.3}", r.goodput()),
                                    match base_goodput {
                                        Some(b) if b > 0.0 => {
                                            format!("{:.3}", r.goodput() / b)
                                        }
                                        _ => "-".to_string(),
                                    },
                                    r.latency.p50.to_string(),
                                    r.latency.p99.to_string(),
                                    r.latency.p999.to_string(),
                                ]
                            }
                            Err(_) => std::array::from_fn(|_| "-".to_string()),
                        };
                    let row = cells!(
                        router,
                        policy,
                        format!("{lstar:.4}"),
                        x,
                        format!("{lambda:.4}"),
                        outcome_tag(&res),
                        offered,
                        delivered,
                        shed,
                        expired,
                        goodput,
                        vs,
                        p50,
                        p99,
                        p999
                    );
                    TrialOutput::with_report(row, rep)
                });
            }
        }
    }
    e
}

/// Builds an experiment's cells; `true` extends the grids (`--full`).
pub type Builder = fn(bool) -> Experiment;

/// Every experiment of the suite, in order: its id and what builds its cells.
pub const REGISTRY: &[(&str, Builder)] = &[
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("a1", a1),
    ("a2", a2),
    ("a3", a3),
    ("perf", perf),
    ("chaos", chaos),
    ("reliable", reliable),
    ("crashrec", crashrec),
    ("overload", overload),
];

/// Builds the experiment (its cells) by id, without running anything.
pub fn build(id: &str, full: bool) -> Option<Experiment> {
    let (_, cells) = REGISTRY.iter().find(|(known, _)| *known == id)?;
    Some(cells(full))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_rejects_unknown_ids() {
        assert!(build("e99", false).is_none());
        assert!(build("", false).is_none());
    }

    #[test]
    fn all_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (id, _) in REGISTRY {
            assert!(seen.insert(id), "duplicate experiment id {id}");
            assert!(
                id.starts_with('e')
                    || id.starts_with('a')
                    || *id == "perf"
                    || *id == "chaos"
                    || *id == "reliable"
                    || *id == "crashrec"
                    || *id == "overload"
            );
        }
    }

    #[test]
    fn every_experiment_builds_cells() {
        for (id, cells) in REGISTRY {
            let exp = cells(false);
            assert_eq!(&exp.id, id);
            assert!(!exp.cells.is_empty(), "{id} built no cells");
            assert!(!exp.headers.is_empty(), "{id} has no headers");
        }
    }
}
