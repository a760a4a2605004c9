//! Deterministic, seeded workload generators.
//!
//! Every generator takes an explicit `u64` seed so experiments are exactly
//! reproducible. The adversarially *constructed* permutations of §§3 and 5
//! are not here — they depend on the routing algorithm under attack and live
//! in the `mesh-adversary` crate.

use crate::packet::Packet;
use crate::problem::RoutingProblem;
use mesh_topo::Coord;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn all_coords(n: u32) -> Vec<Coord> {
    (0..n)
        .flat_map(|y| (0..n).map(move |x| Coord::new(x, y)))
        .collect()
}

/// A uniformly random full permutation.
pub fn random_permutation(n: u32, seed: u64) -> RoutingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let srcs = all_coords(n);
    let mut dsts = all_coords(n);
    dsts.shuffle(&mut rng);
    RoutingProblem::from_pairs(
        n,
        format!("random-perm(n={n},seed={seed})"),
        srcs.into_iter().zip(dsts),
    )
}

/// A random partial permutation in which a `load` fraction of nodes send.
pub fn random_partial_permutation(n: u32, load: f64, seed: u64) -> RoutingProblem {
    assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let m = ((n as u64 * n as u64) as f64 * load).round() as usize;
    let mut srcs = all_coords(n);
    let mut dsts = all_coords(n);
    srcs.shuffle(&mut rng);
    dsts.shuffle(&mut rng);
    srcs.truncate(m);
    dsts.truncate(m);
    RoutingProblem::from_pairs(
        n,
        format!("random-partial(n={n},load={load},seed={seed})"),
        srcs.into_iter().zip(dsts),
    )
}

/// The transpose permutation `(x, y) → (y, x)`: the classic dimension-order
/// stress case (all traffic crosses the diagonal).
pub fn transpose(n: u32) -> RoutingProblem {
    RoutingProblem::from_pairs(
        n,
        format!("transpose(n={n})"),
        all_coords(n).into_iter().map(|c| (c, Coord::new(c.y, c.x))),
    )
}

/// The bit-reversal permutation (requires `n` to be a power of two):
/// `(x, y) → (rev(x), rev(y))` where `rev` reverses the `log2 n` bits.
pub fn bit_reversal(n: u32) -> RoutingProblem {
    assert!(
        n.is_power_of_two(),
        "bit reversal needs n to be a power of two"
    );
    let bits = n.trailing_zeros();
    let rev = |v: u32| v.reverse_bits() >> (32 - bits);
    RoutingProblem::from_pairs(
        n,
        format!("bit-reversal(n={n})"),
        all_coords(n)
            .into_iter()
            .map(move |c| (c, Coord::new(rev(c.x), rev(c.y)))),
    )
}

/// The bit-complement permutation `(x, y) → (n−1−x, n−1−y)`: every packet
/// crosses the centre of the mesh, the maximum-work permutation (classic
/// interconnect benchmark).
pub fn bit_complement(n: u32) -> RoutingProblem {
    RoutingProblem::from_pairs(
        n,
        format!("bit-complement(n={n})"),
        all_coords(n)
            .into_iter()
            .map(move |c| (c, Coord::new(n - 1 - c.x, n - 1 - c.y))),
    )
}

/// The tornado pattern: `(x, y) → ((x + ⌈n/2⌉ − 1) mod n, y)` — classic
/// adversarial pattern for ring/torus links (on the mesh it is a heavy
/// same-row shift).
pub fn tornado(n: u32) -> RoutingProblem {
    let shift = n.div_ceil(2) - 1;
    RoutingProblem::from_pairs(
        n,
        format!("tornado(n={n})"),
        all_coords(n)
            .into_iter()
            .map(move |c| (c, Coord::new((c.x + shift) % n, c.y))),
    )
}

/// The perfect-shuffle permutation on the node index (requires `n` to be a
/// power of two): the flattened node id's bits rotate left by one.
pub fn shuffle(n: u32) -> RoutingProblem {
    assert!(n.is_power_of_two(), "shuffle needs n to be a power of two");
    let bits = 2 * n.trailing_zeros();
    RoutingProblem::from_pairs(
        n,
        format!("shuffle(n={n})"),
        all_coords(n).into_iter().map(move |c| {
            let id = c.y * n + c.x;
            let rot = ((id << 1) | (id >> (bits - 1))) & ((1 << bits) - 1);
            (c, Coord::new(rot % n, rot / n))
        }),
    )
}

/// The cyclic rotation permutation `(x, y) → ((x+dx) mod n, (y+dy) mod n)`.
pub fn rotation(n: u32, dx: u32, dy: u32) -> RoutingProblem {
    RoutingProblem::from_pairs(
        n,
        format!("rotation(n={n},dx={dx},dy={dy})"),
        all_coords(n)
            .into_iter()
            .map(move |c| (c, Coord::new((c.x + dx) % n, (c.y + dy) % n))),
    )
}

/// A hotspot partial permutation: `side × side` random distinct sources all
/// send into the `side × side` square centred on the grid. Still one-to-one,
/// but all paths converge on one region — the "hot spot" scenario adaptive
/// routing is motivated by (§1 of the paper).
pub fn hotspot(n: u32, side: u32, seed: u64) -> RoutingProblem {
    assert!(side <= n, "hotspot side must fit in the grid");
    let mut rng = StdRng::seed_from_u64(seed);
    let x0 = (n - side) / 2;
    let y0 = (n - side) / 2;
    let dsts: Vec<Coord> = (0..side)
        .flat_map(|dy| (0..side).map(move |dx| Coord::new(x0 + dx, y0 + dy)))
        .collect();
    let mut srcs = all_coords(n);
    srcs.shuffle(&mut rng);
    srcs.truncate(dsts.len());
    RoutingProblem::from_pairs(
        n,
        format!("hotspot(n={n},side={side},seed={seed})"),
        srcs.into_iter().zip(dsts),
    )
}

/// The column-funnel partial permutation: every node of the southern row
/// sends to a distinct row of the centre column (`(i, 0) → (n/2, i)`).
/// Under greedy dimension-order routing all `n` packets turn at the single
/// node `(n/2, 0)`, arriving two per step but leaving one per step — the
/// classic witness that the `2n − 2` greedy algorithm needs `Θ(n)` queues
/// (§1.1 of the paper).
pub fn column_funnel(n: u32) -> RoutingProblem {
    let c = n / 2;
    RoutingProblem::from_pairs(
        n,
        format!("column-funnel(n={n})"),
        (0..n).map(move |i| (Coord::new(i, 0), Coord::new(c, i))),
    )
}

/// Every node sends one packet to an independently uniform destination —
/// the average-case setting of Leighton's analysis cited in §1.1 (routing
/// time `2n + O(log n)`, queues ≤ 4 w.h.p. under greedy dimension order).
/// *Not* a permutation in general.
pub fn random_destinations(n: u32, seed: u64) -> RoutingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    RoutingProblem::from_pairs(
        n,
        format!("random-dst(n={n},seed={seed})"),
        all_coords(n).into_iter().map(|c| {
            let d = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
            (c, d)
        }),
    )
}

/// A random h-h problem (§5): the union of `h` independent random
/// permutations, so every node sends exactly `h` and receives exactly `h`.
pub fn hh_random(n: u32, h: u32, seed: u64) -> RoutingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let srcs = all_coords(n);
    let mut pairs = Vec::with_capacity((n as usize * n as usize) * h as usize);
    for _ in 0..h {
        let mut dsts = all_coords(n);
        dsts.shuffle(&mut rng);
        pairs.extend(srcs.iter().copied().zip(dsts));
    }
    RoutingProblem::from_pairs(n, format!("hh-random(n={n},h={h},seed={seed})"), pairs)
}

/// A dynamic problem (§5): for `steps` steps, each node independently injects
/// a packet with probability `rate` per step, to a uniform destination.
/// Injection times do not depend on destinations, as §5's dynamic lower-bound
/// model requires.
pub fn dynamic_bernoulli(n: u32, rate: f64, steps: u64, seed: u64) -> RoutingProblem {
    assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    for t in 0..steps {
        for src in all_coords(n) {
            if rng.gen_bool(rate) {
                let dst = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                packets.push(Packet::injected_at(packets.len() as u32, src, dst, t));
            }
        }
    }
    RoutingProblem::from_packets(
        n,
        format!("dynamic(n={n},rate={rate},steps={steps},seed={seed})"),
        packets,
    )
}

/// Open-system continuous Bernoulli source over a fixed horizon: every
/// step `t in 0..horizon`, every node independently offers packets at
/// rate `lambda` toward uniformly random destinations. Unlike
/// [`dynamic_bernoulli`] the rate may exceed 1 — `floor(lambda)` packets
/// are offered per node per step unconditionally and the fractional
/// remainder by a Bernoulli trial — which is what lets overload sweeps
/// push λ past the network's saturation point λ*.
///
/// The horizon bounds memory, not semantics: a steady-state run measures
/// windows inside the horizon, and the source keeps offering through the
/// last step so the system never drains mid-measurement.
pub fn open_bernoulli(n: u32, lambda: f64, horizon: u64, seed: u64) -> RoutingProblem {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "lambda must be finite and non-negative"
    );
    let whole = lambda.floor() as u64;
    let frac = lambda - lambda.floor();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    for t in 0..horizon {
        for src in all_coords(n) {
            let count = whole + u64::from(frac > 0.0 && rng.gen_bool(frac));
            for _ in 0..count {
                let dst = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                packets.push(Packet::injected_at(packets.len() as u32, src, dst, t));
            }
        }
    }
    RoutingProblem::from_packets(
        n,
        format!("open-bernoulli(n={n},lambda={lambda},horizon={horizon},seed={seed})"),
        packets,
    )
}

/// Open-system source from an explicit trace of `(src, dst, inject_at)`
/// triples — recorded arrivals, replayed deterministically. Entries are
/// sorted by injection step (stable for equal steps), so any recording
/// order is accepted.
pub fn from_trace(
    n: u32,
    label: impl Into<String>,
    trace: impl IntoIterator<Item = (Coord, Coord, u64)>,
) -> RoutingProblem {
    let mut entries: Vec<(Coord, Coord, u64)> = trace.into_iter().collect();
    entries.sort_by_key(|&(_, _, t)| t);
    let packets = entries
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst, t))| Packet::injected_at(i as u32, src, dst, t))
        .collect();
    RoutingProblem::from_packets(n, label, packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_permutation_is_permutation_and_seeded() {
        let p1 = random_permutation(8, 1);
        let p2 = random_permutation(8, 1);
        let p3 = random_permutation(8, 2);
        assert!(p1.is_permutation());
        assert_eq!(
            p1.packets.iter().map(|p| p.dst).collect::<Vec<_>>(),
            p2.packets.iter().map(|p| p.dst).collect::<Vec<_>>()
        );
        assert_ne!(
            p1.packets.iter().map(|p| p.dst).collect::<Vec<_>>(),
            p3.packets.iter().map(|p| p.dst).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partial_permutation_has_right_load() {
        let p = random_partial_permutation(10, 0.25, 7);
        assert_eq!(p.len(), 25);
        assert!(p.is_partial_permutation());
        assert!(!p.is_permutation());
    }

    #[test]
    fn transpose_is_permutation_and_involutive() {
        let p = transpose(6);
        assert!(p.is_permutation());
        for pk in &p.packets {
            assert_eq!(pk.dst, Coord::new(pk.src.y, pk.src.x));
        }
    }

    #[test]
    fn bit_reversal_is_permutation() {
        let p = bit_reversal(8);
        assert!(p.is_permutation());
        // rev(001) = 100 on 3 bits.
        let pk = p
            .packets
            .iter()
            .find(|pk| pk.src == Coord::new(1, 0))
            .unwrap();
        assert_eq!(pk.dst, Coord::new(4, 0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bit_reversal_rejects_non_power_of_two() {
        let _ = bit_reversal(6);
    }

    #[test]
    fn rotation_is_permutation() {
        let p = rotation(5, 2, 3);
        assert!(p.is_permutation());
        let pk = p
            .packets
            .iter()
            .find(|pk| pk.src == Coord::new(4, 4))
            .unwrap();
        assert_eq!(pk.dst, Coord::new(1, 2));
    }

    #[test]
    fn hotspot_targets_centre() {
        let p = hotspot(10, 3, 3);
        assert_eq!(p.len(), 9);
        assert!(p.is_partial_permutation());
        for pk in &p.packets {
            assert!(pk.dst.x >= 3 && pk.dst.x <= 5, "{:?}", pk.dst);
            assert!(pk.dst.y >= 3 && pk.dst.y <= 5, "{:?}", pk.dst);
        }
    }

    #[test]
    fn bit_complement_is_permutation_with_max_work() {
        let p = bit_complement(8);
        assert!(p.is_permutation());
        // Every packet travels (n-1-2x)+(n-1-2y)... total work is maximal
        // among involutions; check center-crossing property instead.
        for pk in &p.packets {
            assert_eq!(pk.dst, Coord::new(7 - pk.src.x, 7 - pk.src.y));
        }
        assert_eq!(p.diameter_bound(), 14);
    }

    #[test]
    fn tornado_is_row_local_permutation() {
        let p = tornado(9);
        assert!(p.is_permutation());
        assert!(p.packets.iter().all(|pk| pk.src.y == pk.dst.y));
        assert_eq!(p.packets[0].dst.x, 4); // shift = ceil(9/2)-1 = 4
    }

    #[test]
    fn shuffle_is_permutation() {
        let p = shuffle(8);
        assert!(p.is_permutation());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shuffle_rejects_odd() {
        let _ = shuffle(6);
    }

    #[test]
    fn column_funnel_is_partial_permutation() {
        let p = column_funnel(8);
        assert!(p.is_partial_permutation());
        assert_eq!(p.len(), 8);
        assert!(p.packets.iter().all(|pk| pk.dst.x == 4 && pk.src.y == 0));
    }

    #[test]
    fn random_destinations_sends_one_each() {
        let p = random_destinations(9, 5);
        assert_eq!(p.len(), 81);
        assert!(p.send_counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn hh_is_hh() {
        let p = hh_random(5, 3, 11);
        assert!(p.is_hh(3));
        assert_eq!(p.len(), 75);
        assert!(p.send_counts().iter().all(|&c| c == 3));
        assert!(p.recv_counts().iter().all(|&c| c == 3));
    }

    #[test]
    fn dynamic_has_increasing_inject_times() {
        let p = dynamic_bernoulli(6, 0.2, 10, 9);
        assert!(!p.is_static() || p.is_empty());
        let mut last = 0;
        for pk in &p.packets {
            assert!(pk.inject_at >= last);
            assert!(pk.inject_at < 10);
            last = pk.inject_at;
        }
    }

    #[test]
    fn dynamic_rate_zero_is_empty() {
        assert!(dynamic_bernoulli(6, 0.0, 10, 1).is_empty());
    }

    #[test]
    fn open_bernoulli_is_seeded_and_supports_overload_rates() {
        let p1 = open_bernoulli(6, 0.3, 20, 5);
        let p2 = open_bernoulli(6, 0.3, 20, 5);
        assert_eq!(
            p1.packets
                .iter()
                .map(|p| (p.src, p.dst, p.inject_at))
                .collect::<Vec<_>>(),
            p2.packets
                .iter()
                .map(|p| (p.src, p.dst, p.inject_at))
                .collect::<Vec<_>>()
        );
        // No dead capacity outlives the generator's doubling growth.
        assert_eq!(p1.packets.capacity(), p1.len());
        // λ > 1: floor(λ) packets per node per step guaranteed.
        let p = open_bernoulli(4, 1.5, 10, 3);
        assert!(p.len() >= 16 * 10, "λ=1.5 must offer ≥ 1/node/step");
        assert!(p.packets.iter().all(|pk| pk.inject_at < 10));
        assert!(open_bernoulli(4, 0.0, 10, 1).is_empty());
    }

    #[test]
    fn from_trace_sorts_by_injection_step() {
        let p = from_trace(
            4,
            "trace-test",
            vec![
                (Coord::new(0, 0), Coord::new(3, 3), 7),
                (Coord::new(1, 1), Coord::new(2, 2), 2),
                (Coord::new(3, 0), Coord::new(0, 3), 2),
            ],
        );
        assert_eq!(p.len(), 3);
        let at: Vec<u64> = p.packets.iter().map(|pk| pk.inject_at).collect();
        assert_eq!(at, vec![2, 2, 7]);
        // Stable: equal steps keep trace order.
        assert_eq!(p.packets[0].src, Coord::new(1, 1));
    }
}
