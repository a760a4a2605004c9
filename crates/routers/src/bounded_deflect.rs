//! A δ-bounded nonminimal destination-exchangeable router — the algorithm
//! class of §5's "Nonminimal extensions".
//!
//! §5 considers "destination-exchangeable algorithms where every packet is
//! guaranteed never to move more than δ nodes beyond the rectangle
//! consisting of those nodes in any of the shortest paths from the packet's
//! source to its destination", and sketches an `Ω(n²/(δ+1)³k²)` bound for
//! them.
//!
//! This router realizes that class: it behaves like [`AltAdaptive`] while
//! profitable progress is possible, but a packet that has been blocked for
//! two consecutive steps may take an **unprofitable** hop — provided its
//! per-direction deviation budget allows it. The budget argument: every hop
//! beyond the shortest-path rectangle on a given side must be an
//! unprofitable hop in that direction, so capping unprofitable hops at `δ`
//! per direction keeps the packet within `δ` of the rectangle (a
//! conservative, state-only enforcement — exactly what a
//! destination-exchangeable policy can implement, since the rectangle
//! itself is not visible without the destination).
//!
//! [`AltAdaptive`]: crate::AltAdaptive

use crate::common::{mesh_link_exists, round_robin_accept, Axis, RoundRobin};
use mesh_engine::{DxArrivals, DxResidents, DxRouter, PackedArrival, PackedView, QueueArch};
use mesh_topo::{Coord, Dir, DirSet, ALL_DIRS};

/// δ-bounded deflecting router on a central queue of capacity `k`.
#[derive(Clone, Debug)]
pub struct BoundedDeflect {
    k: u32,
    delta: u8,
    n: u32,
}

impl BoundedDeflect {
    /// Creates the router (grid side `n` is static configuration, needed to
    /// avoid scheduling deflections off the mesh edge).
    pub fn new(n: u32, k: u32, delta: u8) -> BoundedDeflect {
        assert!(
            delta < 16,
            "deviation budget is stored in 4 bits per direction"
        );
        BoundedDeflect { k, delta, n }
    }

    /// The deviation bound δ.
    pub fn delta(&self) -> u8 {
        self.delta
    }
}

// Packet state layout (64 bits):
//   bits 0      : preferred axis (as AltAdaptive)
//   bits 1..3   : consecutive blocked steps (saturating at 3)
//   bits 4..20  : unprofitable-hop budgets used, 4 bits per direction
//   bits 20..24 : profitable set at the previous step (for hop accounting)
//   bits 24..64 : position key of the previous step (x:20, y:20), +1 biased
mod packstate {
    use mesh_topo::{Coord, Dir, DirSet, ALL_DIRS};

    pub fn axis_bit(s: u64) -> u64 {
        s & 1
    }
    pub fn blocked(s: u64) -> u64 {
        (s >> 1) & 0b111
    }
    pub fn used(s: u64, d: Dir) -> u64 {
        (s >> (4 + 4 * d.index())) & 0xF
    }
    pub fn prev_profitable(s: u64) -> DirSet {
        DirSet::from_dirs(
            ALL_DIRS
                .into_iter()
                .filter(|d| (s >> (20 + d.index())) & 1 == 1),
        )
    }
    pub fn prev_pos(s: u64) -> Option<Coord> {
        let key = s >> 24;
        if key == 0 {
            return None;
        }
        let k = key - 1;
        Some(Coord::new((k & 0xF_FFFF) as u32, (k >> 20) as u32))
    }
    pub fn pack(axis: u64, blocked: u64, used: [u64; 4], profitable: DirSet, pos: Coord) -> u64 {
        let mut s = axis & 1;
        s |= blocked.min(0b111) << 1;
        for d in ALL_DIRS {
            s |= (used[d.index()] & 0xF) << (4 + 4 * d.index());
        }
        for d in ALL_DIRS {
            if profitable.contains(d) {
                s |= 1 << (20 + d.index());
            }
        }
        let key = ((pos.y as u64) << 20 | pos.x as u64) + 1;
        s | (key << 24)
    }
}

impl BoundedDeflect {
    /// The directions a packet may be scheduled on, best first, as a
    /// prefix of the returned array (a direction appears at most once, so
    /// four cells always suffice).
    fn choices(&self, node: Coord, profitable: DirSet, state: u64) -> ([Dir; 4], usize) {
        let axis = if packstate::axis_bit(state) == 0 {
            Axis::Horizontal
        } else {
            Axis::Vertical
        };
        let mut dirs = [Dir::North; 4];
        let mut cnt = 0;
        let mut push = |d: Dir| {
            dirs[cnt] = d;
            cnt += 1;
        };
        if let Some(d) = axis.profitable_dir(profitable) {
            push(d);
        }
        if let Some(d) = axis.other().profitable_dir(profitable) {
            push(d);
        }
        // Deflection: only after sustained blocking, only with budget, only
        // along existing links.
        if packstate::blocked(state) >= 2 {
            for d in ALL_DIRS {
                if profitable.contains(d) || packstate::used(state, d) >= self.delta as u64 {
                    continue;
                }
                if mesh_link_exists(self.n, node, d) {
                    push(d);
                }
            }
        }
        (dirs, cnt)
    }

    /// The end-of-step state word of a packet now at `node` — a function of
    /// its old word, source, position and profitable set alone. The source
    /// is only consulted for a packet that has not moved yet, so it is
    /// fetched lazily.
    fn next_state(
        &self,
        s: u64,
        src: impl FnOnce() -> Coord,
        node: Coord,
        profitable: DirSet,
    ) -> u64 {
        let prev_pos = packstate::prev_pos(s).unwrap_or_else(src);
        let mut used = [
            packstate::used(s, Dir::North),
            packstate::used(s, Dir::East),
            packstate::used(s, Dir::South),
            packstate::used(s, Dir::West),
        ];
        let mut axis = packstate::axis_bit(s);
        let mut blocked = packstate::blocked(s);
        if prev_pos == node {
            // Did not move: blocked (if it had anywhere to go).
            if !profitable.is_empty() {
                blocked += 1;
                axis ^= 1; // alternate like AltAdaptive
            }
        } else {
            // Moved: charge budget if the hop was unprofitable.
            let moved: Dir = ALL_DIRS
                .into_iter()
                .find(|d| {
                    let (dx, dy) = d.delta();
                    prev_pos.x as i64 + dx == node.x as i64
                        && prev_pos.y as i64 + dy == node.y as i64
                })
                .expect("packets move one hop per step");
            if !packstate::prev_profitable(s).contains(moved) && s >> 24 != 0 {
                used[moved.index()] += 1;
                debug_assert!(
                    used[moved.index()] <= self.delta as u64,
                    "deviation budget exceeded"
                );
            }
            blocked = 0;
        }
        packstate::pack(axis, blocked, used, profitable, node)
    }
}

impl DxRouter for BoundedDeflect {
    type NodeState = RoundRobin;

    fn name(&self) -> String {
        format!("bounded-deflect(k={},delta={})", self.k, self.delta)
    }

    fn queue_arch(&self) -> QueueArch {
        QueueArch::Central { k: self.k }
    }

    fn is_minimal(&self) -> bool {
        self.delta == 0
    }

    fn outqueue(
        &self,
        _step: u64,
        node: Coord,
        _state: &mut RoundRobin,
        pkts: &[PackedView],
        cold: &DxResidents<'_>,
        out: &mut [Option<usize>; 4],
    ) {
        // FIFO order (a central queue is offered oldest first, so pos *is*
        // the index); each packet takes its best still-free choice.
        for (i, p) in pkts.iter().enumerate() {
            debug_assert_eq!(p.pos() as usize, i, "central queue offers in pos order");
            let (dirs, cnt) = self.choices(node, p.profitable(), cold.state(i));
            if let Some(d) = dirs[..cnt].iter().find(|d| out[d.index()].is_none()) {
                out[d.index()] = Some(i);
            }
        }
    }

    fn inqueue(
        &self,
        _step: u64,
        _node: Coord,
        state: &mut RoundRobin,
        queue_lens: &[u32],
        arrivals: &[PackedArrival],
        _cold: &DxArrivals<'_>,
        accept: &mut [bool],
    ) {
        round_robin_accept(self.k, queue_lens[0], state, arrivals, accept);
    }

    fn end_of_step(
        &self,
        _step: u64,
        node: Coord,
        _state: &mut RoundRobin,
        pkts: &[PackedView],
        cold: &DxResidents<'_>,
        states: &mut [u64],
    ) {
        for (i, (p, s)) in pkts.iter().zip(states.iter_mut()).enumerate() {
            *s = self.next_state(*s, || cold.src(i), node, p.profitable());
        }
    }
}

/// The δ-bounded deviation invariant, checkable from outside: a packet at
/// `pos` with source `src` and destination `dst` is within `δ` of the
/// shortest-path rectangle.
pub fn within_delta_of_rectangle(src: Coord, dst: Coord, pos: Coord, delta: u32) -> bool {
    let (x0, x1) = (src.x.min(dst.x), src.x.max(dst.x));
    let (y0, y1) = (src.y.min(dst.y), src.y.max(dst.y));
    pos.x + delta >= x0 && pos.x <= x1 + delta && pos.y + delta >= y0 && pos.y <= y1 + delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_engine::{Dx, HookCtx, Sim};
    use mesh_topo::{DirSet, Mesh, Topology};
    use mesh_traffic::{workloads, PacketId, RoutingProblem};

    #[test]
    fn state_packing_roundtrips() {
        let pos = Coord::new(123, 456);
        let prof = DirSet::from_dirs([Dir::North, Dir::West]);
        let s = packstate::pack(1, 2, [3, 0, 15, 7], prof, pos);
        assert_eq!(packstate::axis_bit(s), 1);
        assert_eq!(packstate::blocked(s), 2);
        assert_eq!(packstate::used(s, Dir::North), 3);
        assert_eq!(packstate::used(s, Dir::East), 0);
        assert_eq!(packstate::used(s, Dir::South), 15);
        assert_eq!(packstate::used(s, Dir::West), 7);
        assert_eq!(packstate::prev_profitable(s), prof);
        assert_eq!(packstate::prev_pos(s), Some(pos));
        assert_eq!(packstate::prev_pos(0), None);
    }

    #[test]
    fn delta_zero_is_minimal_and_matches_alt_adaptive_spirit() {
        let topo = Mesh::new(12);
        let pb = workloads::random_permutation(12, 3);
        let mut sim = Sim::new(&topo, Dx::new(BoundedDeflect::new(12, 144, 0)), &pb);
        sim.run(10_000).unwrap();
        let r = sim.report();
        assert!(r.completed);
        assert_eq!(r.total_moves, pb.total_work(), "delta=0 is minimal");
    }

    #[test]
    fn deviation_never_exceeds_delta() {
        // Run with deflection enabled under congestion and check the
        // rectangle+delta invariant at every step via a hook.
        let n = 16;
        let delta = 2u8;
        let topo = Mesh::new(n);
        let pb = workloads::hotspot(n, 4, 1);
        let srcs: Vec<Coord> = pb.packets.iter().map(|p| p.src).collect();
        let mut sim = Sim::new(&topo, Dx::new(BoundedDeflect::new(n, 1, delta)), &pb);
        let mut check = |ctx: &mut HookCtx<'_>| {
            for (i, &src) in srcs.iter().enumerate() {
                let id = PacketId(i as u32);
                if let Some(pos) = ctx.node_of(id) {
                    assert!(
                        within_delta_of_rectangle(src, ctx.dst(id), pos, delta as u32),
                        "packet {i} at {pos} beyond delta of rectangle"
                    );
                }
            }
        };
        let _ = sim.run_with_hook(20_000, &mut check);
        assert!(sim.report().max_queue <= 1);
    }

    #[test]
    fn deflection_can_unblock_head_of_line() {
        // A corridor blockage: with delta=1 the blocked packet may sidestep.
        let topo = Mesh::new(6);
        let pb = RoutingProblem::from_pairs(
            6,
            "corridor",
            [
                (Coord::new(2, 0), Coord::new(2, 5)), // north-bound column packet
                (Coord::new(2, 1), Coord::new(2, 4)), // ahead of it, same column
                (Coord::new(2, 2), Coord::new(2, 3)), // and another
            ],
        );
        let mut a = Sim::new(&topo, Dx::new(BoundedDeflect::new(6, 1, 0)), &pb);
        let _ = a.run(2_000);
        let mut b = Sim::new(&topo, Dx::new(BoundedDeflect::new(6, 1, 1)), &pb);
        let _ = b.run(2_000);
        assert!(b.report().completed);
        // With delta=0 and k=1 the column drains strictly in order; both
        // complete, but the deflecting version is never slower by more than
        // its detours and must also respect its budget (engine enforces
        // nonminimal moves are allowed because is_minimal() is false).
        assert!(a.report().completed);
    }

    #[test]
    fn routes_permutations_for_small_delta() {
        let n = 16;
        let topo = Mesh::new(n);
        for delta in [0u8, 1, 2] {
            let pb = workloads::random_permutation(n, 7);
            let mut sim = Sim::new(&topo, Dx::new(BoundedDeflect::new(n, 2, delta)), &pb);
            let done = sim.run(50_000).is_ok();
            // Small-k bounded-queue routing may stall (that is the paper's
            // point); when it completes, queue bounds held.
            if done {
                assert_eq!(sim.report().delivered, pb.len());
            }
            assert!(sim.report().max_queue <= 2);
        }
    }

    #[test]
    fn rectangle_check_is_correct() {
        let src = Coord::new(2, 2);
        let dst = Coord::new(5, 4);
        assert!(within_delta_of_rectangle(src, dst, Coord::new(3, 3), 0));
        assert!(!within_delta_of_rectangle(src, dst, Coord::new(1, 3), 0));
        assert!(within_delta_of_rectangle(src, dst, Coord::new(1, 3), 1));
        assert!(!within_delta_of_rectangle(src, dst, Coord::new(5, 7), 2));
        assert!(within_delta_of_rectangle(src, dst, Coord::new(5, 6), 2));
    }

    #[test]
    fn grid_side_is_respected_by_deflections() {
        // Deflections never schedule off-mesh (engine would panic).
        let n = 8;
        let topo = Mesh::new(n);
        let pb = workloads::column_funnel(n);
        let mut sim = Sim::new(&topo, Dx::new(BoundedDeflect::new(topo.side(), 1, 3)), &pb);
        let _ = sim.run(5_000);
    }
}
