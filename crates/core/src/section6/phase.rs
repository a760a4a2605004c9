//! The Vertical Phase of §6.1 — March, Sort and Smooth, and Balancing —
//! implemented once in virtual coordinates (see [`super::virt`]): packets
//! always march **north** and balance **east**. The Horizontal Phase is this
//! same code run under a transposed transform.
//!
//! Each stage is simulated step-exactly: one packet per directed link per
//! step, all decisions from pre-step state, so the reported durations are
//! faithful synchronous step counts. Stage durations are also checked
//! against the paper's scheduled bounds (Lemmas 29–31).

use super::scratch::{Buckets, Scratch, TilePkt, NIL};
use super::state::S6State;
use super::virt::Transform;
use mesh_topo::{Coord, Rect, Tiling};
use std::cmp::Reverse;

/// Durations (in steps) of the four stages of one phase for one tiling,
/// maximized over the tiling's tiles (tiles run in parallel).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseDurations {
    pub march: u64,
    pub ss_even: u64,
    pub ss_odd: u64,
    pub balance: u64,
}

impl PhaseDurations {
    pub fn total(&self) -> u64 {
        self.march + self.ss_even + self.ss_odd + self.balance
    }
}

/// Scheduled (worst-case, Lemmas 29–31) stage durations for strip height `d`,
/// node bound `q`, and tile side `t`.
pub fn scheduled_durations(d: u64, q: u64, t: u64) -> PhaseDurations {
    PhaseDurations {
        march: q * d - 1,
        ss_even: (d - 1) + q * d,
        ss_odd: (d - 1) + q * d,
        balance: 3 * t - 4,
    }
}

/// One phase (vertical in virtual coordinates) of one tiling, applied to the
/// packets in `class_pkts`. Returns the per-stage durations (max over tiles).
///
/// `check_lemma16` additionally verifies the Sort-and-Smooth post-condition
/// (Lemma 16) on every tile — O(area·d) work, for tests.
pub fn run_phase(
    st: &mut S6State,
    sc: &mut Scratch,
    tf: &Transform,
    tiling: &Tiling,
    q: u32,
    class_pkts: &[u32],
    check_lemma16: bool,
) -> PhaseDurations {
    let t_side = tiling.tile;
    let d = t_side / 27; // strip height
    debug_assert_eq!(t_side, 27 * d);

    // A packet participates iff its (virtual) position and destination lie
    // in the same tile, and is active iff it then starts the phase at least
    // 3 strips south of its destination strip. Sorting groups the actives
    // by tile, tiles ascending by origin, packets ascending within a tile.
    let mut tile_pkts = std::mem::take(&mut sc.tile_pkts);
    tile_pkts.clear();
    for (p, pos, dst) in st.live(class_pkts) {
        let vp = tf.to_virtual(pos.x, pos.y);
        let vd = tf.to_virtual(dst.x, dst.y);
        let tile = tiling.tile_containing(vp.into());
        let strip = |vy: u32| (vy as i64 - tile.y0) as u32 / d;
        if tile.contains(vd.into()) && strip(vp.1) + 3 <= strip(vd.1) {
            tile_pkts.push((tile.x0, tile.y0, p));
        }
    }
    tile_pkts.sort_unstable();

    let mut dur = PhaseDurations::default();
    for actives in tile_pkts.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (x0, y0, _) = actives[0];
        let tile = Rect::new(x0, y0, x0 + t_side as i64 - 1, y0 + t_side as i64 - 1);
        let (tf, n) = (*tf, st.n);
        let sim = TilePhase { tf, tile, d, q, n };
        let pkts = || actives.iter().map(|a| a.2);
        // How many strips south of its destination strip every active sits.
        let all_short_by =
            |st: &S6State, k| pkts().all(|p| sim.dst_strip(st, p) == sim.pos_strip(st, p) + k);
        sc.buckets.fill(st, pkts());
        dur.march = dur.march.max(sim.march(st, sc, actives));
        debug_assert!(all_short_by(st, 3), "the March ends in strip i−3");
        // Sort and Smooth takes every active out of the index as it enters
        // strip i−2, so a strip i−3 bucket never mixes destination strips.
        dur.ss_even = dur.ss_even.max(sim.sort_smooth(st, sc, actives, 0));
        dur.ss_odd = dur.ss_odd.max(sim.sort_smooth(st, sc, actives, 1));
        debug_assert!(all_short_by(st, 2), "Sort and Smooth ends in strip i−2");
        debug_assert!(pkts().all(|p| sc.buckets.is_empty(st.node_of(p))));
        sc.buckets.fill(st, pkts());
        if check_lemma16 {
            sim.check_lemma16(st, &sc.buckets);
        }
        dur.balance = dur.balance.max(sim.balance(st, sc, actives));
        sc.buckets.clear(st, pkts());
    }
    sc.tile_pkts = tile_pkts;

    // Lemmas 29–31: actual durations never exceed the scheduled ones.
    let sched = scheduled_durations(d as u64, q as u64, t_side as u64);
    for (lemma, took, bound) in [
        (29, dur.march, sched.march),
        (30, dur.ss_even, sched.ss_even),
        (30, dur.ss_odd, sched.ss_odd),
        (31, dur.balance, sched.balance),
    ] {
        assert!(took <= bound, "Lemma {lemma} violated: {took} > {bound}");
    }
    dur
}

/// Per-tile phase simulator (virtual coordinates).
struct TilePhase {
    tf: Transform,
    tile: Rect,
    d: u32,
    q: u32,
    n: u32,
}

impl TilePhase {
    /// Strip number (1..=27) of a virtual row.
    #[inline]
    fn strip_of(&self, vy: u32) -> u32 {
        debug_assert!((vy as i64) >= self.tile.y0 && (vy as i64) <= self.tile.y1);
        ((vy as i64 - self.tile.y0) as u32 / self.d) + 1
    }

    #[inline]
    fn vpos(&self, st: &S6State, p: u32) -> (u32, u32) {
        let c = st.pos[p as usize];
        self.tf.to_virtual(c.x, c.y)
    }

    #[inline]
    fn vdst(&self, st: &S6State, p: u32) -> (u32, u32) {
        let c = st.dst[p as usize];
        self.tf.to_virtual(c.x, c.y)
    }

    fn pos_strip(&self, st: &S6State, p: u32) -> u32 {
        self.strip_of(self.vpos(st, p).1)
    }

    fn dst_strip(&self, st: &S6State, p: u32) -> u32 {
        self.strip_of(self.vdst(st, p).1)
    }

    /// Real node index of a virtual position.
    fn node(&self, vx: u32, vy: u32) -> usize {
        let (rx, ry) = self.tf.to_real((vx, vy));
        (ry * self.n + rx) as usize
    }

    /// Moves packet `p` one step north (`(0, 1)`) or east (`(1, 0)`) in
    /// virtual space.
    fn hop(&self, st: &mut S6State, p: u32, (dx, dy): (u32, u32)) {
        let (vx, vy) = self.vpos(st, p);
        let (rx, ry) = self.tf.to_real((vx + dx, vy + dy));
        let delivered = st.move_packet(p as usize, Coord::new(rx, ry));
        debug_assert!(!delivered, "destinations stay ≥ d+1 rows away");
    }

    /// The packet at `node` with the farthest east to go from column `vx`;
    /// ties to the lowest index.
    fn farthest_east(&self, st: &S6State, buckets: &Buckets, node: usize, vx: u32) -> u32 {
        let key = |&p: &u32| (self.vdst(st, p).0 - vx, Reverse(p));
        buckets.iter(node).max_by_key(key).expect("occupied node")
    }

    /// Stage 2 — the March: every active packet moves north, via column
    /// edges only, into strip `i−3` (where strip `i` holds its destination).
    /// A node in strip `i−3` refuses dst-strip-`i` packets once it holds `q`
    /// of them; nodes prefer forwarding the packet received from the south
    /// on the previous step (the Lemma 29 priority).
    fn march(&self, st: &mut S6State, sc: &mut Scratch, actives: &[TilePkt]) -> u64 {
        // Columns ascending; within a column, packets ascending.
        sc.keys.clear();
        sc.keys
            .extend(actives.iter().map(|a| (self.vpos(st, a.2).0, a.2)));
        sc.keys.sort_unstable();
        let rows = self.tile.y0.max(0) as usize..(self.tile.y1 + 1).min(self.n as i64) as usize;
        let mut max_steps = 0u64;

        for pkts in sc.keys.chunk_by(|a, b| a.0 == b.0) {
            let col = pkts[0].0;
            sc.work.clear();
            for &(_, p) in pkts {
                let vy = self.vpos(st, p).1;
                // Initial stop counts: packets already settled in strip i-3.
                if self.strip_of(vy) + 3 == self.dst_strip(st, p) {
                    sc.stop_cnt[vy as usize] += 1;
                }
                if !sc.in_work[vy as usize] {
                    sc.in_work[vy as usize] = true;
                    sc.work.push((col, vy));
                }
            }

            let mut steps = 0u64;
            loop {
                sc.moves.clear();
                sc.next_work.clear();
                for &(_, vy) in &sc.work {
                    sc.in_work[vy as usize] = false;
                    // Pick the packet to send north from this node: the one
                    // that arrived from the south this step if it may move,
                    // else the lowest index that may.
                    let (from_south, arrived) = sc.from_south[vy as usize];
                    let chosen = sc
                        .buckets
                        .iter(self.node(col, vy))
                        .filter(|&p| self.march_eligible(st, p, &sc.stop_cnt))
                        .min_by_key(|&p| (arrived != steps || p != from_south, p));
                    if let Some(p) = chosen {
                        sc.moves.push(p);
                        // Node may still have eligible packets next step.
                        sc.in_work[vy as usize] = true;
                        sc.next_work.push((col, vy));
                    }
                    // Nodes with no eligible packet leave the worklist; they
                    // re-enter only when they receive a packet (a node's
                    // blocking conditions never relax otherwise: stop counts
                    // only grow).
                }
                if sc.moves.is_empty() {
                    break;
                }
                for &p in &sc.moves {
                    let vy = self.vpos(st, p).1;
                    let i_dst = self.dst_strip(st, p);
                    if self.strip_of(vy) + 3 == i_dst {
                        // A settled packet moving further north within strip
                        // i−3 frees a slot: wake the southern neighbor, whose
                        // packets may have been blocked on this node's count
                        // (a row outside the tile has an empty bucket).
                        sc.stop_cnt[vy as usize] -= 1;
                        if vy > 0
                            && !sc.in_work[vy as usize - 1]
                            && !sc.buckets.is_empty(self.node(col, vy - 1))
                        {
                            sc.in_work[vy as usize - 1] = true;
                            sc.next_work.push((col, vy - 1));
                        }
                    }
                    sc.buckets.remove(st.node_of(p), p);
                    self.hop(st, p, (0, 1));
                    sc.buckets.push(st.node_of(p), p);
                    let nvy = vy + 1;
                    if self.strip_of(nvy) + 3 == i_dst {
                        sc.stop_cnt[nvy as usize] += 1;
                    }
                    sc.from_south[nvy as usize] = (p, steps + 1);
                    if !sc.in_work[nvy as usize] {
                        sc.in_work[nvy as usize] = true;
                        sc.next_work.push((col, nvy));
                    }
                }
                std::mem::swap(&mut sc.work, &mut sc.next_work);
                steps += 1;
            }
            max_steps = max_steps.max(steps);
            // Reset the per-row buffers for the next column.
            sc.stop_cnt[rows.clone()].fill(0);
            sc.from_south[rows.clone()].fill((NIL, 0));
        }
        max_steps
    }

    /// Whether packet `p` may move north this step, given the per-row stop
    /// counts of its column: freely while the row above (which exists, the
    /// destination strip being on-grid) is south of strip `i−3`, under the
    /// `q` bound when it is in strip `i−3`, and never into strip `i−2`.
    #[inline]
    fn march_eligible(&self, st: &S6State, p: u32, stop_cnt: &[u32]) -> bool {
        let above = self.vpos(st, p).1 + 1;
        debug_assert!(above < self.n);
        let (ts, i) = (self.strip_of(above), self.dst_strip(st, p));
        ts + 3 < i || (ts + 3 == i && stop_cnt[above as usize] < self.q)
    }

    /// Stage 3 — Sort and Smooth, for destination strips of the given
    /// parity (`i % 2 == parity`): move the actives of each column from
    /// strip `i−3` to strip `i−2`, streamed in decreasing order of
    /// horizontal distance-to-go; the `t`-th node from the strip's north end
    /// holds every `t`-th packet it receives.
    fn sort_smooth(
        &self,
        st: &mut S6State,
        sc: &mut Scratch,
        actives: &[TilePkt],
        parity: u32,
    ) -> u64 {
        // Groups (column, destination strip), ascending.
        sc.keys.clear();
        for &(_, _, p) in actives {
            let i = self.dst_strip(st, p);
            if i % 2 == parity {
                sc.keys.push((self.vpos(st, p).0, i));
            }
        }
        sc.keys.sort_unstable();
        sc.keys.dedup();
        let d = self.d as usize;
        let (received, passing) = (&mut sc.received[..d], &mut sc.passing[..d]);
        let mut max_steps = 0u64;
        for &(col, i) in &sc.keys {
            // Local rows 0..d = strip i−3 (south→north), d..2d = strip i−2.
            // After the March the strip i−3 buckets of this column hold
            // exactly the group; strip i−2 is tracked by received counters
            // and at most one passing packet per node.
            let base = (self.tile.y0 + ((i - 3 - 1) * self.d) as i64) as u32;
            received.fill(0);
            passing.fill(None);
            let mut steps = 0u64;
            loop {
                // Decisions from pre-step state.
                sc.moves.clear();
                let mut left_below = false;
                for r in 0..d {
                    let node = self.node(col, base + r as u32);
                    if sc.buckets.is_empty(node) {
                        continue;
                    }
                    left_below = true;
                    // Node r is (r+1)-th from the southernmost: transmits on
                    // steps >= r+1 (1-based), i.e. step index >= r.
                    if steps >= r as u64 {
                        let p = self.farthest_east(st, &sc.buckets, node, col);
                        sc.moves.push(p);
                    }
                }
                if sc.moves.is_empty() && passing.iter().all(Option::is_none) {
                    // Finished only once everything is held in strip i−2:
                    // nodes deeper in strip i−3 start sending at later steps,
                    // so an idle step is not yet quiescence.
                    if !left_below {
                        break;
                    }
                    steps += 1;
                    debug_assert!(
                        steps <= (self.d as u64 - 1) + (self.q as u64 * self.d as u64) + 1,
                        "Sort&Smooth failed to terminate"
                    );
                    continue;
                }
                // Apply strip i−2 forwards first, north to south (they move
                // into rows above, which have already been vacated).
                for r in (0..d).rev() {
                    let Some(p) = passing[r].take() else { continue };
                    self.hop(st, p, (0, 1));
                    let nr = r + 1;
                    debug_assert!(nr < d, "packet passed the top of strip i-2");
                    received[nr] += 1;
                    // Node nr is (d - nr)-th from the northernmost.
                    if !received[nr].is_multiple_of((d - nr) as u64) {
                        passing[nr] = Some(p);
                    }
                }
                // Apply strip i−3 sends, by ascending row.
                for &p in &sc.moves {
                    sc.buckets.remove(st.node_of(p), p);
                    self.hop(st, p, (0, 1));
                    if self.pos_strip(st, p) == i - 3 {
                        sc.buckets.push(st.node_of(p), p);
                    } else {
                        // Crossed into the bottom node of strip i−2, which is
                        // d-th from the northernmost.
                        received[0] += 1;
                        if !received[0].is_multiple_of(d as u64) {
                            passing[0] = Some(p);
                        }
                    }
                }
                steps += 1;
            }
            max_steps = max_steps.max(steps);
        }
        max_steps
    }

    /// Whether the 2-rule fires at a node: it holds more than two actives.
    fn overloaded(&self, buckets: &Buckets, (vx, vy): (u32, u32)) -> bool {
        buckets.iter(self.node(vx, vy)).nth(2).is_some()
    }

    /// Stage 4 — Balancing via the 2-rule: any node holding more than two
    /// active packets sends east the one with the farthest east to go.
    fn balance(&self, st: &mut S6State, sc: &mut Scratch, actives: &[TilePkt]) -> u64 {
        sc.work.clear();
        let at = actives.iter().map(|a| self.vpos(st, a.2));
        sc.work
            .extend(at.filter(|&v| self.overloaded(&sc.buckets, v)));
        sc.work.sort_unstable();
        sc.work.dedup();
        let mut steps = 0u64;
        while !sc.work.is_empty() {
            // Choose moves from pre-step state.
            sc.moves.clear();
            for &(vx, vy) in &sc.work {
                let p = self.farthest_east(st, &sc.buckets, self.node(vx, vy), vx);
                // Lemma 17 guarantees an overloaded node holds a packet with
                // east still to go.
                debug_assert!(self.vdst(st, p).0 > vx, "2-rule would overshoot");
                sc.moves.push(p);
            }
            // Only a step's sources and targets can be overloaded after it.
            sc.next_work.clear();
            for &p in &sc.moves {
                let (vx, vy) = self.vpos(st, p);
                sc.buckets.remove(st.node_of(p), p);
                self.hop(st, p, (1, 0));
                sc.buckets.push(st.node_of(p), p);
                sc.next_work.extend([(vx, vy), (vx + 1, vy)]);
            }
            sc.next_work.sort_unstable();
            sc.next_work.dedup();
            sc.next_work.retain(|&v| self.overloaded(&sc.buckets, v));
            std::mem::swap(&mut sc.work, &mut sc.next_work);
            steps += 1;
        }
        steps
    }

    /// Lemma 16 check: immediately after Sort and Smooth, for any column `c`,
    /// row `r`, and `s ≥ 1`, at most `2s` active packets with destination
    /// column ≤ `c` occupy the `s` nodes of `r` at columns `c−s+1..=c`.
    fn check_lemma16(&self, st: &S6State, buckets: &Buckets) {
        let clip = |lo: i64, hi: i64| lo.max(0) as u32..=hi.min(self.n as i64 - 1) as u32;
        for vy in clip(self.tile.y0, self.tile.y1) {
            let (x0, x1) = clip(self.tile.x0, self.tile.x1).into_inner();
            for c in x0..=x1 {
                let mut count = 0u64;
                let mut s = 0u64;
                for x in (x0..=c).rev() {
                    s += 1;
                    count += buckets
                        .iter(self.node(x, vy))
                        .filter(|&p| self.vdst(st, p).0 <= c)
                        .count() as u64;
                    assert!(
                        count <= 2 * s,
                        "Lemma 16 violated at row {vy}, col {c}, s={s}: {count} packets"
                    );
                }
            }
        }
    }
}
