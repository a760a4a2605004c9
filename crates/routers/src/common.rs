//! Shared policy building blocks.

use mesh_engine::PackedArrival;
use mesh_topo::{Coord, Dir, DirSet};

/// A movement axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    Horizontal,
    Vertical,
}

impl Axis {
    /// The other axis.
    pub fn other(self) -> Axis {
        match self {
            Axis::Horizontal => Axis::Vertical,
            Axis::Vertical => Axis::Horizontal,
        }
    }

    /// The profitable direction on this axis, if any (canonical order within
    /// the axis: E before W, N before S — ties only arise on the torus).
    pub fn profitable_dir(self, profitable: DirSet) -> Option<Dir> {
        let dirs = match self {
            Axis::Horizontal => [Dir::East, Dir::West],
            Axis::Vertical => [Dir::North, Dir::South],
        };
        dirs.into_iter().find(|&d| profitable.contains(d))
    }
}

/// The direction a dimension-order packet wants next, from its profitable
/// set alone: finish the `first` axis, then the other. `None` only for a
/// delivered packet.
pub fn dim_order_dir(profitable: DirSet, first: Axis) -> Option<Dir> {
    first
        .profitable_dir(profitable)
        .or_else(|| first.other().profitable_dir(profitable))
}

/// Does the `d` outlink of `node` exist on a side-`n` mesh? A profitable
/// direction always has a link; a deflecting router must additionally keep
/// off the mesh edge, which a node can tell from its own position and the
/// grid side (static machine configuration — no destination involved).
pub fn mesh_link_exists(n: u32, node: Coord, d: Dir) -> bool {
    match d {
        Dir::West => node.x > 0,
        Dir::South => node.y > 0,
        Dir::East => node.x + 1 < n,
        Dir::North => node.y + 1 < n,
    }
}

/// A round-robin arbitration pointer over the four inlink sides: the
/// "round-robin inqueue policy" example of §2. Stored in node state;
/// serializable so checkpoints can carry it.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct RoundRobin {
    next: u8,
}

/// Checked where it enters: `next` indexes the four inlink sides, and a
/// snapshot naming a fifth must not reach [`RoundRobin::rank`].
impl serde::Deserialize for RoundRobin {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        match serde::Deserialize::deserialize(v.field("next")?)? {
            next @ 0..=3u8 => Ok(RoundRobin { next }),
            next => Err(serde::Error::custom(format!(
                "round-robin pointer {next} names no inlink side"
            ))),
        }
    }
}

impl RoundRobin {
    /// Returns the priority rank (0 = highest) of direction `d` in the
    /// current rotation.
    pub fn rank(&self, d: Dir) -> u8 {
        ((d.index() as u8 + 4) - self.next) % 4
    }

    /// Advances the rotation by one position (call once per arbitration).
    pub fn advance(&mut self) {
        self.next = (self.next + 1) % 4;
    }
}

/// The §2 round-robin inqueue policy over packed arrivals: accept into the
/// strict headroom available at the beginning of the step (`k` minus the
/// central queue's occupancy), arbitrating competing inlinks round-robin.
///
/// The rule is: stable-sort the arrivals by the rank of the inlink they
/// enter on, then accept while room lasts. Visiting ranks `0..4` in order
/// is that sort's iteration order, since there is at most one arrival per
/// inlink.
pub fn round_robin_accept(
    k: u32,
    occupied: u32,
    state: &mut RoundRobin,
    arrivals: &[PackedArrival],
    accept: &mut [bool],
) {
    let mut room = (k as usize).saturating_sub(occupied as usize);
    if room >= arrivals.len() {
        // Headroom for everyone: the arbitration order is moot.
        accept.fill(true);
    } else {
        // At most one arrival per inlink, so ranks are distinct: bucket
        // the arrival indices by rank and accept the `room` smallest —
        // exactly the rank-order visit of the contended case.
        let mut by_rank = [usize::MAX; 4];
        for (i, a) in arrivals.iter().enumerate() {
            let r = state.rank(a.travel().opposite()) as usize;
            debug_assert_eq!(by_rank[r], usize::MAX, "two arrivals on one inlink");
            by_rank[r] = i;
        }
        for &i in by_rank.iter() {
            if room == 0 {
                break;
            }
            if i != usize::MAX {
                accept[i] = true;
                room -= 1;
            }
        }
    }
    state.advance();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::DirSet;

    #[test]
    fn dim_order_prefers_first_axis() {
        let p = DirSet::from_dirs([Dir::East, Dir::North]);
        assert_eq!(dim_order_dir(p, Axis::Horizontal), Some(Dir::East));
        assert_eq!(dim_order_dir(p, Axis::Vertical), Some(Dir::North));
    }

    #[test]
    fn dim_order_falls_back_to_other_axis() {
        let p = DirSet::single(Dir::South);
        assert_eq!(dim_order_dir(p, Axis::Horizontal), Some(Dir::South));
        let p = DirSet::single(Dir::West);
        assert_eq!(dim_order_dir(p, Axis::Vertical), Some(Dir::West));
    }

    #[test]
    fn dim_order_none_when_delivered() {
        assert_eq!(dim_order_dir(DirSet::EMPTY, Axis::Horizontal), None);
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::default();
        assert_eq!(rr.rank(Dir::North), 0);
        assert_eq!(rr.rank(Dir::West), 3);
        rr.advance();
        assert_eq!(rr.rank(Dir::East), 0);
        assert_eq!(rr.rank(Dir::North), 3);
        rr.advance();
        rr.advance();
        rr.advance();
        assert_eq!(rr.rank(Dir::North), 0);
    }
}
