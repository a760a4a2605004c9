//! Node coordinates and identifiers.

use serde::{Deserialize, Serialize};

/// A node position on an `n × n` grid.
///
/// Orientation follows the paper (Figure 1): `x` grows **eastward**, `y` grows
/// **northward**, and `(0, 0)` is the southwest corner. The paper's 1-based
/// "column `c`" is `x = c - 1`; its "row `r`" is `y = r - 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord {
    /// Column index, 0 at the west edge.
    pub x: u32,
    /// Row index, 0 at the south edge.
    pub y: u32,
}

impl Coord {
    /// Creates a coordinate at column `x`, row `y`.
    #[inline]
    pub const fn new(x: u32, y: u32) -> Self {
        Coord { x, y }
    }

    /// Manhattan (L1) distance to `other`; the mesh shortest-path length.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// Horizontal distance to `other` (number of column moves needed on a mesh).
    #[inline]
    pub fn dx(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x)
    }

    /// Vertical distance to `other` (number of row moves needed on a mesh).
    #[inline]
    pub fn dy(self, other: Coord) -> u32 {
        self.y.abs_diff(other.y)
    }

    /// True if this node lies on the side-`n` grid. Every on-grid check in
    /// the workspace calls this one.
    #[inline]
    pub const fn on_grid(self, n: u32) -> bool {
        self.x < n && self.y < n
    }
}

impl core::fmt::Debug for Coord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl core::fmt::Display for Coord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl From<(u32, u32)> for Coord {
    fn from((x, y): (u32, u32)) -> Self {
        Coord { x, y }
    }
}

/// Dense node identifier: row-major index `y * n + x` for a side-`n` grid.
///
/// Using a `u32` index (rather than a `Coord`) for per-node arrays keeps the
/// simulator's hot data structures flat and small.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index, usable directly into per-node arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds the id of the node at `coord` on a side-`n` grid.
    #[inline]
    pub const fn from_coord(coord: Coord, n: u32) -> Self {
        NodeId(coord.y * n + coord.x)
    }

    /// Recovers the coordinate of this node on a side-`n` grid.
    #[inline]
    pub const fn coord(self, n: u32) -> Coord {
        Coord {
            x: self.0 % n,
            y: self.0 / n,
        }
    }
}

impl core::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_is_symmetric_and_zero_on_self() {
        let a = Coord::new(3, 7);
        let b = Coord::new(10, 2);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(b), 7 + 5);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn dx_dy_decompose_manhattan() {
        let a = Coord::new(4, 9);
        let b = Coord::new(1, 12);
        assert_eq!(a.dx(b) + a.dy(b), a.manhattan(b));
        assert_eq!(a.dx(b), 3);
        assert_eq!(a.dy(b), 3);
    }

    #[test]
    fn node_id_roundtrip() {
        let n = 17;
        for y in 0..n {
            for x in 0..n {
                let c = Coord::new(x, y);
                assert_eq!(NodeId::from_coord(c, n).coord(n), c);
            }
        }
    }

    #[test]
    fn node_id_is_row_major() {
        assert_eq!(NodeId::from_coord(Coord::new(0, 0), 5), NodeId(0));
        assert_eq!(NodeId::from_coord(Coord::new(4, 0), 5), NodeId(4));
        assert_eq!(NodeId::from_coord(Coord::new(0, 1), 5), NodeId(5));
        assert_eq!(NodeId::from_coord(Coord::new(2, 3), 5), NodeId(17));
    }
}
