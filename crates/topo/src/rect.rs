//! Inclusive axis-aligned rectangles of nodes.
//!
//! The paper's geometry is built from rectangles: the `cn × cn` corner
//! submesh, the *i-boxes* of the lower-bound construction, and the tiles and
//! strips of the §6 algorithm. [`Rect`] is the shared representation.
//!
//! A `Rect` is allowed to extend beyond the physical grid (coordinates are
//! `i64`): §6 uses "virtual tiles" that hang off the mesh edge. Use
//! [`Rect::clip`] to restrict to physical nodes.

use crate::coord::Coord;
use serde::{Deserialize, Serialize};

/// An inclusive rectangle `[x0, x1] × [y0, y1]` of (possibly virtual) nodes.
///
/// Empty rectangles are represented by `x0 > x1` or `y0 > y1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Rect {
    pub x0: i64,
    pub y0: i64,
    pub x1: i64,
    pub y1: i64,
}

impl Rect {
    /// Creates the rectangle `[x0, x1] × [y0, y1]` (inclusive).
    #[inline]
    pub const fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect { x0, y0, x1, y1 }
    }

    /// A canonical empty rectangle.
    pub const EMPTY: Rect = Rect {
        x0: 0,
        y0: 0,
        x1: -1,
        y1: -1,
    };

    /// The full side-`n` grid.
    #[inline]
    pub const fn full(n: u32) -> Rect {
        Rect::new(0, 0, n as i64 - 1, n as i64 - 1)
    }

    /// True if the rectangle contains no nodes.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.x0 > self.x1 || self.y0 > self.y1
    }

    /// Number of columns (0 if empty).
    #[inline]
    pub const fn width(self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.x1 - self.x0 + 1) as u64
        }
    }

    /// Number of rows (0 if empty).
    #[inline]
    pub const fn height(self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.y1 - self.y0 + 1) as u64
        }
    }

    /// Number of nodes.
    #[inline]
    pub const fn area(self) -> u64 {
        self.width() * self.height()
    }

    /// Membership test for a physical coordinate.
    #[inline]
    pub fn contains(self, c: Coord) -> bool {
        let (x, y) = (c.x as i64, c.y as i64);
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    /// Intersection with another rectangle.
    #[inline]
    pub fn intersect(self, other: Rect) -> Rect {
        Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        }
    }

    /// Restricts the rectangle to the physical side-`n` grid.
    #[inline]
    pub fn clip(self, n: u32) -> Rect {
        self.intersect(Rect::full(n))
    }

    /// Iterates the physical coordinates inside the rectangle, row-major from
    /// the southwest corner. The rectangle must already lie inside the grid
    /// (use [`Rect::clip`] first); virtual coordinates are skipped defensively.
    pub fn coords(self) -> impl Iterator<Item = Coord> {
        let r = self;
        (r.y0..=r.y1)
            .flat_map(move |y| (r.x0..=r.x1).map(move |x| (x, y)))
            .filter(|&(x, y)| x >= 0 && y >= 0)
            .map(|(x, y)| Coord::new(x as u32, y as u32))
    }

    /// The horizontal strip of this rectangle between rows `y0..=y1`
    /// (absolute coordinates), clipped to the rectangle.
    #[inline]
    pub fn rows(self, y0: i64, y1: i64) -> Rect {
        self.intersect(Rect::new(self.x0, y0, self.x1, y1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_dims() {
        let r = Rect::new(2, 3, 5, 4);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 2);
        assert_eq!(r.area(), 8);
        assert!(!r.is_empty());
    }

    #[test]
    fn empty_rect() {
        assert!(Rect::EMPTY.is_empty());
        assert_eq!(Rect::EMPTY.area(), 0);
        assert_eq!(Rect::new(3, 0, 2, 10).area(), 0);
    }

    #[test]
    fn contains_is_inclusive() {
        let r = Rect::new(1, 1, 3, 3);
        assert!(r.contains(Coord::new(1, 1)));
        assert!(r.contains(Coord::new(3, 3)));
        assert!(!r.contains(Coord::new(0, 1)));
        assert!(!r.contains(Coord::new(4, 3)));
        assert!(!r.contains(Coord::new(2, 4)));
    }

    #[test]
    fn clip_virtual_tile() {
        // A virtual tile hanging off the southwest corner.
        let t = Rect::new(-3, -3, 5, 5);
        let c = t.clip(4);
        assert_eq!(c, Rect::new(0, 0, 3, 3));
        assert_eq!(c.area(), 16);
    }

    #[test]
    fn coords_row_major() {
        let r = Rect::new(1, 2, 2, 3);
        let v: Vec<Coord> = r.coords().collect();
        assert_eq!(
            v,
            vec![
                Coord::new(1, 2),
                Coord::new(2, 2),
                Coord::new(1, 3),
                Coord::new(2, 3)
            ]
        );
    }

    #[test]
    fn coords_count_matches_area() {
        let r = Rect::new(0, 0, 6, 9);
        assert_eq!(r.coords().count() as u64, r.area());
    }

    #[test]
    fn rows_and_cols_strips() {
        let tile = Rect::new(0, 0, 8, 8);
        let strip = tile.rows(3, 5);
        assert_eq!(strip, Rect::new(0, 3, 8, 5));
        // Strips are clipped to their parent.
        assert_eq!(tile.rows(-2, 100), tile);
    }

    #[test]
    fn intersect_commutative() {
        let a = Rect::new(0, 0, 5, 5);
        let b = Rect::new(3, 2, 9, 4);
        assert_eq!(a.intersect(b), b.intersect(a));
        assert_eq!(a.intersect(b), Rect::new(3, 2, 5, 4));
    }
}
