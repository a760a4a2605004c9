//! Directed-link identity.
//!
//! §2 models the network as a directed graph whose links come in
//! opposite-direction pairs. Fault injection needs to *name* individual
//! links, so this module gives every directed link a stable identity: the
//! node it leaves from plus its direction. On a side-`n` grid, links also
//! have a dense index (`4·node + dir`), used by fault tables.

use crate::coord::Coord;
use crate::dir::{Dir, ALL_DIRS};
use serde::{Deserialize, Serialize};

/// One directed link: the `dir` outlink of `from`.
///
/// A physical cable failure usually kills both directions; model that as the
/// pair `link` and [`Link::reverse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    pub from: Coord,
    pub dir: Dir,
}

impl Link {
    /// The `dir` outlink of `from`.
    #[inline]
    pub const fn new(from: Coord, dir: Dir) -> Link {
        Link { from, dir }
    }

    /// Dense index on a side-`n` grid: `4 · (y·n + x) + dir`.
    #[inline]
    pub fn index(self, n: u32) -> usize {
        4 * (self.from.y * n + self.from.x) as usize + self.dir.index()
    }

    /// Rebuilds a link from its dense index.
    #[inline]
    pub fn from_index(i: usize, n: u32) -> Link {
        let node = (i / 4) as u32;
        Link {
            from: Coord::new(node % n, node / n),
            dir: Dir::from_index(i % 4),
        }
    }

    /// The node this link points at, ignoring grid bounds (mesh edges have
    /// no link there; callers that care should consult the topology).
    #[inline]
    pub fn to(self) -> Option<Coord> {
        let (dx, dy) = self.dir.delta();
        let x = self.from.x as i64 + dx;
        let y = self.from.y as i64 + dy;
        (x >= 0 && y >= 0).then(|| Coord::new(x as u32, y as u32))
    }

    /// The opposite-direction partner link (exists whenever `self` does, by
    /// the §2 pairing), or `None` when `self` points off the coordinate
    /// plane entirely.
    #[inline]
    pub fn reverse(self) -> Option<Link> {
        self.to().map(|t| Link::new(t, self.dir.opposite()))
    }

    /// Iterates every directed link of a side-`n` *mesh* (edge links that
    /// point off the grid are skipped).
    pub fn all_mesh(n: u32) -> impl Iterator<Item = Link> {
        (0..n).flat_map(move |y| {
            (0..n).flat_map(move |x| {
                ALL_DIRS.into_iter().filter_map(move |dir| {
                    let l = Link::new(Coord::new(x, y), dir);
                    match l.to() {
                        Some(t) if t.on_grid(n) => Some(l),
                        _ => None,
                    }
                })
            })
        })
    }
}

impl core::fmt::Display for Link {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}-{}", self.from, self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let n = 7;
        for y in 0..n {
            for x in 0..n {
                for d in ALL_DIRS {
                    let l = Link::new(Coord::new(x, y), d);
                    assert_eq!(Link::from_index(l.index(n), n), l);
                }
            }
        }
    }

    #[test]
    fn reverse_is_involutive_in_the_interior() {
        let l = Link::new(Coord::new(3, 3), Dir::East);
        let r = l.reverse().unwrap();
        assert_eq!(r.from, Coord::new(4, 3));
        assert_eq!(r.dir, Dir::West);
        assert_eq!(r.reverse().unwrap(), l);
    }

    #[test]
    fn mesh_link_count_is_4n_n_minus_1() {
        for n in [1u32, 2, 4, 8] {
            let count = Link::all_mesh(n).count() as u32;
            assert_eq!(count, 4 * n * (n.saturating_sub(1)));
        }
    }

    #[test]
    fn southwest_corner_has_no_west_reverse_target_confusion() {
        // A West link at x=0 points off the grid: `to()` is None.
        assert_eq!(Link::new(Coord::new(0, 5), Dir::West).to(), None);
        assert_eq!(Link::new(Coord::new(0, 0), Dir::South).reverse(), None);
    }
}
