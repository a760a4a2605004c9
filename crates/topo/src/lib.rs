//! # mesh-topo
//!
//! Topology and geometry substrate for the reproduction of
//! Chinn, Leighton & Tompa, *Minimal Adaptive Routing on the Mesh with
//! Bounded Queue Size* (SPAA 1994).
//!
//! This crate knows nothing about packets or routing policies. It provides:
//!
//! * [`Coord`] — a node position. The paper numbers columns 1..n west→east and
//!   rows 1..n south→north; we use the same orientation but 0-based indices
//!   (`x` = column − 1, `y` = row − 1), so `(0, 0)` is the **southwest** corner.
//! * [`Dir`] / [`DirSet`] — the four mesh directions and small sets of them.
//! * [`Topology`] — the directed-graph view of §2 of the paper, implemented by
//!   [`Mesh`] and [`Torus`]. Its key operation is [`Topology::profitable`]:
//!   the set of outlinks that move a packet strictly closer to a destination
//!   (the only destination information a *destination-exchangeable* routing
//!   algorithm may use).
//! * [`Link`] — directed-link identity (`node` × `Dir`, with a dense index),
//!   the naming scheme fault injection uses to point at individual links.
//! * [`Rect`] — inclusive axis-aligned node rectangles (submeshes, boxes,
//!   strips, tiles).
//! * [`tiling`] — the three 1/3-offset tilings of §6 (Lemma 19 of the paper).

#![forbid(unsafe_code)]

pub mod coord;
pub mod dir;
pub mod link;
pub mod rect;
pub mod tiling;
pub mod topology;

pub use coord::{Coord, NodeId};
pub use dir::{Dir, DirIndexError, DirSet, ALL_DIRS};
pub use link::Link;
pub use rect::Rect;
pub use tiling::{Tiling, TilingSet};
pub use topology::{Mesh, Topology, Torus};
