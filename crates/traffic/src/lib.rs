//! # mesh-traffic
//!
//! The packet model and workload generators for the Chinn–Leighton–Tompa
//! routing reproduction.
//!
//! * [`Packet`] — the unit of routing: a source, a destination, an optional
//!   injection time (for the dynamic problems of §5), and a mutable state
//!   word (the paper's "state of a packet", §2).
//! * [`RoutingProblem`] — a set of packets on a side-`n` grid, with
//!   validators for the problem classes the paper studies: partial
//!   permutations, (full) permutations, and *h-h* problems.
//! * [`workloads`] — deterministic, seeded generators for every workload the
//!   benchmarks use: random (partial) permutations, transpose, bit-reversal,
//!   rotations, hotspots, random destinations, h-h, and dynamic injection.
//! * [`Quadrant`] — the NE/NW/SE/SW movement classes of the §6 algorithm.

#![forbid(unsafe_code)]

pub mod packet;
pub mod problem;
pub mod quadrant;
pub mod workloads;

pub use packet::{Packet, PacketId, PayloadId};
pub use problem::{ProblemClass, RoutingProblem};
pub use quadrant::Quadrant;
