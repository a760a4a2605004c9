//! Routing problem containers and the problem classes studied in the paper.

use crate::packet::{Packet, PacketId};
use mesh_topo::Coord;
use serde::{Deserialize, Serialize};

/// The routing problem classes of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProblemClass {
    /// Each node sends at most one packet and receives at most one packet
    /// ("one-to-one" / partial permutation, §1).
    PartialPermutation,
    /// Each node sends exactly one and receives exactly one packet.
    Permutation,
    /// Each node sends at most `h` and receives at most `h` packets (§5).
    Hh(u32),
    /// No constraint (e.g. random-destination average-case problems, §1.1).
    Unconstrained,
}

/// A static or dynamic routing problem on a side-`n` grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoutingProblem {
    /// Grid side length.
    pub n: u32,
    /// The packets, indexed by their `PacketId`.
    pub packets: Vec<Packet>,
    /// A human-readable workload name for reports.
    pub label: String,
}

impl RoutingProblem {
    /// Builds a problem from `(src, dst)` pairs, assigning dense ids.
    pub fn from_pairs(
        n: u32,
        label: impl Into<String>,
        pairs: impl IntoIterator<Item = (Coord, Coord)>,
    ) -> RoutingProblem {
        let packets = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| Packet::new(i as u32, src, dst))
            .collect();
        let p = RoutingProblem {
            n,
            packets,
            label: label.into(),
        };
        p.validate_coords();
        p
    }

    /// Builds a problem from fully-specified packets (ids must be dense).
    /// The generators grow `packets` by doubling; the capacity past its
    /// length is released here, not carried for the problem's lifetime.
    pub fn from_packets(
        n: u32,
        label: impl Into<String>,
        mut packets: Vec<Packet>,
    ) -> RoutingProblem {
        packets.shrink_to_fit();
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.id, PacketId(i as u32), "packet ids must be dense");
        }
        let p = RoutingProblem {
            n,
            packets,
            label: label.into(),
        };
        p.validate_coords();
        p
    }

    fn validate_coords(&self) {
        for p in &self.packets {
            assert!(
                p.src.x < self.n && p.src.y < self.n && p.dst.x < self.n && p.dst.y < self.n,
                "packet {:?} out of the {}x{} grid",
                p,
                self.n,
                self.n
            );
        }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if the problem has no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// True if every packet is injected at step 0.
    pub fn is_static(&self) -> bool {
        self.packets.iter().all(|p| p.inject_at == 0)
    }

    /// Per-node send counts (row-major).
    pub fn send_counts(&self) -> Vec<u32> {
        let mut c = vec![0u32; (self.n * self.n) as usize];
        for p in &self.packets {
            c[(p.src.y * self.n + p.src.x) as usize] += 1;
        }
        c
    }

    /// Per-node receive counts (row-major).
    pub fn recv_counts(&self) -> Vec<u32> {
        let mut c = vec![0u32; (self.n * self.n) as usize];
        for p in &self.packets {
            c[(p.dst.y * self.n + p.dst.x) as usize] += 1;
        }
        c
    }

    /// The most specific [`ProblemClass`] this problem satisfies.
    pub fn classify(&self) -> ProblemClass {
        let send = self.send_counts();
        let recv = self.recv_counts();
        let max_h = send.iter().chain(recv.iter()).copied().max().unwrap_or(0);
        if max_h <= 1 {
            if self.len() == (self.n * self.n) as usize {
                ProblemClass::Permutation
            } else {
                ProblemClass::PartialPermutation
            }
        } else {
            ProblemClass::Hh(max_h)
        }
    }

    /// True if the problem is a (possibly partial) permutation.
    pub fn is_partial_permutation(&self) -> bool {
        matches!(
            self.classify(),
            ProblemClass::Permutation | ProblemClass::PartialPermutation
        )
    }

    /// True if the problem is a full permutation.
    pub fn is_permutation(&self) -> bool {
        self.classify() == ProblemClass::Permutation
    }

    /// True if every node sends at most `h` and receives at most `h` packets.
    pub fn is_hh(&self, h: u32) -> bool {
        self.send_counts().iter().all(|&c| c <= h) && self.recv_counts().iter().all(|&c| c <= h)
    }

    /// The largest source→destination distance (mesh metric); a trivial lower
    /// bound on any mesh routing time.
    pub fn diameter_bound(&self) -> u32 {
        self.packets
            .iter()
            .map(|p| p.src.manhattan(p.dst))
            .max()
            .unwrap_or(0)
    }

    /// Total packet-hops required on minimal mesh paths.
    pub fn total_work(&self) -> u64 {
        self.packets
            .iter()
            .map(|p| p.src.manhattan(p.dst) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_perm() -> RoutingProblem {
        // 2x2 full permutation: each node sends to its transpose.
        let n = 2;
        let pairs = (0..n).flat_map(|y| (0..n).map(move |x| (Coord::new(x, y), Coord::new(y, x))));
        RoutingProblem::from_pairs(n, "transpose2", pairs)
    }

    #[test]
    fn classify_full_permutation() {
        let p = tiny_perm();
        assert!(p.is_permutation());
        assert!(p.is_partial_permutation());
        assert!(p.is_hh(1));
        assert_eq!(p.classify(), ProblemClass::Permutation);
    }

    #[test]
    fn classify_partial_permutation() {
        let p = RoutingProblem::from_pairs(4, "one packet", [(Coord::new(0, 0), Coord::new(3, 3))]);
        assert_eq!(p.classify(), ProblemClass::PartialPermutation);
        assert!(!p.is_permutation());
        assert_eq!(p.diameter_bound(), 6);
        assert_eq!(p.total_work(), 6);
    }

    #[test]
    fn classify_hh() {
        let p = RoutingProblem::from_pairs(
            2,
            "2-2",
            [
                (Coord::new(0, 0), Coord::new(1, 1)),
                (Coord::new(0, 0), Coord::new(1, 0)),
                (Coord::new(1, 1), Coord::new(1, 1)),
            ],
        );
        assert_eq!(p.classify(), ProblemClass::Hh(2));
        assert!(p.is_hh(2));
        assert!(!p.is_hh(1));
    }

    #[test]
    fn send_recv_counts() {
        let p = tiny_perm();
        assert!(p.send_counts().iter().all(|&c| c == 1));
        assert!(p.recv_counts().iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "out of the")]
    fn rejects_out_of_grid() {
        let _ = RoutingProblem::from_pairs(2, "bad", [(Coord::new(0, 0), Coord::new(2, 0))]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rejects_non_dense_ids() {
        let pk = Packet::new(5, Coord::new(0, 0), Coord::new(1, 1));
        let _ = RoutingProblem::from_packets(2, "bad", vec![pk]);
    }

    #[test]
    fn static_detection() {
        let mut p = tiny_perm();
        assert!(p.is_static());
        p.packets[0].inject_at = 3;
        assert!(!p.is_static());
    }
}
