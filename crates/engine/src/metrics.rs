//! Simulation reports: the measurements every experiment consumes.

use crate::queue::QueueArch;
use crate::stats::Summary;
use serde::{Deserialize, Serialize};

/// Summary of a finished (or step-capped) simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    /// Algorithm name (from the router).
    pub algorithm: String,
    /// Workload label (from the routing problem).
    pub workload: String,
    /// Grid side.
    pub n: u32,
    /// Queue architecture and capacity.
    pub arch: QueueArch,
    /// Number of packets in the problem.
    pub total_packets: usize,
    /// Packets delivered so far.
    pub delivered: usize,
    /// Packets destroyed by lossy links.
    pub lost: usize,
    /// Packets rejected at the injection edge by admission control
    /// (`RejectNew` refusals and `DropOldestDeferred` evictions); always 0
    /// under the closed-system default policy.
    pub shed: usize,
    /// Packets whose deadline passed — staged at the edge or queued
    /// in-network (`DeadlineExpiry`); always 0 under other policies.
    pub expired: usize,
    /// Packet-steps spent deferred by injection admission control (a packet
    /// kept out of a full origin queue for five steps counts five).
    pub deferred_injections: u64,
    /// Steps executed.
    pub steps: u64,
    /// True if every packet was delivered.
    pub completed: bool,
    /// Maximum occupancy any single bounded queue ever reached.
    pub max_queue: u32,
    /// Maximum number of packets simultaneously in any node (all queues,
    /// including injection).
    pub max_node_load: u32,
    /// Total link traversals performed.
    pub total_moves: u64,
    /// Destination exchanges performed by the hook (0 without an adversary).
    pub exchanges: u64,
    /// Mean delivery step over delivered packets (steps are 1-based: a packet
    /// delivered during the first step has latency 1).
    pub avg_latency: f64,
    /// Latest delivery step.
    pub max_latency: u64,
}

impl SimReport {
    /// Slowdown relative to the `2n - 2` mesh diameter bound.
    pub fn slowdown_vs_diameter(&self) -> f64 {
        let d = (2 * self.n).saturating_sub(2).max(1) as f64;
        self.steps as f64 / d
    }

    /// Aggregates the scalar metrics of repeated trials of one experiment
    /// cell. Empty input produces an all-zero aggregate.
    pub fn aggregate(reports: &[SimReport]) -> ReportAggregate {
        ReportAggregate {
            trials: reports.len(),
            completed_trials: reports.iter().filter(|r| r.completed).count(),
            steps: Summary::of_u64(reports.iter().map(|r| r.steps)),
            max_queue: Summary::of_u64(reports.iter().map(|r| r.max_queue as u64)),
            max_node_load: Summary::of_u64(reports.iter().map(|r| r.max_node_load as u64)),
            total_moves: Summary::of_u64(reports.iter().map(|r| r.total_moves)),
            exchanges: Summary::of_u64(reports.iter().map(|r| r.exchanges)),
            avg_latency: Summary::of(&reports.iter().map(|r| r.avg_latency).collect::<Vec<f64>>()),
            max_latency: Summary::of_u64(reports.iter().map(|r| r.max_latency)),
            delivered: Summary::of_u64(reports.iter().map(|r| r.delivered as u64)),
            lost: Summary::of_u64(reports.iter().map(|r| r.lost as u64)),
            shed: Summary::of_u64(reports.iter().map(|r| r.shed as u64)),
            expired: Summary::of_u64(reports.iter().map(|r| r.expired as u64)),
            deferred_injections: Summary::of_u64(reports.iter().map(|r| r.deferred_injections)),
        }
    }
}

/// Cross-trial aggregate of one experiment cell's scalar metrics; produced
/// by [`SimReport::aggregate`] and emitted into `BENCH_*.json` sweeps.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReportAggregate {
    /// Trials aggregated.
    pub trials: usize,
    /// Trials where every packet was delivered.
    pub completed_trials: usize,
    pub steps: Summary,
    pub max_queue: Summary,
    pub max_node_load: Summary,
    pub total_moves: Summary,
    pub exchanges: Summary,
    pub avg_latency: Summary,
    pub max_latency: Summary,
    pub delivered: Summary,
    pub lost: Summary,
    pub shed: Summary,
    pub expired: Summary,
    pub deferred_injections: Summary,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(steps: u64, moves: u64, completed: bool) -> SimReport {
        SimReport {
            algorithm: "test".into(),
            workload: "wl".into(),
            n: 8,
            arch: QueueArch::Central { k: 2 },
            total_packets: 64,
            delivered: if completed { 64 } else { 32 },
            lost: 0,
            shed: 0,
            expired: 0,
            deferred_injections: 0,
            steps,
            completed,
            max_queue: 2,
            max_node_load: 3,
            total_moves: moves,
            exchanges: 0,
            avg_latency: steps as f64 / 2.0,
            max_latency: steps,
        }
    }

    #[test]
    fn aggregate_over_trials() {
        let agg = SimReport::aggregate(&[
            report(10, 100, true),
            report(14, 120, true),
            report(30, 90, false),
        ]);
        assert_eq!(agg.trials, 3);
        assert_eq!(agg.completed_trials, 2);
        assert!((agg.steps.mean - 18.0).abs() < 1e-9);
        assert_eq!(agg.steps.min, 10.0);
        assert_eq!(agg.steps.max, 30.0);
        assert_eq!(agg.total_moves.max, 120.0);
        assert_eq!(agg.delivered.min, 32.0);
    }

    #[test]
    fn aggregate_empty_is_all_zero() {
        let agg = SimReport::aggregate(&[]);
        assert_eq!(agg.trials, 0);
        assert_eq!(agg.steps.count, 0);
        assert_eq!(agg.steps.mean, 0.0);
    }
}
