//! Replay verification: Theorem 13 and Lemma 12, empirically.

use crate::driver::ConstructionOutcome;
use mesh_engine::{Router, Sim, SimReport};
use mesh_topo::Topology;
use serde::{Deserialize, Serialize};

/// Result of replaying a constructed permutation without the adversary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LowerBoundReport {
    /// The proven bound `⌊l⌋·dn`.
    pub bound_steps: u64,
    /// Packets undelivered after `bound_steps` replay steps (> 0 certifies
    /// Theorem 13 empirically).
    pub undelivered_at_bound: usize,
    /// Whether the replay's configuration at `bound_steps` matches the
    /// construction's exactly (Lemma 12 with an empty pending-exchange set).
    pub replay_matches_construction: bool,
    /// Steps to deliver everything when allowed to continue (`None` if the
    /// cap was hit — e.g. the victim deadlocks, which only strengthens the
    /// bound).
    pub completion_steps: Option<u64>,
    /// Full report of the replay run.
    pub replay: SimReport,
}

/// Replays `outcome.constructed` under a fresh router for `bound_steps`
/// steps, checks Theorem 13 and Lemma 12, then (optionally) runs on to
/// completion under `completion_cap` extra steps.
pub fn verify_lower_bound<T: Topology, R: Router>(
    topo: &T,
    router: R,
    outcome: &ConstructionOutcome,
    completion_cap: Option<u64>,
) -> LowerBoundReport {
    let mut sim = Sim::new(topo, router, &outcome.constructed);
    for _ in 0..outcome.bound_steps {
        if sim.step() {
            break;
        }
    }
    let undelivered = sim.num_packets() - sim.delivered();
    let matches = sim.packet_snapshot() == outcome.final_snapshot;
    let completion_steps = match completion_cap {
        Some(cap) => sim.run(outcome.bound_steps + cap).ok(),
        None => None,
    };
    LowerBoundReport {
        bound_steps: outcome.bound_steps,
        undelivered_at_bound: undelivered,
        replay_matches_construction: matches,
        completion_steps,
        replay: sim.report(),
    }
}
