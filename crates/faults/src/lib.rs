//! # mesh-faults
//!
//! Deterministic fault injection for the CLT94 mesh simulator.
//!
//! The paper's model (§2) assumes a perfect synchronous network. This crate
//! supplies the *second* adversary the reproduction grows toward production
//! robustness with — not the §3 destination exchanger (that lives in the
//! engine's `StepHook`), but hardware-style failures:
//!
//! * **link faults** — a directed link carries nothing during an interval;
//! * **node stalls** — a node skips scheduling entirely for an interval: it
//!   neither sends, accepts, nor injects;
//! * **queue degradation** — a node loses queue slots for an interval: new
//!   acceptances are clamped to the reduced capacity (residents already over
//!   it are never evicted — they drain naturally);
//! * **lossy links** — a directed link *destroys* every packet transmitted
//!   across it during an interval. Where a down link blocks the move (the
//!   packet stays queued at its sender), a lossy link eats the packet — the
//!   failure mode `mesh-reliable`'s retransmission layer recovers from.
//!
//! Everything is specified up front in a [`FaultPlan`] — a pure value, built
//! by hand or drawn from a seed via [`FaultPlan::random`] — and compiled
//! once into [`CompiledFaults`], the query structure both the engine and the
//! `FaultAware` router wrapper consult. Identical plans produce identical
//! runs: fault injection never consults a clock, thread id, or global RNG,
//! so the PR-1 byte-identical-across-`--threads` invariant is preserved.
//!
//! Faults compose with the §3 exchange adversary: the engine filters faulted
//! transmissions *before* the hook observes the schedule, so the exchanger
//! only ever sees moves that can actually happen.

#![forbid(unsafe_code)]

pub mod compiled;
pub mod error;
pub mod plan;

pub use compiled::{ActiveFault, CompiledFaults};
pub use error::FaultPlanError;
pub use plan::{FaultPlan, LinkFault, NodeStall, QueueDegrade};

/// SplitMix64 — the crate's only source of pseudo-randomness, kept local so
/// plan generation cannot drift with a vendored RNG's implementation.
#[inline]
pub(crate) fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
