//! Deterministic fault injection (DESIGN.md §7).
//!
//! The paper's model (§2) assumes a perfect synchronous network. This module
//! supplies the *second* adversary the reproduction grows toward production
//! robustness with — not the §3 destination exchanger (that is the
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
//! once into [`CompiledFaults`], which the caller hands to
//! [`Sim::with_faults`](crate::Sim::with_faults) or
//! [`Sim::restore`](crate::Sim::restore). That table is the run's only
//! copy: the engine enforces it, and a policy that steers around faults
//! (the `FaultAware` router) reads it through
//! [`FullResidents::faults`](crate::FullResidents::faults). Identical plans
//! produce identical runs: fault injection never consults a clock, thread
//! id, or global RNG, so runs stay byte-identical across `--threads`.
//!
//! Faults compose with the §3 exchange adversary: the engine filters faulted
//! transmissions *before* the hook observes the schedule, so the exchanger
//! only ever sees moves that can actually happen.

pub use crate::compiled::{ActiveFault, CompiledFaults};
pub use crate::error::FaultPlanError;
pub use crate::plan::{FaultPlan, LinkFault, NodeStall, QueueDegrade};
