//! # mesh-engine
//!
//! A synchronous, multi-port packet-routing simulator implementing §2 of
//! Chinn, Leighton & Tompa (SPAA 1994) exactly.
//!
//! ## The step (§3 of the paper)
//!
//! Every simulated step performs, in order:
//!
//! 1. **(a) Outqueue** — each node's outqueue policy chooses at most one
//!    packet per outlink to attempt to transmit.
//! 2. **(b) Hook** — an optional [`StepHook`] observes the schedule and may
//!    *exchange* the destinations of packet pairs. This is the adversary
//!    interface used by the lower-bound constructions of §§3 and 5; ordinary
//!    simulations use [`NoHook`].
//! 3. **(c) Inqueue** — each node's inqueue policy decides which scheduled
//!    incoming packets to accept (it must not overflow its queues).
//! 4. **(d) Transmit** — packets that were both scheduled and accepted move;
//!    a packet arriving at its destination is delivered and removed.
//! 5. **(e) State update** — node and packet states update as a function of
//!    the information the model permits.
//!
//! [`Sim::step_with_hook`] dispatching [`STEP_PIPELINE`] is the only step
//! loop: the schedule order it produces is the only observable order, and
//! there is no second executor to keep equal to it.
//!
//! ## Destination exchangeability, enforced by types
//!
//! The lower bound applies to *destination-exchangeable* algorithms: routing
//! decisions may depend only on packet **states**, **source addresses**, and
//! **profitable outlinks** — never on the destination itself. The engine
//! encodes this restriction in the [`DxRouter`] trait, whose policy methods
//! read a packet's cold columns through a handle ([`DxResidents`],
//! [`DxArrivals`]) that simply has no destination accessor. Any `DxRouter`
//! is run through the [`Dx`] adapter, which passes the engine's
//! full-information handle down as the restricted one. Lemma 10 of the
//! paper (exchanges are invisible to the algorithm) therefore holds for
//! every `DxRouter` by parametricity — and is additionally checked
//! empirically in tests.
//!
//! Algorithms that legitimately use full destinations (the farthest-first
//! outqueue policy of §5, the §6 algorithm's base case) implement the
//! unrestricted [`Router`] trait directly.
//!
//! ## Queue architectures (§2 and §5 "Other Queue Types")
//!
//! [`QueueArch::Central`] gives every node one queue of capacity `k`;
//! [`QueueArch::PerInlink`] gives every node four inlink queues of capacity
//! `k` each (the Theorem 15 model). In both cases queues need not be FIFO —
//! order is the policies' business; the engine only enforces capacity.

#![forbid(unsafe_code)]

pub mod diag;
mod driver;
pub mod faults;
pub mod hook;
mod invariants;
pub mod metrics;
pub mod phases;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod steady;
mod storage;
pub mod view;
mod watchdog;

#[cfg(test)]
mod engine_tests;

// The fault layer's three parts live under `faults/`; the `faults` module
// is their one public face.
#[path = "faults/compiled.rs"]
mod compiled;
#[path = "faults/error.rs"]
mod error;
#[path = "faults/plan.rs"]
mod plan;

pub use diag::{DiagnosticSnapshot, NodeOccupancy, StuckPacket};
pub use hook::{HookCtx, NoHook, ScheduledMove, StepHook};
pub use metrics::{ReportAggregate, SimReport};
pub use phases::{AdmissionPolicy, PolicyCalls};
pub use phases::{Phase, STEP_PIPELINE};
pub use protocol::{ProtocolControl, ProtocolHook, StepEvents};
pub use queue::{QueueArch, QueueKind};
pub use router::{Dx, DxRouter, Router};
pub use sim::Loc;
pub use sim::{Sim, SimConfig, SimError};
pub use snapshot::{
    CheckpointSink, DirectorySink, MemorySink, Snapshot, SnapshotError, SnapshotHook, SteadySnap,
    SNAPSHOT_FORMAT_VERSION,
};
pub use stats::{Distribution, NodeField, Summary};
pub use steady::{SteadyConfig, SteadyReport, WindowFrame};
pub use view::{DxArrivals, DxResidents, FullArrivals, FullResidents, PackedArrival, PackedView};
