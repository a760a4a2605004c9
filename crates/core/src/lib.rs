//! # mesh-routing
//!
//! A complete, executable reproduction of **Chinn, Leighton & Tompa,
//! "Minimal Adaptive Routing on the Mesh with Bounded Queue Size"**
//! (SPAA 1994): the `Ω(n²/k²)` lower bound for destination-exchangeable
//! minimal adaptive routing (with its §5 extensions), the matching
//! dimension-order bounds, the Theorem 15 `O(n²/k + n)` bounded-queue
//! router, and the §6 `O(n)`-time `O(1)`-queue minimal adaptive algorithm.
//!
//! This crate is the facade: it re-exports the substrate crates and adds
//! the §6 algorithm (which needs its own phased engine), a one-call
//! [`route`] API, [`drive`] — the one entry for a run fresh or resumed,
//! closed or steady, checkpointed or not — and [`with_engine_router!`], the
//! one place an [`Algorithm`] value becomes a concrete router type.
//!
//! ```
//! use mesh_routing::prelude::*;
//!
//! let problem = workloads::random_permutation(27, 7);
//! let outcome = mesh_routing::route(Algorithm::Section6, &problem);
//! assert!(outcome.completed);
//! assert!(outcome.max_queue <= 834); // Theorem 34's queue bound
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod section6;

pub use api::{
    drive, route, route_with_cap, try_route_with_cap, Algorithm, Outcome, Plan, RouteOutcome, Run,
    Start, Stats, SteadyOutcome,
};
pub use section6::{Section6Config, Section6Error, Section6Report, Section6Router};

// Re-export the substrate crates under stable names.
pub use mesh_adversary as adversary;
pub use mesh_engine as engine;
pub use mesh_engine::faults;
pub use mesh_reliable as reliable;
pub use mesh_routers as routers;
pub use mesh_topo as topo;
pub use mesh_traffic as traffic;

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::api::{
        drive, route, route_with_cap, Algorithm, Outcome, Plan, RouteOutcome, Run, Start, Stats,
        SteadyOutcome,
    };
    pub use crate::section6::{Section6Report, Section6Router};
    pub use mesh_adversary::{
        verify_lower_bound, DimOrderParams, GeneralConstruction, GeneralParams,
    };
    pub use mesh_engine::faults::{CompiledFaults, FaultPlan, FaultPlanError};
    pub use mesh_engine::{
        AdmissionPolicy, Dx, DxRouter, ProtocolControl, ProtocolHook, Router, Sim, SimConfig,
        SimError, SimReport, SteadyConfig, SteadyReport, StepEvents, WindowFrame,
    };
    pub use mesh_reliable::{BackoffPolicy, Transport, TransportReport};
    pub use mesh_routers::{
        AltAdaptive, DimOrder, FarthestFirst, FaultAware, Theorem15, WestFirst,
    };
    pub use mesh_topo::{Coord, Dir, DirSet, Mesh, Topology, Torus};
    pub use mesh_traffic::{workloads, Packet, PacketId, PayloadId, Quadrant, RoutingProblem};
}
