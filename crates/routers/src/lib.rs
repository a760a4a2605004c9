//! # mesh-routers
//!
//! The routing algorithms of Chinn, Leighton & Tompa (SPAA 1994), minus the
//! §6 tiling algorithm (which needs its own phased engine and lives in the
//! `mesh-routing` core crate):
//!
//! | Router | Paper reference | Information | Queues |
//! |---|---|---|---|
//! | [`DimOrder`] | §1.1, §2 ("dimension order … FIFO queues and round-robin inqueue policy") | destination-exchangeable | central, size `k` |
//! | [`AltAdaptive`] | §2's adaptive example ("moves in one profitable direction until it is blocked by congestion, then moves in its other profitable direction") | destination-exchangeable | central, size `k` |
//! | [`WestFirst`] | §2's cited turn-model family (Chien–Kim, Cypher–Gravano) | destination-exchangeable | central, size `k` |
//! | [`Theorem15`] | Theorem 15: `O(n²/k + n)` dimension order | destination-exchangeable | four inlink queues, size `k` |
//! | [`FarthestFirst`] | §1.1 greedy (2n−2 with unbounded queues) and §5's farthest-first lower-bound target | full destination | central, size `k` |
//! | [`HotPotato`] | §5 nonminimal discussion (deflection; escapes Theorem 14) | destination-exchangeable, nonminimal | one slot per inlink |
//! | [`BoundedDeflect`] | §5 "within δ of the shortest-path rectangle" class | destination-exchangeable, δ-nonminimal | central, size `k` |
//!
//! All are deterministic. The destination-exchangeable ones implement
//! [`mesh_engine::DxRouter`] and therefore *cannot* consult destinations —
//! the handle their policies read packets through has no accessor for one.
//!
//! Each router states its policies once, as a `DxRouter`/`Router` impl:
//! bit-packed descriptors, cold columns fetched per packet on demand,
//! `[_; 4]` arrays for scratch, no allocation. `tests/packed_equivalence.rs`
//! holds every router to the runs it recorded while a per-packet reference
//! form of each policy still ran beside it in lockstep.
//!
//! Any of them can be made fault-tolerant by wrapping in [`FaultAware`],
//! which masks currently-down outlinks out of the descriptors the inner
//! router is handed so its ordinary direction fallback routes around
//! injected faults.

#![forbid(unsafe_code)]

pub mod alt_adaptive;
pub mod bounded_deflect;
pub mod common;
pub mod dimorder;
pub mod farthest;
pub mod fault_aware;
pub mod hotpotato;
pub mod theorem15;
pub mod west_first;

pub use alt_adaptive::AltAdaptive;
pub use bounded_deflect::{within_delta_of_rectangle, BoundedDeflect};
pub use common::{dim_order_dir, Axis};
pub use dimorder::DimOrder;
pub use farthest::FarthestFirst;
pub use fault_aware::FaultAware;
pub use hotpotato::HotPotato;
pub use theorem15::Theorem15;
pub use west_first::WestFirst;

use mesh_engine::Dx;

/// Convenience constructors wrapping the Dx routers for execution.
pub fn dim_order(k: u32) -> Dx<DimOrder> {
    Dx::new(DimOrder::new(k))
}

/// Column-first (YX) dimension order, central queue of size `k`.
pub fn dim_order_yx(k: u32) -> Dx<DimOrder> {
    Dx::new(DimOrder::yx(k))
}

/// The §2 alternating minimal-adaptive example, central queue of size `k`.
pub fn alt_adaptive(k: u32) -> Dx<AltAdaptive> {
    Dx::new(AltAdaptive::new(k))
}

/// The Theorem 15 router with four inlink queues of size `k`.
pub fn theorem15(k: u32) -> Dx<Theorem15> {
    Dx::new(Theorem15::new(k))
}

/// The hot-potato deflection router (nonminimal, unit buffers) for a
/// side-`n` grid.
pub fn hot_potato(n: u32) -> Dx<HotPotato> {
    Dx::new(HotPotato::new(n))
}
