//! # mesh-adversary
//!
//! Executable versions of the lower-bound constructions of Chinn, Leighton &
//! Tompa (SPAA 1994), §§3–5.
//!
//! Each construction runs a given routing algorithm for `⌊l⌋·dn` steps while
//! performing the paper's destination *exchanges* through the engine's step
//! hook, then emits the **constructed permutation** — a concrete routing
//! problem on which that algorithm provably (and, here, measurably) needs at
//! least `⌊l⌋·dn` steps:
//!
//! * [`general`] — the §3 construction against any destination-exchangeable
//!   minimal adaptive algorithm: `Ω(n²/k²)` (Theorem 14), with the h-h
//!   (`Ω(h³n²/(k+h)²)`) and torus extensions of §5.
//! * [`dimorder`] — the §5 construction against destination-exchangeable
//!   *dimension-order* algorithms: `Ω(n²/k)`.
//! * [`farthest`] — the §5 construction against dimension order with the
//!   farthest-first outqueue policy (not destination-exchangeable): `Ω(n²/k)`.
//!
//! All three run on the one construction driver of [`driver`]; each supplies
//! only its [`ExchangeRule`].
//!
//! [`constants`] picks the constants `c` and `d` exactly as §4.3 does;
//! [`invariants`] machine-checks Lemmas 1–8 at every step of the
//! construction; [`verify`] replays the constructed permutation without
//! exchanges and confirms Theorem 13 (undelivered packets at the bound) and
//! Lemma 12 (replay reaches the construction's exact final configuration).

#![forbid(unsafe_code)]

pub mod classify;
pub mod constants;
pub mod dimorder;
pub mod driver;
pub mod farthest;
pub mod general;
pub mod geometry;
pub mod invariants;
pub mod verify;

pub use classify::{Class, ClassMap};
pub use constants::{DimOrderParams, GeneralParams, ParamError};
pub use driver::{ConstructionBreakdown, ConstructionOutcome, ExchangeRule};
pub use general::GeneralConstruction;
pub use geometry::BoxGeometry;
pub use verify::{verify_lower_bound, LowerBoundReport};
