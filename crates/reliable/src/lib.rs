//! # mesh-reliable
//!
//! End-to-end reliable delivery over the faulty mesh of
//! Chinn–Leighton–Tompa: an ARQ transport layered on top of any router the
//! workspace provides.
//!
//! The network below guarantees nothing once lossy-link faults are in play:
//! a packet crossing a lossy link is destroyed, and the engine's
//! dynamic-injection runs simply lose it. This crate restores exactly-once
//! delivery the way real networks do:
//!
//! * every *payload* (source, destination, release step) carries a
//!   per-source **sequence number**;
//! * the destination keeps a seen-set per source and **suppresses
//!   duplicates**, delivering each payload to the application exactly once
//!   and (re-)sending an **ACK** back through the same mesh;
//! * the source **retransmits** unacknowledged payloads on a timer with
//!   capped exponential **backoff**, jitter drawn from a seeded RNG so every
//!   run is bit-deterministic.
//!
//! The transport attaches to the engine as a
//! [`ProtocolHook`](mesh_engine::ProtocolHook) — drive it with
//! [`Sim::run_with_protocol`](mesh_engine::Sim::run_with_protocol). See
//! `DESIGN.md` §8 for the state machine and the watchdog interplay.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod transport;

pub use backoff::BackoffPolicy;
pub use transport::{Transport, TransportReport};
