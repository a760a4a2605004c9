//! The reliable transport: per-source sequence numbers, destination-side
//! duplicate suppression, ACKs, and timer-driven retransmission.

use std::collections::HashSet;

use mesh_engine::stats::Distribution;
use mesh_engine::{ProtocolControl, ProtocolHook, Sim, StepEvents};
use mesh_topo::{Coord, Topology};
use mesh_traffic::{PacketId, PayloadId, RoutingProblem};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::RawValue;

use crate::backoff::BackoffPolicy;

/// What a network packet means to the transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum PacketMeta {
    /// A (re)transmission of a payload, source → destination.
    Data(PayloadId),
    /// An acknowledgement of a payload, destination → source.
    Ack(PayloadId),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum PayloadState {
    /// Injection time still in the future; no timer armed, not counted as
    /// outstanding (the watchdog contract of
    /// [`ProtocolControl::Continue`]).
    Unreleased,
    /// Handed to the network, awaiting acknowledgement; the timer is armed.
    InFlight,
    /// Acknowledged end-to-end; the transport is done with it.
    Acked,
}

/// One end-to-end payload: the unit the transport promises to deliver
/// exactly once, however many packets that takes.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct Payload {
    src: Coord,
    dst: Coord,
    /// Injection step of the original transmission.
    release: u64,
    /// Row-major index of `src` — the dedup key's node half.
    src_idx: u32,
    /// Per-source sequence number — the dedup key's counter half.
    seq: u32,
    state: PayloadState,
    /// Step of the first delivery to the application, if any.
    first_delivered: Option<u64>,
    /// Transmissions so far (original + retransmissions).
    attempts: u32,
    /// Step at (or after) which the next retransmission fires.
    next_retry: u64,
}

/// An ARQ transport layered over the mesh via
/// [`Sim::run_with_protocol`].
///
/// The simulation is constructed over the payload
/// [`RoutingProblem`] as usual — packet *i* of the problem is the original
/// transmission of payload *i*. After every step the transport:
///
/// 1. **releases** payloads whose injection step has passed, arming their
///    retransmission timers;
/// 2. processes **data deliveries**: a payload's first arrival is delivered
///    to the application and recorded in the destination's seen-set keyed by
///    `(source node, sequence number)`; later arrivals are suppressed as
///    duplicates. Either way the destination (re-)sends an ACK back to the
///    source, routed by the same router as everything else;
/// 3. processes **ACK deliveries**, settling payloads (duplicate ACKs are
///    counted and ignored);
/// 4. **retransmits** every released, unacknowledged payload whose timer
///    expired, as a *new* packet, and re-arms the timer per the
///    [`BackoffPolicy`] — jitter drawn from the transport's own seeded RNG,
///    so the entire schedule is a function of `(problem, policy, seed)`.
///
/// Lost packets (data or ACK) need no special handling: the timer recovers
/// both cases, and duplicate suppression keeps recovery idempotent.
pub struct Transport {
    state: TransportState,
}

/// The transport's complete state, and as such what rides along in a
/// checkpoint's `protocol` slot: everything [`Transport::on_step`] reads or
/// writes. The policy is part of it for mismatch detection — restoring under
/// a different backoff would silently change the schedule.
#[derive(Serialize, Deserialize)]
struct TransportState {
    policy: BackoffPolicy,
    rng: JitterRng,
    payloads: Vec<Payload>,
    /// Payloads in release order (by injection step, ties by id).
    release_order: Vec<PayloadId>,
    release_cursor: usize,
    /// Meaning of every engine packet, indexed by [`PacketId`]; grows as the
    /// transport spawns ACKs and retransmissions.
    meta: Vec<PacketMeta>,
    seen: SeenSet,
    /// Released payloads not yet acknowledged.
    outstanding: usize,
    acked: usize,
    delivered: usize,
    retransmits: u64,
    duplicate_deliveries: u64,
    duplicate_acks: u64,
    acks_sent: u64,
    data_lost: u64,
    acks_lost: u64,
}

impl TransportState {
    /// What [`Transport::on_step`] indexes and counts down must agree with
    /// the payload table: every payload id in range, an attempt made for
    /// each payload in flight, and `outstanding` and `acked` the table's
    /// own counts.
    fn check_tallies(&self) -> Result<(), String> {
        let (payloads, in_flight) = (self.payloads.len(), PayloadState::InFlight);
        let meta = self
            .meta
            .iter()
            .map(|(PacketMeta::Data(y) | PacketMeta::Ack(y))| y);
        if let Some(y) = meta
            .chain(&self.release_order)
            .find(|y| y.index() >= payloads)
        {
            return Err(format!("checkpoint names payload {y:?} of {payloads}"));
        }
        let count = |s| self.payloads.iter().filter(|p| p.state == s).count();
        let counts = (count(in_flight), count(PayloadState::Acked));
        let unsent = self
            .payloads
            .iter()
            .any(|p| p.state == in_flight && p.attempts == 0);
        if (self.outstanding, self.acked) != counts || unsent {
            let (o, a) = (self.outstanding, self.acked);
            return Err(format!("checkpoint counts {o} outstanding and {a} acked payloads, its table {counts:?}, unsent in flight: {unsent}"));
        }
        Ok(())
    }
}

/// The backoff RNG, rendered as its raw generator state so the
/// retransmission jitter stream resumes exactly where it stood.
struct JitterRng(StdRng);

impl Serialize for JitterRng {
    fn serialize_into<S: serde::Sink>(&self, out: &mut S) {
        self.0.state().serialize_into(out)
    }
}

impl Deserialize for JitterRng {
    fn deserialize_from<S: serde::Source>(src: &mut S) -> Result<Self, serde::Error> {
        Deserialize::deserialize_from(src).map(|state| JitterRng(StdRng::from_state(state)))
    }
}

/// Destination-side duplicate suppression: the `(source node, seq)` pairs
/// already delivered to the application. (Each payload's destination is
/// fixed, so one set stands in for all per-destination sets.) Rendered
/// sorted, so a checkpoint does not depend on hash order.
struct SeenSet(HashSet<(u32, u32)>);

impl Serialize for SeenSet {
    fn serialize_into<S: serde::Sink>(&self, out: &mut S) {
        let mut seen: Vec<(u32, u32)> = self.0.iter().copied().collect();
        seen.sort_unstable();
        seen.serialize_into(out)
    }
}

impl Deserialize for SeenSet {
    fn deserialize_from<S: serde::Source>(src: &mut S) -> Result<Self, serde::Error> {
        Vec::deserialize_from(src).map(|seen| SeenSet(seen.into_iter().collect()))
    }
}

impl Transport {
    /// Builds a transport for `problem`'s packets-as-payloads. `seed` drives
    /// retransmission jitter (and nothing else); two transports with equal
    /// `(problem, policy, seed)` behave identically.
    pub fn new(problem: &RoutingProblem, policy: BackoffPolicy, seed: u64) -> Transport {
        assert!(policy.base >= 1 && policy.factor >= 1, "degenerate backoff");
        let n = problem.n;
        let mut next_seq = vec![0u32; (n * n) as usize];
        let payloads: Vec<Payload> = problem
            .packets
            .iter()
            .map(|p| {
                let src_idx = p.src.y * n + p.src.x;
                let seq = next_seq[src_idx as usize];
                next_seq[src_idx as usize] += 1;
                Payload {
                    src: p.src,
                    dst: p.dst,
                    release: p.inject_at,
                    src_idx,
                    seq,
                    state: PayloadState::Unreleased,
                    first_delivered: None,
                    attempts: 0,
                    next_retry: u64::MAX,
                }
            })
            .collect();
        let mut release_order: Vec<PayloadId> = (0..payloads.len() as u32).map(PayloadId).collect();
        release_order.sort_by_key(|&y| (payloads[y.index()].release, y));
        let meta = (0..payloads.len() as u32)
            .map(|i| PacketMeta::Data(PayloadId(i)))
            .collect();
        Transport {
            state: TransportState {
                policy,
                rng: JitterRng(StdRng::seed_from_u64(seed)),
                payloads,
                release_order,
                release_cursor: 0,
                meta,
                seen: SeenSet(HashSet::new()),
                outstanding: 0,
                acked: 0,
                delivered: 0,
                retransmits: 0,
                duplicate_deliveries: 0,
                duplicate_acks: 0,
                acks_sent: 0,
                data_lost: 0,
                acks_lost: 0,
            },
        }
    }

    /// Payloads in the problem.
    pub fn payloads(&self) -> usize {
        self.state.payloads.len()
    }

    /// Distinct payloads delivered to the application so far.
    pub fn delivered(&self) -> usize {
        self.state.delivered
    }

    /// Payloads acknowledged end-to-end so far.
    pub fn acked(&self) -> usize {
        self.state.acked
    }

    /// Released payloads still awaiting acknowledgement.
    pub fn outstanding(&self) -> usize {
        self.state.outstanding
    }

    /// Step of the payload's first delivery to the application.
    pub fn first_delivery(&self, y: PayloadId) -> Option<u64> {
        self.state.payloads[y.index()].first_delivered
    }

    /// True when every payload was delivered to the application exactly once
    /// (duplicates suppressed, none missing).
    pub fn exactly_once(&self) -> bool {
        let st = &self.state;
        st.delivered == st.payloads.len() && st.payloads.iter().all(|p| p.first_delivered.is_some())
    }

    /// The end-to-end measurements, for a run that took `steps` steps.
    pub fn report(&self, steps: u64) -> TransportReport {
        let st = &self.state;
        let latencies: Vec<u64> = st
            .payloads
            .iter()
            .filter_map(|p| p.first_delivered.map(|d| d.saturating_sub(p.release)))
            .collect();
        TransportReport {
            payloads: st.payloads.len(),
            delivered: st.delivered,
            acked: st.acked,
            exactly_once: self.exactly_once(),
            retransmits: st.retransmits,
            duplicate_deliveries: st.duplicate_deliveries,
            duplicate_acks: st.duplicate_acks,
            acks_sent: st.acks_sent,
            data_lost: st.data_lost,
            acks_lost: st.acks_lost,
            steps,
            goodput: if steps == 0 {
                0.0
            } else {
                st.delivered as f64 / steps as f64
            },
            latency: Distribution::of(&latencies),
        }
    }
}

impl mesh_engine::SnapshotHook for Transport {
    fn snapshot_state(&self) -> RawValue {
        serde_json::to_raw_value(&self.state).expect("transport state renders")
    }

    fn restore_state(&mut self, v: &RawValue) -> Result<(), serde::Error> {
        let st: TransportState = serde_json::from_str(v.get())?;
        if st.policy != self.state.policy {
            return Err(serde::Error::custom(format!(
                "checkpoint was taken under backoff policy {:?}, restoring under {:?}",
                st.policy, self.state.policy
            )));
        }
        if st.payloads.len() != self.state.payloads.len() {
            return Err(serde::Error::custom(format!(
                "checkpoint has {} payloads, this transport was built over {}",
                st.payloads.len(),
                self.state.payloads.len()
            )));
        }
        if st.release_order.len() != st.payloads.len() || st.release_cursor > st.release_order.len()
        {
            return Err(serde::Error::custom(
                "checkpoint release bookkeeping is inconsistent with its payload table",
            ));
        }
        if st.meta.len() < st.payloads.len() {
            return Err(serde::Error::custom(format!(
                "checkpoint meta table has {} entries for {} payloads",
                st.meta.len(),
                st.payloads.len()
            )));
        }
        st.check_tallies().map_err(serde::Error::custom)?;
        self.state = st;
        Ok(())
    }
}

impl ProtocolHook for Transport {
    fn on_step<T: Topology, R: mesh_engine::Router>(
        &mut self,
        sim: &mut Sim<'_, T, R>,
        events: &StepEvents,
    ) -> ProtocolControl {
        let st = &mut self.state;
        let s = events.step;
        // 1. Release: step `s` just completed, so every payload with
        // `release <= s - 1` has been injected (or deferred by admission
        // control — the timer covers that case too); the synthetic step-0
        // batch covers construction-time injections (`release == 0`).
        // Timers count from the step after injection.
        while st.release_cursor < st.release_order.len() {
            let y = st.release_order[st.release_cursor];
            let p = &mut st.payloads[y.index()];
            if p.release > s.saturating_sub(1) {
                break;
            }
            st.release_cursor += 1;
            p.state = PayloadState::InFlight;
            p.attempts = 1;
            let d = st.policy.delay(0, &mut st.rng.0);
            p.next_retry = p.release + 1 + d;
            st.outstanding += 1;
        }
        // 2./3. Deliveries.
        for &pid in &events.delivered {
            match st.meta[pid.index()] {
                PacketMeta::Data(y) => {
                    let p = st.payloads[y.index()];
                    if st.seen.0.insert((p.src_idx, p.seq)) {
                        st.payloads[y.index()].first_delivered = Some(s);
                        st.delivered += 1;
                    } else {
                        st.duplicate_deliveries += 1;
                    }
                    // (Re-)acknowledge: duplicates mean the previous ACK may
                    // have been lost.
                    let ack = sim.spawn(p.dst, p.src, s);
                    debug_assert_eq!(ack.index(), st.meta.len());
                    st.meta.push(PacketMeta::Ack(y));
                    st.acks_sent += 1;
                }
                PacketMeta::Ack(y) => {
                    let p = &mut st.payloads[y.index()];
                    if p.state == PayloadState::Acked {
                        st.duplicate_acks += 1;
                    } else {
                        debug_assert_eq!(p.state, PayloadState::InFlight);
                        p.state = PayloadState::Acked;
                        p.next_retry = u64::MAX;
                        st.outstanding -= 1;
                        st.acked += 1;
                    }
                }
            }
        }
        // Losses: nothing to do — timers recover both directions — but the
        // split is worth measuring.
        for &pid in &events.lost {
            match st.meta[pid.index()] {
                PacketMeta::Data(_) => st.data_lost += 1,
                PacketMeta::Ack(_) => st.acks_lost += 1,
            }
        }
        // 4. Retransmit expired timers, in payload order (determinism: the
        // spawn order and the RNG draw order are both fixed by it).
        for yi in 0..st.payloads.len() {
            let p = st.payloads[yi];
            if p.state != PayloadState::InFlight || p.next_retry > s {
                continue;
            }
            let pid: PacketId = sim.spawn(p.src, p.dst, s);
            debug_assert_eq!(pid.index(), st.meta.len());
            st.meta.push(PacketMeta::Data(PayloadId(yi as u32)));
            st.retransmits += 1;
            let p = &mut st.payloads[yi];
            p.attempts += 1;
            let d = st.policy.delay(p.attempts - 1, &mut st.rng.0);
            p.next_retry = s + d;
        }
        if st.acked == st.payloads.len() {
            ProtocolControl::Done
        } else {
            ProtocolControl::Continue {
                outstanding: st.outstanding,
            }
        }
    }
}

/// End-to-end measurements of one reliable run, alongside the network-level
/// [`SimReport`](mesh_engine::SimReport).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransportReport {
    /// Payloads in the problem.
    pub payloads: usize,
    /// Distinct payloads delivered to the application.
    pub delivered: usize,
    /// Payloads acknowledged end-to-end.
    pub acked: usize,
    /// Every payload delivered to the application exactly once.
    pub exactly_once: bool,
    /// Data packets spawned beyond the originals.
    pub retransmits: u64,
    /// Data arrivals suppressed by the destination seen-sets.
    pub duplicate_deliveries: u64,
    /// ACK arrivals for already-settled payloads.
    pub duplicate_acks: u64,
    /// ACK packets spawned.
    pub acks_sent: u64,
    /// Data packets destroyed by lossy links.
    pub data_lost: u64,
    /// ACK packets destroyed by lossy links.
    pub acks_lost: u64,
    /// Steps the run took.
    pub steps: u64,
    /// Distinct payloads delivered per step.
    pub goodput: f64,
    /// First-delivery latency (delivery step − release step) over delivered
    /// payloads.
    pub latency: Distribution,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_engine::faults::FaultPlan;
    use mesh_engine::{Dx, SimConfig};
    use mesh_routers::Theorem15;
    use mesh_topo::{Dir, Mesh};

    fn sim_config(watchdog: u64) -> SimConfig {
        SimConfig {
            watchdog: Some(watchdog),
            ..SimConfig::default()
        }
    }

    #[test]
    fn fault_free_run_acks_everything_without_retransmits() {
        let n = 4;
        let topo = Mesh::new(n);
        let pb = RoutingProblem::from_pairs(
            n,
            "pairs",
            [
                (Coord::new(0, 0), Coord::new(3, 3)),
                (Coord::new(3, 0), Coord::new(0, 3)),
                (Coord::new(2, 2), Coord::new(2, 2)), // trivial
            ],
        );
        let mut sim = Sim::new(&topo, Dx::new(Theorem15::new(2)), &pb);
        let mut tp = Transport::new(&pb, BackoffPolicy::fixed(64), 7);
        let steps = sim.run_with_protocol(10_000, &mut tp).unwrap();
        assert!(tp.exactly_once());
        assert_eq!(tp.acked(), 3);
        assert_eq!(tp.outstanding(), 0);
        let rep = tp.report(steps);
        assert_eq!(rep.retransmits, 0, "no faults, no timeouts");
        assert_eq!(rep.duplicate_deliveries, 0);
        assert_eq!(rep.acks_sent, 3);
        assert!(rep.exactly_once);
        assert!(rep.goodput > 0.0);
        // The trivial payload has zero latency; the others took real steps.
        assert_eq!(rep.latency.min, 0);
        assert!(rep.latency.max >= 6);
    }

    #[test]
    fn transient_lossy_link_is_recovered_by_retransmission() {
        let n = 4;
        let topo = Mesh::new(n);
        let pb = RoutingProblem::from_pairs(n, "one", [(Coord::new(0, 0), Coord::new(3, 0))]);
        // The packet's first crossing of (1,0)→E is eaten; the loss window
        // closes before the retransmission (timeout 8) reaches it.
        let faults = FaultPlan::none(n)
            .lossy(Coord::new(1, 0), Dir::East, 0, Some(6))
            .compile();
        let mut sim = Sim::with_faults(
            &topo,
            Dx::new(Theorem15::new(2)),
            &pb,
            sim_config(128),
            faults,
        );
        let mut tp = Transport::new(&pb, BackoffPolicy::fixed(8), 1);
        let steps = sim.run_with_protocol(10_000, &mut tp).unwrap();
        let rep = tp.report(steps);
        assert!(rep.exactly_once, "{rep:?}");
        assert!(rep.retransmits >= 1, "{rep:?}");
        assert!(rep.data_lost >= 1, "{rep:?}");
        assert_eq!(rep.duplicate_deliveries, 0);
    }

    #[test]
    fn lost_ack_triggers_duplicate_then_suppression_and_reack() {
        let n = 4;
        let topo = Mesh::new(n);
        let pb = RoutingProblem::from_pairs(n, "one", [(Coord::new(0, 0), Coord::new(3, 0))]);
        // Data flows east unharmed; the ACK (westbound over the same cable
        // row) is eaten for a while, forcing a data retransmission whose
        // duplicate delivery re-acks.
        let faults = FaultPlan::none(n)
            .lossy(Coord::new(2, 0), Dir::West, 0, Some(12))
            .lossy(Coord::new(3, 0), Dir::West, 0, Some(12))
            .compile();
        let mut sim = Sim::with_faults(
            &topo,
            Dx::new(Theorem15::new(2)),
            &pb,
            sim_config(128),
            faults,
        );
        let mut tp = Transport::new(&pb, BackoffPolicy::exponential(6, 24, 2), 3);
        let steps = sim.run_with_protocol(10_000, &mut tp).unwrap();
        let rep = tp.report(steps);
        assert!(rep.exactly_once, "{rep:?}");
        assert_eq!(rep.delivered, 1);
        assert!(rep.acks_lost >= 1, "{rep:?}");
        assert!(
            rep.duplicate_deliveries >= 1,
            "duplicate suppressed: {rep:?}"
        );
        assert!(rep.acks_sent >= 2, "re-ack on duplicate: {rep:?}");
        assert_eq!(rep.acked, 1);
        assert!(rep.duplicate_acks + rep.acks_lost >= rep.acks_sent - 1);
    }

    #[test]
    fn permanently_lossy_path_is_flagged_as_livelock_not_masked() {
        let n = 4;
        let topo = Mesh::new(n);
        let pb = RoutingProblem::from_pairs(n, "one", [(Coord::new(0, 0), Coord::new(1, 0))]);
        // The only profitable link out of the source is permanently lossy:
        // retransmission can generate activity forever but never a delivery.
        // The protocol-aware watchdog must call it a livelock.
        let faults = FaultPlan::none(n)
            .lossy(Coord::new(0, 0), Dir::East, 0, None)
            .compile();
        let mut sim = Sim::with_faults(
            &topo,
            Dx::new(Theorem15::new(2)),
            &pb,
            sim_config(64),
            faults,
        );
        let mut tp = Transport::new(&pb, BackoffPolicy::fixed(4), 11);
        let err = sim.run_with_protocol(100_000, &mut tp).unwrap_err();
        assert!(
            matches!(err, mesh_engine::SimError::Livelock(_)),
            "got {err}"
        );
        assert!(!tp.exactly_once());
        assert!(tp.report(sim.steps()).data_lost >= 2);
    }

    #[test]
    fn runs_are_bit_deterministic_for_equal_seeds() {
        let n = 8;
        let topo = Mesh::new(n);
        let pb = mesh_traffic::workloads::dynamic_bernoulli(n, 0.02, 32, 1234);
        let faults = FaultPlan::random_outages(n, 0.08, 256, 99).compile();
        let run = |seed: u64| {
            let mut sim = Sim::with_faults(
                &topo,
                Dx::new(Theorem15::new(2)),
                &pb,
                sim_config(512),
                faults.clone(),
            );
            let mut tp = Transport::new(&pb, BackoffPolicy::exponential(16, 128, 8), seed);
            let res = sim
                .run_with_protocol(100_000, &mut tp)
                .map_err(|e| e.kind());
            (res, serde_json::to_string(&tp.report(sim.steps())).unwrap())
        };
        let (ra, ja) = run(5);
        let (rb, jb) = run(5);
        assert_eq!(ra, rb);
        assert_eq!(ja, jb, "identical seeds give byte-identical reports");
        let (_, jc) = run(6);
        // A different jitter seed may legitimately coincide on quiet runs,
        // but the machinery must at least produce a valid report.
        assert!(!jc.is_empty());
    }

    #[test]
    fn seq_numbers_are_per_source() {
        let n = 4;
        let pb = RoutingProblem::from_pairs(
            n,
            "multi",
            [
                (Coord::new(0, 0), Coord::new(3, 3)),
                (Coord::new(1, 0), Coord::new(3, 0)),
                (Coord::new(0, 0), Coord::new(2, 2)),
            ],
        );
        let tp = Transport::new(&pb, BackoffPolicy::fixed(8), 0);
        assert_eq!(
            (tp.state.payloads[0].src_idx, tp.state.payloads[0].seq),
            (0, 0)
        );
        assert_eq!(
            (tp.state.payloads[1].src_idx, tp.state.payloads[1].seq),
            (1, 0)
        );
        assert_eq!(
            (tp.state.payloads[2].src_idx, tp.state.payloads[2].seq),
            (0, 1),
            "second payload from (0,0) gets the next sequence number"
        );
    }
}
