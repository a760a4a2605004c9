//! The single run driver behind every `Sim::run*` entry point.
//!
//! [`run_driver`] owns the loop shape every run shares — step-cap check,
//! execute one step, let the observer judge it, consult the watchdog —
//! and a [`RunObserver`] supplies the parts that differ: which hook the
//! step runs under, whether a pre-loop action applies (the protocol's
//! synthetic step-0 batch), and what verdict each step earns. There is one
//! observer per run flavor (hook, protocol, steady); checkpointing is not a
//! flavor but the `survived` argument of the driver, supplied once by
//! [`run_checkpointed`].

use crate::hook::StepHook;
use crate::protocol::{ProtocolControl, ProtocolHook, StepEvents};
use crate::router::Router;
use crate::sim::{Sim, SimError};
use crate::snapshot::{self, CheckpointSink, SteadySnap};
use crate::watchdog::{self, WatchdogMode};
use mesh_topo::Topology;
use serde_json::RawValue;

/// The observer's judgement of one executed step.
pub(crate) enum Verdict {
    /// The run is complete: return `Ok(steps)`.
    Finished,
    /// The run can never complete (protocol wedge): return `Deadlock` now.
    Wedged,
    /// Keep going; let the watchdog check under the given mode.
    Watch(WatchdogMode),
}

/// What a particular run flavor plugs into [`run_driver`].
pub(crate) trait RunObserver<T: Topology, R: Router> {
    /// Pre-loop action; returning `Some(steps)` finishes the run with
    /// `Ok(steps)` before any step executes.
    fn begin(&mut self, _sim: &mut Sim<'_, T, R>) -> Option<u64> {
        None
    }

    /// Executes one step (under whatever hook this flavor wires in);
    /// returns the step's "all delivered" flag.
    fn step(&mut self, sim: &mut Sim<'_, T, R>) -> bool;

    /// Judges the just-executed step. `packets_before` is the packet count
    /// sampled before the step (protocol hooks may have spawned since).
    fn observe(&mut self, sim: &mut Sim<'_, T, R>, done: bool, packets_before: usize) -> Verdict;
}

/// Runs `sim` to completion, the step cap, or a watchdog/wedge verdict.
///
/// `survived` is called after every step that fully survived — `Watch`
/// verdict and a quiet watchdog — and never otherwise: the state it sees
/// is one the run is provably continuing from. That is the checkpointing
/// seam. A terminal step (finished, wedged, or watchdog-tripped) must never
/// become a checkpoint — the driver can only judge *after* stepping, so a
/// resumed terminal state would take one spurious extra step. Plain runs
/// pass an empty closure, which monomorphises away.
pub(crate) fn run_driver<T: Topology, R: Router, O: RunObserver<T, R>>(
    sim: &mut Sim<'_, T, R>,
    max_steps: u64,
    obs: &mut O,
    mut survived: impl FnMut(&Sim<'_, T, R>, &O),
) -> Result<u64, SimError> {
    // The watchdog only arms once nothing external can still change the
    // picture: all injections done and every transient fault lifted
    // (permanent faults never lift, so they do not hold it off).
    let settle = sim.fault_settle();
    if let Some(steps) = obs.begin(sim) {
        return Ok(steps);
    }
    loop {
        if sim.steps() >= max_steps {
            return if sim.done() {
                Ok(sim.steps())
            } else {
                Err(SimError::StepCap(Box::new(sim.diagnostics())))
            };
        }
        let packets_before = sim.num_packets();
        let done = obs.step(sim);
        match obs.observe(sim, done, packets_before) {
            Verdict::Finished => return Ok(sim.steps()),
            Verdict::Wedged => return Err(SimError::Deadlock(Box::new(sim.diagnostics()))),
            Verdict::Watch(mode) => {
                watchdog::check(sim, mode, settle)?;
                survived(sim, obs);
            }
        }
    }
}

/// [`run_driver`] with crash-safe checkpointing, for any flavor: every
/// surviving step is offered to [`snapshot::maybe_checkpoint`] (which
/// applies the cadence), and a failed run is reported to the sink. `slots`
/// reads the flavor's contribution to a snapshot — the steady environment
/// block and the opaque protocol state — off the observer, and is only
/// evaluated when a checkpoint is actually taken, at a consistent
/// boundary: the observer has consumed the step's events and judged the
/// run still in flight.
pub(crate) fn run_checkpointed<T, R, O, S>(
    sim: &mut Sim<'_, T, R>,
    max_steps: u64,
    obs: &mut O,
    sink: &mut S,
    slots: impl Fn(&O) -> (Option<SteadySnap>, Option<RawValue>),
) -> Result<u64, SimError>
where
    T: Topology,
    R: Router,
    R::NodeState: serde::Serialize,
    O: RunObserver<T, R>,
    S: CheckpointSink,
{
    let res = run_driver(sim, max_steps, obs, |sim, obs| {
        snapshot::maybe_checkpoint(sim, sink, || slots(obs))
    });
    if let Err(e) = &res {
        sink.on_failure(e.snapshot().step, e.snapshot());
    }
    res
}

/// Plain and adversary runs: step under a [`StepHook`], standard watchdog.
pub(crate) struct HookRunner<'h, H> {
    pub(crate) hook: &'h mut H,
}

impl<T: Topology, R: Router, H: StepHook> RunObserver<T, R> for HookRunner<'_, H> {
    fn step(&mut self, sim: &mut Sim<'_, T, R>) -> bool {
        sim.step_with_hook(self.hook)
    }

    fn observe(&mut self, _sim: &mut Sim<'_, T, R>, done: bool, _packets_before: usize) -> Verdict {
        if done {
            Verdict::Finished
        } else {
            Verdict::Watch(WatchdogMode::Standard)
        }
    }
}

/// Protocol runs: feed every step's delivery/loss events to a
/// [`ProtocolHook`], which may spawn ACKs/retransmissions and decides
/// when the run is finished; the watchdog arms protocol-aware.
pub(crate) struct ProtocolRunner<'p, P> {
    pub(crate) proto: &'p mut P,
}

impl<T: Topology, R: Router, P: ProtocolHook> RunObserver<T, R> for ProtocolRunner<'_, P> {
    /// Trivial (src == dst) packets due at step 0 were delivered during
    /// construction, before any step could report them; surface them to
    /// the protocol as a synthetic step-0 batch so their payloads get
    /// acknowledged like any other. Self-skipping on a restored run
    /// (`steps() > 0`): the batch was already presented before the
    /// checkpoint was taken.
    fn begin(&mut self, sim: &mut Sim<'_, T, R>) -> Option<u64> {
        if sim.steps() == 0 && !sim.events.delivered.is_empty() {
            let events = StepEvents {
                step: 0,
                delivered: std::mem::take(&mut sim.events.delivered),
                lost: Vec::new(),
            };
            let ctl = self.proto.on_step(sim, &events);
            sim.events.delivered = events.delivered;
            sim.events.delivered.clear();
            if ctl == ProtocolControl::Done {
                return Some(0);
            }
        }
        None
    }

    fn step(&mut self, sim: &mut Sim<'_, T, R>) -> bool {
        sim.step()
    }

    /// Feeds the step's events to the hook, recycles the (emptied)
    /// buffers, and maps its control decision.
    fn observe(&mut self, sim: &mut Sim<'_, T, R>, done: bool, packets_before: usize) -> Verdict {
        let events = StepEvents {
            step: sim.steps(),
            delivered: std::mem::take(&mut sim.events.delivered),
            lost: std::mem::take(&mut sim.events.lost),
        };
        let ctl = self.proto.on_step(sim, &events);
        // Recycle the event buffers, emptied: a later early-returning
        // step must not re-present stale events.
        sim.events.delivered = events.delivered;
        sim.events.delivered.clear();
        sim.events.lost = events.lost;
        sim.events.lost.clear();
        match ctl {
            ProtocolControl::Done => Verdict::Finished,
            ProtocolControl::Continue { outstanding } => {
                if done && sim.num_packets() == packets_before {
                    // Network empty and the protocol spawned nothing.
                    // With work outstanding that is a protocol wedge
                    // (nothing in flight can ever ack it); without, the
                    // run is simply complete.
                    if outstanding == 0 {
                        Verdict::Finished
                    } else {
                        Verdict::Wedged
                    }
                } else if outstanding > 0 {
                    Verdict::Watch(WatchdogMode::DeliveryStarvation)
                } else {
                    Verdict::Watch(WatchdogMode::ActivityStarvation)
                }
            }
        }
    }
}
