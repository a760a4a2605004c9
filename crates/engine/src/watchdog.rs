//! The no-progress watchdog: one rule set, three arming modes.
//!
//! Every run driver observes steps through [`Timers`] and asks
//! [`check`] after each one. What differs between drivers is only *when*
//! the watchdog may speak — captured by [`WatchdogMode`]:
//!
//! - [`Standard`](WatchdogMode::Standard) (plain/hook runs): armed once
//!   the injection cursor is exhausted; a quiet window is a deadlock, a
//!   delivery-free window with activity is a livelock.
//! - [`DeliveryStarvation`](WatchdogMode::DeliveryStarvation) (protocol
//!   runs with payloads outstanding): retransmissions generate activity
//!   forever, so only delivery starvation counts — as a livelock.
//! - [`ActivityStarvation`](WatchdogMode::ActivityStarvation) (protocol
//!   runs with nothing outstanding): armed once every injection —
//!   including admission-deferred ones — is in; a quiet window is a
//!   deadlock.
//! - [`Overload`](WatchdogMode::Overload) (open-system steady-state
//!   runs): always armed — arrivals never stop, so waiting for cursor
//!   exhaustion would disarm it forever. A quiet window is a deadlock; a
//!   window with activity but no *resolution* (delivery, shed, or
//!   expiry) is a livelock. Saturation with shedding never trips it.
//!
//! All modes measure windows from `max(timer, settle)` where `settle` is
//! the last *transient* fault transition: the watchdog never declares a
//! wedge while an external change could still unblock the network.

use crate::router::Router;
use crate::sim::{Sim, SimError};
use mesh_topo::Topology;

/// Last-progress stamps (1-based step numbers; 0 = never).
/// Serializable as a block: the snapshot subsystem persists it verbatim.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub(crate) struct Timers {
    /// Last step with any activity: an accepted move, an injection, or a
    /// delivery.
    pub(crate) last_activity: u64,
    /// Last step that delivered a packet.
    pub(crate) last_delivery: u64,
    /// Last step that *resolved* a packet — delivered, shed, or expired
    /// it. The overload watchdog's notion of staying live: a saturated
    /// open system that keeps shedding is making progress, not
    /// livelocked.
    pub(crate) last_resolution: u64,
}

impl Timers {
    /// Records the just-finished step `step`.
    pub(crate) fn note(&mut self, step: u64, activity: bool, delivery: bool, resolution: bool) {
        if activity {
            self.last_activity = step;
        }
        if delivery {
            self.last_delivery = step;
        }
        if resolution {
            self.last_resolution = step;
        }
    }
}

/// When the watchdog is allowed to declare a wedge (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WatchdogMode {
    Standard,
    DeliveryStarvation,
    ActivityStarvation,
    /// Open-system steady-state runs: arrivals never stop, so the cursor
    /// gate of `Standard` would keep the watchdog disarmed forever.
    /// Instead, a quiet window is still a deadlock, and a window in which
    /// nothing was *resolved* (no delivery, shed, or expiry) despite
    /// activity is a livelock — "saturated but shedding" counts as
    /// making progress and never trips.
    Overload,
}

/// Applies the configured watchdog (if any) after a step, under `mode`.
pub(crate) fn check<T: Topology, R: Router>(
    sim: &Sim<'_, T, R>,
    mode: WatchdogMode,
    settle: u64,
) -> Result<(), SimError> {
    let Some(w) = sim.config.watchdog else {
        return Ok(());
    };
    let (steps, timers) = (sim.steps(), &sim.timers);
    // A full window since the stamp, or since the last transient fault
    // transition if that is later.
    let quiet = |last: u64| steps.saturating_sub(last.max(settle)) >= w;
    let (no_activity, no_delivery) = (quiet(timers.last_activity), quiet(timers.last_delivery));
    let (deadlock, livelock) = match mode {
        WatchdogMode::Standard if !sim.store.cursor_exhausted() => (false, false),
        WatchdogMode::Standard => (no_activity, no_delivery),
        WatchdogMode::DeliveryStarvation => (false, no_delivery),
        WatchdogMode::ActivityStarvation => (sim.injections_exhausted() && no_activity, false),
        WatchdogMode::Overload => (no_activity, quiet(timers.last_resolution)),
    };
    if deadlock {
        Err(SimError::Deadlock(Box::new(sim.diagnostics())))
    } else if livelock {
        Err(SimError::Livelock(Box::new(sim.diagnostics())))
    } else {
        Ok(())
    }
}
