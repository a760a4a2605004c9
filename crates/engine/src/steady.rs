//! The open-system steady-state driver: windowed measurement of a
//! simulation under continuous injection (ROADMAP item 3, the overload
//! robustness layer).
//!
//! Closed-system runs (`run`, `run_with_hook`) terminate when every
//! packet is delivered; an open system never drains, so
//! [`Sim::run_steady`] terminates by *measurement schedule* instead: a
//! warmup of `warmup` steps (transients discarded), then `windows`
//! measurement windows of `window` steps each. Every window produces a
//! [`WindowFrame`] — offered/delivered/shed/expired/lost deltas, goodput,
//! and the p50/p99/p99.9 latency distribution of the deliveries that
//! completed inside it — and the run returns a [`SteadyReport`] pooling
//! the per-window frames.
//!
//! The driver plugs into the same `RunObserver` seam as every other run
//! flavor and arms the watchdog in `WatchdogMode::Overload`: arrivals
//! never stop, so the standard cursor-exhaustion gate would disarm it
//! forever, and a saturated run that keeps shedding counts as live.
//!
//! Checkpoint/resume composes exactly as for protocol runs: the
//! observer's measurement state (finished frames, the current window's
//! latency samples, counter bases) rides the snapshot's opaque `protocol`
//! slot, so a run killed mid-soak and resumed from its last checkpoint
//! reproduces the remaining frames — and the final report — byte for
//! byte.

use crate::driver::{run_checkpointed, run_driver, RunObserver, Verdict};
use crate::hook::NoHook;
use crate::router::Router;
use crate::sim::{Sim, SimError};
use crate::snapshot::{CheckpointSink, SteadySnap};
use crate::stats::Distribution;
use crate::watchdog::WatchdogMode;
use mesh_topo::Topology;
use serde::{Deserialize, Serialize, Value};

/// Measurement schedule of a steady-state run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SteadyConfig {
    /// Steps to run before measurement starts (transients discarded).
    pub warmup: u64,
    /// Steps per measurement window.
    pub window: u64,
    /// Number of measurement windows; the run ends after
    /// `warmup + windows * window` steps.
    pub windows: u32,
}

impl Default for SteadyConfig {
    fn default() -> Self {
        SteadyConfig {
            warmup: 128,
            window: 64,
            windows: 4,
        }
    }
}

impl SteadyConfig {
    /// Total steps the schedule runs: `warmup + windows * window`.
    pub fn horizon(&self) -> u64 {
        self.warmup + self.windows as u64 * self.window
    }
}

/// One measurement window's worth of steady-state observations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WindowFrame {
    /// 0-based window index.
    pub index: u32,
    /// First step of the window (1-based, inclusive).
    pub start_step: u64,
    /// Last step of the window (inclusive; short on an early finish).
    pub end_step: u64,
    /// Packets whose injection time arrived during the window.
    pub offered: u64,
    /// Packets delivered during the window.
    pub delivered: u64,
    /// Packets shed by admission control during the window.
    pub shed: u64,
    /// Packets whose deadline expired (edge or in-network) during the
    /// window.
    pub expired: u64,
    /// Packets destroyed by lossy links during the window.
    pub lost: u64,
    /// Deliveries per step over the window.
    pub goodput: f64,
    /// Latency distribution (p50/p90/p99/p99.9) of the deliveries that
    /// completed inside the window.
    pub latency: Distribution,
    /// Number of latency samples behind the window's percentiles. Nearest-
    /// rank percentiles whose rank exceeds the sample count clamp to the
    /// max (a p999 from fewer than 1000 samples is really the window max),
    /// so consumers must treat sub-percentile windows as low-confidence.
    pub samples: usize,
}

/// The outcome of a steady-state run: per-window frames plus the pooled
/// latency distribution over every measurement window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SteadyReport {
    pub frames: Vec<WindowFrame>,
    /// Latency distribution pooled over all measurement windows.
    pub latency: Distribution,
}

impl SteadyReport {
    /// Mean goodput (deliveries per step) over the measurement windows.
    pub fn goodput(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(|f| f.goodput).sum::<f64>() / self.frames.len() as f64
    }
}

/// Monotone counters sampled at a window boundary, for delta framing.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct CounterBase {
    offered: u64,
    delivered: u64,
    shed: u64,
    expired: u64,
    lost: u64,
}

impl CounterBase {
    fn sample<T: Topology, R: Router>(sim: &Sim<'_, T, R>) -> CounterBase {
        CounterBase {
            offered: sim.offered() as u64,
            delivered: sim.delivered() as u64,
            shed: sim.shed() as u64,
            expired: sim.expired() as u64,
            lost: sim.lost() as u64,
        }
    }
}

/// The serializable measurement state: everything the observer has
/// accumulated, so a checkpoint mid-soak resumes the remaining windows
/// byte-identically. Rides the snapshot's opaque `protocol` slot.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct SteadyState {
    frames: Vec<WindowFrame>,
    /// Latencies collected so far in the (unfinished) current window.
    cur_lat: Vec<u64>,
    /// Latencies pooled over the finished windows.
    pooled: Vec<u64>,
    base: Option<CounterBase>,
}

/// The steady-state [`RunObserver`]: collects per-delivery latencies,
/// closes a [`WindowFrame`] at every boundary, and finishes when the
/// schedule is complete (or the sim drains entirely — possible far below
/// saturation).
struct SteadyObserver {
    cfg: SteadyConfig,
    st: SteadyState,
}

impl SteadyObserver {
    fn new(cfg: SteadyConfig, state: Option<&Value>) -> Result<SteadyObserver, serde::Error> {
        let st = match state {
            Some(v) => SteadyState::deserialize(v)?,
            None => SteadyState::default(),
        };
        Ok(SteadyObserver { cfg, st })
    }

    /// Closes the current window as frame `index` ending at `end_step`.
    fn close_window<T: Topology, R: Router>(&mut self, sim: &Sim<'_, T, R>, end_step: u64) {
        let index = self.st.frames.len() as u32;
        let start_step = self.cfg.warmup + index as u64 * self.cfg.window + 1;
        let base = self
            .st
            .base
            .expect("measurement window closed without a counter base");
        let now = CounterBase::sample(sim);
        let span = end_step.saturating_sub(start_step - 1).max(1);
        let lat = std::mem::take(&mut self.st.cur_lat);
        self.st.frames.push(WindowFrame {
            index,
            start_step,
            end_step,
            offered: now.offered - base.offered,
            delivered: now.delivered - base.delivered,
            shed: now.shed - base.shed,
            expired: now.expired - base.expired,
            lost: now.lost - base.lost,
            goodput: (now.delivered - base.delivered) as f64 / span as f64,
            latency: Distribution::of(&lat),
            samples: lat.len(),
        });
        self.st.pooled.extend(lat);
        self.st.base = Some(now);
    }

    fn into_report(self) -> SteadyReport {
        SteadyReport {
            latency: Distribution::of(&self.st.pooled),
            frames: self.st.frames,
        }
    }
}

impl<T: Topology, R: Router> RunObserver<T, R> for SteadyObserver {
    /// A fresh observer on a sim already at or past the warmup boundary
    /// (warmup 0, or a resume whose checkpoint landed exactly on it before
    /// the base was recorded) needs its counter base.
    fn begin(&mut self, sim: &mut Sim<'_, T, R>) -> Option<u64> {
        if sim.steps() >= self.cfg.warmup && self.st.base.is_none() {
            self.st.base = Some(CounterBase::sample(sim));
        }
        None
    }

    fn step(&mut self, sim: &mut Sim<'_, T, R>) -> bool {
        sim.step_with_hook(&mut NoHook)
    }

    fn observe(&mut self, sim: &mut Sim<'_, T, R>, done: bool, _packets_before: usize) -> Verdict {
        let s = sim.steps();
        if s <= self.cfg.warmup {
            if s == self.cfg.warmup {
                self.st.base = Some(CounterBase::sample(sim));
            }
            // A sub-saturation run can drain entirely during warmup; the
            // schedule still defines the report (zero-delivery windows).
            if done {
                while self.st.frames.len() < self.cfg.windows as usize {
                    if self.st.base.is_none() {
                        self.st.base = Some(CounterBase::sample(sim));
                    }
                    let end = self.cfg.warmup + (self.st.frames.len() as u64 + 1) * self.cfg.window;
                    self.close_window(sim, end);
                }
                return Verdict::Finished;
            }
            return Verdict::Watch(WatchdogMode::Overload);
        }
        for &pid in sim.last_step_deliveries() {
            let d = sim.delivered_step(pid).unwrap_or(s);
            self.st.cur_lat.push(d.saturating_sub(sim.inject_step(pid)));
        }
        let in_measurement = s - self.cfg.warmup;
        if in_measurement.is_multiple_of(self.cfg.window) {
            self.close_window(sim, s);
            if self.st.frames.len() >= self.cfg.windows as usize {
                return Verdict::Finished;
            }
        } else if done {
            // Drained before the schedule completed: close the partial
            // window early so its deliveries are not lost.
            self.close_window(sim, s);
            return Verdict::Finished;
        }
        Verdict::Watch(WatchdogMode::Overload)
    }
}

impl<'t, T: Topology, R: Router> Sim<'t, T, R> {
    /// Runs the open-system steady-state schedule: `cfg.warmup` steps of
    /// discarded transients, then `cfg.windows` measurement windows of
    /// `cfg.window` steps, each yielding a [`WindowFrame`]. The watchdog
    /// (when [`SimConfig::watchdog`](crate::SimConfig::watchdog) is set)
    /// runs in overload mode: saturation with shedding never trips it,
    /// a window with no delivery/shed/expiry at all does.
    pub fn run_steady(&mut self, cfg: SteadyConfig) -> Result<SteadyReport, SimError> {
        assert!(cfg.window >= 1 && cfg.windows >= 1, "empty steady schedule");
        let mut obs = SteadyObserver::new(cfg, None).expect("fresh state is infallible");
        run_driver(self, cfg.horizon(), &mut obs, |_, _| {})?;
        Ok(obs.into_report())
    }

    /// [`Sim::run_steady`] with crash-safe checkpointing (and resume).
    ///
    /// `lambda` is the offered-load label of the open workload; together
    /// with `cfg` it is stamped into every checkpoint's `steady` block,
    /// so `--resume-from` needs no re-passed schedule flags.
    ///
    /// `state` is `None` for a fresh run, or the `protocol` slot of the
    /// snapshot this sim was [restored](Sim::restore) from — the
    /// observer's windowed measurement state rides there, so a run killed
    /// mid-soak and resumed from its last checkpoint produces frames and
    /// a final report byte-identical to one that never stopped.
    ///
    /// `halt_at` simulates a crash: the run stops at that step (if it is
    /// before the schedule's horizon) with [`SimError::StepCap`], leaving
    /// the sink's checkpoints behind to resume from. `None` runs the full
    /// schedule.
    pub fn run_steady_checkpointed<S: CheckpointSink>(
        &mut self,
        cfg: SteadyConfig,
        lambda: f64,
        state: Option<&Value>,
        sink: &mut S,
        halt_at: Option<u64>,
    ) -> Result<SteadyReport, SimError>
    where
        R::NodeState: Serialize,
    {
        assert!(cfg.window >= 1 && cfg.windows >= 1, "empty steady schedule");
        let mut obs = SteadyObserver::new(cfg, state)
            .expect("malformed steady-state resume state in the snapshot's protocol slot");
        let cap = halt_at.map_or(cfg.horizon(), |h| h.min(cfg.horizon()));
        // The environment block is stamped into every checkpoint so a
        // resume needs nothing beyond the snapshot itself; the measurement
        // state rides its `protocol` slot.
        let env = SteadySnap {
            lambda,
            config: cfg,
        };
        run_checkpointed(self, cap, &mut obs, sink, |o| {
            (Some(env), Some(o.st.serialize()))
        })?;
        Ok(obs.into_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(samples: usize) -> WindowFrame {
        let lat: Vec<u64> = (1..=samples as u64).collect();
        WindowFrame {
            index: 0,
            start_step: 1,
            end_step: 64,
            offered: samples as u64,
            delivered: samples as u64,
            shed: 0,
            expired: 0,
            lost: 0,
            goodput: samples as f64 / 64.0,
            latency: Distribution::of(&lat),
            samples,
        }
    }

    #[test]
    fn window_frame_samples_matches_latency_count() {
        // A 40-delivery window: p99/p999 clamp to the max, and `samples`
        // is the field that flags it.
        let f = frame(40);
        assert_eq!(f.samples, 40);
        assert_eq!(f.samples, f.latency.count);
        assert_eq!(f.latency.p99, f.latency.max);
        assert_eq!(f.latency.p999, f.latency.max);
    }

    #[test]
    fn window_frame_roundtrips() {
        let f = frame(7);
        let back = WindowFrame::deserialize(&f.serialize()).expect("roundtrip");
        assert_eq!(back.samples, 7);
        assert_eq!(back.latency, f.latency);
    }
}
