//! What the host did to a run: resident memory of this process, and the
//! steal time and involuntary context switches that explain a slow run.
//! Everything is read from `/proc`, so the package needs no libc binding.

use std::fs;

fn status_field(field: &str) -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn kb_to_mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    kb_to_mb(status_field("VmHWM").unwrap_or(0))
}

/// Current resident set size of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    kb_to_mb(status_field("VmRSS").unwrap_or(0))
}

/// Cumulative host counters; subtract two readings to describe an interval.
#[derive(Clone, Copy)]
pub struct HostSample {
    /// Jiffies all CPUs spent in any state, and the stolen part of them.
    total_jiffies: u64,
    steal_jiffies: u64,
    invol_ctx_switches: u64,
}

impl HostSample {
    pub fn now() -> HostSample {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostSample {
            total_jiffies: fields.iter().take(8).sum(),
            steal_jiffies: fields.get(7).copied().unwrap_or(0),
            invol_ctx_switches: status_field("nonvoluntary_ctxt_switches").unwrap_or(0),
        }
    }
}

/// Diagnostics of the timed regions of one run. They are printed beside
/// the metrics, never gated.
#[derive(Clone, Copy, Default)]
pub struct HostDelta {
    total_jiffies: u64,
    steal_jiffies: u64,
    pub invol_ctx_switches: u64,
}

impl HostDelta {
    pub fn add(&mut self, from: HostSample, to: HostSample) {
        self.total_jiffies += to.total_jiffies.saturating_sub(from.total_jiffies);
        self.steal_jiffies += to.steal_jiffies.saturating_sub(from.steal_jiffies);
        self.invol_ctx_switches += to
            .invol_ctx_switches
            .saturating_sub(from.invol_ctx_switches);
    }

    /// Share of all CPU time the hypervisor gave to someone else.
    pub fn steal_frac(&self) -> f64 {
        if self.total_jiffies == 0 {
            0.0
        } else {
            self.steal_jiffies as f64 / self.total_jiffies as f64
        }
    }
}
