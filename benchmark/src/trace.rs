//! Outside-in tracing: spans recorded by the harness around calls into a
//! layer's public functions. Nothing inside `crates/` is instrumented.
//! Spans stay in memory and are written out once, when the traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one traced workload run. A span's id is its index; the span
/// that was open when it started is its parent.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span, and returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// A span around one call that opens no spans of its own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        let secs = self.exit(id);
        (out, secs)
    }

    /// Self time of every span: its duration minus the part its children
    /// cover. Spans nest, so the self times add up to the root's duration.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Self time summed by span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut by_name: Vec<(&'static str, u64, usize)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => by_name.push((span.name, own, 1)),
            }
        }
        by_name.sort_by_key(|&(_, own, _)| std::cmp::Reverse(own));
        by_name
    }

    /// Writes `{workload, traced_wall_ns, spans: [{id, parent, workload,
    /// name, start_ns, end_ns}]}`.
    pub fn write(&self, path: &Path, workload: &str, traced_wall_ns: u64) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "a span is still open");
        let mut text = String::with_capacity(96 * self.spans.len() + 128);
        let _ = writeln!(
            text,
            "{{\"workload\": \"{workload}\", \"traced_wall_ns\": {traced_wall_ns}, \"spans\": ["
        );
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"parent\": {parent}, \"workload\": \"{workload}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                span.name, span.start_ns, span.end_ns
            );
        }
        text.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
