//! Paired interleaved comparison of two builds of the repository benchmark:
//! the procedure of `benchmark/README.md` §Noise, which is how a speed claim
//! is made on a host whose wall-clock drifts by a quarter between windows.
//!
//! The `pair` binary runs two benchmark binaries in ABBA order, one
//! workload and seed at a time, and hands each run's standard output to
//! [`parse_run`]. [`compare`] then reduces the pairs to one [`Row`] per
//! metric, and [`counted_mismatches`] names every counted metric that did
//! not repeat. Nothing here reads or writes the benchmark's files: it only
//! reads what the binaries print.

use serde::{Deserialize, Serialize, Sink, Source};

/// The simulated counters: for one seed they may not differ between any two
/// runs, of either binary.
pub const SIMULATED: [&str; 5] = [
    "sim_steps",
    "sim_moves",
    "max_queue",
    "delivered_frac",
    "goodput_per_knode_step",
];

/// The allocator counters: for one seed they may not differ between two
/// runs of the same binary (a change may move them, and says so).
pub const ALLOCATION: [&str; 3] = ["allocs", "alloc_mb", "peak_heap_mb"];

/// The metrics where a larger value is the better one; every other metric,
/// `wall_s` included, is better lower.
const HIGHER_IS_BETTER: [&str; 2] = ["delivered_frac", "goodput_per_knode_step"];

/// One run of a benchmark binary: every metric of its final JSON line in
/// printed order, then the printed `wall_s`.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    /// The value of a metric, if the run printed it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A JSON object read and written in key order: one `(key, value)` per
/// member.
#[derive(Clone, Debug, PartialEq)]
pub struct Object<T>(pub Vec<(String, T)>);

impl<T> Object<T> {
    /// The value of the first member named `key`.
    pub fn get(&self, key: &str) -> Option<&T> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl<T: Serialize> Serialize for Object<T> {
    fn serialize_into<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        for (key, value) in &self.0 {
            out.key(key);
            value.serialize_into(out);
        }
        out.end_object();
    }
}

impl<T: Deserialize> Deserialize for Object<T> {
    fn deserialize_from<S: Source>(src: &mut S) -> Result<Self, serde::Error> {
        let mut members = Vec::new();
        src.begin_object()?;
        while let Some(key) = src.next_key()? {
            let key = key.into_owned();
            members.push((key, T::deserialize_from(src)?));
        }
        Ok(Object(members))
    }
}

/// The final JSON line of a run, as far as a comparison needs it: its
/// `metrics` object is `{"name": {"value": …, "unit": …}, …}` in order.
#[derive(Deserialize)]
struct Line {
    correct: bool,
    failed: u64,
    metrics: Object<Metric>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
}

/// Reads one run's standard output: the metrics of its last line, which
/// must report a correct run with no failed operation, and the `wall_s`
/// of the host-time block above it.
pub fn parse_run(stdout: &str) -> Result<Run, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let line: Line = serde_json::from_str(last.ok_or("the run printed nothing")?)
        .map_err(|e| format!("cannot read the result line: {e}"))?;
    if !line.correct || line.failed != 0 {
        return Err(format!(
            "the run failed its gate (correct {}, {} failed)",
            line.correct, line.failed
        ));
    }
    let wall = stdout
        .lines()
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            ["wall_s", value, "s"] => value.parse::<f64>().ok(),
            _ => None,
        })
        .ok_or("the run printed no wall_s")?;
    let mut metrics: Vec<(String, f64)> = line
        .metrics
        .0
        .into_iter()
        .map(|(n, m)| (n, m.value))
        .collect();
    metrics.push(("wall_s".to_string(), wall));
    Ok(Run { metrics })
}

/// The median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Lower and upper quartile of a non-empty sample, by the method of
/// Python's `statistics.quantiles(v, n=4)` (the default, "exclusive") that
/// `benchmark/README.md` quotes its spreads in.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let len = s.len();
    if len == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = i * (len + 1);
        let j = (m / 4).clamp(1, len - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One metric's comparison over the pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub metric: String,
    pub a_median: f64,
    pub b_median: f64,
    /// Pairs in which B's run was strictly better than A's.
    pub b_wins: usize,
    pub pairs: usize,
    /// A's upper minus lower quartile.
    pub a_quartile_distance: f64,
}

impl Row {
    /// The README's bar for a claim that B is faster (or smaller): B wins
    /// at least nine tenths of the pairs, and its median is better than
    /// A's by more than A's own quartile distance.
    pub fn b_claims(&self) -> bool {
        let gain = if HIGHER_IS_BETTER.contains(&self.metric.as_str()) {
            self.b_median - self.a_median
        } else {
            self.a_median - self.b_median
        };
        10 * self.b_wins >= 9 * self.pairs && gain > self.a_quartile_distance
    }
}

/// Pairs `a[i]` with `b[i]` and reduces every metric of A's first run.
pub fn compare(a: &[Run], b: &[Run]) -> Result<Vec<Row>, String> {
    let first = a.first().ok_or("no pairs")?;
    if a.len() != b.len() {
        return Err(format!("{} runs of A against {} of B", a.len(), b.len()));
    }
    let column = |runs: &[Run], metric: &str| -> Result<Vec<f64>, String> {
        runs.iter()
            .map(|r| r.get(metric).ok_or(format!("a run lacks {metric}")))
            .collect()
    };
    let mut rows = Vec::new();
    for (metric, _) in &first.metrics {
        let (av, bv) = (column(a, metric)?, column(b, metric)?);
        let higher = HIGHER_IS_BETTER.contains(&metric.as_str());
        let b_wins = av
            .iter()
            .zip(&bv)
            .filter(|&(&x, &y)| if higher { y > x } else { y < x })
            .count();
        let (q1, q3) = quartiles(&av);
        rows.push(Row {
            metric: metric.clone(),
            a_median: median(&av),
            b_median: median(&bv),
            b_wins,
            pairs: av.len(),
            a_quartile_distance: q3 - q1,
        });
    }
    Ok(rows)
}

/// Every counted metric that did not repeat: a simulated counter that
/// differs between any two runs, an allocator counter that differs between
/// two runs of one binary.
pub fn counted_mismatches(a: &[Run], b: &[Run]) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |metric: &str, label: &str, runs: &[&Run]| {
        let values: Vec<Option<f64>> = runs.iter().map(|r| r.get(metric)).collect();
        if values.windows(2).any(|w| w[0] != w[1]) {
            out.push(format!(
                "{metric} differs between runs of {label}: {values:?}"
            ));
        }
    };
    let (a, b): (Vec<&Run>, Vec<&Run>) = (a.iter().collect(), b.iter().collect());
    for metric in SIMULATED {
        check(metric, "A and B", &[&a[..], &b[..]].concat());
    }
    for metric in ALLOCATION {
        check(metric, "A", &a);
        check(metric, "B", &b);
    }
    out
}

/// The rows as a markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| metric | A median | B median | B/A | B wins | A quartile distance | B claims |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let ratio = if r.a_median == 0.0 {
            "-".to_string()
        } else {
            format!("{:.3}", r.b_median / r.a_median)
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {ratio} | {}/{} | {} | {} |\n",
            r.metric,
            fmt_value(r.a_median),
            fmt_value(r.b_median),
            r.b_wins,
            r.pairs,
            fmt_value(r.a_quartile_distance),
            if r.b_claims() { "yes" } else { "no" }
        ));
    }
    out
}

/// Six significant digits, no exponent.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{v}");
    }
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standard output of `mesh-benchmark --workload lowerbound --seed 1
    /// --seconds 8 --trace 0 --smoke`, verbatim.
    const CAPTURED: &str = r#"  setup_s                                    0.000696 s
  peak_rss_mb                                3.003906 MB
  peak_heap_mb                               0.031725 MB
  allocs                                    63.000000 count
  alloc_mb                                   0.030151 MB
  sim_steps                                158.000000 steps
  sim_moves                               1840.000000 moves
  max_queue                                  1.000000 packets
  delivered_frac                             1.000000 ratio
  goodput_per_knode_step                     0.879044 pkt/kns
  host time of the timed region (a diagnostic: not gated, see README.md):
  wall_s                                     0.001039 s
  ksteps_per_s                             152.140462 ksteps/s
  mmoves_per_s                               1.771762 Mmoves/s
  repetitions: 1 timed, 1 set-ups
  host.steal_frac 0.000000
  host.invol_ctx_switches 0
{"correct":true,"attempted":80,"failed":0,"metrics":{"setup_s":{"value":0.000696103,"unit":"s"},"peak_rss_mb":{"value":3.00390625,"unit":"MB"},"peak_heap_mb":{"value":0.03172492980957031,"unit":"MB"},"allocs":{"value":63.0,"unit":"count"},"alloc_mb":{"value":0.0301513671875,"unit":"MB"},"sim_steps":{"value":158.0,"unit":"steps"},"sim_moves":{"value":1840.0,"unit":"moves"},"max_queue":{"value":1.0,"unit":"packets"},"delivered_frac":{"value":1.0,"unit":"ratio"},"goodput_per_knode_step":{"value":0.8790436005625879,"unit":"pkt/kns"}}}
"#;

    fn run(pairs: &[(&str, f64)]) -> Run {
        Run {
            metrics: pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    #[test]
    fn parses_a_captured_run() {
        let r = parse_run(CAPTURED).unwrap();
        let names: Vec<&str> = r.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "peak_rss_mb",
                "peak_heap_mb",
                "allocs",
                "alloc_mb",
                "sim_steps",
                "sim_moves",
                "max_queue",
                "delivered_frac",
                "goodput_per_knode_step",
                "wall_s"
            ]
        );
        assert_eq!(r.get("setup_s"), Some(0.000696103));
        assert_eq!(r.get("sim_steps"), Some(158.0));
        assert_eq!(r.get("goodput_per_knode_step"), Some(0.8790436005625879));
        assert_eq!(r.get("wall_s"), Some(0.001039));
    }

    #[test]
    fn refuses_failed_or_truncated_runs() {
        let failed = CAPTURED.replace("\"failed\":0", "\"failed\":2");
        assert!(parse_run(&failed).unwrap_err().contains("2 failed"));
        let incorrect = CAPTURED.replace("\"correct\":true", "\"correct\":false");
        assert!(parse_run(&incorrect).is_err());
        let cut = &CAPTURED[..CAPTURED.len() - 40];
        assert!(parse_run(cut).is_err());
        let no_wall = CAPTURED.replace("  wall_s  ", "  wall  ");
        assert_eq!(
            parse_run(&no_wall).unwrap_err(),
            "the run printed no wall_s"
        );
        assert!(parse_run("").is_err());
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.median / statistics.quantiles(v, n=4) on the same data.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        let odd = [7.0, 1.0, 3.0, 5.0, 9.0];
        assert_eq!(median(&odd), 5.0);
        assert_eq!(quartiles(&odd), (2.0, 8.0));
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn wins_follow_each_metric_s_direction() {
        let a: Vec<Run> = [1.0, 1.25, 0.75, 1.5]
            .iter()
            .map(|&w| run(&[("wall_s", w), ("goodput_per_knode_step", 2.0)]))
            .collect();
        let b: Vec<Run> = [0.5, 1.5, 0.25, 0.75]
            .iter()
            .map(|&w| run(&[("wall_s", w), ("goodput_per_knode_step", 3.0)]))
            .collect();
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows[0].metric, "wall_s");
        assert_eq!(rows[0].b_wins, 3);
        assert_eq!((rows[0].a_median, rows[0].b_median), (1.125, 0.625));
        assert!(!rows[0].b_claims(), "3 of 4 pairs is short of nine tenths");
        assert_eq!(rows[1].b_wins, 4);
        assert!(rows[1].b_claims());
        assert!(render(&rows).contains("| `wall_s` | 1.12500 | 0.625000 | 0.556 | 3/4 |"));
    }

    #[test]
    fn a_claim_must_beat_the_quartile_distance() {
        let a: Vec<Run> = (0..10)
            .map(|i| run(&[("setup_s", 1.0 + 0.1 * i as f64)]))
            .collect();
        let b: Vec<Run> = a
            .iter()
            .map(|r| run(&[("setup_s", r.get("setup_s").unwrap() - 0.3)]))
            .collect();
        let row = &compare(&a, &b).unwrap()[0];
        assert_eq!(row.b_wins, 10);
        assert!(row.a_quartile_distance > 0.3 && !row.b_claims());
        let b: Vec<Run> = b
            .iter()
            .map(|r| run(&[("setup_s", r.metrics[0].1 - 0.5)]))
            .collect();
        assert!(compare(&a, &b).unwrap()[0].b_claims());
    }

    #[test]
    fn counted_metrics_must_repeat() {
        let base = parse_run(CAPTURED).unwrap();
        let a = vec![base.clone(), base.clone()];
        assert!(counted_mismatches(&a, &a).is_empty());
        // B may allocate less than A, as long as each side repeats itself.
        let mut smaller = base.clone();
        smaller.metrics[3].1 = 60.0;
        let b = vec![smaller.clone(), smaller.clone()];
        assert!(counted_mismatches(&a, &b).is_empty());
        let b = vec![smaller, base.clone()];
        assert_eq!(counted_mismatches(&a, &b).len(), 1);
        // A simulated counter may not move at all.
        let mut moved = base.clone();
        moved.metrics[5].1 = 159.0;
        let b = vec![moved.clone(), moved];
        let errors = counted_mismatches(&a, &b);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("sim_steps differs between runs of A and B"));
    }
}
