//! Extended measurement: latency distributions and per-node congestion
//! maps. All derived from per-packet delivery records
//! the simulator keeps anyway, so collection is free.

use serde::{Deserialize, Serialize};

/// Summary statistics of a set of samples (latencies, loads, …).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Distribution {
    pub count: usize,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    /// Percentiles at 50/90/99/99.9 (nearest-rank).
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
}

impl Distribution {
    /// Computes the distribution of a sample set (empty ⇒ all zeros).
    pub fn of(samples: &[u64]) -> Distribution {
        Distribution::of_in_place(&mut samples.to_vec())
    }

    /// [`Distribution::of`] without the copy: sorts `samples` in place.
    pub fn of_in_place(samples: &mut [u64]) -> Distribution {
        if samples.is_empty() {
            return Distribution {
                count: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                p50: 0,
                p90: 0,
                p99: 0,
                p999: 0,
            };
        }
        samples.sort_unstable();
        let v = &*samples;
        let pct = |p: f64| -> u64 {
            // Nearest-rank percentile.
            let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
            v[rank - 1]
        };
        Distribution {
            count: v.len(),
            min: v[0],
            max: *v.last().unwrap(),
            mean: v.iter().sum::<u64>() as f64 / v.len() as f64,
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
            p999: pct(99.9),
        }
    }
}

/// Mean/min/max/stddev of a set of scalar samples, for aggregating one
/// metric across repeated trials of the same experiment cell.
///
/// Unlike [`Distribution`] (per-packet samples within one run, percentiles),
/// a `Summary` condenses *per-trial* samples, which are few and real-valued.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    /// Population standard deviation (0 for a single sample).
    pub stddev: f64,
}

impl Summary {
    /// Computes the summary of a sample set (empty ⇒ all zeros).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
            };
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            stddev: var.sqrt(),
        }
    }

    /// Convenience for integer-valued metrics (steps, moves, queue peaks).
    pub fn of_u64(samples: impl IntoIterator<Item = u64>) -> Summary {
        let v: Vec<f64> = samples.into_iter().map(|s| s as f64).collect();
        Summary::of(&v)
    }
}

/// A per-node scalar field (congestion map): row-major over the grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeField {
    pub n: u32,
    pub values: Vec<u32>,
}

impl NodeField {
    /// The hottest nodes, as `(x, y, value)` sorted descending, capped at
    /// `top`.
    pub fn hottest(&self, top: usize) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> = self
            .values
            .iter()
            .enumerate()
            .filter(|(_, &val)| val > 0)
            .map(|(i, &val)| (i as u32 % self.n, i as u32 / self.n, val))
            .collect();
        v.sort_by_key(|&(x, y, val)| (std::cmp::Reverse(val), y, x));
        v.truncate(top);
        v
    }

    /// Renders a coarse ASCII heat map (small grids only), north at the top.
    pub fn ascii(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let max = self.values.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::with_capacity((self.n as usize + 1) * self.n as usize);
        for y in (0..self.n).rev() {
            for x in 0..self.n {
                let v = self.values[(y * self.n + x) as usize] as usize;
                let idx = (v * (SHADES.len() - 1)).div_ceil(max as usize);
                out.push(SHADES[idx.min(SHADES.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_basics() {
        let d = Distribution::of(&[5, 1, 9, 3, 7]);
        assert_eq!(d.count, 5);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 9);
        assert!((d.mean - 5.0).abs() < 1e-9);
        assert_eq!(d.p50, 5);
        assert_eq!(d.p99, 9);
    }

    #[test]
    fn distribution_empty() {
        let d = Distribution::of(&[]);
        assert_eq!(d.count, 0);
        assert_eq!(d.max, 0);
    }

    #[test]
    fn distribution_single() {
        let d = Distribution::of(&[42]);
        assert_eq!(
            (d.min, d.p50, d.p90, d.p99, d.p999, d.max),
            (42, 42, 42, 42, 42, 42)
        );
    }

    #[test]
    fn distribution_p999_tracks_the_tail() {
        let v: Vec<u64> = (1..=1000).collect();
        let d = Distribution::of(&v);
        assert_eq!(d.p99, 990);
        // p99.9 sits strictly inside the extreme tail.
        assert!(d.p999 > d.p99 && d.p999 <= d.max, "p999 = {}", d.p999);
        // A heavy-tailed set: one outlier in 1000 must move p999 (which
        // reaches the last rank there) but not p50.
        let mut w = vec![1u64; 999];
        w.push(1_000_000);
        let h = Distribution::of(&w);
        assert_eq!(h.p50, 1);
        assert_eq!(h.p99, 1);
        assert_eq!(h.p999, 1_000_000);
    }

    #[test]
    fn sub_percentile_sample_counts_clamp_to_max() {
        // Nearest-rank with rank = ceil(p/100 * len): when the sample count
        // is below the percentile's resolution the rank saturates at the
        // last element, so the reported percentile IS the max — consumers
        // must check the sample count before trusting the tail.
        let d = Distribution::of(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(d.count, 10);
        assert_eq!(d.p90, 9); // rank ceil(0.9*10)=9 still resolves
        assert_eq!(d.p99, 10); // rank ceil(0.99*10)=10 → max
        assert_eq!(d.p999, 10); // rank ceil(0.999*10)=10 → max
                                // 999 samples: p999 rank ceil(0.999*999)=999 → still the max.
        let v: Vec<u64> = (1..=999).collect();
        let d = Distribution::of(&v);
        assert_eq!(d.p999, 999);
        assert_eq!(d.p999, d.max);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.stddev - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_and_single() {
        assert_eq!(Summary::of(&[]).count, 0);
        let s = Summary::of_u64([7]);
        assert_eq!(
            (s.count, s.mean, s.min, s.max, s.stddev),
            (1, 7.0, 7.0, 7.0, 0.0)
        );
    }

    #[test]
    fn node_field_hottest() {
        let f = NodeField {
            n: 3,
            values: vec![0, 5, 0, 2, 0, 0, 0, 0, 9],
        };
        let h = f.hottest(2);
        assert_eq!(h, vec![(2, 2, 9), (1, 0, 5)]);
    }

    #[test]
    fn node_field_ascii_shape() {
        let f = NodeField {
            n: 2,
            values: vec![0, 4, 2, 4],
        };
        let s = f.ascii();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        // North (y=1) row first: values [2, 4] -> mid shade then max shade.
        assert_eq!(lines[0].len(), 2);
        assert!(lines[0].ends_with('@'));
        assert!(lines[1].starts_with(' ')); // zero stays blank
    }
}
