//! Small measurement helpers: quantiles, the report digest, process peak
//! memory, and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, rendered in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The outcome of one benchmark run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Process peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the rendered final reports, in pool order.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Record separator, so report boundaries are part of the digest.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Report quality over one pass of the log pool: share of reports that
/// contain an injected site, mean candidates per report, and mean 1-based
/// rank of the first injected site over the reports that contain one.
#[derive(Default)]
pub struct Quality {
    reports: u64,
    hits: u64,
    candidates: u64,
    first_hit_sum: u64,
}

impl Quality {
    pub fn add(&mut self, candidates: usize, first_hit: Option<usize>) {
        self.reports += 1;
        self.candidates += candidates as u64;
        if let Some(rank) = first_hit {
            self.hits += 1;
            self.first_hit_sum += rank as u64;
        }
    }

    pub fn put(&self, m: &mut Metrics) {
        let n = self.reports.max(1) as f64;
        m.put("accuracy", self.hits as f64 / n, "ratio");
        m.put("resolution", self.candidates as f64 / n, "count");
        m.put(
            "first_hit_index",
            self.first_hit_sum as f64 / self.hits.max(1) as f64,
            "rank",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn digest_separates_records() {
        let mut a = Digest::default();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::default();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn json_line_shape() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.5, "s");
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: m,
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
