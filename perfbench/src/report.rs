//! Metric lists, order statistics and the result line.

use lsm_engine::{HistogramSnapshot, MetricsSnapshot};

/// Named metrics in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(!self.0.iter().any(|m| m.0 == name), "{name} twice");
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(name, value, unit)| format!("  {name:<36} {:>16} {unit}\n", num(*value)))
            .collect()
    }
}

/// A JSON number with all its digits.
pub fn num(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Nearest-rank percentile of `samples` (ns) in µs; 0 when empty.
pub fn percentile_us(samples: &mut [u64], permille: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (samples.len() as u64 * permille).div_ceil(1000).max(1) as usize;
    samples[rank - 1] as f64 / 1_000.0
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The samples recorded between two snapshots of one histogram.
pub fn hist_delta(
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let empty = HistogramSnapshot::default();
    let a = after.histogram(name).unwrap_or(&empty);
    let b = before.histogram(name).unwrap_or(&empty);
    let mut buckets = *a.buckets();
    for (x, y) in buckets.iter_mut().zip(b.buckets()) {
        *x -= y;
    }
    HistogramSnapshot::from_parts(buckets, a.count() - b.count(), a.sum() - b.sum())
}

/// Quantile of a log2-bucketed histogram, interpolated linearly inside
/// the bucket `[2^i, 2^(i+1))` instead of reporting its upper bound.
pub fn hist_quantile(h: &HistogramSnapshot, permille: u64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let rank = (h.count() * permille).div_ceil(1000).max(1);
    let mut seen = 0;
    for (i, &n) in h.buckets().iter().enumerate() {
        if n > 0 && seen + n >= rank {
            let low = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let high = (1u64 << (i + 1).min(63)) as f64;
            let within = (rank - seen) as f64 / n as f64;
            return low + (high - low) * within;
        }
        seen += n;
    }
    0.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_in_micros() {
        let mut samples: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&mut samples, 500), 50.0);
        assert_eq!(percentile_us(&mut samples, 990), 99.0);
        assert_eq!(percentile_us(&mut [], 500), 0.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_the_bucket() {
        let h = lsm_engine::LatencyHistogram::new();
        for _ in 0..4 {
            h.record(100); // bucket [64, 128)
        }
        let snap = h.snapshot();
        assert_eq!(hist_quantile(&snap, 500), 96.0);
        assert_eq!(hist_quantile(&snap, 1000), 128.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(0.123456789), "0.123456789");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
