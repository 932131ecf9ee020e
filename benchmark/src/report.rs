//! Percentiles, op accounting, and the metric record a run prints.

use std::fmt::Write as _;
use std::time::Instant;

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank quantile of ascending `sorted` samples (`q` in `0..=1`).
///
/// # Panics
/// Panics on an empty slice: an empty window is a benchmark bug.
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave [`TAIL_SUPPORT`] samples beyond quantile `q`.
#[must_use]
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= TAIL_SUPPORT as f64 - 1e-9
}

/// The highest percentile of the ladder 99.99 / 99.9 / 99 / 95 / 90 / 50
/// that `n` samples support, or `None` when even p50 is unsupported.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.90, 0.50].into_iter().find(|&q| supports(n, q))
}

/// One completed (or missed) request: when it completed, its latency in
/// nanoseconds, and how many ops it carried.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    ns: u64,
    ops: u32,
}

/// Latency samples of one phase. Failed and refused ops are recorded as
/// `u64::MAX`: they miss every latency limit.
#[derive(Debug, Clone)]
pub struct Latencies {
    samples: Vec<Sample>,
}

impl Default for Latencies {
    /// Reserves room for a long window up front: growing by doubling
    /// would copy the samples and make the peak RSS depend on where the
    /// count falls between powers of two. Untouched capacity is not
    /// resident.
    fn default() -> Self {
        Latencies { samples: Vec::with_capacity(1 << 22) }
    }
}

impl Latencies {
    /// Records one op completing now.
    pub fn record(&mut self, ns: u64) {
        self.record_at(Instant::now(), ns, 1);
    }

    /// Records a request of `ops` ops completing at `at`.
    pub fn record_at(&mut self, at: Instant, ns: u64, ops: u32) {
        self.samples.push(Sample { at, ns, ops });
    }

    pub fn record_miss(&mut self) {
        self.record_at(Instant::now(), u64::MAX, 0);
    }

    pub fn extend(&mut self, other: Latencies) {
        self.samples.extend(other.samples);
    }

    /// Percentiles over every sample.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        summarize(self.samples.iter().map(|s| s.ns).collect())
    }

    /// Splits `[start, end)` into `k` equal sub-windows by completion time
    /// and reports the median of their throughputs and the lower quartile
    /// of their p50s and p99s. Interference from other tenants of a shared
    /// host only ever adds latency, in bursts that can cover half a run;
    /// the quietest quarter of the sub-windows is the repeatable figure,
    /// and a slowdown that lasts through the run still moves it fully.
    /// Completions after `end` (the drain) are left out.
    #[must_use]
    pub fn windowed(&self, start: Instant, end: Instant, k: usize) -> Windowed {
        let span = end.saturating_duration_since(start).as_secs_f64();
        let mut buckets: Vec<(Vec<u64>, u64)> = vec![(Vec::new(), 0); k];
        for s in &self.samples {
            let offset = s.at.saturating_duration_since(start).as_secs_f64();
            if s.at < start || offset >= span {
                continue;
            }
            let i = ((offset / span * k as f64) as usize).min(k - 1);
            buckets[i].0.push(s.ns);
            buckets[i].1 += u64::from(s.ops);
        }
        let sub_s = span / k as f64;
        let throughput: Vec<f64> = buckets.iter().map(|(_, ops)| *ops as f64 / sub_s).collect();
        let summaries: Vec<LatencySummary> =
            buckets.into_iter().map(|(ns, _)| summarize(ns)).collect();
        let pick = |f: fn(&LatencySummary) -> u64| {
            lower_quartile(&summaries.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        Windowed {
            per_window: throughput.iter().zip(&summaries).map(|(t, s)| (*t, s.p99_ns)).collect(),
            throughput: median(&throughput),
            p50_ns: pick(|s| s.p50_ns),
            p99_ns: pick(|s| s.p99_ns),
            min_count: summaries.iter().map(|s| s.count).min().unwrap_or(0),
            p99_supported: summaries.iter().all(|s| s.p99_supported),
            windows: k,
        }
    }
}

fn summarize(mut samples: Vec<u64>) -> LatencySummary {
    samples.sort_unstable();
    let n = samples.len();
    let at = |q: f64| if n == 0 { 0 } else { quantile(&samples, q) };
    let tail = highest_supported(n);
    LatencySummary {
        count: n,
        p50_ns: at(0.50),
        p99_ns: at(0.99),
        p99_supported: supports(n, 0.99),
        tail_q: tail.unwrap_or(0.0),
        tail_ns: tail.map_or(0, at),
    }
}

/// One phase's figures across its sub-windows.
#[derive(Debug, Clone)]
pub struct Windowed {
    /// Throughput (ops/s) and p99 (ns) of each sub-window, in order.
    pub per_window: Vec<(f64, u64)>,
    /// Median sub-window throughput, ops per second.
    pub throughput: f64,
    /// Lower quartile of the sub-window p50s and p99s.
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Samples in the thinnest sub-window.
    pub min_count: usize,
    /// Every sub-window leaves [`TAIL_SUPPORT`] samples beyond its p99.
    pub p99_supported: bool,
    pub windows: usize,
}

/// Median, p99 and the highest supported tail of one phase.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub count: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// At least [`TAIL_SUPPORT`] samples lie beyond p99.
    pub p99_supported: bool,
    pub tail_q: f64,
    pub tail_ns: u64,
}

impl LatencySummary {
    pub fn describe(&self) -> String {
        format!(
            "p50 {:.3} ms, p99 {:.3} ms, p{} {:.3} ms over {} samples",
            ms(self.p50_ns),
            ms(self.p99_ns),
            self.tail_q * 100.0,
            ms(self.tail_ns),
            self.count
        )
    }
}

/// Nanoseconds as milliseconds (a miss stays astronomically large).
#[must_use]
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What happened to the ops of one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    pub attempted: u64,
    pub succeeded: u64,
    /// Typed `ServiceError`s (and wire errors other than refusals).
    pub failed: u64,
    /// `Overloaded` / `TenantThrottled` / `Backpressure` refusals.
    pub refused: u64,
}

impl OpCounts {
    pub fn add(&mut self, other: OpCounts) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    pub fn describe(&self) -> String {
        format!(
            "attempted {} succeeded {} failed {} refused {}",
            self.attempted, self.succeeded, self.failed, self.refused
        )
    }
}

/// Named metrics in insertion order, printed as the run's JSON record.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_owned(), value, unit),
            None => self.entries.push((name.to_owned(), value, unit)),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.entries.iter()
    }

    /// The last line of a run: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    #[must_use]
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { f64::MAX };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Lower quartile of unsorted values, interpolating between neighbours.
#[must_use]
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let at = 0.25 * (sorted.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of unsorted values (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.50), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&sorted, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
    }

    #[test]
    fn highest_supported_walks_the_ladder() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(250), Some(0.95));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }

    #[test]
    fn misses_land_in_the_tail() {
        let mut lat = Latencies::default();
        for ns in 1..=990u64 {
            lat.record(ns);
        }
        for _ in 0..10 {
            lat.record_miss();
        }
        let s = lat.summary();
        assert_eq!(s.count, 1000);
        assert!(s.p99_supported);
        assert_eq!(s.p99_ns, 990, "990 successes sit at or below p99");
        assert_eq!(s.tail_ns, 990);
        let mut lat = Latencies::default();
        for ns in 1..=980u64 {
            lat.record(ns);
        }
        for _ in 0..20 {
            lat.record_miss();
        }
        assert_eq!(lat.summary().p99_ns, u64::MAX, "2% misses push p99 past any limit");
    }

    #[test]
    fn windowed_takes_robust_figures_across_sub_windows() {
        use std::time::Duration;
        let start = Instant::now();
        let mut lat = Latencies::default();
        // Five 1 s sub-windows; the third is a slow burst with half the ops.
        for w in 0..5u64 {
            let (ns, count) = if w == 2 { (50_000, 500) } else { (1_000 + w, 1000) };
            for i in 0..count {
                let at = start + Duration::from_millis(w * 1000) + Duration::from_micros(i);
                lat.record_at(at, ns, 2);
            }
        }
        // A drain-tail completion after the window is ignored.
        lat.record_at(start + Duration::from_secs(6), 9_999_999, 1);
        let w = lat.windowed(start, start + Duration::from_secs(5), 5);
        assert_eq!(w.windows, 5);
        assert_eq!(w.min_count, 500);
        assert!(!w.p99_supported, "500 samples cannot support p99");
        assert_eq!(w.throughput, 2000.0, "median of 2000, 2000, 1000, 2000, 2000 ops/s");
        assert_eq!(w.p50_ns, 1_001.0, "lower quartile of 1000, 1001, 1003, 1004, 50000");
        assert_eq!(w.p99_ns, 1_001.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("latency_p50_ms", 1.25, "ms");
        m.set("setup_s", 0.5, "s");
        m.set("setup_s", 0.75, "s");
        assert_eq!(
            m.result_line(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.75, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_and_lower_quartile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(lower_quartile(&[5.0, 1.0, 3.0, 2.0, 4.0]), 2.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.75);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
    }
}
