//! The log2 latency histogram, exported as a standalone type.
//!
//! This is the same fixed-size, never-dropping histogram the per-thread
//! trace buffers fold span durations into (bucket `i >= 1` holds
//! durations in `[2^(i-1), 2^i)` ns, bucket 0 holds zero-length spans,
//! the last bucket is open-ended ≈ 18 minutes). The serve layer records
//! per-frame latencies into it directly and merges per-session
//! histograms into fleet-wide ones, so percentile math lives in exactly
//! one place.

use crate::HIST_BUCKETS;
use std::time::Duration;

/// A fixed-size log2 duration histogram with exact count/sum/max and
/// bucket-upper-bound percentiles.
///
/// Recording never allocates and never drops: every duration lands in
/// one of [`HIST_BUCKETS`] power-of-two buckets. Percentiles are
/// conservative — [`percentile`](Self::percentile) returns the upper
/// bound of the bucket containing the requested quantile, so a reported
/// p99 is never below the true p99 (at the cost of up to 2× slack).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// The bucket index a duration of `ns` nanoseconds lands in (the
    /// exact mapping the per-thread trace buffers use).
    #[inline]
    pub fn bucket_of(ns: u64) -> usize {
        ((u64::BITS - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one duration in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records one [`Duration`].
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Folds `other` into `self` (fleet aggregation over sessions).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest recorded duration in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean recorded duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The duration at quantile `p` in `[0, 1]`: the upper bound of the
    /// log2 bucket containing the `p`-th recorded value, capped at the
    /// exact [`max_ns`](Self::max_ns) so no percentile ever exceeds the
    /// largest recorded value (0 for an empty histogram).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let threshold = ((self.count as f64 * p).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= threshold {
                return if i == 0 {
                    0
                } else if i == HIST_BUCKETS - 1 {
                    // The open-ended bucket has no power-of-two upper
                    // bound; the exact max is the tightest one we track.
                    self.max_ns
                } else {
                    // Cap the bucket bound at the exact max so a
                    // reported percentile never exceeds `max_ns`.
                    (1u64 << i).min(self.max_ns)
                };
            }
        }
        self.max_ns
    }

    /// Renders the standard JSON summary object every `BENCH_*.json`
    /// emitter uses for a latency distribution:
    /// `{"count":…,"mean_ns":…,"p50_ns":…,"p90_ns":…,"p99_ns":…,"max_ns":…}`.
    pub fn json_summary(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            self.count(),
            self.mean_ns(),
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
            self.max_ns(),
        )
    }

    /// Builds a histogram over pre-counted buckets and their exact max
    /// (the collector's per-stage rows). The exact sum is unknown there,
    /// so only count, max and percentiles are meaningful on the result.
    pub(crate) fn from_buckets(buckets: &[u64; HIST_BUCKETS], max_ns: u64) -> LatencyHistogram {
        LatencyHistogram {
            buckets: *buckets,
            count: buckets.iter().sum(),
            sum_ns: 0,
            max_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn bucket_mapping_matches_the_trace_buffers() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn percentile_is_a_bucket_upper_bound() {
        let mut h = LatencyHistogram::new();
        // 99 fast (≈1us) and one slow (≈1s) sample.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000_000);
        assert_eq!(h.count(), 100);
        // p50 covers the fast cluster: upper bound of the 1000ns bucket.
        let p50 = h.percentile(0.50);
        assert!((1_000..=2_048).contains(&p50), "p50 {p50}");
        // p99 still lands in the fast cluster (99 of 100 samples).
        let p99 = h.percentile(0.99);
        assert!(p99 <= 2_048, "p99 {p99}");
        // p100 reaches the slow tail, never below the true max.
        assert!(h.percentile(1.0) >= 1_000_000_000);
        assert_eq!(h.max_ns(), 1_000_000_000);
        assert!(h.mean_ns() >= 1_000);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..50 {
            a.record(i * 100);
            b.record(i * 1_000);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 100);
        assert_eq!(m.sum_ns(), a.sum_ns() + b.sum_ns());
        assert_eq!(m.max_ns(), b.max_ns());
        assert!(m.percentile(0.99) >= a.percentile(0.99));
    }

    #[test]
    fn open_ended_bucket_reports_the_tracked_max() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX / 2);
        assert_eq!(h.percentile(1.0), u64::MAX / 2);
    }

    #[test]
    fn json_summary_is_strict_json_with_all_fields() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(i * 1_000);
        }
        let doc = crate::json::parse(&h.json_summary()).expect("strict json");
        for key in ["count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
            assert!(doc.get(key).and_then(|v| v.as_f64()).is_some(), "{key}");
        }
        assert_eq!(doc.get("count").unwrap().as_f64(), Some(100.0));
        assert_eq!(doc.get("max_ns").unwrap().as_f64(), Some(100_000.0));
    }

    #[test]
    fn record_duration_converts() {
        let mut h = LatencyHistogram::new();
        h.record_duration(Duration::from_micros(5));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_ns(), 5_000);
    }
}
