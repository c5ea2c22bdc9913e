//! Log2 latency histograms and Prometheus-style exposition.
//!
//! A [`Histogram`] is a plain struct of relaxed atomics: share it behind
//! an `Arc` (or a `static`) and record from any thread. It never blocks,
//! allocates after construction, or panics on overflow — counts
//! saturate at `u64::MAX` instead of wrapping, so a histogram that has
//! run for years degrades to "pegged" rather than lying. Plain counters
//! and gauges are rendered straight from the snapshot values their
//! owners keep ([`render_counter`], [`render_gauge`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: one per power of two of a `u64`
/// nanosecond value, so bucket `i` covers `[2^i, 2^(i+1))` ns (bucket 0
/// also absorbs 0) and the last bucket absorbs everything ≥ 2^63.
pub const BUCKETS: usize = 64;

/// Saturating increment of an atomic counter cell: the count pins at
/// `u64::MAX` instead of wrapping back to zero.
fn saturating_add(cell: &AtomicU64, delta: u64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(delta);
        if next == current {
            return; // already pegged
        }
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// A fixed-bucket log2 latency histogram over nanosecond samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` ns; zero lands in
/// bucket 0 and anything ≥ 2^63 lands in the last bucket. Recording is
/// three relaxed atomic adds (bucket, count, sum) and all counts
/// saturate rather than wrap. Quantiles come out of a
/// [`HistogramSnapshot`]; the reported value for a quantile is the
/// upper bound of the bucket it falls in, so p50/p99 are exact to
/// within one power of two — the right fidelity for latency SLOs and
/// far cheaper than exact reservoirs.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a nanosecond sample: `floor(log2(ns))`, with 0
/// mapping to bucket 0.
fn bucket_index(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros()) as usize
}

impl Histogram {
    /// A fresh empty histogram (`const`, so histograms can be `static`).
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the array element-wise.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond sample.
    pub fn record_ns(&self, ns: u64) {
        saturating_add(&self.buckets[bucket_index(ns)], 1);
        saturating_add(&self.count, 1);
        saturating_add(&self.sum_ns, ns);
    }

    /// Records one [`Duration`] sample (clamped to `u64::MAX` ns).
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A coherent-enough point-in-time copy (each cell is read
    /// relaxed; under concurrent writers the snapshot may be mid-update
    /// by a few samples, which is fine for exposition).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// An owned point-in-time copy of a [`Histogram`], with quantile
/// extraction and Prometheus rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds (saturating).
    pub sum_ns: u64,
}

/// The snapshot of a histogram that has recorded nothing.
impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Upper bound (inclusive) of bucket `i` in nanoseconds.
    fn bucket_upper_ns(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket the `ceil(q·count)`-th sample falls in, 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), at least 1 so q=0 still names the first sample.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Self::bucket_upper_ns(i);
            }
        }
        Self::bucket_upper_ns(BUCKETS - 1)
    }

    /// Median (p50) in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// p90 in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// p99 in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Renders the snapshot as a Prometheus summary: `quantile`-labeled
    /// value lines (seconds) for p50/p90/p99 plus `_sum` and `_count`.
    ///
    /// `labels` is either empty or a ready-made `key="value"` list
    /// (comma-separated, no braces) merged with the `quantile` label:
    ///
    /// ```text
    /// smerge_request_latency_seconds{verb="PUT",quantile="0.5"} 0.000012
    /// smerge_request_latency_seconds_sum{verb="PUT"} 0.000431
    /// smerge_request_latency_seconds_count{verb="PUT"} 17
    /// ```
    pub fn render_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let secs = |ns: u64| ns as f64 / 1e9;
        for (q, ns) in [
            ("0.5", self.p50_ns()),
            ("0.9", self.p90_ns()),
            ("0.99", self.p99_ns()),
        ] {
            if labels.is_empty() {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {:.9}\n", secs(ns)));
            } else {
                out.push_str(&format!(
                    "{name}{{{labels},quantile=\"{q}\"}} {:.9}\n",
                    secs(ns)
                ));
            }
        }
        let suffix = |out: &mut String, tail: &str, value: String| {
            if labels.is_empty() {
                out.push_str(&format!("{name}_{tail} {value}\n"));
            } else {
                out.push_str(&format!("{name}_{tail}{{{labels}}} {value}\n"));
            }
        };
        suffix(out, "sum", format!("{:.9}", secs(self.sum_ns)));
        suffix(out, "count", format!("{}", self.count));
    }
}

/// Renders one counter metric with a `# TYPE` header.
pub fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

/// Renders one gauge metric with a `# TYPE` header.
pub fn render_gauge(out: &mut String, name: &str, help: &str, value: i64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn empty_histogram_reports_zero_quantiles() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap, HistogramSnapshot::default());
        assert_eq!(snap.p50_ns(), 0);
        assert_eq!(snap.p99_ns(), 0);
        assert_eq!(snap.mean_ns(), 0);
    }

    #[test]
    fn single_sample_quantiles_name_its_bucket() {
        let h = Histogram::new();
        h.record_ns(700); // bucket 9: [512, 1024)
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum_ns, 700);
        // Every quantile of a one-sample distribution is that sample's
        // bucket upper bound.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile_ns(q), 1023, "q={q}");
        }
        assert_eq!(snap.mean_ns(), 700);
    }

    #[test]
    fn quantiles_split_a_two_mode_distribution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(100); // bucket 6: [64, 128)
        }
        for _ in 0..10 {
            h.record_ns(1_000_000); // bucket 19
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50_ns(), 127, "p50 sits in the fast mode");
        assert_eq!(snap.p90_ns(), 127, "p90 is the last fast sample");
        assert_eq!(
            snap.p99_ns(),
            (1u64 << 20) - 1,
            "p99 lands in the slow mode"
        );
    }

    #[test]
    fn extreme_samples_saturate_into_the_last_bucket() {
        let h = Histogram::new();
        h.record_ns(u64::MAX);
        h.record_ns(1u64 << 63);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[63], 2);
        assert_eq!(snap.p50_ns(), u64::MAX);
        // The sum saturates instead of wrapping.
        assert_eq!(snap.sum_ns, u64::MAX);
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let cell = AtomicU64::new(0);
        saturating_add(&cell, u64::MAX - 1);
        saturating_add(&cell, 5);
        assert_eq!(cell.load(Ordering::Relaxed), u64::MAX, "count pegs at MAX");
        saturating_add(&cell, 1);
        assert_eq!(
            cell.load(Ordering::Relaxed),
            u64::MAX,
            "pegged count stays pegged"
        );
    }

    #[test]
    fn cross_thread_recording_keeps_every_sample() {
        // Four threads record into one histogram: the distribution
        // carries every sample exactly once.
        let h = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for offset in [10u64, 11, 100_000, 100_001] {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    h.record_ns(offset + i);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("recorder threads finish");
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 2000);
        let expected_sum: u64 = [10u64, 11, 100_000, 100_001]
            .iter()
            .map(|offset| (0..500).map(|i| offset + i).sum::<u64>())
            .sum();
        assert_eq!(snap.sum_ns, expected_sum, "no sample lost or doubled");
        // Half the samples sit near 10ns, half near 100µs: the median
        // must fall in the fast half's bucket range, p99 in the slow.
        assert!(snap.p50_ns() < 1024, "p50={}", snap.p50_ns());
        assert!(snap.p99_ns() >= 100_000, "p99={}", snap.p99_ns());
    }

    #[test]
    fn prometheus_rendering_has_quantile_sum_count_lines() {
        let h = Histogram::new();
        for _ in 0..4 {
            h.record(Duration::from_micros(100));
        }
        let mut out = String::new();
        h.snapshot()
            .render_prometheus(&mut out, "smerge_commit_latency_seconds", "");
        assert!(out.contains("smerge_commit_latency_seconds{quantile=\"0.5\"}"));
        assert!(out.contains("smerge_commit_latency_seconds{quantile=\"0.99\"}"));
        assert!(out.contains("smerge_commit_latency_seconds_count 4"));
        assert!(out.contains("smerge_commit_latency_seconds_sum 0.000400"));

        let mut labeled = String::new();
        h.snapshot().render_prometheus(
            &mut labeled,
            "smerge_request_latency_seconds",
            "verb=\"PUT\"",
        );
        assert!(labeled.contains("smerge_request_latency_seconds{verb=\"PUT\",quantile=\"0.5\"}"));
        assert!(labeled.contains("smerge_request_latency_seconds_count{verb=\"PUT\"} 4"));

        let mut counters = String::new();
        render_counter(
            &mut counters,
            "smerge_requests_total",
            "Requests served.",
            9,
        );
        render_gauge(&mut counters, "smerge_uptime_seconds", "Daemon uptime.", 31);
        assert!(counters.contains("# TYPE smerge_requests_total counter"));
        assert!(counters.contains("smerge_requests_total 9"));
        assert!(counters.contains("# TYPE smerge_uptime_seconds gauge"));
        assert!(counters.contains("smerge_uptime_seconds 31"));
    }
}
