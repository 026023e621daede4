//! Serving statistics: counters, occupancy and per-app latency histograms.

use std::collections::BTreeMap;
use std::fmt;

use crate::FleetAppId;

/// A log₂-bucketed latency histogram (microsecond base bucket). Constant
/// memory per app regardless of request volume, like the histograms a
/// serving stack would export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` microseconds.
    buckets: [u64; 32],
    count: u64,
    total_seconds: f64,
    max_seconds: f64,
}

impl LatencyHistogram {
    /// Records one request latency.
    pub fn record(&mut self, seconds: f64) {
        let us = (seconds * 1e6).max(1.0) as u64;
        let bucket = (63 - us.leading_zeros() as usize).min(31);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_seconds += seconds;
        self.max_seconds = self.max_seconds.max(seconds);
    }

    /// Number of recorded requests.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in seconds.
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }

    /// Worst observed latency in seconds.
    pub fn max_seconds(&self) -> f64 {
        self.max_seconds
    }

    /// The (lower-bound µs, count) of each non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
            .collect()
    }

    /// The latency in seconds at quantile `q` (0..=1), estimated at the
    /// geometric midpoint of the bucket the quantile falls in and clamped
    /// to the worst observed sample. Bucket resolution is a factor of two,
    /// which is the usual contract for log-bucketed serving histograms.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^(i+1)) µs.
                let mid_us = (1u64 << i) as f64 * std::f64::consts::SQRT_2;
                return (mid_us * 1e-6).min(self.max_seconds);
            }
        }
        self.max_seconds
    }
}

/// Latency record of one application under the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct AppLatency {
    /// Application name as submitted.
    pub name: String,
    /// Request-latency histogram.
    pub histogram: LatencyHistogram,
}

/// A snapshot of the runtime's serving statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Applications admitted onto the fabric (re-admissions count again).
    pub admitted: u64,
    /// Applications evicted to make room for others (the fleet's victim
    /// path; retirements and migrations are not evictions).
    pub evicted: u64,
    /// Hot-swap reconfigurations performed.
    pub swaps: u64,
    /// Requests served across all apps.
    pub requests: u64,
    /// Seconds of page downtime charged so far (admissions, re-admissions
    /// and hot-swaps all pay their load-and-link bill here).
    pub cumulative_downtime_seconds: f64,
    /// Pages in the floorplan.
    pub pages_total: usize,
    /// Pages currently bound to a resident operator (snapshot).
    pub pages_occupied: usize,
    /// Per-app latency histograms, keyed by app id.
    pub latencies: BTreeMap<FleetAppId, AppLatency>,
}

impl RuntimeStats {
    /// Fraction of pages occupied, 0..=1.
    pub fn occupancy(&self) -> f64 {
        if self.pages_total == 0 {
            0.0
        } else {
            self.pages_occupied as f64 / self.pages_total as f64
        }
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pages {}/{} occupied | admitted {} evicted {} swaps {}",
            self.pages_occupied, self.pages_total, self.admitted, self.evicted, self.swaps
        )?;
        writeln!(
            f,
            "requests {} | cumulative downtime {:.3} ms",
            self.requests,
            self.cumulative_downtime_seconds * 1e3
        )?;
        for lat in self.latencies.values() {
            writeln!(
                f,
                "  {:<18} {:>6} reqs  mean {:>9.3?}  max {:>9.3?}",
                lat.name,
                lat.histogram.count(),
                std::time::Duration::from_secs_f64(lat.histogram.mean_seconds()),
                std::time::Duration::from_secs_f64(lat.histogram.max_seconds()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let mut h = LatencyHistogram::default();
        h.record(1e-6); // 1 µs -> bucket 0
        h.record(3e-6); // 3 µs -> bucket 1
        h.record(1e-3); // 1000 µs -> bucket 9
        assert_eq!(h.count(), 3);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets, vec![(1, 1), (2, 1), (512, 1)]);
        assert!(h.mean_seconds() > 0.0);
        assert!((h.max_seconds() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn sub_microsecond_latencies_clamp_to_first_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(0.0);
        h.record(1e-9);
        assert_eq!(h.nonzero_buckets(), vec![(1, 2)]);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.percentile(0.99), 0.0);
        for _ in 0..99 {
            h.record(1.5e-6); // bucket 0
        }
        h.record(1e-3); // bucket 9, the single worst sample
        let p50 = h.percentile(0.50);
        assert!(p50 < 3e-6, "p50 {p50} should sit in the first bucket");
        let p99 = h.percentile(0.99);
        assert!(p99 < 3e-6, "p99 {p99} is still the 99th of 100 samples");
        let p100 = h.percentile(1.0);
        assert!(
            (5e-4..=1e-3).contains(&p100),
            "p100 {p100} lands in the worst bucket, clamped to max"
        );
    }

    #[test]
    fn occupancy_is_a_fraction() {
        let stats = RuntimeStats {
            pages_total: 22,
            pages_occupied: 11,
            ..Default::default()
        };
        assert!((stats.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(RuntimeStats::default().occupancy(), 0.0);
    }
}
