//! Quantile estimation over log2-bucketed histogram snapshots.
//!
//! The histograms store only bucket counts plus exact `min`/`max`/`sum`,
//! so quantiles are *estimates*: the rank is located by a cumulative walk
//! over the sparse buckets, then interpolated inside the bucket by
//! placing its `n` samples at the midpoints of `n` equal sub-intervals of
//! the bucket's `[lo, hi)` range. The estimate is clamped to the exact
//! `[min, max]` envelope, which provably cannot move it out of its
//! bucket. Because buckets are powers of two, the estimate is always
//! within 2× of the true sample — and `bucket_index(estimate)` equals
//! `bucket_index(true quantile)` exactly, which is what the oracle
//! proptest pins.
//!
//! All arithmetic is integer (`u128` intermediates), so estimates are
//! deterministic across platforms and merge order: the same bucket
//! counts always serialize to the same `p50`/`p90`/`p99` fields.

use crate::metrics::Histogram;
use crate::snapshot::HistogramSnapshot;

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the recorded
    /// samples, or `None` if the histogram is empty.
    ///
    /// Uses the nearest-rank definition `rank = floor(q · (count − 1))`
    /// (0-based), so `q = 0.0` targets the smallest sample and `q = 1.0`
    /// the largest, matching `sorted[floor(q · (n − 1))]` on raw data.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the targeted sample in sorted order.
        let rank = (q * (self.count - 1) as f64).floor() as u64 + 1;
        // The extreme ranks are stored exactly — no interpolation needed.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for &(index, n) in &self.buckets {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let (lo, hi) = Histogram::bucket_bounds(index as usize);
                // Position of the targeted sample among this bucket's n:
                // model them at the midpoints of n equal sub-intervals.
                let within = rank - cum; // 1..=n
                let width = (hi - lo) as u128;
                let est = lo + ((width * (2 * within as u128 - 1)) / (2 * n as u128)) as u64;
                return Some(est.clamp(self.min, self.max));
            }
            cum += n;
        }
        // Counts and bucket sums always agree; unreachable in practice.
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn hist_of(samples: &[u64]) -> HistogramSnapshot {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("t");
        for &s in samples {
            h.record(s);
        }
        registry.snapshot().histograms["t"].clone()
    }

    #[test]
    fn empty_has_no_quantiles() {
        let h = hist_of(&[]);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let h = hist_of(&[42]);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(42));
        }
    }

    #[test]
    fn quantiles_bracket_and_order() {
        let samples: Vec<u64> = (1..=1000).map(|i| i * 17 % 4096 + 1).collect();
        let h = hist_of(&samples);
        let [p50, p90, p99, max] = [0.50, 0.90, 0.99, 1.0].map(|q| h.quantile(q).unwrap());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
        assert!(p50 >= h.min && p99 <= h.max);
        assert_eq!(max, *samples.iter().max().unwrap());
    }

    #[test]
    fn estimate_lands_in_the_true_samples_bucket() {
        let samples: Vec<u64> = (0..500).map(|i| (i * i * 7 + 3) % 100_000).collect();
        let h = hist_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let truth = sorted[(q * (sorted.len() - 1) as f64).floor() as usize];
            let est = h.quantile(q).unwrap();
            assert_eq!(
                Histogram::bucket_index(est),
                Histogram::bucket_index(truth),
                "q={q}: est {est} not in bucket of true {truth}"
            );
        }
    }

    #[test]
    fn uniform_bucket_interpolates_monotonically() {
        // 100 samples spread across one bucket [64, 128).
        let samples: Vec<u64> = (0..100).map(|i| 64 + (i * 64) / 100).collect();
        let h = hist_of(&samples);
        let mut last = 0;
        for i in 0..=10 {
            let est = h.quantile(i as f64 / 10.0).unwrap();
            assert!(est >= last, "quantiles must be monotone");
            assert!((64..128).contains(&est));
            last = est;
        }
    }

    #[test]
    fn extreme_values_clamp_to_exact_envelope() {
        let h = hist_of(&[u64::MAX, u64::MAX - 7, 1]);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), Some(1));
    }
}
