//! Fixed-bucket log-scale histogram geometry and the merged summary type.
//!
//! Buckets are exponential with 4 sub-buckets per octave (bucket width
//! ~19 % relative), spanning 2^-30 ≈ 1 ns (as seconds) up to 2^40 ≈ 10^12
//! (covers iteration counts as well as durations). Percentile estimates are
//! the geometric midpoint of the crossing bucket, clamped to the exact
//! min/max recorded alongside, so single-valued histograms report exact
//! percentiles.

/// Sub-buckets per factor-of-two range.
const BUCKETS_PER_OCTAVE: usize = 4;
/// log2 of the lower bound of bucket 0.
const MIN_EXP: i32 = -30;
/// log2 of the upper bound of the last bucket.
const MAX_EXP: i32 = 40;
/// Total bucket count of every histogram.
pub(crate) const NUM_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * BUCKETS_PER_OCTAVE;

/// Bucket index for a finite value (`v <= 0` folds into bucket 0).
pub(crate) fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let idx = ((v.log2() - MIN_EXP as f64) * BUCKETS_PER_OCTAVE as f64).floor();
    if idx < 0.0 {
        0
    } else if idx >= (NUM_BUCKETS - 1) as f64 {
        NUM_BUCKETS - 1
    } else {
        idx as usize
    }
}

/// Geometric midpoint of bucket `idx`, the representative value used for
/// percentile estimates.
pub(crate) fn bucket_midpoint(idx: usize) -> f64 {
    2f64.powf((idx as f64 + 0.5) / BUCKETS_PER_OCTAVE as f64 + MIN_EXP as f64)
}

/// Merged view of one histogram across all stores.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (exact, not bucketed).
    pub sum: f64,
    /// Smallest recorded value (exact).
    pub min: f64,
    /// Largest recorded value (exact).
    pub max: f64,
    /// Median estimate (bucket midpoint clamped to `[min, max]`).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSummary {
    /// Exact mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Builds a summary from merged bucket counts plus exact aggregates.
pub(crate) fn summarize(
    buckets: &[u64],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
) -> HistogramSummary {
    let pct = |q: f64| -> f64 {
        if count == 0 {
            return 0.0;
        }
        // 1-based rank of the q-quantile observation.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, &c) in buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_midpoint(idx).clamp(min, max);
            }
        }
        max
    };
    HistogramSummary {
        count,
        sum,
        min: if count == 0 { 0.0 } else { min },
        max: if count == 0 { 0.0 } else { max },
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_clamped() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(1e-300), 0);
        assert_eq!(bucket_index(1e300), NUM_BUCKETS - 1);
        let mut prev = 0;
        for i in 0..200 {
            let v = 1e-9 * 1.3f64.powi(i);
            let b = bucket_index(v);
            assert!(b >= prev, "bucket index must be monotone in the value");
            prev = b;
        }
    }

    #[test]
    fn midpoint_lands_in_its_own_bucket() {
        for idx in [0usize, 1, 17, 120, NUM_BUCKETS - 1] {
            assert_eq!(bucket_index(bucket_midpoint(idx)), idx);
        }
    }
}
