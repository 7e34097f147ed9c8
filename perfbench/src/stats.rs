//! Order statistics over latency samples.
//!
//! Percentiles are nearest-rank: the `q`-quantile of `n` sorted samples
//! is the sample at rank `ceil(q * n)` (1-based). A percentile is only
//! *supported* when at least [`MIN_BEYOND`] samples lie strictly beyond
//! its rank; an unsupported one is still computed but flagged, so a
//! report never presents a tail figure that rests on a handful of points.

/// Samples that must lie beyond a percentile's rank for it to count.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: u64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
}

impl Percentile {
    /// True when at least [`MIN_BEYOND`] samples lie beyond the rank.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending sample.
/// `None` for an empty sample.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { value: sorted[rank - 1], beyond: n - rank })
}

/// Median of unsorted floats (mean of the middle pair for even counts).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of unsigned samples, `0.0` when empty.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50).unwrap().value, 50);
        assert_eq!(percentile(&s, 0.99).unwrap().value, 99);
        assert_eq!(percentile(&s, 1.0).unwrap().value, 100);
        // ceil(0.5 * 5) = 3rd of five: no interpolation.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5).unwrap().value, 30);
        // ceil(0.9 * 11) = 10th.
        let s11: Vec<u64> = (1..=11).collect();
        assert_eq!(percentile(&s11, 0.9).unwrap().value, 10);
        assert_eq!(percentile(&[7], 0.01).unwrap().value, 7);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten beyond -> supported.
        let s: Vec<u64> = (0..1000).collect();
        let p = percentile(&s, 0.99).unwrap();
        assert_eq!(p.beyond, 10);
        assert!(p.supported());
        // 999 samples: rank 990, nine beyond -> flagged.
        let p = percentile(&s[..999], 0.99).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(!p.supported());
        // A median of 19 samples has 9 beyond it: flagged too.
        assert!(!percentile(&s[..19], 0.5).unwrap().supported());
        assert!(percentile(&s[..20], 0.5).unwrap().supported());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
    }
}
