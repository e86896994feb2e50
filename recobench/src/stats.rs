//! Percentiles with their sample counts.

/// Fewest samples that must lie beyond a reported p99.
pub const MIN_BEYOND_P99: usize = 10;

/// Fewest samples for which [`quantiles`] reports a p99: with `n` samples,
/// `n - ceil(0.99 n)` lie beyond the nearest-rank p99, which reaches
/// [`MIN_BEYOND_P99`] at `n = 1000`.
pub const MIN_SAMPLES_FOR_P99: usize = 1000;

/// The median and 99th percentile of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank); `None` when fewer than
    /// [`MIN_BEYOND_P99`] samples lie beyond it.
    pub p99: Option<f64>,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median and p99 of `samples`; `None` when there are none.
pub fn quantiles(samples: &[f64]) -> Option<Quantiles> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p99 = rank(0.99, n);
    Some(Quantiles {
        p50: sorted[rank(0.5, n)],
        p99: (n - 1 - p99 >= MIN_BEYOND_P99).then(|| sorted[p99]),
        samples: n,
    })
}

/// Median of `samples` (nearest rank); `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantiles(samples).map(|q| q.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..MIN_SAMPLES_FOR_P99).map(|i| i as f64).collect();
        let q = quantiles(&samples).expect("non-empty");
        assert_eq!(q.samples, MIN_SAMPLES_FOR_P99 - 1);
        assert_eq!(q.p99, None, "999 samples leave only 9 beyond the p99");

        let samples: Vec<f64> = (1..=MIN_SAMPLES_FOR_P99).map(|i| i as f64).collect();
        let q = quantiles(&samples).expect("non-empty");
        assert_eq!(q.p99, Some(990.0));
        let beyond = samples.iter().filter(|&&s| s > 990.0).count();
        assert_eq!(beyond, MIN_BEYOND_P99);
    }

    #[test]
    fn median_is_the_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        let q = quantiles(&[5.0]).expect("one sample");
        assert_eq!((q.p50, q.p99, q.samples), (5.0, None, 1));
    }
}
