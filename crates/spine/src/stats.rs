//! Order statistics for segment samples and latency samples.

/// Median and quartiles of a sample set, as the benchmark reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, which is what the driver uses
    /// for its spread check; fewer than two samples have no spread.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Summary {
                median: x,
                q1: x,
                q3: x,
                n,
            };
        }
        let quantile = |k: usize| {
            // Position k(n+1)/4 in 1-based ranks, interpolated, clamped to
            // the sample range.
            let j = (k * (n + 1) / 4).clamp(1, n - 1);
            let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            n,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The benchmark's estimator over repeats of identical work, for samples
/// where lower is better (a time, a cost): the best repeat. On a shared
/// host interference only ever slows a repeat, and it comes in stretches of
/// seconds, so the median of a run wanders with the neighbours (by 20–30 %
/// between ten-second runs here) while the fastest repeat stays with the
/// code (2–5 %). `README.md` has the measurements behind this choice.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `p`-th percentile (0–100) by nearest rank on a sorted slice; the default
/// value when there are no samples.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] for unsorted real samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Candidate tail percentiles, ascending, each with the share of samples
/// beyond it in parts per ten thousand (integers keep the picker exact).
pub const TAILS: [(f64, usize); 5] = [
    (50.0, 5000),
    (90.0, 1000),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// The highest of [`TAILS`] that still has at least ten samples beyond it
/// among `n` samples; `None` when even the median has fewer than ten.
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond >= 10 * 10_000)
        .map(|&(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn best_is_the_fastest_repeat() {
        assert_eq!(best(&[4.0, 1.5, 3.0]), 1.5);
        assert_eq!(best(&[7.0]), 7.0);
        assert!(best(&[]).is_infinite());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile::<u64>(&[], 50.0), 0);
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 90.0), 36.0);
        assert_eq!(nearest_rank(&v, 10.0), 4.0);
        assert_eq!(nearest_rank(&[], 10.0), 0.0);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(99_999), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
    }
}
