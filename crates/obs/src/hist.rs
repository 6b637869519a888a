//! A lock-free HDR-style log-linear histogram.
//!
//! The serve daemon's latency tracking and the live metrics
//! [`Registry`](crate::registry::Registry) aggregate through this *same*
//! structure: power-of-two octaves split into
//! [`SUB`] linear sub-buckets, bounding the relative quantile error at
//! 12.5%. Recording is one relaxed increment per atomic; reads sweep a
//! snapshot.
//!
//! Values are unit-agnostic `u64` "ticks". The serve daemon records
//! nanoseconds directly; the registry's f64-facing
//! [`Histogram`](crate::registry::Histogram) handle scales seconds-valued
//! samples into ticks before recording.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power-of-two
/// octave, bounding the relative quantile error at 12.5%.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for the full `u64` range (index ≤ 495).
pub(crate) const BUCKETS: usize = 512;

/// A lock-free log-linear histogram of `u64` tick values (HDR-style).
/// Recording is one relaxed increment; quantiles are read from a snapshot
/// sweep.
pub struct LogLinearHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
    /// Per-bucket exemplar slots, allocated on the first traced sample so
    /// histograms that never see a traced request pay nothing.
    exemplars: OnceLock<Box<[ExemplarSlot]>>,
}

/// Last traced sample that landed in one bucket: `(trace, value)`, with
/// `trace == 0` meaning "no exemplar yet". Concurrent writers race
/// last-wins; a torn pair still holds a value from the same bucket, so
/// the exposed exemplar stays plausible for its `le` bound.
struct ExemplarSlot {
    trace: AtomicU64,
    value: AtomicU64,
}

pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let shift = msb - u64::from(SUB_BITS);
        let sub = (v >> shift) - SUB;
        ((shift + 1) * SUB + sub) as usize
    }
}

/// Largest value that lands in bucket `i` (the reported quantile bound).
/// Computed in `u128`: the top few of the 512 indices are unreachable from
/// any `u64` input and would overflow a `u64` shift.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        i
    } else {
        let shift = i / SUB - 1;
        let sub = i % SUB;
        let hi = u128::from(SUB + sub + 1) << shift;
        (hi - 1).min(u128::from(u64::MAX)) as u64
    }
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogLinearHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            exemplars: OnceLock::new(),
        }
    }

    /// Record one sample, in ticks.
    #[inline]
    pub fn record(&self, ticks: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ticks, Ordering::Relaxed);
        self.buckets[bucket_index(ticks)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one sample and remember it as its bucket's exemplar, so the
    /// exposition layer can point the bucket at a concrete trace
    /// (OpenMetrics `# {trace_id="…"}`). A zero trace id (= unsampled)
    /// records the value without touching exemplar storage.
    #[inline]
    pub fn record_exemplar(&self, ticks: u64, trace_id: u64) {
        self.record(ticks);
        if trace_id == 0 {
            return;
        }
        let slots = self
            .exemplars
            .get_or_init(|| (0..BUCKETS).map(|_| ExemplarSlot::empty()).collect());
        let slot = &slots[bucket_index(ticks)];
        slot.value.store(ticks, Ordering::Relaxed);
        slot.trace.store(trace_id, Ordering::Release);
    }

    /// Non-empty exemplars as `(bucket_upper_ticks, value_ticks, trace_id)`
    /// in ascending bucket order. Empty until the first traced sample.
    pub fn exemplars(&self) -> Vec<(u64, u64, u64)> {
        let Some(slots) = self.exemplars.get() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            let trace = slot.trace.load(Ordering::Acquire);
            if trace != 0 {
                out.push((bucket_upper(i), slot.value.load(Ordering::Relaxed), trace));
            }
        }
        out
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded ticks (wraps on overflow, like any `u64` sum).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value in ticks (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile in ticks (upper bound of the bucket the quantile
    /// falls in; 0 when empty). `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Snapshot of the non-empty tail of the distribution as
    /// `(bucket_upper_ticks, cumulative_count)` pairs, in ascending bucket
    /// order, ending at the last non-empty bucket. Empty buckets *below*
    /// that point are included so consumers see a dense cumulative curve.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, n) in counts.iter().enumerate() {
            cum += n;
            out.push((bucket_upper(i), cum));
            if cum == total {
                break; // everything beyond here is an empty tail
            }
        }
        out
    }
}

impl ExemplarSlot {
    fn empty() -> ExemplarSlot {
        ExemplarSlot {
            trace: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogLinearHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogLinearHistogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v = 0u64;
        while v < 1 << 40 {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            assert!(i < BUCKETS);
            last = i;
            v = v * 2 + 1;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_upper_bounds_its_own_bucket() {
        // Indices past bucket_index(u64::MAX) can't be hit by any input.
        for i in 0..=bucket_index(u64::MAX) {
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(hi), i, "upper({i}) = {hi}");
            if hi < u64::MAX {
                assert!(bucket_index(hi + 1) > i);
            }
        }
    }

    #[test]
    fn quantiles_bracket_known_distribution() {
        let h = LogLinearHistogram::new();
        // 1..=1000 µs, uniform, recorded as nanoseconds.
        for us in 1..=1000u64 {
            h.record(us * 1_000);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50) as f64 / 1_000.0;
        let p99 = h.quantile(0.99) as f64 / 1_000.0;
        // Log-linear buckets are accurate to 12.5% on the upper bound.
        assert!((430.0..=580.0).contains(&p50), "p50 {p50}");
        assert!((930.0..=1150.0).contains(&p99), "p99 {p99}");
        assert!((h.mean() / 1_000.0 - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0], (0, 0));
    }

    #[test]
    fn exemplars_track_the_last_traced_sample_per_bucket() {
        let h = LogLinearHistogram::new();
        assert!(h.exemplars().is_empty(), "no storage before first trace");
        h.record(5); // untraced
        h.record_exemplar(5, 0); // trace id 0 = unsampled: no exemplar
        assert!(h.exemplars().is_empty());
        h.record_exemplar(5, 0xabc);
        h.record_exemplar(5, 0xdef); // same bucket: last wins
        h.record_exemplar(40_000, 0x123);
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        let (upper0, value0, trace0) = ex[0];
        assert_eq!((value0, trace0), (5, 0xdef));
        assert!(upper0 >= 5);
        let (upper1, value1, trace1) = ex[1];
        assert_eq!((value1, trace1), (40_000, 0x123));
        assert!(value1 <= upper1, "exemplar value exceeds its le bound");
        assert_eq!(h.count(), 5, "exemplar recording still counts samples");
    }

    #[test]
    fn cumulative_buckets_are_nondecreasing_and_end_at_count() {
        let h = LogLinearHistogram::new();
        for v in [1u64, 1, 7, 900, 900, 35_000, 2_000_000] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        let mut last = 0u64;
        for &(upper, cum) in &buckets {
            assert!(cum >= last, "cumulative count regressed at {upper}");
            last = cum;
        }
        assert_eq!(last, h.count());
        // Uppers strictly increase.
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }
}
