//! Dependency-free streaming latency histograms.
//!
//! Log-bucketed (HDR-style) at two sub-buckets per octave: value `v > 1`
//! lands in bucket `2*floor(log2 v) + next-bit`, so the relative
//! quantile error is bounded by one half-octave (~33%) while the whole
//! histogram is a fixed 128-slot `u64` array — cheap to keep per thread
//! and to merge. Merging is element-wise addition, hence associative and
//! commutative: merging per-thread histograms in any order produces a
//! byte-identical result, the same discipline the counter registry
//! relies on when the service's workers merge their totals.

use crate::{push_u64, SpanStat};

/// Number of buckets: index 0 holds zeros, index 1 holds ones, and each
/// octave `o in 1..=63` owns indices `2*o` and `2*o + 1`.
pub const N_HIST_BUCKETS: usize = 128;

/// A streaming log-bucketed histogram of `u64` samples (nanoseconds, by
/// convention). Tracks exact `count`/`sum`/`min`/`max` besides the
/// buckets, so extreme quantiles are exact, a single-sample histogram
/// reports the sample itself, and a span's aggregate needs no second
/// record. The sum is a `u128`: `u64::MAX` samples of `u64::MAX` fit, so
/// it never saturates and `merge`/`since` stay exact.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; N_HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// Bucket index for a sample (total order, exhaustive over `u64`).
#[inline]
fn bucket_index(v: u64) -> usize {
    match v {
        0 => 0,
        1 => 1,
        _ => {
            let o = 63 - v.leading_zeros() as usize; // o >= 1
            let sub = ((v >> (o - 1)) & 1) as usize;
            2 * o + sub
        }
    }
}

/// Inclusive upper bound of a bucket — the value a quantile falling in
/// the bucket reports (before clamping to the observed max).
fn bucket_upper(idx: usize) -> u64 {
    match idx {
        0 => 0,
        1 => 1,
        _ => {
            let o = (idx / 2) as u32;
            let sub = (idx % 2) as u128;
            let base = 1u128 << o;
            let width = 1u128 << (o - 1);
            u64::try_from(base + (sub + 1) * width - 1).unwrap_or(u64::MAX)
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; N_HIST_BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Merges `other` into `self` (element-wise bucket addition; counts
    /// and sums add, exact extrema combine). Associative and commutative,
    /// so any merge order over a set of histograms yields byte-identical
    /// state.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact aggregate of the recorded samples — what
    /// [`crate::Snapshot::spans`] lists for this series. A total past
    /// `u64::MAX` reads as `u64::MAX`.
    pub(crate) fn stat(&self) -> SpanStat {
        SpanStat {
            count: self.count,
            total_ns: u64::try_from(self.sum).unwrap_or(u64::MAX),
            min_ns: self.min,
            max_ns: self.max,
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw bucket array (stable layout; for tests and serializers).
    pub fn buckets(&self) -> &[u64; N_HIST_BUCKETS] {
        &self.buckets
    }

    /// The `p`-quantile (`p` clamped into `[0, 1]`), or `None` when no
    /// samples were recorded — never panics. Reports the containing
    /// bucket's upper bound clamped into the exact observed `[min, max]`
    /// range, so a single-sample histogram returns the sample itself and
    /// `quantile(1.0)` is always the exact max.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        self.quantiles([p]).map(|[q]| q)
    }

    /// [`Self::quantile`] of every `p` in `ps`, in one pass over the
    /// buckets whatever their order.
    pub fn quantiles<const N: usize>(&self, ps: [f64; N]) -> Option<[u64; N]> {
        if self.count == 0 {
            return None;
        }
        let ranks = ps
            .map(|p| ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count));
        let mut found = [None; N];
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            for (q, rank) in found.iter_mut().zip(ranks) {
                if q.is_none() && seen >= rank {
                    *q = Some(bucket_upper(idx).clamp(self.min, self.max));
                }
            }
            if seen >= self.count {
                break;
            }
        }
        Some(found.map(|q| q.unwrap_or(self.max)))
    }

    /// The difference of `self` relative to an `earlier` state of the
    /// same histogram (bucket-wise subtraction; count and sum subtract).
    /// `min`/`max` are taken from `self`: extrema cannot be un-merged.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out.min = self.min;
        out.max = self.max;
        for (o, (a, b)) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *o = a.saturating_sub(*b);
        }
        out
    }

    /// Appends the summary (`count`, `p50`, `p90`, `p99`, `max`) to `out`
    /// as a compact JSON object; quantiles are `null` when empty. One pass
    /// over the buckets reads all three quantiles.
    pub fn write_summary_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        push_u64(out, self.count);
        let quantiles = self.quantiles([0.5, 0.9, 0.99]);
        let values = quantiles.map(|[p50, p90, p99]| [p50, p90, p99, self.max].map(Some));
        let keys = [",\"p50\":", ",\"p90\":", ",\"p99\":", ",\"max\":"];
        for (key, v) in keys.into_iter().zip(values.unwrap_or_default()) {
            out.push_str(key);
            match v {
                Some(v) => push_u64(out, v),
                None => out.push_str("null"),
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let mut summary = String::new();
        h.write_summary_json(&mut summary);
        assert!(summary.contains("\"p50\":null"));
    }

    #[test]
    fn single_sample_is_reported_exactly() {
        for v in [0u64, 1, 2, 3, 7, 1_000_003, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(0.0), Some(v));
            assert_eq!(h.quantile(0.5), Some(v));
            assert_eq!(h.quantile(1.0), Some(v));
        }
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.quantile(0.01), Some(0));
    }

    #[test]
    fn buckets_are_exhaustive_and_ordered() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            probes.extend([v, v | (v >> 1), v + (v / 3), v.saturating_mul(2) - 1]);
        }
        probes.extend([0, u64::MAX]);
        probes.sort_unstable();
        let mut last = 0usize;
        for probe in probes {
            let idx = bucket_index(probe);
            assert!(idx < N_HIST_BUCKETS);
            assert!(idx >= last, "bucket index is monotone in the sample");
            assert!(bucket_upper(idx) >= probe, "upper bound covers {probe}");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), N_HIST_BUCKETS - 1);
        assert_eq!(bucket_upper(N_HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bound_error_to_half_an_octave() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((4000..=7500).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((9000..=10_000).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut all = Histogram::new();
        let mut parts = vec![Histogram::new(), Histogram::new(), Histogram::new()];
        for i in 0..999u64 {
            let v = i * i % 100_000;
            all.record(v);
            parts[(i % 3) as usize].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all);
        // Any merge order is byte-identical.
        let mut reversed = Histogram::new();
        for p in parts.iter().rev() {
            reversed.merge(p);
        }
        assert_eq!(reversed, all);
    }
}
