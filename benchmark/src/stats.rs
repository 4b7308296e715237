//! Order statistics over exact samples.
//!
//! Latencies are kept as raw nanosecond samples, so two configurations
//! can never tie on a shared histogram bucket edge (the defect of the old
//! `serve/p99` == `serve/p99_threaded` rows).

/// Percentiles the benchmark may report as a tail, lowest first, in
/// hundredths of a percent (integer ranks: `0.99 * 1000` is not 990.0).
const TAIL_LADDER: [u64; 5] = [9000, 9500, 9900, 9990, 9999];

/// p50 and p99 in the same unit.
pub const P50: u64 = 5000;
pub const P99: u64 = 9900;

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest rank of percentile `p` (hundredths of a percent) in `n > 0`
/// samples, 1-based.
fn rank(n: usize, p: u64) -> usize {
    ((n as u64 * p).div_ceil(10_000) as usize).clamp(1, n)
}

/// The `p`-percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[u64], p: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The median of the samples, interpolating between the two middle ones;
/// 0 for no samples (a layer that did no work).
pub fn median_of(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    match samples.len() {
        0 => 0.0,
        n if n % 2 == 1 => samples[n / 2] as f64,
        n => (samples[n / 2 - 1] as f64 + samples[n / 2] as f64) / 2.0,
    }
}

/// The median of unordered values; 0 for none.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The samples in ascending order.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// One slice in this many counts as quiet (see [`quiet_level`]).
const QUIET_SHARE: usize = 5;

/// The level a run reaches while nothing disturbs it: the median over the
/// best fifth of its slices' values (the highest when `higher_is_better`,
/// else the lowest); 0 for no slices.
///
/// The machines this runs on slow down for anything from a fraction of a
/// second to minutes at a time (other tenants of the host) and never
/// speed up, so a run's best slices are its undisturbed ones. The median
/// over all slices moves with the neighbours' load; this moves with the
/// program.
pub fn quiet_level(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.truncate((v.len() / QUIET_SHARE).max(1));
    median_f64(&v)
}

/// How many of `n` samples lie beyond the `p`-percentile's rank.
fn beyond(n: usize, p: u64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when even p90 is not supported.
pub fn tail_percentile(n: usize) -> Option<u64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), or `None` for fewer than two values.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// The median of `values` and the distance between their first and third
/// quartile as a share of it (`None` for fewer than two values).
pub fn median_and_spread(values: &[f64]) -> (f64, Option<f64>) {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q2, Some((q3 - q1) / q2.abs())),
        _ => (median_f64(values), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, P50), 50);
        assert_eq!(percentile(&v, P99), 99);
        assert_eq!(percentile(&v, 10_000), 100);
        assert_eq!(percentile(&[7], P99), 7);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median_of(vec![]), 0.0);
        assert_eq!(median_of(vec![3]), 3.0);
        assert_eq!(median_of(vec![10, 2, 1, 3]), 2.5);
        assert_eq!(median_of(vec![9, 1, 5]), 5.0);
    }

    #[test]
    fn quiet_level_is_the_median_of_the_best_fifth() {
        assert_eq!(sorted(&[3, 1, 2]), vec![1, 2, 3]);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
        // Ten slices: the best fifth is two of them.
        let v = [5., 9., 1., 7., 3., 8., 2., 6., 4., 10.];
        assert_eq!(quiet_level(&v, false), 1.5);
        assert_eq!(quiet_level(&v, true), 9.5);
        // Fewer than five slices: the single best one.
        assert_eq!(quiet_level(&[4., 2., 3.], false), 2.0);
        assert_eq!(quiet_level(&[4., 2., 3.], true), 4.0);
        assert_eq!(quiet_level(&[], true), 0.0);
        // A disturbance in most slices does not move the level.
        let disturbed = [100., 101., 180., 170., 150., 160., 190., 140., 130., 175.];
        assert_eq!(quiet_level(&disturbed, false), 100.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999 only 9.
        assert_eq!(beyond(1000, P99), 10);
        assert_eq!(tail_percentile(1000), Some(P99));
        assert_eq!(tail_percentile(999), Some(9500));
        assert_eq!(tail_percentile(100), Some(9000));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(150_000), Some(9999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20., 10.]).unwrap(), [7.5, 15.0, 22.5]);
        assert!(quartiles(&[1.0]).is_none());
        let (m, s) = median_and_spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
        assert_eq!(m, 5.5);
        assert_eq!(s, Some(1.0));
    }
}
