//! Property tests for the telemetry layer's streaming latency histogram:
//! `merge` must behave like a commutative monoid (so the
//! thread-local-then-merge discipline gives byte-identical results no
//! matter how many threads recorded or in which order their cells were
//! folded in), and `quantile` must never panic and always answer inside
//! the recorded range, alone or several in one pass. The exact sum a
//! histogram carries — what a span's `total_ns` is read from — is part of
//! that monoid and of `since`.

use proptest::prelude::*;
use semantic_sqo::obs::{Histogram, Snapshot, SpanStat};

fn build(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// What `later.since(earlier)` lists under `spans` for one series.
fn span_since(later: &Histogram, earlier: &Histogram) -> Option<SpanStat> {
    let holding = |h: &Histogram| Snapshot {
        hists: [("series", h.clone())].into(),
        ..Snapshot::default()
    };
    let delta = holding(later).since(&holding(earlier));
    delta.spans.get("series").copied()
}

fn merged(parts: &[&Histogram]) -> Histogram {
    let mut out = Histogram::new();
    for p in parts {
        out.merge(p);
    }
    out
}

// Samples spanning the full u64 range, including the overflow-prone
// extremes the bucket math must survive.
fn sample_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        0u64..1_000,
        1_000u64..10_000_000_000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge is associative and commutative, with the sequential
    /// single-histogram build as its reference — so any parenthesization
    /// over any permutation of per-thread histograms yields the same
    /// bytes.
    #[test]
    fn histogram_merge_is_a_commutative_monoid(
        a in proptest::collection::vec(sample_strategy(), 0..40),
        b in proptest::collection::vec(sample_strategy(), 0..40),
        c in proptest::collection::vec(sample_strategy(), 0..40),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let left = merged(&[&merged(&[&ha, &hb]), &hc]);
        let right = merged(&[&ha, &merged(&[&hb, &hc])]);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &merged(&[&hc, &hb, &ha]));
        // Reference: one histogram fed every sample directly.
        let all: Vec<u64> =
            a.iter().chain(b.iter()).chain(c.iter()).copied().collect();
        prop_assert_eq!(&left, &build(&all));
        // The empty histogram is the identity element.
        prop_assert_eq!(&merged(&[&left, &Histogram::new()]), &left);
    }

    /// Merging per-thread histograms recorded on real OS threads equals
    /// the sequential build, in every completion order.
    #[test]
    fn cross_thread_merge_equals_sequential(
        samples in proptest::collection::vec(sample_strategy(), 1..120),
        threads in 2usize..5,
    ) {
        let chunks: Vec<Vec<u64>> = (0..threads)
            .map(|t| {
                samples
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % threads == t)
                    .map(|(_, &v)| v)
                    .collect()
            })
            .collect();
        let mut per_thread: Vec<Histogram> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| scope.spawn(|| build(chunk)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let sequential = build(&samples);
        let forward: Vec<&Histogram> = per_thread.iter().collect();
        prop_assert_eq!(&merged(&forward), &sequential);
        per_thread.reverse();
        let reversed: Vec<&Histogram> = per_thread.iter().collect();
        prop_assert_eq!(&merged(&reversed), &sequential);
    }

    /// What was recorded after an earlier state of a series comes back
    /// from `since` with its exact count and sum, however the later
    /// state was put together — the sum is a `u128`, so `u64::MAX`
    /// samples on either side do not disturb the other's; only the
    /// `u64` it is read into saturates.
    #[test]
    fn since_gives_back_the_count_and_sum_recorded_after(
        a in proptest::collection::vec(sample_strategy(), 0..40),
        b in proptest::collection::vec(sample_strategy(), 0..40),
    ) {
        let (ha, hb) = (build(&a), build(&b));
        let stat = span_since(&merged(&[&hb, &ha]), &ha);
        if b.is_empty() {
            prop_assert_eq!(stat, None, "no samples since: not listed");
        } else {
            let stat = stat.expect("samples since: listed");
            let sum: u128 = b.iter().map(|&v| u128::from(v)).sum();
            prop_assert_eq!(stat.count, b.len() as u64);
            prop_assert_eq!(stat.total_ns, u64::try_from(sum).unwrap_or(u64::MAX));
        }
    }

    /// quantile never panics, answers None exactly on the empty
    /// histogram, and always lands within [min, max] of what was
    /// recorded (half-octave bucketing cannot escape the range because
    /// the estimate is clamped to the observed extremes).
    #[test]
    fn quantiles_stay_inside_the_recorded_range(
        samples in proptest::collection::vec(sample_strategy(), 0..80),
        p_mille in 0u64..1001,
    ) {
        let h = build(&samples);
        let q = h.quantile(p_mille as f64 / 1000.0);
        if samples.is_empty() {
            prop_assert_eq!(q, None);
        } else {
            let v = q.expect("non-empty histogram answers every quantile");
            let lo = *samples.iter().min().unwrap();
            let hi = *samples.iter().max().unwrap();
            prop_assert!(v >= lo && v <= hi, "q={} outside [{}, {}]", v, lo, hi);
        }
    }

    /// `quantiles` answers several `p` in one pass over the buckets, in
    /// any order and with repeats, exactly as `quantile` answers each
    /// alone; the `metrics` summary is written from that pass, with the
    /// exact max.
    #[test]
    fn one_pass_quantiles_equal_quantile_one_at_a_time(
        samples in proptest::collection::vec(sample_strategy(), 0..80),
        p_mille in (0u64..1001, 0u64..1001, 0u64..1001, 0u64..1001),
    ) {
        let h = build(&samples);
        let (a, b, c, d) = p_mille;
        let ps = [a, b, c, d, a].map(|m| m as f64 / 1000.0);
        let each = ps.map(|p| h.quantile(p));
        match h.quantiles(ps) {
            None => prop_assert!(samples.is_empty() && each.iter().all(Option::is_none)),
            Some(one_pass) => prop_assert_eq!(one_pass.map(Some), each),
        }
        let mut summary = String::new();
        h.write_summary_json(&mut summary);
        let q = |p: f64| h.quantile(p).map_or("null".to_string(), |v| v.to_string());
        let max = h.max().map_or("null".to_string(), |v| v.to_string());
        let want = format!(
            r#"{{"count":{},"p50":{},"p90":{},"p99":{},"max":{max}}}"#,
            h.count(),
            q(0.5),
            q(0.9),
            q(0.99)
        );
        prop_assert_eq!(summary, want);
    }
}

#[test]
fn single_sample_quantiles_are_exact_at_extremes() {
    for v in [0, 1, 2, 3, 1_000_003, u64::MAX - 1, u64::MAX] {
        let h = build(&[v]);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), Some(v), "single sample {v} at p={p}");
        }
    }
}

/// Two sample sets no bucket, count or extremum tells apart still merge
/// to different states: the sum is part of what `merge` carries.
#[test]
fn the_sum_is_part_of_the_merged_state() {
    let (low, high) = (build(&[4, 4, 5]), build(&[4, 5, 5]));
    assert_eq!(low.buckets(), high.buckets());
    assert_eq!((low.count(), low.min(), low.max()), (3, Some(4), Some(5)));
    assert_eq!(
        (high.count(), high.min(), high.max()),
        (3, Some(4), Some(5))
    );
    assert_ne!(low, high);
    let empty = Histogram::new();
    let total = |h: &Histogram| span_since(h, &empty).map(|s| s.total_ns);
    assert_eq!((total(&low), total(&high)), (Some(13), Some(14)));
    assert_eq!(total(&merged(&[&low, &high])), Some(27));
    // Past `u64::MAX` the total reads saturated, and is still exact
    // underneath: taking the large samples away again leaves the 27.
    let large = build(&[u64::MAX, u64::MAX]);
    let all = merged(&[&large, &low, &high]);
    assert_eq!(total(&all), Some(u64::MAX));
    assert_eq!(span_since(&all, &large).map(|s| s.total_ns), Some(27));
}
