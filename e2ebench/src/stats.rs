//! The benchmark's own statistics: medians, quartiles, and the tail
//! percentile rule.
//!
//! A timing is reported as its median plus the highest percentile of
//! [`TAIL_LADDER`] that still has at least [`MIN_BEYOND`] samples beyond
//! it, together with the sample count. Runs with too few samples for any
//! ladder percentile report their maximum instead.

/// Candidate tail percentiles in per-mille (p99, p90), highest first;
/// integer so nearest ranks are exact. The ladder stops at p99: rarer
/// percentiles move with the host's noise more than with the system.
pub const TAIL_LADDER: [usize; 2] = [990, 900];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// On an empty slice or a NaN value: both are benchmark bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three cut points dividing `values` into quarters, computed like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones checked externally.
///
/// # Panics
/// With fewer than two samples or a NaN value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let s = sorted(values);
    let m = s.len() as i64;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1) - j * n) as f64;
        let (lo, hi) = (s[(j - 1) as usize], s[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's bound is compared against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// A tail latency: the percentile reported and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`; `100.0` means the maximum.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The highest [`TAIL_LADDER`] percentile with at least [`MIN_BEYOND`]
/// samples beyond its nearest-rank position, or the maximum when no
/// ladder percentile qualifies.
///
/// # Panics
/// On an empty slice or a NaN value.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let s = sorted(values);
    let n = s.len();
    for per_mille in TAIL_LADDER {
        let rank = nearest_rank(n, per_mille);
        let beyond = n - 1 - rank;
        if beyond >= MIN_BEYOND {
            return Tail {
                percentile: per_mille as f64 / 10.0,
                value: s[rank],
                beyond,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: s[n - 1],
        beyond: 0,
    }
}

/// The tail of `(time, value)` samples taken per interval: samples are
/// grouped into consecutive `interval`-long spans of `0..window`, [`tail`]
/// is applied to each complete span, and the median span (by value) is
/// returned. Samples at or after the last complete span's end are
/// ignored. `None` when no span is complete or a complete span is empty.
pub fn interval_tail(samples: &[(f64, f64)], interval: f64, window: f64) -> Option<Tail> {
    let spans = (window / interval).floor() as usize;
    let mut groups: Vec<Vec<f64>> = vec![Vec::new(); spans];
    for &(t, v) in samples {
        let i = (t / interval).floor();
        if i >= 0.0 && (i as usize) < spans {
            groups[i as usize].push(v);
        }
    }
    if groups.is_empty() || groups.iter().any(Vec::is_empty) {
        return None;
    }
    let mut tails: Vec<Tail> = groups.iter().map(|g| tail(g)).collect();
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    Some(tails[tails.len() / 2])
}

/// Zero-based nearest-rank index of a per-mille percentile among `n`
/// samples.
fn nearest_rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(values.iter().all(|v| !v.is_nan()), "NaN sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([2, 4, 4, 7], n=4) == [2.5, 4.0, 6.25]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 7.0]), [2.5, 4.0, 6.25]);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[7.0; 10]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 10_000 samples: p99 is the top of the ladder.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 9900.0, 100));
        // 999 samples: p99 leaves 9 beyond, so p90 is the highest.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900.0, 99));
    }

    #[test]
    fn interval_tail_is_the_median_interval() {
        // Three 1-second intervals of 1000 samples each; the middle one's
        // values are shifted by 10_000, the last one's by 20_000.
        let samples: Vec<(f64, f64)> = (0..3000)
            .map(|i| {
                let interval = i / 1000;
                let t = interval as f64 + (i % 1000) as f64 / 1000.0;
                (t, (i % 1000 + 1) as f64 + 10_000.0 * interval as f64)
            })
            .collect();
        let t = interval_tail(&samples, 1.0, 3.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 10_990.0, 10));
        // A burst in one interval does not move the result.
        let mut burst = samples.clone();
        burst[2500].1 = 1e9;
        assert_eq!(interval_tail(&burst, 1.0, 3.0), Some(t));
        // Samples past the last complete interval are ignored.
        let mut late = samples.clone();
        late.push((3.5, 1e9));
        assert_eq!(interval_tail(&late, 1.0, 3.2), Some(t));
        // An empty interval, or none at all, gives no tail.
        assert_eq!(interval_tail(&samples, 1.0, 4.0), None);
        assert_eq!(interval_tail(&samples, 1.0, 0.5), None);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_for_small_samples() {
        let t = tail(&[3.0, 9.0, 1.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 9.0, 0));
        // 100 samples: p90 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 90.0);
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 100.0);
    }
}
