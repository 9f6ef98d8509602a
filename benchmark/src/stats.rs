//! Order statistics the report and the comparer share.

/// Median of `values` (mean of the middle two for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the driver uses.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the bounds are judged against. 0 below two values.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Samples that must be taken for percentile `p` to have ten beyond it.
/// A tail percentile read off fewer is one slow request, not a
/// distribution.
pub fn samples_needed(p: f64) -> usize {
    (1000.0 / (100.0 - p)).ceil() as usize
}

/// Median of a power-of-two histogram (`gar_obs::HistogramSnapshot`
/// buckets: bit length → count), interpolated inside the bucket the
/// middle observation falls in. Coarse by construction (a bucket spans a
/// factor of two) but monotone in the underlying latencies.
pub fn histogram_median(buckets: &[(u8, u64)]) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let target = total as f64 / 2.0;
    let mut below = 0u64;
    for &(bits, count) in buckets {
        if (below + count) as f64 >= target {
            let (lo, hi) = match bits {
                0 => (0.0, 1.0),
                b => ((1u64 << (b - 1)) as f64, 2f64.powi(i32::from(b))),
            };
            let into = (target - below as f64) / count as f64;
            return lo + into * (hi - lo);
        }
        below += count;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// `statistics.quantiles(range(1, 11), n=4)` is `[2.75, 5.5, 8.25]`,
    /// and of `[1, 2, 3, 4]` it is `[1.25, 2.5, 3.75]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[7.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
        let enough: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&enough, 99.0), 989);
        assert_eq!(enough.iter().filter(|&&x| x > 989).count(), 10);
        assert_eq!(percentile(&enough, 50.0), 500);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn histogram_median_lands_in_the_middle_bucket() {
        // 10 observations in [4, 8), 30 in [8, 16), 10 in [16, 32).
        let m = histogram_median(&[(3, 10), (4, 30), (5, 10)]);
        assert!((8.0..16.0).contains(&m), "{m}");
        assert_eq!(histogram_median(&[]), 0.0);
    }
}
