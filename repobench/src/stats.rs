//! Summaries of timing samples: the median, the quartiles and the
//! highest percentile a sample can support.

/// A sample sorted ascending.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the middle pair for even lengths. `None` for
/// an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method,
/// the default of Python's `statistics.quantiles(values, n=4)` (which
/// extrapolates past the ends of very small samples). `None` for fewer
/// than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `p`-quantile (`0 < p < 1`) by the nearest-rank rule, reported only
/// when at least `min_beyond` samples lie beyond it; a tail percentile
/// resting on fewer samples is noise.
pub fn percentile_with_tail(values: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), Some((4.0, 7.0, 10.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is the 90th value and 10 samples lie beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 0.9, 10), Some(90.0));
        // 99 samples: rank 90 leaves only 9 beyond it.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 0.9, 10), None);
        assert_eq!(percentile_with_tail(&v, 0.5, 10), Some(50.0));
        assert_eq!(percentile_with_tail(&[], 0.5, 0), None);
    }
}
