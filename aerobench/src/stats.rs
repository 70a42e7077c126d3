//! Order statistics for latency samples and run-to-run noise bands.

/// Linearly interpolated quantile `q ∈ [0, 1]` of `xs` (sorted internally).
/// NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    match s.get(i + 1) {
        Some(next) => s[i] + (next - s[i]) * frac,
        None => s[i],
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The three cut points of Python's `statistics.quantiles(xs, n=4)`
/// (its default "exclusive" method), so spreads printed here match the
/// ones computed from the printed values. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let m = n as i64 + 1;
    let mut out = [f64::NAN; 3];
    if n < 2 {
        return out;
    }
    for (i, o) in (1..=3i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *o = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// `num / den`, read as 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Regression bound from repeated sets: twice the largest relative
/// deviation from their median, at least 3% and at most 25%, the largest
/// bound `BENCHMARK.json` accepts.
pub fn bound(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev = xs
        .iter()
        .map(|x| ((x - m) / m).abs())
        .fold(0.0f64, f64::max);
    (2.0 * dev).clamp(0.03, 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_is_twice_the_worst_deviation_within_limits() {
        // median 100, worst deviation 4% → 8%
        assert!((bound(&[96.0, 100.0, 101.0, 100.0, 99.0]) - 0.08).abs() < 1e-12);
        // tiny deviations floor at 3%
        assert_eq!(bound(&[100.0, 100.5, 99.8]), 0.03);
        // wild deviations cap at 25%
        assert_eq!(bound(&[50.0, 100.0, 100.0]), 0.25);
    }
}
