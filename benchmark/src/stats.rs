//! Order statistics over timing samples.

/// Sorted copy of `xs`. Timing samples are never NaN (callers reject
/// non-finite values before they get here); `total_cmp` keeps the sort
/// total anyway.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive), which is what the driver
/// that accepts or refuses this benchmark computes spreads with. Fewer
/// than two samples have no spread: all three are the single value (or 0).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (q, slot) in out.iter_mut().enumerate() {
        let i = q + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Nearest-rank percentile `p` in 0..=100 of already sorted samples.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile_sorted(&v, 50.0), 3.0);
        assert_eq!(percentile_sorted(&v, 99.0), 5.0);
    }
}
