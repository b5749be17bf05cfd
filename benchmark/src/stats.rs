//! Order statistics and means shared by every workload, the suite
//! aggregator and `compare`.

/// Mean of the values whose rank lies within `half` of percentile `p`
/// of an ascending slice (both as shares: `0.99` and `0.005` for the
/// ranks from 98.5 % to 99.5 %). The items of a pass differ in cost by
/// orders of magnitude and by 10–15 % between neighbours in rank, so a
/// point percentile jumps by that gap whenever two of them trade
/// places; the band moves by a fraction of it.
pub fn percentile_band(sorted: &[f64], p: f64, half: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = |q: f64| ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    let band = &sorted[rank(p - half)..=rank(p + half)];
    band.iter().sum::<f64>() / band.len() as f64
}

/// Sort ascending in place (NaN-free input) and return the slice.
pub fn sort(xs: &mut [f64]) -> &[f64] {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    xs
}

/// Median by the usual even-length midpoint rule.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value of rank `(n - 1) / nth`, rounded down, among `n` values in
/// ascending order: the lower quartile for `nth` 4, the lower decile
/// for 10 — the second lowest of eleven to twenty. Rounding down keeps
/// the rank low when there are few values, which is when a slow
/// stretch of the machine covers most of them.
pub fn low_rank(xs: &[f64], nth: usize) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    v.get(v.len().saturating_sub(1) / nth)
        .copied()
        .unwrap_or(0.0)
}

/// Geometric mean of positive values; non-positive entries are
/// clamped to the smallest positive double so one zero cannot erase
/// the whole figure.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let sum: f64 = xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (sum / xs.len() as f64).exp()
}

/// The suite's per-metric summary over rounds: the median and the
/// spread `(max - min) / median` printed beside it.
pub fn median_of_rounds(rounds: &[f64]) -> (f64, f64) {
    let med = median(rounds);
    if rounds.is_empty() || med == 0.0 {
        return (med, 0.0);
    }
    let lo = rounds.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rounds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (med, (hi - lo) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_band_averages_the_neighbouring_ranks() {
        let v: Vec<f64> = (0..=200).map(f64::from).collect();
        // Ranks 95..=105 around the median, 197..=199 at the top.
        assert_eq!(percentile_band(&v, 0.5, 0.025), 100.0);
        assert_eq!(percentile_band(&v, 0.99, 0.005), 198.0);
        assert_eq!(percentile_band(&[3.0], 0.9, 0.025), 3.0);
        assert_eq!(percentile_band(&[], 0.9, 0.025), 0.0);
        // One outlier moves the band by a fraction of its size.
        let mut w = v.clone();
        w[100] = 104.5;
        sort(&mut w);
        assert!((percentile_band(&w, 0.5, 0.025) - 100.0).abs() < 0.5);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn low_rank_rounds_down() {
        let v: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(low_rank(&v, 10), 3.0);
        assert_eq!(low_rank(&v[..20], 10), 3.0);
        assert_eq!(low_rank(&v[..10], 10), 12.0);
        assert_eq!(low_rank(&v, 4), 6.0);
        assert_eq!(low_rank(&[7.0], 4), 7.0);
        assert_eq!(low_rank(&[], 4), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // A zero sample must not turn the mean into NaN or 0/0.
        assert!(geomean(&[0.0, 1.0]).is_finite());
    }

    #[test]
    fn median_of_rounds_reports_spread() {
        let (m, s) = median_of_rounds(&[100.0, 90.0, 120.0]);
        assert_eq!(m, 100.0);
        assert!((s - 0.3).abs() < 1e-12);
        assert_eq!(median_of_rounds(&[5.0]), (5.0, 0.0));
        assert_eq!(median_of_rounds(&[]), (0.0, 0.0));
    }
}
