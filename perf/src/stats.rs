//! Order statistics over small samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of a non-empty
/// sample, whatever its size.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// [`nearest_rank`] as a *tail* statistic: `None` when fewer than
/// `10 / (1 - p/100)` samples exist — with fewer, under ten samples lie
/// beyond the percentile and it is mostly noise.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let needed = (10.0 / (1.0 - p / 100.0)).round() as usize;
    (values.len() >= needed).then(|| nearest_rank(values, p))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `check` applies the same
/// rule as the driver. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| {
        // Position k/4 of the way through n + 1 gaps, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the bounds are compared against. Zero for a single value.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                ((q3 - q1) / m).abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_is_refused_under_100_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&few, 90.0), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&enough, 90.0), Some(90.0));
        assert_eq!(percentile(&enough, 99.0), None);
        assert_eq!(percentile(&[1.0; 20], 50.0), Some(1.0));
        assert_eq!(nearest_rank(&few, 90.0), 89.0);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0, 5.0, 4.0], 80.0), 4.0);
        assert_eq!(nearest_rank(&[7.0], 80.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[3.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
