//! Order statistics and the drift-correction arithmetic.

/// Median of `values` (mean of the middle pair for an even count).
/// Returns 0.0 for an empty slice so an absent layer reads as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), since
/// that is what the acceptance check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0.0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What to multiply a wall-clock rate by (and divide a duration by) to take
/// the host's drift out of a round: the nominal speed of the reference
/// kernel, recorded when the benchmark was defined, over its speed around
/// this round (`ref_before`, `ref_after`). A round on a host running 20 %
/// slow gets 1.25 and reports the rate it would have had at nominal speed.
/// A dead reference corrects nothing.
pub fn drift_factor(ref_before: f64, ref_after: f64, nominal: f64) -> f64 {
    let ref_round = (ref_before + ref_after) / 2.0;
    if ref_round > 0.0 {
        nominal / ref_round
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 5.5 / 5.5);
        assert_eq!(spread(&[2.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn drift_factor_cancels_a_uniform_slowdown() {
        // Host at nominal speed: nothing to correct.
        assert_eq!(drift_factor(50.0, 50.0, 50.0), 1.0);
        // Host 20 % slow during the round: workload and reference both
        // drop by the same factor, so 800 ops/s reads as the nominal 1000,
        // and 2.5 s of set-up as the nominal 2.0.
        let f = drift_factor(40.0, 40.0, 50.0);
        assert!((800.0 * f - 1000.0).abs() < 1e-9);
        assert!((2.5 / f - 2.0).abs() < 1e-12);
        // The bracket is averaged.
        assert!((900.0 * drift_factor(50.0, 40.0, 50.0) - 1000.0).abs() < 1e-9);
        // A dead reference leaves the measurement alone.
        assert_eq!(drift_factor(0.0, 0.0, 50.0), 1.0);
    }
}
