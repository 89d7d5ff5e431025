//! Order statistics the benchmark reports: medians, quartiles, percentiles.

/// Sorted copy of `values` (total order; the harness never records NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median of the better half of `values`: the `ceil(n/2)` largest when
/// higher is better, the smallest otherwise. On a shared host a neighbour's
/// load only ever slows a round, so the rounds it disturbed least are the
/// better ones; their median measures the program rather than the
/// neighbours, while a change in the program still moves every round.
/// `None` when empty.
pub fn better_half_median(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let v = sorted(values);
    let half = v.len().div_ceil(2);
    median(if higher_is_better {
        &v[v.len() - half..]
    } else {
        &v[..half]
    })
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method) — the acceptance check computes spreads that way,
/// so the harness must too. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median — the "spread" every
/// bound in `BENCHMARK.json` is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile `p` in (0, 100), reported only when at least
/// `MIN_BEYOND` samples lie beyond it (a p99 of 300 samples is three
/// samples' worth of noise, not a tail).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    /// Samples required above a percentile before it is reported.
    const MIN_BEYOND: usize = 10;
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn better_half_median_takes_the_side_the_metric_prefers() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0];
        // Best three of six: {4, 5, 6} when higher is better, {1, 2, 3} otherwise.
        assert_eq!(better_half_median(&v, true), Some(5.0));
        assert_eq!(better_half_median(&v, false), Some(2.0));
        // Odd count: the half includes the middle value.
        assert_eq!(better_half_median(&[1.0, 2.0, 3.0], true), Some(2.5));
        assert_eq!(better_half_median(&[7.0], false), Some(7.0));
        assert_eq!(better_half_median(&[], true), None);
        // A disturbed minority of rounds does not move it.
        let calm = [100.0; 9];
        let mut disturbed = calm.to_vec();
        disturbed.extend([60.0, 70.0, 50.0]);
        assert_eq!(better_half_median(&disturbed, true), Some(100.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            Some((15.0, 120.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(5.5 / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // 999 samples: nearest-rank p99 is #990, nine samples lie beyond.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..999], 95.0), Some(950.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
