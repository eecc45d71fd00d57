//! Order statistics the benchmark reports and gates on.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default, exclusive method), because that is how the driver
//! computes the spread it accepts or rejects the benchmark by.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle values for an even count.
/// Panics on an empty slice: every caller has at least one epoch or run.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the better quarter of `values` (rounded up to whole values):
/// the highest for a higher-is-better metric, the lowest otherwise.
///
/// This is how a run sums up its epochs. Another tenant of the host can
/// only slow an epoch down, by a third for seconds or minutes on the host
/// this was written on, so the epochs that ran undisturbed are the fast
/// ones; the median over epochs moved twice as much from run to run.
pub fn best_quarter_mean(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "summary of no epochs");
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    let keep = values.len().div_ceil(4);
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// Needs at least two values, as Python does.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 100]`.
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// Percentiles a latency distribution is reported at, ascending.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`PERCENTILES`] that still has at least ten samples
/// beyond it in `n` samples; `None` when even the median does not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        // The small term absorbs the rounding of 100 − 99.9 and the like.
        .find(|p| n as f64 * (100.0 - p) / 100.0 + 1e-6 >= 10.0)
}

/// By how much `second` is worse than `first`, as a share of `first`;
/// negative when it is better.
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_quarter_mean_takes_the_better_side() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(best_quarter_mean(&v, Better::Higher), 7.5);
        assert_eq!(best_quarter_mean(&v, Better::Lower), 1.5);
        // Five values: the quarter rounds up to two.
        assert_eq!(
            best_quarter_mean(&[5.0, 1.0, 4.0, 2.0, 3.0], Better::Higher),
            4.5
        );
        assert_eq!(best_quarter_mean(&[3.0], Better::Lower), 3.0);
        // One slow outlier among the epochs does not move it.
        assert_eq!(
            best_quarter_mean(&[10.0, 10.0, 10.0, 2.0], Better::Higher),
            10.0
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 2, 7, 3, 5], n=4)
        assert_eq!(quartiles(&[10.0, 2.0, 7.0, 3.0, 5.0]), (2.5, 5.0, 8.5));
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(8), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(40_000), Some(99.9));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, Better::Higher) < 0.0);
    }
}
