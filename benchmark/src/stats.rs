//! Order statistics the metrics are built from.

/// A reported value with the spread and sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Median and quartiles of `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, value, q3) = quartiles(samples);
        Summary {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A value that has no distribution behind it (a count, a ratio of
    /// totals).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// `value` with the quartiles and count of `spread` (for a metric
    /// whose headline is not the plain median of its samples).
    pub fn with_spread(value: f64, spread: &[f64]) -> Summary {
        Summary {
            value,
            ..Summary::of(spread)
        }
    }

    /// Inter-quartile range as a share of the value.
    pub fn relative_iqr(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }

    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary {
            value: f(self.value),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Value at rank `p·(n+1)` with linear interpolation, clamped to the
/// ends — the rule of Python's `statistics.quantiles` (exclusive
/// method), which the driver uses, so the quartiles printed here are
/// the ones it will compute.
fn rank_interpolated(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// `(q1, median, q3)`; all three equal the sample when there is one,
/// NaN when there is none.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let s = sorted(values);
    (
        rank_interpolated(&s, 0.25),
        rank_interpolated(&s, 0.5),
        rank_interpolated(&s, 0.75),
    )
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The first quartile: the estimate for a quantity where lower is better
/// and the host's noise only ever adds (a time, a latency). A co-tenant
/// can make a pass or a window slower, never faster, so the quiet side of
/// the distribution is the nearer to the program's own speed; a quartile
/// rather than the minimum so that one freak sample decides nothing.
pub fn quiet_low(values: &[f64]) -> f64 {
    quartiles(values).0
}

/// The third quartile: the same for a rate, where higher is better.
pub fn quiet_high(values: &[f64]) -> f64 {
    quartiles(values).2
}

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the samples at or below it. A missing result is recorded as
/// `f64::INFINITY`, so it counts as slower than any limit.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Index of the window `[k·len, (k+1)·len)` that holds `t`, or `None`
/// outside `[0, count·len)`. A boundary belongs to the window it opens.
pub fn window_of(t: f64, len: f64, count: usize) -> Option<usize> {
    if t.is_nan() || t < 0.0 || len <= 0.0 {
        return None;
    }
    let k = (t / len).floor() as usize;
    (k < count).then_some(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(quartiles(&[]).1.is_nan());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_side_quartiles_ignore_the_noisy_side() {
        // Five windows, two of them hit by a noisy neighbour.
        assert_eq!(quiet_low(&[12.0, 12.2, 12.1, 19.0, 25.0]), 12.05);
        assert_eq!(quiet_high(&[220.0, 221.0, 219.0, 150.0, 90.0]), 220.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 20 samples: p95 is the 19th, one sample beyond it.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 19.0);
        // A missing result is slower than everything.
        assert_eq!(percentile(&[1.0, f64::INFINITY], 0.95), f64::INFINITY);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 100.0]), 50.5);
    }

    #[test]
    fn windows_own_their_opening_boundary() {
        assert_eq!(window_of(0.0, 8.0, 5), Some(0));
        assert_eq!(window_of(7.999, 8.0, 5), Some(0));
        assert_eq!(window_of(8.0, 8.0, 5), Some(1));
        assert_eq!(window_of(39.999, 8.0, 5), Some(4));
        assert_eq!(window_of(40.0, 8.0, 5), None);
        assert_eq!(window_of(-0.001, 8.0, 5), None);
        assert_eq!(window_of(f64::NAN, 8.0, 5), None);
    }

    #[test]
    fn summary_spread() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (1.5, 4.0, 12.0, 5));
        assert_eq!(s.relative_iqr(), 10.5 / 4.0);
        let inv = s.map(|v| 1.0 / v);
        assert!(inv.q1 < inv.q3);
    }
}
