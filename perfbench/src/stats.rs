//! Medians and quartiles over small sample sets, which of them a metric
//! reports, and which tail percentile a sample count supports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the benchmark driver
//! computes over our reported values: the spread we print for one run's
//! passes is then directly comparable to the spread the driver sees across
//! runs.

/// Median / quartile / range summary of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// What the metric reports: the median, or for [`Summary::host_time`]
    /// the lower decile.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `values` (at least one).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&v);
        Summary {
            n: v.len(),
            value: median,
            q1,
            median,
            q3,
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    /// A deterministic metric: every sample is `value`.
    pub fn exact(value: f64, n: usize) -> Summary {
        Summary {
            n,
            value,
            q1: value,
            median: value,
            q3: value,
            min: value,
            max: value,
        }
    }

    /// The summary of `f(sample)` for a monotone `f` (either direction).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        let (qa, qb, ra, rb) = (f(self.q1), f(self.q3), f(self.min), f(self.max));
        Summary {
            n: self.n,
            value: f(self.value),
            q1: qa.min(qb),
            median: f(self.median),
            q3: qa.max(qb),
            min: ra.min(rb),
            max: ra.max(rb),
        }
    }

    /// Summarise host-time samples of one fixed piece of work and report
    /// their **lower decile** (Python's `quantiles(values, n=10,
    /// method="inclusive")[0]`) instead of the median. On a shared machine
    /// interference adds time in bursts that can outlast half a run, so the
    /// median mostly measures the neighbours, while the fast end of the
    /// samples is what the program costs. Not the minimum: two real threads
    /// contend, and a pass in which one of them is held up while the other
    /// runs alone comes out *faster* (72 ms among twenty of 122–160 ms).
    /// With eleven samples or more the decile lies above the smallest one.
    pub fn host_time(values: &[f64]) -> Summary {
        let summary = Summary::of(values);
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = 0.1 * (v.len() - 1) as f64;
        let (below, share) = (at as usize, at.fract());
        let above = (below + 1).min(v.len() - 1);
        Summary {
            value: v[below] + (v[above] - v[below]) * share,
            ..summary
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Median of `values` (at least one).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// `(q1, median, q3)` of an ascending slice, Python `quantiles(n=4)`
/// exclusive method. One sample is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let len = v.len();
    if len == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten of
/// `samples` beyond it; `None` below 100 samples. A tail read off fewer than
/// ten samples is one outlier, not a percentile.
pub fn highest_percentile(samples: u64) -> Option<f64> {
    // Per-mille, so the share beyond the percentile is exact integer maths.
    [999u64, 990, 950, 900]
        .into_iter()
        .find(|pm| samples * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max, s.value), (10, 1.0, 10.0, 5.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 8.0, 4.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn map_keeps_the_order_under_a_decreasing_function() {
        let s = Summary::of(&[1.0, 2.0, 4.0]).map(|v| 8.0 / v);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (3, 2.0, 2.0, 4.0, 8.0, 8.0)
        );
        // The reported value follows the function: the fast end of the
        // times is the high end of the rates.
        let s = Summary::host_time(&[1.0, 2.0, 4.0]).map(|ns| 8.0 / ns);
        assert_eq!((s.value, s.median, s.max), (8.0 / 1.2, 4.0, 8.0));
        let s = Summary::of(&[1.0, 2.0, 4.0]).map(|v| v * 2.0);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (2.0, 2.0, 4.0, 8.0, 8.0)
        );
    }

    #[test]
    fn host_time_reports_the_lower_decile() {
        // statistics.quantiles(range(1, 22), n=10, method="inclusive")[0] == 3.0
        let v: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        let s = Summary::host_time(&v);
        assert_eq!((s.value, s.median, s.min, s.n), (3.0, 11.0, 1.0, 21));
        // One freak fast sample among eleven does not decide the value.
        let mut v = vec![100.0; 11];
        v[4] = 60.0;
        assert_eq!(Summary::host_time(&v).value, 100.0);
        // quantiles([3, 1, 2], n=10, method="inclusive")[0] == 1.2
        assert_eq!(Summary::host_time(&[3.0, 1.0, 2.0]).value, 1.2);
        assert_eq!(Summary::host_time(&[7.5]).value, 7.5);
    }

    #[test]
    fn one_sample_and_exact_have_no_spread() {
        let s = Summary::of(&[7.5]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.5, 7.5, 7.5, 0.0));
        assert_eq!(Summary::exact(3.0, 5).spread(), 0.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(99), None);
        // 100 samples: ten lie beyond p90, only one beyond p99.
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(9999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }
}
