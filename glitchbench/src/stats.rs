//! Order statistics of repeated measurements.

/// Median, quartiles and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of measurements.
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (at least one). Quartiles use the exclusive
    /// method of Python's `statistics.quantiles(values, n=4)`.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no measurements to summarise");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Summary { q1: v[0], median: v[0], q3: v[0], n };
        }
        let cut = |i: usize| {
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 - 4.0 * j as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Summary { q1: cut(1), median, q3: cut(3), n }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from Python's `statistics.quantiles(values, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
    }
}
