//! Order statistics for the reported metrics.

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts; 0 when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a timing: the highest percentile that still has at least
/// ten samples beyond it. Returns `(value, percentile)`; with ten or
/// fewer samples no such percentile exists and the maximum is returned
/// as percentile 100.
#[must_use]
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    // v[n-11] has exactly ten samples after it.
    let k = n - 10;
    (v[k - 1], 100.0 * k as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[1.0, 2.0]), (2.0, 100.0));
    }
}
