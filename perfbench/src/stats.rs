//! Sample summaries under the benchmark's reporting rules.
//!
//! A timing is reported as a median with its sample count. A higher
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise it is absent rather than a guess.

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between the two closest ranks (the "linear" rule; `q = 0.5` is the
/// usual median, averaging the middle pair of an even-length sample).
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// Median of `samples`, `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Number of samples ranked strictly above the `q`-quantile's position.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = q * (n - 1) as f64;
    n - 1 - pos.floor() as usize
}

/// The `q`-quantile, but only when at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    quantile(samples, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_linear_rule() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        // Position 0.9 * 4 = 3.6: 60% of the way from 4 to 5.
        assert!((quantile(&xs, 0.9).unwrap() - 4.6).abs() < 1e-12);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(quantile(&rev, 0.9), quantile(&xs, 0.9));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 902 samples sits at rank 0.99 * 901 = 891.99, so ranks
        // 892..=901 (ten samples) lie beyond it; with 901 samples it sits
        // exactly on rank 891 and only nine do.
        assert_eq!(beyond(902, 0.99), 10);
        assert_eq!(beyond(901, 0.99), 9);
        let big: Vec<f64> = (0..902).map(f64::from).collect();
        assert!((tail(&big, 0.99).unwrap() - 891.99).abs() < 1e-9);
        assert_eq!(tail(&big[..901], 0.99), None);
        // The median of 21 or 20 samples has 10 beyond it; of 19, nine.
        assert_eq!(beyond(21, 0.5), 10);
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(beyond(19, 0.5), 9);
        assert_eq!(beyond(0, 0.5), 0);
    }
}
