//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even
/// count); `0.0` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest percentile of `samples` that still has at least
/// `beyond` samples above it, as `(percentile, value)`.
///
/// With `n` samples that is the value at ascending rank `n - beyond`
/// (exactly `beyond` samples lie above it), i.e. the
/// `100 * (n - beyond) / n`-th percentile. When there are too few
/// samples for any such percentile the median is returned instead,
/// labelled as the 50th.
#[must_use]
pub fn tail(samples: &[f64], beyond: usize) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n <= 2 * beyond {
        return (50.0, median(samples));
    }
    let pct = 100.0 * (n - beyond) as f64 / n as f64;
    (pct, s[n - beyond - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (pct, v) = tail(&xs, 10);
        assert_eq!(pct, 95.0);
        assert_eq!(v, 190.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        // Too few samples for a tail: the median, labelled p50.
        assert_eq!(tail(&xs[..15], 10), (50.0, 8.0));
    }
}
