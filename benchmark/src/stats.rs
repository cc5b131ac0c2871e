//! Medians, percentiles and how many samples a percentile leaves beyond it.

/// Median of the values (mean of the middle two for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub use bcpnn_tensor::stats::mean;

/// Linear-interpolated percentile `p` in `[0, 1]`
/// (`bcpnn_tensor::stats::quantile`); 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    bcpnn_tensor::stats::quantile(values, p)
}

/// Samples strictly beyond percentile `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The nudge keeps 100 * (1 - 0.9) from reading 9.999... and flooring to 9.
    (n as f64 * (1.0 - p) + 1e-9).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(samples_beyond(1620, 0.99), 16);
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(3, 0.5), 1);
    }
}
