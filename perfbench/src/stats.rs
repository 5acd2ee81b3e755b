//! Order statistics over timing samples.

/// Sorts in place and returns the median (0 for no samples).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The percentile, in percent (99.0 for p99).
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

impl Percentile {
    /// `p99=12.3456 (n=1234)`-style label.
    pub fn label(&self) -> String {
        format!("p{}={:.4} (n={})", self.pct, self.value, self.n)
    }
}

/// The `pct` percentile (nearest rank) of `values`, refused unless at
/// least ten samples lie beyond it.
pub fn percentile(values: &mut [f64], pct: f64) -> Result<Percentile, String> {
    let n = values.len();
    let beyond = (n as f64 * (1.0 - pct / 100.0) + 1e-9).floor() as usize;
    if beyond < 10 {
        return Err(format!(
            "p{pct} needs at least 10 samples beyond it; {n} samples leave {beyond}"
        ));
    }
    values.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Ok(Percentile {
        pct,
        value: values[rank.clamp(1, n) - 1],
        n,
    })
}

/// The highest percentile, at most p99, that leaves ten samples beyond
/// it (p99 itself from 1,000 samples on). Refused below 20 samples.
pub fn tail(values: &mut [f64]) -> Result<Percentile, String> {
    let n = values.len();
    if n < 20 {
        return Err(format!("a tail needs at least 20 samples, {n} were taken"));
    }
    let pct = (100.0 * (1.0 - 10.0 / n as f64)).min(99.0);
    // Round down to a tenth of a percent so the label stays short.
    percentile(values, (pct * 10.0).floor() / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_beyond() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&mut v, 99.0).unwrap();
        assert_eq!(p.value, 990.0);
        let mut short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&mut short, 99.0).is_err());
    }

    #[test]
    fn tail_falls_back_below_a_thousand() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = tail(&mut v).unwrap();
        assert_eq!(p.pct, 90.0);
        assert_eq!(p.value, 90.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
