//! Exact order statistics over kept samples (no sketches).

/// Harrell-Davis estimate of quantile `q` (in (0, 1)): a Beta-weighted
/// average of all order statistics; 0 when empty. On the few dozen
/// samples a run collects it moves much less from run to run than any
/// single order statistic does.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 1 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    // Order statistic i gets the Beta(a, b) mass on [i/n, (i+1)/n],
    // integrated by the midpoint rule and normalized numerically.
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    const STEPS: usize = 64;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            (0..STEPS)
                .map(|k| {
                    let t = (i as f64 + (k as f64 + 0.5) / STEPS as f64) / n as f64;
                    ((a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()).exp()
                })
                .sum()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    sorted.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median as the mean of the two middle samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_median() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!((percentile(&v, 0.5) - 3.0).abs() < 1e-9);
        let p95 = percentile(&v, 0.95);
        assert!(p95 > 4.5 && p95 < 5.0, "{p95}");
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
