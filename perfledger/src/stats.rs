//! Order statistics over timing samples.

/// Quantile `q` in `[0, 1]` by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The percentile `q` (interpolated), reported only when at least ten
/// samples lie beyond it; otherwise `None` (unsupported at this count).
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    // The epsilon keeps 0.1 × 100 from flooring to 9.
    let beyond = ((1.0 - q) * samples.len() as f64 + 1e-9).floor() as usize;
    (beyond >= 10).then(|| quantile(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(min(&s), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&s, 0.9).is_none());
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail(&s, 0.9).is_some());
    }
}
