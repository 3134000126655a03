//! Order statistics over raw samples.
//!
//! Every percentile here is a nearest-rank percentile of the sorted raw
//! samples: the reported value is one measured sample, never an
//! interpolation inside a histogram bucket.

/// The `p`-th percentile (`0 < p <= 100`) of `samples` by nearest rank:
/// the smallest sample with at least `p`% of the samples at or below
/// it. `0.0` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median by nearest rank (see [`percentile`]).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Least-squares slope of `ln y` against `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_a_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&s), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0]
            .iter()
            .map(|&x: &f64| (x, 3.0 * x.powi(2)))
            .collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }
}
