//! Order statistics for reporting timings.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between order statistics. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest whole percentile with at least ten of `n` samples beyond
/// it, or `None` when even the median lacks ten. A p95 needs 200 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100u32)
        .rev()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
        .filter(|&p| p >= 50)
}

/// Geometric mean of positive values; `None` for an empty slice.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(94));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        // At the reported percentile, at least ten samples lie beyond it.
        for n in 20..2000 {
            let p = tail_percentile(n).expect("n ≥ 20") as usize;
            assert!(n * (100 - p) >= 1000, "n = {n}, p = {p}");
        }
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 100.0]).expect("non-empty");
        assert!((g - 10.0).abs() < 1e-9);
    }
}
