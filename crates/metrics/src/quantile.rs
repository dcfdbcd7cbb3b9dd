//! Exact quantile helpers.
//!
//! The paper reports P50/P90 absolute error and Q-error (Tables 1–6) and the
//! 0.01–99.99 percentile latency distribution (Fig. 1b). These helpers compute
//! exact quantiles with linear interpolation over a sorted copy of the data.

/// Returns the `q`-quantile (`0.0 ..= 1.0`) of `xs` using linear
/// interpolation between closest ranks (the "R-7" rule used by numpy's
/// default `percentile`).
///
/// Returns `None` for an empty slice, a `q` outside `[0, 1]`, or any NaN in
/// `xs` (a NaN has no rank; the old behaviour was a panic deep inside the
/// sort, which is unacceptable now that serving paths call this).
///
/// ```
/// use stage_metrics::quantile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) || q.is_nan() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_of_sorted(&sorted, q))
}

/// Like [`quantile`] but assumes `sorted` is already ascending, avoiding the
/// sort. Total and panic-free: an empty slice yields NaN, and `q` is clamped
/// into `[0, 1]` (this sits under the serving drift calibrator, on every
/// Observe's path).
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let (Some(&first), Some(&last)) = (sorted.first(), sorted.last()) else {
        return f64::NAN;
    };
    if sorted.len() == 1 {
        return first;
    }
    let max_pos = (sorted.len() - 1) as f64;
    let pos = (q * max_pos).clamp(0.0, max_pos);
    if !pos.is_finite() {
        return f64::NAN;
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let a = sorted.get(lo).copied().unwrap_or(last);
    let b = sorted.get(lo + 1).copied().unwrap_or(last);
    a + (b - a) * frac
}

/// Computes several quantiles in one pass (single sort).
pub fn quantiles(xs: &[f64], qs: &[f64]) -> Option<Vec<f64>> {
    if xs.is_empty() {
        return None;
    }
    if xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    qs.iter()
        .map(|&q| {
            if (0.0..=1.0).contains(&q) {
                Some(quantile_of_sorted(&sorted, q))
            } else {
                None
            }
        })
        .collect()
}

/// Arithmetic mean; `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_returns_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(quantiles(&[], &[0.5]), None);
    }

    #[test]
    fn out_of_range_q_returns_none() {
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
        assert_eq!(quantile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn nan_input_returns_none_instead_of_panicking() {
        assert_eq!(quantile(&[1.0, f64::NAN, 3.0], 0.5), None);
        assert_eq!(quantiles(&[f64::NAN], &[0.5]), None);
    }

    #[test]
    fn quantile_of_sorted_is_total() {
        assert!(quantile_of_sorted(&[], 0.5).is_nan());
        assert_eq!(quantile_of_sorted(&[7.0], 0.9), 7.0);
        // q outside [0,1] clamps instead of indexing out of bounds.
        assert_eq!(quantile_of_sorted(&[1.0, 2.0], -3.0), 1.0);
        assert_eq!(quantile_of_sorted(&[1.0, 2.0], 42.0), 2.0);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile(&[42.0], 0.37), Some(42.0));
        assert_eq!(quantile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.5), Some(30.0));
        assert_eq!(quantile(&xs, 0.25), Some(20.0));
        // 0.9 * 4 = 3.6 -> 40 + 0.6*10 = 46
        assert!((quantile(&xs, 0.9).unwrap() - 46.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.5), Some(30.0));
    }

    #[test]
    fn quantiles_batch_matches_individual() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0];
        let qs = [0.0, 0.5, 0.9, 1.0];
        let batch = quantiles(&xs, &qs).unwrap();
        for (q, b) in qs.iter().zip(&batch) {
            assert_eq!(quantile(&xs, *q), Some(*b));
        }
    }

    proptest! {
        #[test]
        fn prop_quantile_within_range(
            xs in proptest::collection::vec(-1e9f64..1e9, 1..100),
            q in 0.0f64..=1.0,
        ) {
            let v = quantile(&xs, q).unwrap();
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= min && v <= max);
        }

        #[test]
        fn prop_quantile_monotone_in_q(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..60),
            q1 in 0.0f64..=1.0,
            q2 in 0.0f64..=1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&xs, lo).unwrap() <= quantile(&xs, hi).unwrap() + 1e-9);
        }
    }
}
