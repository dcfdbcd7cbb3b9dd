//! Calibration diagnostics.
//!
//! The paper argues error bounds are essential for downstream tasks (§3,
//! "High-confidence predictions"). These helpers quantify how trustworthy
//! the bounds actually are: [`interval_coverage`] is the fraction of true
//! values falling inside their predicted intervals (a well-calibrated 95%
//! interval covers ≈95%).

/// Fraction of `(truth, lo, hi)` triples with `lo <= truth <= hi`.
///
/// This is the single coverage implementation in the workspace — the replay
/// experiments, the serve `Stats.interval_coverage` counter, and the drift
/// episode test all funnel through it so "coverage" means the same thing
/// everywhere. Edge cases are explicit rather than silent:
///
/// * empty input → `None` (coverage of nothing is undefined, not `0.0`);
/// * an inverted (`lo > hi`) or NaN-bounded interval anywhere → `None`
///   (the interval *set* is invalid — a caller bug, not a miss);
/// * a degenerate point interval (`lo == hi`, e.g. σ = 0) is **valid** and
///   covers exactly when `truth == lo`;
/// * infinite bounds are valid (a one-sided or unbounded interval);
/// * a NaN truth inside a valid interval counts as uncovered (NaN is not
///   inside anything).
pub fn interval_coverage(triples: &[(f64, f64, f64)]) -> Option<f64> {
    if triples.is_empty() {
        return None;
    }
    if triples
        .iter()
        .any(|&(_, lo, hi)| lo > hi || lo.is_nan() || hi.is_nan())
    {
        return None;
    }
    let covered = triples
        .iter()
        .filter(|&&(t, lo, hi)| (lo..=hi).contains(&t))
        .count();
    Some(covered as f64 / triples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn coverage_basic() {
        let triples = [
            (1.0, 0.0, 2.0),
            (5.0, 0.0, 2.0),
            (2.0, 2.0, 2.0),
            (3.0, 1.0, 4.0),
        ];
        assert_eq!(interval_coverage(&triples), Some(0.75));
        assert_eq!(interval_coverage(&[]), None);
        assert_eq!(interval_coverage(&[(1.0, 2.0, 0.0)]), None); // inverted
    }

    #[test]
    fn coverage_degenerate_point_intervals() {
        // σ = 0 collapses an interval to a point; that is a valid interval
        // covering exactly its own value.
        assert_eq!(interval_coverage(&[(2.0, 2.0, 2.0)]), Some(1.0));
        assert_eq!(interval_coverage(&[(2.0001, 2.0, 2.0)]), Some(0.0));
        assert_eq!(
            interval_coverage(&[(0.0, 0.0, 0.0), (0.0, -0.0, 0.0)]),
            Some(1.0)
        );
    }

    #[test]
    fn coverage_non_finite_inputs() {
        // NaN bounds invalidate the interval set.
        assert_eq!(interval_coverage(&[(1.0, f64::NAN, 2.0)]), None);
        assert_eq!(interval_coverage(&[(1.0, 0.0, f64::NAN)]), None);
        // Infinite bounds are legitimate one-sided intervals.
        assert_eq!(
            interval_coverage(&[(1.0, f64::NEG_INFINITY, f64::INFINITY)]),
            Some(1.0)
        );
        assert_eq!(
            interval_coverage(&[(5.0, f64::NEG_INFINITY, 4.0)]),
            Some(0.0)
        );
        // NaN truth inside a valid interval is simply uncovered.
        assert_eq!(interval_coverage(&[(f64::NAN, 0.0, 1.0)]), Some(0.0));
        assert_eq!(
            interval_coverage(&[(f64::NAN, 0.0, 1.0), (0.5, 0.0, 1.0)]),
            Some(0.5)
        );
    }

    proptest! {
        #[test]
        fn prop_coverage_in_unit_range(
            triples in proptest::collection::vec((0.0f64..10.0, 0.0f64..5.0, 5.0f64..10.0), 1..50)
        ) {
            let c = interval_coverage(&triples).unwrap();
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }
}
