//! Calibration and rank-correlation diagnostics.
//!
//! The paper argues error bounds are essential for downstream tasks (§3,
//! "High-confidence predictions"). These helpers quantify how trustworthy
//! the bounds actually are:
//!
//! * [`interval_coverage`] — the fraction of true values falling inside
//!   their predicted intervals (a well-calibrated 95% interval covers ≈95%);
//! * [`spearman`] — rank correlation, a scale-free sanity check that
//!   predicted uncertainty orders observed error (the correlation behind a
//!   good PRR score).

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

/// Spearman rank correlation of two equal-length samples, in `[-1, 1]`.
/// Ties receive average ranks. Returns `None` on empty/mismatched input or
/// when either side is constant (correlation undefined).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let rx = average_ranks(xs)?;
    let ry = average_ranks(ys)?;
    pearson(&rx, &ry)
}

/// Average (fractional) ranks, handling ties; `None` if any value is NaN.
fn average_ranks(xs: &[f64]) -> Option<Vec<f64>> {
    if xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    Some(ranks)
}

fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
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

    #[test]
    fn spearman_perfect_monotone() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
        // Nonlinear but monotone is still 1.
        let exp = [2.7, 7.4, 20.1, 54.6];
        assert!((spearman(&xs, &exp).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_ties_and_degenerate() {
        let s = spearman(&[1.0, 1.0, 2.0, 2.0], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(s > 0.7 && s <= 1.0, "s={s}");
        assert_eq!(spearman(&[1.0, 1.0], &[2.0, 3.0]), None); // constant xs
        assert_eq!(spearman(&[], &[]), None);
        assert_eq!(spearman(&[1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn ranks_average_on_ties() {
        let r = average_ranks(&[10.0, 20.0, 10.0]).unwrap();
        assert_eq!(r, vec![1.5, 3.0, 1.5]);
    }

    proptest! {
        #[test]
        fn prop_spearman_bounded(
            pairs in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 3..100)
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Some(s) = spearman(&xs, &ys) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
            }
        }

        #[test]
        fn prop_coverage_in_unit_range(
            triples in proptest::collection::vec((0.0f64..10.0, 0.0f64..5.0, 5.0f64..10.0), 1..50)
        ) {
            let c = interval_coverage(&triples).unwrap();
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }
}
