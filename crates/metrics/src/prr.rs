//! Prediction-rejection ratio (PRR), the scoring rule the paper uses to
//! evaluate the local model's uncertainty quality (Figs. 10–11).
//!
//! PRR quantifies how well predicted *uncertainty* ranks observed *error*.
//! Construction (paper §5.4):
//!
//! 1. Sort queries by observed absolute error descending ("oracle" order) and
//!    plot cumulative-error fraction vs. fraction of queries rejected — the
//!    red curve.
//! 2. Sort by predicted uncertainty descending — the blue curve.
//! 3. A random order gives the diagonal — the black curve.
//! 4. `PRR = AUC(uncertainty − random) / AUC(oracle − random)`, in `[−1, 1]`
//!    but ≈ `[0, 1]` for any non-adversarial uncertainty; 1 means the
//!    uncertainty ranks errors perfectly.

use serde::{Deserialize, Serialize};

/// The three rejection curves underlying a PRR score, sampled at each
/// rejection count. Useful for plotting Fig. 10.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrrCurves {
    /// Cumulative-error fraction when rejecting by true error (descending).
    pub oracle: Vec<f64>,
    /// Cumulative-error fraction when rejecting by predicted uncertainty.
    pub by_uncertainty: Vec<f64>,
    /// The diagonal (uniform random rejection), same length.
    pub random: Vec<f64>,
    /// Area between `by_uncertainty` and `random`.
    pub auc_stage: f64,
    /// Area between `oracle` and `random`.
    pub auc_oracle: f64,
}

impl PrrCurves {
    /// Builds the curves from parallel slices of absolute errors and
    /// predicted uncertainties. Returns `None` if inputs are empty,
    /// mismatched, or total error is zero (PRR undefined).
    #[expect(
        clippy::expect_used,
        reason = "a NaN error or uncertainty has no rank; PRR is scored by the experiment \
                  harness on finite model outputs, never on a verb's path"
    )]
    pub fn new(errors: &[f64], uncertainties: &[f64]) -> Option<Self> {
        if errors.is_empty() || errors.len() != uncertainties.len() {
            return None;
        }
        let total: f64 = errors.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let n = errors.len();

        let cum_fraction = |order: &[usize]| -> Vec<f64> {
            let mut out = Vec::with_capacity(n + 1);
            out.push(0.0);
            let mut acc = 0.0;
            for &i in order {
                acc += errors[i];
                out.push(acc / total);
            }
            out
        };

        let mut oracle_order: Vec<usize> = (0..n).collect();
        oracle_order.sort_by(|&a, &b| errors[b].partial_cmp(&errors[a]).expect("NaN error in PRR"));
        let mut unc_order: Vec<usize> = (0..n).collect();
        unc_order.sort_by(|&a, &b| {
            uncertainties[b]
                .partial_cmp(&uncertainties[a])
                .expect("NaN uncertainty in PRR")
        });

        let oracle = cum_fraction(&oracle_order);
        let by_uncertainty = cum_fraction(&unc_order);
        let random: Vec<f64> = (0..=n).map(|i| i as f64 / n as f64).collect();

        // Trapezoid AUC of (curve - diagonal); uniform x-spacing of 1/n.
        let auc_above_diag = |curve: &[f64]| -> f64 {
            let mut area = 0.0;
            for i in 0..n {
                let y0 = curve[i] - random[i];
                let y1 = curve[i + 1] - random[i + 1];
                area += (y0 + y1) / 2.0 / n as f64;
            }
            area
        };
        let auc_oracle = auc_above_diag(&oracle);
        let auc_stage = auc_above_diag(&by_uncertainty);
        Some(Self {
            oracle,
            by_uncertainty,
            random,
            auc_stage,
            auc_oracle,
        })
    }

    /// The PRR score `AUC_stage / AUC_oracle`.
    ///
    /// Returns `None` when the oracle AUC is zero (all errors equal — any
    /// ranking is as good as any other, so the ratio is undefined).
    pub fn score(&self) -> Option<f64> {
        if self.auc_oracle <= f64::EPSILON {
            None
        } else {
            Some(self.auc_stage / self.auc_oracle)
        }
    }
}

/// One-shot PRR score; see [`PrrCurves`].
pub fn prr_score(errors: &[f64], uncertainties: &[f64]) -> Option<f64> {
    PrrCurves::new(errors, uncertainties)?.score()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_uncertainty_scores_one() {
        let errors = [5.0, 1.0, 3.0, 0.5, 2.0];
        // Uncertainty exactly proportional to error: perfect ranking.
        let unc: Vec<f64> = errors.iter().map(|e| e * 10.0).collect();
        let s = prr_score(&errors, &unc).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "score={s}");
    }

    #[test]
    fn anti_correlated_uncertainty_scores_negative() {
        let errors = [5.0, 4.0, 3.0, 2.0, 1.0];
        let unc = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = prr_score(&errors, &unc).unwrap();
        assert!(s < 0.0, "score={s}");
    }

    #[test]
    fn constant_uncertainty_scores_near_zero_or_arbitrary_order() {
        // With all uncertainties equal, the ranking is input-order; for errors
        // already shuffled the score should sit well below perfect.
        let errors = [1.0, 5.0, 2.0, 4.0, 3.0, 0.5, 4.5, 1.5];
        let unc = [1.0; 8];
        let s = prr_score(&errors, &unc).unwrap();
        assert!(s < 0.9);
    }

    #[test]
    fn undefined_cases() {
        assert!(prr_score(&[], &[]).is_none());
        assert!(prr_score(&[1.0], &[1.0, 2.0]).is_none());
        assert!(prr_score(&[0.0, 0.0], &[1.0, 2.0]).is_none()); // zero total error
                                                                // all-equal errors -> oracle AUC 0 -> undefined
        assert!(prr_score(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn curves_are_monotone_and_end_at_one() {
        let errors = [3.0, 1.0, 4.0, 1.5, 9.0];
        let unc = [2.0, 1.0, 3.0, 1.0, 5.0];
        let c = PrrCurves::new(&errors, &unc).unwrap();
        for curve in [&c.oracle, &c.by_uncertainty, &c.random] {
            assert_eq!(curve.len(), errors.len() + 1);
            assert_eq!(curve[0], 0.0);
            assert!((curve[curve.len() - 1] - 1.0).abs() < 1e-12);
            assert!(curve.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        }
        // Oracle dominates any other ordering pointwise.
        for (o, u) in c.oracle.iter().zip(&c.by_uncertainty) {
            assert!(o + 1e-12 >= *u);
        }
    }

    proptest! {
        #[test]
        fn prop_score_at_most_one(
            pairs in proptest::collection::vec((0.001f64..100.0, 0.0f64..100.0), 2..100)
        ) {
            let errors: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let unc: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Some(s) = prr_score(&errors, &unc) {
                prop_assert!(s <= 1.0 + 1e-9, "score={}", s);
                prop_assert!(s >= -1.0 - 1e-9, "score={}", s);
            }
        }

        #[test]
        fn prop_perfect_ranking_is_one(
            mut errors in proptest::collection::vec(0.001f64..100.0, 3..60)
        ) {
            // Deduplicate to make ordering strict (ties allow equal score anyway).
            errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
            errors.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            prop_assume!(errors.len() >= 2);
            let unc = errors.clone();
            if let Some(s) = prr_score(&errors, &unc) {
                prop_assert!((s - 1.0).abs() < 1e-9, "score={}", s);
            }
        }
    }
}
