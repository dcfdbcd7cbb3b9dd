//! The mixed ensemble — a future-work direction the paper names explicitly
//! (§5.4): "we plan to lower the gap in performance … by adding an XGBoost
//! model trained with absolute error into the Bayesian ensemble".
//!
//! [`MixedEnsemble`] wraps a [`BayesianEnsemble`] (K NLL-trained members,
//! providing the uncertainty decomposition) plus one squared-error
//! [`Gbm`] member whose point prediction is blended into the mean. The
//! squared member has no variance head, so data uncertainty still comes
//! from the probabilistic members only, while *model* uncertainty includes
//! the squared member's disagreement.

use crate::dataset::Dataset;
use crate::ensemble::{BayesianEnsemble, EnsembleParams, EnsemblePrediction};
use crate::gbm::{Gbm, GbmParams};

/// Mixed-ensemble hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct MixedEnsembleParams {
    /// The probabilistic (NLL) ensemble.
    pub bayesian: EnsembleParams,
    /// The squared-error member.
    pub squared: GbmParams,
    /// Weight of the squared member in the blended mean, in `[0, 1]`
    /// (0 = pure Bayesian ensemble; the remaining weight goes to the
    /// Bayesian mean).
    pub squared_weight: f64,
}

impl Default for MixedEnsembleParams {
    fn default() -> Self {
        Self {
            bayesian: EnsembleParams::default(),
            squared: GbmParams::default(),
            squared_weight: 1.0 / 11.0, // one extra member among K = 10
        }
    }
}

/// A Bayesian ensemble augmented with one squared-error member.
#[derive(Debug, Clone)]
pub struct MixedEnsemble {
    bayesian: BayesianEnsemble,
    squared: Gbm,
    squared_weight: f64,
}

impl MixedEnsemble {
    /// Trains both parts; `None` on an empty dataset or a degenerate
    /// configuration.
    pub fn fit(data: &Dataset, params: &MixedEnsembleParams) -> Option<Self> {
        if !(0.0..=1.0).contains(&params.squared_weight) {
            return None;
        }
        let bayesian = BayesianEnsemble::fit(data, &params.bayesian)?;
        let squared = Gbm::fit(
            data,
            &GbmParams {
                // Decorrelate from the Bayesian members.
                seed: params.squared.seed ^ 0xA5A5_5A5A,
                ..params.squared
            },
        )?;
        Some(Self {
            bayesian,
            squared,
            squared_weight: params.squared_weight,
        })
    }

    /// Predicts the blended mean with the Bayesian uncertainty
    /// decomposition; the squared member's deviation from the Bayesian mean
    /// is added to the model-uncertainty term.
    pub fn predict(&self, row: &[f64]) -> EnsemblePrediction {
        let base = self.bayesian.predict(row);
        let sq = self.squared.predict(row);
        let w = self.squared_weight;
        let mean = (1.0 - w) * base.mean + w * sq;
        // Treat the squared member as one more vote around the new mean.
        let deviation = (sq - base.mean).powi(2);
        EnsemblePrediction {
            mean,
            model_uncertainty: base.model_uncertainty + w * deviation,
            data_uncertainty: base.data_uncertainty,
        }
    }

    /// The underlying probabilistic ensemble.
    pub fn bayesian(&self) -> &BayesianEnsemble {
        &self.bayesian
    }

    /// The squared-error member.
    pub fn squared(&self) -> &Gbm {
        &self.squared
    }

    /// Rough in-memory size in bytes.
    pub fn approx_size_bytes(&self) -> usize {
        self.bayesian.approx_size_bytes() + self.squared.approx_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..10.0);
            let noise: f64 = rng.gen_range(-0.3..0.3);
            rows.push(vec![x]);
            ys.push(1.5 * x + noise);
        }
        Dataset::from_rows(&rows, &ys)
    }

    fn params() -> MixedEnsembleParams {
        MixedEnsembleParams {
            bayesian: EnsembleParams {
                n_members: 4,
                n_estimators: 25,
                seed: 3,
            },
            squared: GbmParams {
                n_estimators: 25,
                ..GbmParams::default()
            },
            squared_weight: 0.2,
        }
    }

    #[test]
    fn blended_mean_between_components() {
        let ds = data(400, 1);
        let m = MixedEnsemble::fit(&ds, &params()).unwrap();
        let p = m.predict(&[5.0]);
        let b = m.bayesian().predict(&[5.0]).mean;
        let s = m.squared().predict(&[5.0]);
        let (lo, hi) = if b <= s { (b, s) } else { (s, b) };
        assert!(p.mean >= lo - 1e-9 && p.mean <= hi + 1e-9);
        assert!((p.mean - 7.5).abs() < 1.0, "mean={}", p.mean);
    }

    #[test]
    fn zero_weight_matches_bayesian() {
        let ds = data(300, 2);
        let mut prm = params();
        prm.squared_weight = 0.0;
        let m = MixedEnsemble::fit(&ds, &prm).unwrap();
        let p = m.predict(&[4.0]);
        let b = m.bayesian().predict(&[4.0]);
        assert_eq!(p.mean, b.mean);
        assert_eq!(p.data_uncertainty, b.data_uncertainty);
        assert_eq!(p.model_uncertainty, b.model_uncertainty);
    }

    #[test]
    fn disagreement_raises_model_uncertainty() {
        let ds = data(300, 3);
        let m = MixedEnsemble::fit(&ds, &params()).unwrap();
        let p = m.predict(&[5.0]);
        let b = m.bayesian().predict(&[5.0]);
        assert!(p.model_uncertainty >= b.model_uncertainty);
        assert_eq!(p.data_uncertainty, b.data_uncertainty);
    }

    #[test]
    fn invalid_weight_rejected() {
        let ds = data(100, 4);
        let mut prm = params();
        prm.squared_weight = 1.5;
        assert!(MixedEnsemble::fit(&ds, &prm).is_none());
    }

    #[test]
    fn empty_dataset_rejected() {
        assert!(MixedEnsemble::fit(&Dataset::new(1), &params()).is_none());
    }
}
