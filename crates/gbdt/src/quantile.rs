//! Quantile (pinball-loss) gradient boosting.
//!
//! The paper surveys lightweight uncertainty alternatives and notes that
//! quantile-regression approaches "mainly focus on quantifying the model
//! uncertainty but not the data uncertainty" (§2.2). This module implements
//! that alternative so the claim can be tested empirically: one GBM per
//! quantile trained on the pinball loss, plus a [`QuantileBand`] that fits a
//! (lo, median, hi) triple and exposes the band spread as an uncertainty
//! proxy comparable against the Bayesian ensemble's.
//!
//! Gradient boosting with pinball loss `L_q(y, ŷ) = (q − 1{y<ŷ})·(y − ŷ)`
//! uses the (sub)gradient `∂L/∂ŷ = 1{y<ŷ} − q` with unit hessians.

use crate::dataset::{Binner, Dataset};
use crate::gbm::{sample_cols, sample_rows};
use crate::tree::{Tree, TreeParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for one quantile model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuantileGbmParams {
    /// Target quantile in `(0, 1)`.
    pub quantile: f64,
    /// Maximum boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// Column subsample fraction per round.
    pub colsample: f64,
    /// Early-stopping patience on validation pinball loss (0 disables).
    pub early_stopping_rounds: usize,
    /// Validation fraction.
    pub validation_fraction: f64,
    /// Histogram bins.
    pub n_bins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuantileGbmParams {
    fn default() -> Self {
        Self {
            quantile: 0.5,
            n_estimators: 300,
            learning_rate: 0.2,
            tree: TreeParams::default(),
            subsample: 0.9,
            colsample: 1.0,
            // Pinball gradients are small constants, so validation loss
            // improves slowly; quantile heads need more patience than the
            // squared/NLL models.
            early_stopping_rounds: 25,
            validation_fraction: 0.2,
            n_bins: 64,
            seed: 42,
        }
    }
}

/// A trained single-quantile GBM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileGbm {
    base: f64,
    learning_rate: f64,
    quantile: f64,
    trees: Vec<Tree>,
    n_cols: usize,
}

/// Pinball loss of one prediction.
pub fn pinball_loss(q: f64, y: f64, pred: f64) -> f64 {
    let d = y - pred;
    if d >= 0.0 {
        q * d
    } else {
        (q - 1.0) * d
    }
}

impl QuantileGbm {
    /// Fits the model. `None` on an empty dataset or a quantile outside
    /// `(0, 1)`.
    pub fn fit(data: &Dataset, params: &QuantileGbmParams) -> Option<Self> {
        if data.is_empty() || !(params.quantile > 0.0 && params.quantile < 1.0) {
            return None;
        }
        let q = params.quantile;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = data.n_rows();

        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let n_val = if params.early_stopping_rounds > 0 && n >= 10 {
            ((n as f64 * params.validation_fraction) as usize).min(n - 1)
        } else {
            0
        };
        let (val_idx, train_idx) = order.split_at(n_val);

        // Initialize at the empirical train quantile.
        let mut train_targets: Vec<f64> = train_idx.iter().map(|&i| data.target(i)).collect();
        train_targets.sort_by(f64::total_cmp);
        let pos = ((train_targets.len() - 1) as f64 * q) as usize;
        let base = train_targets[pos];

        let mut model = QuantileGbm {
            base,
            learning_rate: params.learning_rate,
            quantile: q,
            trees: Vec::new(),
            n_cols: data.n_cols(),
        };

        let binner = Binner::fit(data, params.n_bins);
        let binned = binner.transform(data);
        let mut preds = vec![base; n];
        let mut grads = vec![0.0; n];
        let all_cols: Vec<usize> = (0..data.n_cols()).collect();

        let val_loss = |preds: &[f64]| -> f64 {
            val_idx
                .iter()
                .map(|&i| pinball_loss(q, data.target(i), preds[i]))
                .sum::<f64>()
                / val_idx.len().max(1) as f64
        };

        let mut best_val = f64::INFINITY;
        let mut best_len = 0usize;
        let mut stall = 0usize;

        for _round in 0..params.n_estimators {
            for &i in train_idx {
                grads[i] = if data.target(i) < preds[i] {
                    1.0 - q
                } else {
                    -q
                };
            }
            let rows = sample_rows(train_idx, params.subsample, &mut rng);
            if rows.is_empty() {
                break;
            }
            let cols = sample_cols(&all_cols, params.colsample, &mut rng);
            let tree = Tree::fit(&binned, &binner, &grads, &rows, &cols, &params.tree);
            for (i, pred) in preds.iter_mut().enumerate() {
                *pred += params.learning_rate * tree.predict(data.row(i));
            }
            model.trees.push(tree);

            if n_val > 0 {
                let v = val_loss(&preds);
                if v + 1e-12 < best_val {
                    best_val = v;
                    best_len = model.trees.len();
                    stall = 0;
                } else {
                    stall += 1;
                    if stall >= params.early_stopping_rounds {
                        break;
                    }
                }
            }
        }
        if n_val > 0 && best_len > 0 {
            model.trees.truncate(best_len);
        }
        Some(model)
    }

    /// Predicts the target quantile for a raw feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_cols);
        self.base
            + self
                .trees
                .iter()
                .map(|t| self.learning_rate * t.predict(row))
                .sum::<f64>()
    }

    /// The quantile this model targets.
    pub fn quantile(&self) -> f64 {
        self.quantile
    }

    /// Number of trees after early stopping.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// A (lo, median, hi) quantile triple with a spread-based uncertainty proxy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileBand {
    lo: QuantileGbm,
    mid: QuantileGbm,
    hi: QuantileGbm,
}

impl QuantileBand {
    /// Fits the three models at `(lo_q, 0.5, hi_q)` with shared settings.
    pub fn fit(data: &Dataset, lo_q: f64, hi_q: f64, base: &QuantileGbmParams) -> Option<Self> {
        if !(0.0 < lo_q && lo_q < 0.5 && 0.5 < hi_q && hi_q < 1.0) {
            return None;
        }
        let mk = |q: f64, salt: u64| QuantileGbmParams {
            quantile: q,
            seed: base.seed.wrapping_add(salt),
            ..*base
        };
        Some(Self {
            lo: QuantileGbm::fit(data, &mk(lo_q, 1))?,
            mid: QuantileGbm::fit(data, &mk(0.5, 2))?,
            hi: QuantileGbm::fit(data, &mk(hi_q, 3))?,
        })
    }

    /// Predicts `(lo, median, hi)`, sorted to repair any quantile crossing.
    pub fn predict(&self, row: &[f64]) -> (f64, f64, f64) {
        let mut v = [
            self.lo.predict(row),
            self.mid.predict(row),
            self.hi.predict(row),
        ];
        v.sort_by(f64::total_cmp);
        (v[0], v[1], v[2])
    }

    /// Band spread `hi − lo` — the uncertainty proxy.
    pub fn spread(&self, row: &[f64]) -> f64 {
        let (lo, _, hi) = self.predict(row);
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Heteroscedastic data: y = 2x + noise, noise scale grows with x.
    fn hetero(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..10.0);
            let noise: f64 = rng.gen_range(-1.0..1.0) * (0.2 + 0.3 * x);
            rows.push(vec![x]);
            ys.push(2.0 * x + noise);
        }
        Dataset::from_rows(&rows, &ys)
    }

    #[test]
    fn pinball_loss_shape() {
        assert_eq!(pinball_loss(0.9, 10.0, 8.0), 0.9 * 2.0); // under-prediction
        assert!((pinball_loss(0.9, 8.0, 10.0) - 0.1 * 2.0).abs() < 1e-12);
        assert_eq!(pinball_loss(0.5, 5.0, 5.0), 0.0);
    }

    #[test]
    fn empirical_coverage_tracks_quantile() {
        let train = hetero(2000, 1);
        let test = hetero(500, 2);
        for &q in &[0.1, 0.5, 0.9] {
            let m = QuantileGbm::fit(
                &train,
                &QuantileGbmParams {
                    quantile: q,
                    ..QuantileGbmParams::default()
                },
            )
            .unwrap();
            let below = (0..test.n_rows())
                .filter(|&i| test.target(i) <= m.predict(test.row(i)))
                .count() as f64
                / test.n_rows() as f64;
            assert!(
                (below - q).abs() < 0.12,
                "q={q}: empirical coverage {below}"
            );
        }
    }

    #[test]
    fn band_spread_grows_with_noise() {
        let data = hetero(2000, 3);
        let band = QuantileBand::fit(
            &data,
            0.1,
            0.9,
            &QuantileGbmParams {
                n_estimators: 800,
                learning_rate: 0.25,
                ..QuantileGbmParams::default()
            },
        )
        .unwrap();
        let narrow = band.spread(&[0.5]);
        let wide = band.spread(&[9.5]);
        assert!(
            wide > 1.5 * narrow,
            "spread should track heteroscedastic noise: {narrow} vs {wide}"
        );
        let (lo, mid, hi) = band.predict(&[5.0]);
        assert!(lo <= mid && mid <= hi);
        assert!((mid - 10.0).abs() < 1.5, "median off: {mid}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = hetero(50, 4);
        assert!(QuantileGbm::fit(
            &data,
            &QuantileGbmParams {
                quantile: 0.0,
                ..QuantileGbmParams::default()
            }
        )
        .is_none());
        assert!(QuantileGbm::fit(&Dataset::new(1), &QuantileGbmParams::default()).is_none());
        assert!(QuantileBand::fit(&data, 0.6, 0.9, &QuantileGbmParams::default()).is_none());
        assert!(QuantileBand::fit(&data, 0.1, 0.4, &QuantileGbmParams::default()).is_none());
    }

    #[test]
    fn deterministic() {
        let data = hetero(300, 5);
        let p = QuantileGbmParams::default();
        let a = QuantileGbm::fit(&data, &p).unwrap();
        let b = QuantileGbm::fit(&data, &p).unwrap();
        assert_eq!(a.predict(&[3.0]), b.predict(&[3.0]));
        assert_eq!(a.n_trees(), b.n_trees());
        assert_eq!(a.quantile(), 0.5);
    }
}
