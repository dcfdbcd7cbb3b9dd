//! Quantile (pinball-loss) gradient boosting.
//!
//! The paper surveys lightweight uncertainty alternatives and notes that
//! quantile-regression approaches "mainly focus on quantifying the model
//! uncertainty but not the data uncertainty" (§2.2). This module implements
//! that alternative so the claim can be tested empirically: one [`Gbm`] per
//! quantile trained on the pinball loss ([`Gbm::fit_quantile`]), plus a
//! [`QuantileBand`] that fits a
//! (lo, median, hi) triple and exposes the band spread as an uncertainty
//! proxy comparable against the Bayesian ensemble's.
//!
//! Gradient boosting with pinball loss `L_q(y, ŷ) = (q − 1{y<ŷ})·(y − ŷ)`
//! uses the (sub)gradient `∂L/∂ŷ = 1{y<ŷ} − q` with unit hessians.

use crate::dataset::Dataset;
use crate::gbm::{Gbm, GbmParams};

/// Pinball loss of one prediction.
pub fn pinball_loss(q: f64, y: f64, pred: f64) -> f64 {
    let d = y - pred;
    if d >= 0.0 {
        q * d
    } else {
        (q - 1.0) * d
    }
}

impl Gbm {
    /// Fits a GBM to the `q`-quantile on the pinball loss, starting from
    /// the training rows' empirical `q`-quantile. `None` on an empty
    /// dataset or a quantile outside `(0, 1)`.
    pub fn fit_quantile(data: &Dataset, q: f64, params: &GbmParams) -> Option<Self> {
        if !(q > 0.0 && q < 1.0) {
            return None;
        }
        Self::fit_loss(
            data,
            params,
            |mut ys| {
                ys.sort_by(f64::total_cmp);
                [ys[((ys.len() - 1) as f64 * q) as usize]]
            },
            |y, [f]| [if y < f { 1.0 - q } else { -q }],
            |y, [f]| pinball_loss(q, y, f),
        )
    }
}

/// A (lo, median, hi) quantile triple with a spread-based uncertainty proxy.
#[derive(Debug, Clone)]
pub struct QuantileBand {
    lo: Gbm,
    mid: Gbm,
    hi: Gbm,
}

impl QuantileBand {
    /// Fits the three models at `(lo_q, 0.5, hi_q)` with shared settings,
    /// each on its own seed derived from `params.seed`.
    pub fn fit(data: &Dataset, lo_q: f64, hi_q: f64, params: &GbmParams) -> Option<Self> {
        if !(0.0 < lo_q && lo_q < 0.5 && 0.5 < hi_q && hi_q < 1.0) {
            return None;
        }
        let fit = |q: f64, salt: u64| {
            let seed = params.seed.wrapping_add(salt);
            Gbm::fit_quantile(data, q, &GbmParams { seed, ..*params })
        };
        Some(Self {
            lo: fit(lo_q, 1)?,
            mid: fit(0.5, 2)?,
            hi: fit(hi_q, 3)?,
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The settings the quantile heads were tuned with: pinball gradients
    /// are small constants, so validation loss improves slowly and the
    /// heads need more rounds and patience than the squared/NLL models.
    fn quantile_params() -> GbmParams {
        GbmParams {
            n_estimators: 300,
            learning_rate: 0.2,
            subsample: 0.9,
            early_stopping_rounds: 25,
            ..GbmParams::default()
        }
    }

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
            let m = Gbm::fit_quantile(&train, q, &quantile_params()).unwrap();
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
            &GbmParams {
                n_estimators: 800,
                learning_rate: 0.25,
                ..quantile_params()
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
        let p = quantile_params();
        assert!(Gbm::fit_quantile(&data, 0.0, &p).is_none());
        assert!(Gbm::fit_quantile(&Dataset::new(1), 0.5, &p).is_none());
        assert!(QuantileBand::fit(&data, 0.6, 0.9, &p).is_none());
        assert!(QuantileBand::fit(&data, 0.1, 0.4, &p).is_none());
    }

    #[test]
    fn deterministic() {
        let data = hetero(300, 5);
        let p = quantile_params();
        let a = Gbm::fit_quantile(&data, 0.5, &p).unwrap();
        let b = Gbm::fit_quantile(&data, 0.5, &p).unwrap();
        assert_eq!(a.predict(&[3.0]), b.predict(&[3.0]));
        assert_eq!(a.n_trees(), b.n_trees());
    }
}
