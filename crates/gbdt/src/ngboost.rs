//! Natural-gradient boosting of a Gaussian predictive distribution.
//!
//! Stage's local model members are "XGBoost models \[trained\] with a
//! probabilistic likelihood loss function" that "output a mean μ and variance
//! σ for \[the\] prediction" (paper §2.2, citing CatBoost's
//! `RMSEWithUncertainty` \[48\] and the ensemble framing of \[31\]). We implement
//! that as NGBoost-style natural-gradient boosting of `N(μ, σ²)`:
//!
//! * parameters per sample: `θ = (μ, s)` with `s = ln σ²`;
//! * NLL: `½(s + (y−μ)²·e^{−s})` + const;
//! * natural gradients (inverse Fisher `diag(σ², 2)` times ∇NLL):
//!   `ĝ_μ = μ − y`, `ĝ_s = 1 − (y−μ)²·e^{−s}`;
//! * each round fits one tree per parameter to the natural gradient and
//!   updates `θ ← θ − lr·tree(x)`;
//! * early stopping monitors validation NLL.
//!
//! Only the round count and the seed are the caller's; shrinkage, the row
//! sample, the early-stopping patience and the log-variance clamp are this
//! module's constants (the paper's member settings).
//!
//! Both heads are one forest in [`crate::tree`]'s walked layout — the μ
//! trees, then the s trees — over one cut table, which an ensemble's
//! members share: a row is ranked once, then walked through the forest in
//! boosting order by the one walk, whether it comes alone or in a batch.
//! The table is the quantile cuts the fit binned its rows on, or a
//! decoded model's thresholds; either answers every row the same.

use crate::dataset::{BinnedDataset, Dataset};
use crate::gbm::{boost, GbmParams, N_BINS, UNCLAMPED};
use crate::tree::{Along, Cuts, Forest, Ranks, Trees};
use std::sync::Arc;

/// Shrinkage applied to both heads' trees.
pub const LEARNING_RATE: f64 = 0.1;
/// Fraction of the training rows each round samples.
pub const SUBSAMPLE: f64 = 0.8;
/// Rounds without a better validation NLL before boosting stops.
pub const EARLY_STOPPING_ROUNDS: usize = 10;
/// Clamp for `s = ln σ²`, keeping the variance head stable.
pub const LOG_VAR_RANGE: (f64, f64) = (-12.0, 12.0);

/// A trained Gaussian NGBoost model: predicts `(μ, σ²)` per row.
#[derive(Debug, Clone)]
pub struct NgBoost {
    base_mu: f64,
    base_log_var: f64,
    /// The heads' cut table, shared by every member of an ensemble.
    cuts: Arc<Cuts>,
    /// The μ head's trees, then the s head's: `2 × rounds` trees.
    trees: Forest,
    n_cols: usize,
}

impl NgBoost {
    /// Fits at most `n_estimators` rounds (each a μ-tree and an s-tree)
    /// with the RNG seeded by `seed`; `None` on an empty dataset.
    pub fn fit(data: &Dataset, n_estimators: usize, seed: u64) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let cuts = Arc::new(Cuts::fit(data, N_BINS));
        let binned = cuts.bin(data);
        Some(Self::fit_binned(data, &binned, cuts, n_estimators, seed))
    }

    /// [`NgBoost::fit`] on a non-empty dataset already binned into
    /// [`N_BINS`] on `cuts`, so the ensemble bins its pool once for all
    /// members and they share the table.
    pub(crate) fn fit_binned(
        data: &Dataset,
        binned: &BinnedDataset,
        cuts: Arc<Cuts>,
        n_estimators: usize,
        seed: u64,
    ) -> Self {
        let schedule = GbmParams {
            n_estimators,
            learning_rate: LEARNING_RATE,
            subsample: SUBSAMPLE,
            early_stopping_rounds: EARLY_STOPPING_ROUNDS,
            seed,
        };
        let (lo, hi) = LOG_VAR_RANGE;
        let ([base_mu, base_log_var], [mu, var]) = boost(
            data,
            (&cuts, binned),
            &schedule,
            [UNCLAMPED, LOG_VAR_RANGE],
            |ys| {
                let nt = ys.len() as f64;
                let mu = ys.iter().sum::<f64>() / nt;
                let var = ys.iter().map(|y| (y - mu).powi(2)).sum::<f64>() / nt;
                [mu, var.max(1e-8).ln().clamp(lo, hi)]
            },
            // Natural gradients (see module docs): the trees fit them with
            // unit hessians, so a leaf weight is the mean descent step.
            |y, [mu, s]| {
                let d = y - mu;
                [-d, 1.0 - d * d * (-s).exp()]
            },
            |y, [mu, s]| {
                let d = y - mu;
                0.5 * (s + d * d * (-s).exp())
            },
        );
        let mut trees = mu;
        trees.append(var);
        NgBoost {
            base_mu,
            base_log_var,
            cuts,
            trees,
            n_cols: data.n_cols(),
        }
    }

    /// A model of two laid-out heads on `cuts`; `None` when the heads have
    /// different lengths — `fit` always truncates them together, so a
    /// mismatch means the artefact is corrupt.
    pub(crate) fn from_forests(
        base_mu: f64,
        base_log_var: f64,
        n_cols: usize,
        cuts: Arc<Cuts>,
        mut mu: Forest,
        var: Forest,
    ) -> Option<Self> {
        if mu.len() != var.len() {
            return None;
        }
        mu.append(var);
        Some(NgBoost {
            base_mu,
            base_log_var,
            cuts,
            trees: mu,
            n_cols,
        })
    }

    /// Predicts `(μ, σ²)` for a batch of rows, each row ranked once on the
    /// cut table; one row is a batch of one.
    pub fn predict_dist_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<(f64, f64)> {
        let ranks: Vec<Ranks> = rows.iter().map(|r| self.cuts.rank(r.as_ref())).collect();
        let mut dists = vec![(0.0, 0.0); ranks.len()];
        self.dists(&ranks, &mut dists);
        dists
    }

    /// Writes `(μ, σ²)` for each row ranked on this model's cut table to
    /// the same index of `out`. Both heads' trees are one [`Forest::walk`],
    /// so each row meets them in boosting order however many rows there
    /// are: μ takes its head's leaf weights, then s takes its head's, each
    /// s step clamped.
    pub(crate) fn dists(&self, ranks: &[Ranks], out: &mut [(f64, f64)]) {
        let (lo, hi) = LOG_VAR_RANGE;
        let rounds = self.n_rounds();
        out.fill((self.base_mu, self.base_log_var));
        let rank = |i: usize| &ranks[i];
        self.trees.walk(
            0..2 * rounds,
            ranks.len(),
            rank,
            |along, i, t, leaves| match along {
                // One row along the trees: its μ and s stay in registers.
                Along::Trees => {
                    let (mut mu, mut s) = out[i];
                    let (mu_leaves, s_leaves) =
                        leaves.split_at(rounds.saturating_sub(t).min(leaves.len()));
                    mu_leaves.iter().for_each(|w| mu += LEARNING_RATE * w);
                    s_leaves
                        .iter()
                        .for_each(|w| s = (s + LEARNING_RATE * w).clamp(lo, hi));
                    out[i] = (mu, s);
                }
                // One tree along the rows: every row's μ, or every row's s.
                Along::Rows => {
                    let rows = out[i..].iter_mut().zip(leaves);
                    if t < rounds {
                        rows.for_each(|((mu, _), w)| *mu += LEARNING_RATE * w);
                    } else {
                        rows.for_each(|((_, s), w)| *s = (*s + LEARNING_RATE * w).clamp(lo, hi));
                    }
                }
            },
        );
        out.iter_mut().for_each(|(_, s)| *s = s.exp());
    }

    /// Boosting rounds kept after early stopping.
    pub fn n_rounds(&self) -> usize {
        self.trees.len() / 2
    }

    /// Gain-based feature importance of the mean (μ) head, normalized to
    /// sum to 1. The variance head is excluded: importance questions are
    /// about what drives the *prediction*, not its error bar.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_cols];
        self.trees
            .accumulate_importance(0..self.n_rounds(), &mut imp);
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Scalar head state `(base_mu, base_log_var, learning_rate,
    /// log_var_range, n_cols)` for the artefact store; the shrinkage and
    /// the clamp are [`LEARNING_RATE`] and [`LOG_VAR_RANGE`].
    pub fn scalar_parts(&self) -> (f64, f64, f64, (f64, f64), usize) {
        (
            self.base_mu,
            self.base_log_var,
            LEARNING_RATE,
            LOG_VAR_RANGE,
            self.n_cols,
        )
    }

    /// The μ-head trees in arena form, in boosting order.
    pub fn mu_trees(&self) -> Trees<'_> {
        self.trees.export(&self.cuts, 0..self.n_rounds())
    }

    /// The s-head (log-variance) trees in arena form, in boosting order.
    pub fn var_trees(&self) -> Trees<'_> {
        let rounds = self.n_rounds();
        self.trees.export(&self.cuts, rounds..2 * rounds)
    }

    /// The feature width this model was fitted on.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// In-memory size in bytes: the struct, its cut table and both heads.
    pub fn approx_size_bytes(&self) -> usize {
        self.cuts.size_bytes() + self.heads_size_bytes()
    }

    /// The struct and both heads, without the cut table an ensemble's
    /// members share.
    pub(crate) fn heads_size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.trees.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rand_distr_shim::normal;

    /// Tiny Box-Muller shim so tests don't need rand_distr.
    mod rand_distr_shim {
        use rand::rngs::StdRng;
        use rand::Rng;

        pub fn normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
    }

    /// Heteroscedastic data: y ~ N(3 x, (0.1 + x)²) for x in [0, 2].
    fn hetero(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..2.0);
            let y = normal(&mut rng, 3.0 * x, 0.1 + x);
            rows.push(vec![x]);
            ys.push(y);
        }
        Dataset::from_rows(&rows, &ys)
    }

    #[test]
    fn learns_mean_function() {
        let data = hetero(2000, 1);
        let model = NgBoost::fit(&data, 200, 42).unwrap();
        for x in [0.2, 0.8, 1.5] {
            let (mu, _) = model.predict_dist_batch(&[[x]])[0];
            assert!((mu - 3.0 * x).abs() < 0.6, "x={x} mu={mu}");
        }
    }

    #[test]
    fn learns_heteroscedastic_variance() {
        let data = hetero(3000, 2);
        let model = NgBoost::fit(&data, 200, 42).unwrap();
        let (_, var_lo) = model.predict_dist_batch(&[[0.1]])[0];
        let (_, var_hi) = model.predict_dist_batch(&[[1.9]])[0];
        // True std at 0.1 is 0.2; at 1.9 it is 2.0 -> variance 0.04 vs 4.0.
        assert!(
            var_hi > 4.0 * var_lo,
            "variance should grow with x: lo={var_lo} hi={var_hi}"
        );
    }

    #[test]
    fn empty_returns_none() {
        assert!(NgBoost::fit(&Dataset::new(2), 200, 42).is_none());
    }

    #[test]
    fn variance_stays_positive_and_bounded() {
        let data = hetero(500, 3);
        let model = NgBoost::fit(&data, 200, 42).unwrap();
        for x in [-5.0, 0.0, 1.0, 10.0] {
            let (_, var) = model.predict_dist_batch(&[[x]])[0];
            assert!(var > 0.0 && var.is_finite());
            assert!(var <= LOG_VAR_RANGE.1.exp() + 1.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = hetero(300, 4);
        let a = NgBoost::fit(&data, 200, 42).unwrap();
        let b = NgBoost::fit(&data, 200, 42).unwrap();
        for x in [0.1, 0.9, 1.7] {
            assert_eq!(a.predict_dist_batch(&[[x]]), b.predict_dist_batch(&[[x]]));
        }
    }

    #[test]
    fn constant_target_gives_tiny_variance() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 10) as f64]).collect();
        let data = Dataset::from_rows(&rows, &vec![5.0; 200]);
        let model = NgBoost::fit(&data, 200, 42).unwrap();
        let (mu, var) = model.predict_dist_batch(&[[3.0]])[0];
        assert!((mu - 5.0).abs() < 1e-3);
        assert!(var < 1e-3, "var={var}");
    }

    #[test]
    fn early_stopping_truncates_both_heads() {
        let data = hetero(400, 5);
        let model = NgBoost::fit(&data, 200, 42).unwrap();
        assert_eq!(model.mu_trees().len(), model.var_trees().len());
        assert!(model.n_rounds() >= 1);
    }
}
