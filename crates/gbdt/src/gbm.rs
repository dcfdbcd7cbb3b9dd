//! Squared-error gradient boosting — the AutoWLM baseline model class —
//! and the boosting loop every model in this crate fits through.
//!
//! The prior Redshift predictor is "a lightweight XGBoost model" trained on
//! flattened plan vectors (paper §2.1). [`Gbm`] reproduces that: additive
//! regression trees fit to squared-error gradients with shrinkage, optional
//! row subsampling, and early stopping on a held-out validation fraction
//! (the paper holds out 20%). The same rounds, over one head or
//! two, fit the pinball-loss [`Gbm::fit_quantile`] and the Gaussian
//! [`crate::NgBoost`].
//!
//! A round grows every head's tree on the same row sample in one call of
//! the grower, which fills all the heads' root histograms in one pass over
//! the rows and writes each grown row's leaf weight as it places the leaf.
//! The loop then walks only the rows the trees were not grown on — the
//! validation rows and the rows the sample left out — to update every
//! row's score. A fitted forest's cut table is the one its rows were
//! binned on, so a training row's bins are its ranks and the loop walks
//! the binned rows as they are; a grown row's leaf is the one the walk
//! finds, because the partition and the walk compare the same bin with the
//! same cut index.
//! The grower's buffers, the leaf weights and the shuffled rows are
//! allocated once per fit, not once per tree, and no step changes a
//! trained bit.

use crate::dataset::{BinnedDataset, Dataset};
use crate::tree::{fit_heads, Cuts, Forest, Scratch, Tree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

/// Fraction of rows boosting holds out for early stopping (the paper's 20%).
pub const VALIDATION_FRACTION: f64 = 0.2;
/// Histogram bins per feature, for every model this crate fits.
pub const N_BINS: usize = 64;

/// The boosting schedule a caller may set; the trees grow under the
/// [`crate::tree`] constants. Defaults mirror the paper's §5.1: 200
/// estimators and early stopping on a 20% validation split.
#[derive(Debug, Clone, Copy)]
pub struct GbmParams {
    /// Maximum number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to every tree's output.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) per tree.
    pub subsample: f64,
    /// Stop when validation loss has not improved for this many rounds
    /// (0 disables early stopping).
    pub early_stopping_rounds: usize,
    /// RNG seed for subsampling and the validation split.
    pub seed: u64,
}

impl Default for GbmParams {
    fn default() -> Self {
        Self {
            n_estimators: 200,
            learning_rate: 0.1,
            subsample: 1.0,
            early_stopping_rounds: 10,
            seed: 42,
        }
    }
}

/// A trained squared-error GBM.
#[derive(Debug, Clone)]
pub struct Gbm {
    base: f64,
    learning_rate: f64,
    /// The trees' cut table: the quantile cuts the fit binned its rows on.
    cuts: Cuts,
    trees: Forest,
    n_cols: usize,
}

/// The serde image of a [`Gbm`]: its scalars and its trees in arena form.
/// Nothing decodes it; it stays because `tests/exactness.rs`
/// (`trained_boosters_are_pinned_to_the_bit`) hashes the trees it exports.
#[derive(Serialize)]
struct GbmImage {
    base: f64,
    learning_rate: f64,
    trees: Vec<Tree>,
    n_cols: usize,
}

impl Serialize for Gbm {
    fn to_value(&self) -> Value {
        GbmImage {
            base: self.base,
            learning_rate: self.learning_rate,
            trees: self
                .trees
                .export(&self.cuts, 0..self.trees.len())
                .into_iter()
                .collect(),
            n_cols: self.n_cols,
        }
        .to_value()
    }
}

impl Gbm {
    /// Fits a GBM on `data`. Returns `None` if the dataset is empty.
    pub fn fit(data: &Dataset, params: &GbmParams) -> Option<Self> {
        Self::fit_loss(
            data,
            params,
            |ys| [ys.iter().sum::<f64>() / ys.len() as f64],
            |y, [f]| [f - y],
            |y, [f]| (f - y).powi(2),
        )
    }

    /// A one-head [`boost`] under `params`, binning `data` into
    /// [`N_BINS`]; `None` on an empty dataset.
    pub(crate) fn fit_loss(
        data: &Dataset,
        params: &GbmParams,
        base: impl FnOnce(Vec<f64>) -> [f64; 1],
        grad: impl Fn(f64, [f64; 1]) -> [f64; 1],
        loss: impl Fn(f64, [f64; 1]) -> f64,
    ) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let cuts = Cuts::fit(data, N_BINS);
        let binned = cuts.bin(data);
        let ([base], [trees]) = boost(
            data,
            (&cuts, &binned),
            params,
            [UNCLAMPED],
            base,
            grad,
            loss,
        );
        Some(Gbm {
            base,
            learning_rate: params.learning_rate,
            cuts,
            trees,
            n_cols: data.n_cols(),
        })
    }

    /// Predicts the target for a raw feature row: the row ranked once, then
    /// walked through its trees in order by [`crate::tree`]'s one walk.
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_cols);
        // Summed from −0.0 in tree order, the fold `Iterator::sum` makes for
        // `f64`, then added to the base.
        let mut sum = -0.0;
        let rank = self.cuts.rank(row);
        let add =
            |_, _, _, leaves: &[f64]| leaves.iter().for_each(|w| sum += self.learning_rate * w);
        self.trees.walk(0..self.trees.len(), 1, |_| &rank, add);
        self.base + sum
    }

    /// Number of trees after early stopping.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Constant prior the boosting starts from.
    pub fn base_score(&self) -> f64 {
        self.base
    }

    /// Gain-based feature importance, normalized to sum to 1 (all zeros
    /// when the model never split). Mirrors XGBoost's `total_gain`.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_cols];
        self.trees
            .accumulate_importance(0..self.trees.len(), &mut imp);
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// In-memory size in bytes: the struct, its cut table and its trees
    /// (for Fig. 9-style reporting).
    pub fn approx_size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cuts.size_bytes() + self.trees.size_bytes()
    }
}

/// The clamp range of a head that is not clamped: `x.clamp(−∞, ∞)` is `x`,
/// bit for bit, NaN included.
pub(crate) const UNCLAMPED: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// The one boosting loop, over `K` heads that share every round's row
/// sample (one head for squared and pinball loss, two for NGBoost's μ and
/// log σ²). A model supplies only its loss:
///
/// * `base` — each head's start, from the training rows' targets in split
///   order;
/// * `grad` — each head's gradient at one row, from its target and the
///   heads' current values (the trees fit it with unit hessians);
/// * `loss` — one validation row's loss, averaged for early stopping;
///
/// plus each head's clamp `range` ([`UNCLAMPED`] for none).
/// The loop owns the rest: the seeded shuffle and the
/// [`VALIDATION_FRACTION`] split (none below 10 rows or without early
/// stopping), each round's row sample, one [`fit_heads`] for all
/// heads over every column, the update `f ← clamp(f + lr·tree(x))` of
/// every row — its leaf taken from the grower for a sampled row, from a
/// walk of its bins for any other — and early stopping, which truncates
/// every head to the best round. Returns each head's base and trees, laid
/// out on `cuts`, the table that binned `binned`.
pub(crate) fn boost<const K: usize>(
    data: &Dataset,
    (cuts, binned): (&Cuts, &BinnedDataset),
    params: &GbmParams,
    range: [(f64, f64); K],
    base: impl FnOnce(Vec<f64>) -> [f64; K],
    grad: impl Fn(f64, [f64; K]) -> [f64; K],
    loss: impl Fn(f64, [f64; K]) -> f64,
) -> ([f64; K], [Forest; K]) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = data.n_rows();

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let n_val = if params.early_stopping_rounds > 0 && n >= 10 {
        ((n as f64 * VALIDATION_FRACTION) as usize).min(n - 1)
    } else {
        0
    };
    let (val_idx, train_idx) = order.split_at(n_val);

    let base = base(train_idx.iter().map(|&i| data.target(i)).collect());
    let mut heads: [Forest; K] = std::array::from_fn(|_| Forest::default());
    let mut f: [Vec<f64>; K] = base.map(|b| vec![b; n]);
    let at = |f: &[Vec<f64>; K], i: usize| -> [f64; K] { std::array::from_fn(|k| f[k][i]) };
    let mut grads: [Vec<f64>; K] = std::array::from_fn(|_| vec![0.0; n]);
    // Allocated once per fit: the grower's buffers, each head's leaf weight
    // per row, and the round's shuffled training rows.
    let mut scratch = Scratch::new(cuts, train_idx.len());
    let mut leaves: [Vec<f64>; K] = std::array::from_fn(|_| vec![0.0; n]);
    let mut shuffled = Vec::with_capacity(train_idx.len());

    let mut best_val = f64::INFINITY;
    let mut best_len = 0usize;
    let mut stall = 0usize;

    for round in 1..=params.n_estimators {
        // The sample draws no gradient, so only the sampled rows' are
        // computed: the grower reads no other.
        let n_sampled = sample(train_idx, params.subsample, &mut rng, &mut shuffled);
        let (rows, unsampled) = shuffled.split_at(n_sampled);
        for &i in rows {
            let g = grad(data.target(i), at(&f, i));
            for (gk, g) in grads.iter_mut().zip(g) {
                gk[i] = g;
            }
        }
        let head_grads = grads.each_ref().map(Vec::as_slice);
        fit_heads(
            &mut scratch,
            binned,
            head_grads,
            rows,
            &mut leaves,
            &mut heads,
        );
        for ((fk, leaf), ((lo, hi), head)) in
            f.iter_mut().zip(&mut leaves).zip(range.iter().zip(&heads))
        {
            let t = head.len() - 1;
            // One tree: every run goes along the rows.
            debug_assert!(
                {
                    let mut same = true;
                    head.walk(
                        t..t + 1,
                        rows.len(),
                        |i| binned.row(rows[i]),
                        |_, i, _, w| {
                            same &= (i..)
                                .zip(w)
                                .all(|(i, w)| w.to_bits() == leaf[rows[i]].to_bits());
                        },
                    );
                    same
                },
                "a grown row's leaf weight is not the one the walk finds"
            );
            for at in [val_idx, unsampled] {
                head.walk(
                    t..t + 1,
                    at.len(),
                    |i| binned.row(at[i]),
                    |_, i, _, w| {
                        (i..).zip(w).for_each(|(i, &w)| leaf[at[i]] = w);
                    },
                );
            }
            for (v, w) in fk.iter_mut().zip(leaf.iter()) {
                *v = (*v + params.learning_rate * w).clamp(*lo, *hi);
            }
        }

        if n_val > 0 {
            let val = val_idx
                .iter()
                .map(|&i| loss(data.target(i), at(&f, i)))
                .sum::<f64>()
                / n_val as f64;
            if val + 1e-12 < best_val {
                best_val = val;
                best_len = round;
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
        for head in &mut heads {
            head.truncate(best_len);
        }
    }
    (base, heads)
}

/// Copies `from` into `v` and shuffles it so that `v[..k]` samples `frac`
/// of it without replacement (at least one), by a partial Fisher-Yates
/// shuffle of the first `k`, and returns `k`; `v[k..]` holds the rows left
/// out.
fn sample(from: &[usize], frac: f64, rng: &mut StdRng, v: &mut Vec<usize>) -> usize {
    v.clear();
    v.extend_from_slice(from);
    if frac >= 1.0 {
        return from.len();
    }
    let k = ((from.len() as f64 * frac).round() as usize).clamp(1, from.len());
    for i in 0..k {
        let j = rng.gen_range(i..v.len());
        v.swap(i, j);
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedman_like(n: usize, seed: u64) -> Dataset {
        // y = 10 sin(x0) + 5 x1^2 + 2 x2, a smooth nonlinear target.
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    rng.gen_range(0.0..std::f64::consts::PI),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                ]
            })
            .collect();
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 * r[0].sin() + 5.0 * r[1] * r[1] + 2.0 * r[2])
            .collect();
        Dataset::from_rows(&rows, &targets)
    }

    #[test]
    fn fits_nonlinear_function() {
        let data = friedman_like(600, 1);
        let gbm = Gbm::fit(&data, &GbmParams::default()).unwrap();
        let test = friedman_like(100, 2);
        let mse: f64 = (0..test.n_rows())
            .map(|i| (gbm.predict(test.row(i)) - test.target(i)).powi(2))
            .sum::<f64>()
            / 100.0;
        let var: f64 = {
            let m = test.targets().iter().sum::<f64>() / 100.0;
            test.targets().iter().map(|y| (y - m).powi(2)).sum::<f64>() / 100.0
        };
        assert!(mse < 0.1 * var, "mse={mse} var={var}");
    }

    #[test]
    fn empty_dataset_returns_none() {
        assert!(Gbm::fit(&Dataset::new(3), &GbmParams::default()).is_none());
    }

    #[test]
    fn single_row_predicts_its_target() {
        let data = Dataset::from_rows(&[vec![1.0, 2.0]], &[5.0]);
        let gbm = Gbm::fit(&data, &GbmParams::default()).unwrap();
        assert!((gbm.predict(&[1.0, 2.0]) - 5.0).abs() < 1.0);
    }

    #[test]
    fn early_stopping_limits_trees() {
        // Constant target: first tree already perfect, stall immediately.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(&rows, &vec![3.0; 100]);
        let gbm = Gbm::fit(&data, &GbmParams::default()).unwrap();
        assert!(gbm.n_trees() <= 15, "{} trees", gbm.n_trees());
        assert!((gbm.predict(&[50.0]) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = friedman_like(200, 3);
        let a = Gbm::fit(&data, &GbmParams::default()).unwrap();
        let b = Gbm::fit(&data, &GbmParams::default()).unwrap();
        for i in 0..10 {
            assert_eq!(a.predict(data.row(i)), b.predict(data.row(i)));
        }
    }

    #[test]
    fn different_seeds_differ_with_subsampling() {
        let data = friedman_like(300, 4);
        let p1 = GbmParams {
            subsample: 0.5,
            seed: 1,
            ..Default::default()
        };
        let p2 = GbmParams {
            subsample: 0.5,
            seed: 2,
            ..Default::default()
        };
        let a = Gbm::fit(&data, &p1).unwrap();
        let b = Gbm::fit(&data, &p2).unwrap();
        let diff: f64 = (0..20)
            .map(|i| (a.predict(data.row(i)) - b.predict(data.row(i))).abs())
            .sum();
        assert!(diff > 1e-9, "seeded models should differ");
    }

    #[test]
    fn no_early_stopping_uses_all_rounds() {
        let data = friedman_like(80, 5);
        let params = GbmParams {
            n_estimators: 7,
            early_stopping_rounds: 0,
            ..Default::default()
        };
        let gbm = Gbm::fit(&data, &params).unwrap();
        assert_eq!(gbm.n_trees(), 7);
    }

    #[test]
    fn size_accounting_positive() {
        let data = friedman_like(100, 6);
        let gbm = Gbm::fit(&data, &GbmParams::default()).unwrap();
        assert!(gbm.approx_size_bytes() > 100);
    }

    #[test]
    fn feature_importance_identifies_the_signal() {
        // y depends only on feature 0; features 1 and 2 are noise.
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|_| {
                vec![
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ]
            })
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let gbm = Gbm::fit(&data, &GbmParams::default()).unwrap();
        let imp = gbm.feature_importance();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.9, "importance should load on feature 0: {imp:?}");
    }

    #[test]
    fn importance_all_zero_without_splits() {
        // Constant target: no splits ever happen.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(&rows, &vec![2.0; 50]);
        let gbm = Gbm::fit(&data, &GbmParams::default()).unwrap();
        assert!(gbm.feature_importance().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sample_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let from: Vec<usize> = (0..100).collect();
        let mut v = Vec::new();
        let k = sample(&from, 0.3, &mut rng, &mut v);
        assert_eq!(k, 30);
        // Every row once: the sample first, the rest behind it.
        let mut all = v.clone();
        all.sort_unstable();
        assert_eq!(all, from);
        let s = &v[..k];
        assert!(s.iter().all(|i| *i < 100));
        // No duplicates.
        let mut q = s.to_vec();
        q.sort_unstable();
        q.dedup();
        assert_eq!(q.len(), 30);
        // frac >= 1 keeps everything.
        assert_eq!(sample(&from, 1.0, &mut rng, &mut v), 100);
        assert_eq!(v, from);
        // tiny frac still samples one.
        assert_eq!(sample(&from, 1e-9, &mut rng, &mut v), 1);
    }
}
