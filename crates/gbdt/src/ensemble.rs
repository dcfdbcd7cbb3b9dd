//! The Bayesian ensemble of gradient-boosting models (paper §4.3, Eqs. 1–2).
//!
//! K NGBoost members are trained independently — different seeds drive
//! different train/validation splits and row subsamples — and combined as
//!
//! ```text
//! ŷ            = (1/K) Σ μ_k                          (Eq. 1)
//! V[ŷ]         = (1/K) Σ (ŷ − μ_k)²  +  (1/K) Σ σ_k²  (Eq. 2)
//!                ^^^^^ model uncertainty   ^^^^^ data uncertainty
//! ```
//!
//! Model uncertainty grows when members disagree (little/unfamiliar training
//! data); data uncertainty grows when the features can't explain the label
//! noise. Both trigger Stage's escalation to the global model.
//!
//! All members' trees sit on one cut table — the quantile cuts the pool
//! was binned on once for a trained ensemble, the stored thresholds of
//! every member for a decoded one — so a row is ranked once per
//! prediction and every member walks the same ranks ([`crate::tree`]): a
//! prediction is a batch of one.

use crate::dataset::Dataset;
use crate::gbm::N_BINS;
use crate::ngboost::NgBoost;
use crate::tree::{lay_out, Cuts, Ranks, Tree};
use std::sync::Arc;

/// Ensemble hyper-parameters: the paper trains K = 10 members of at most
/// 200 rounds each. Every other member setting is a constant of
/// [`crate::ngboost`] and [`crate::tree`].
#[derive(Debug, Clone, Copy)]
pub struct EnsembleParams {
    /// Number of independently trained members.
    pub n_members: usize,
    /// Most boosting rounds per member.
    pub n_estimators: usize,
    /// Base seed; member k trains with `splitmix(seed, k)`.
    pub seed: u64,
}

impl Default for EnsembleParams {
    fn default() -> Self {
        Self {
            n_members: 10,
            n_estimators: 200,
            seed: 42,
        }
    }
}

/// A prediction with decomposed uncertainty (Eq. 2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnsemblePrediction {
    /// Mean prediction ŷ (Eq. 1).
    pub mean: f64,
    /// Variance of member means — disagreement across the ensemble.
    pub model_uncertainty: f64,
    /// Mean of member variances — inherent label/feature noise.
    pub data_uncertainty: f64,
}

impl EnsemblePrediction {
    /// Total prediction variance `V[ŷ]`.
    pub fn total_variance(&self) -> f64 {
        self.model_uncertainty + self.data_uncertainty
    }

    /// Total prediction standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.total_variance().sqrt()
    }
}

/// The trained ensemble.
#[derive(Debug, Clone)]
pub struct BayesianEnsemble {
    /// The cut table every member's trees sit on (each member holds the
    /// same `Arc`).
    cuts: Arc<Cuts>,
    members: Vec<NgBoost>,
}

/// One decoded member of [`BayesianEnsemble::from_parts`]: `(base_mu,
/// base_log_var, mu_trees, var_trees)`.
pub type MemberParts = (f64, f64, Vec<Tree>, Vec<Tree>);

/// SplitMix64 — deterministic per-member seed derivation.
pub(crate) fn splitmix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Eqs. 1–2 over the members' `(μ_k, σ_k²)`, each sum taken in member
/// order.
fn combine<'a>(dists: impl Iterator<Item = &'a (f64, f64)> + Clone) -> EnsemblePrediction {
    let k = dists.clone().count() as f64;
    let mean = dists.clone().map(|d| d.0).sum::<f64>() / k;
    let model_uncertainty = dists.clone().map(|d| (d.0 - mean).powi(2)).sum::<f64>() / k;
    let data_uncertainty = dists.map(|d| d.1).sum::<f64>() / k;
    EnsemblePrediction {
        mean,
        model_uncertainty,
        data_uncertainty,
    }
}

impl BayesianEnsemble {
    /// Trains K independent members. `None` on an empty dataset or
    /// `n_members == 0`.
    pub fn fit(data: &Dataset, params: &EnsembleParams) -> Option<Self> {
        if data.is_empty() || params.n_members == 0 {
            return None;
        }
        // Binning depends on the pool only, so it is shared, and so is the
        // cut table it gives every member's trees.
        let cuts = Arc::new(Cuts::fit(data, N_BINS));
        let binned = cuts.bin(data);
        let members = (0..params.n_members)
            .map(|k| {
                let seed = splitmix(params.seed, k as u64);
                NgBoost::fit_binned(data, &binned, Arc::clone(&cuts), params.n_estimators, seed)
            })
            .collect();
        Some(Self { cuts, members })
    }

    /// Predicts mean and decomposed uncertainty for a raw feature row: a
    /// batch of one.
    pub fn predict(&self, row: &[f64]) -> EnsemblePrediction {
        self.predict_batch(&[row])[0]
    }

    /// Predicts mean and decomposed uncertainty for a batch of rows. Each
    /// row is ranked once; every member fills its slice of one member-major
    /// buffer of `(μ_k, σ_k²)`, then each row's answers are combined in
    /// member order.
    pub fn predict_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<EnsemblePrediction> {
        let ranks: Vec<Ranks> = rows.iter().map(|r| self.cuts.rank(r.as_ref())).collect();
        let n = ranks.len();
        let mut dists = vec![(0.0, 0.0); n * self.members.len()];
        for (member, dists) in self.members.iter().zip(dists.chunks_exact_mut(n.max(1))) {
            member.dists(&ranks, dists);
        }
        (0..n)
            .map(|r| combine(dists.iter().skip(r).step_by(n)))
            .collect()
    }

    /// Number of members.
    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// The trained members, in training order.
    pub fn members(&self) -> &[NgBoost] {
        &self.members
    }

    /// Reassembles an ensemble from decoded members over `n_cols`
    /// features — the one decoder of a trained ensemble, which the
    /// artefact store's restore reads through — every member's trees
    /// laid out on one cut table built from all their thresholds. `None`
    /// on an empty member list (mirroring `fit`), on a member whose heads
    /// have different lengths, or when a column's thresholds across the
    /// ensemble exceed [`crate::tree::MAX_CUTS`] distinct values.
    pub fn from_parts(n_cols: usize, members: Vec<MemberParts>) -> Option<Self> {
        if members.is_empty() {
            return None;
        }
        let heads: Vec<&[Tree]> = members
            .iter()
            .flat_map(|(_, _, mu, var)| [mu.as_slice(), var.as_slice()])
            .collect();
        let (cuts, forests) = lay_out(&heads)?;
        let cuts = Arc::new(cuts);
        let mut forests = forests.into_iter();
        let members = members
            .iter()
            .map(|&(base_mu, base_log_var, _, _)| {
                let (mu, var) = (forests.next()?, forests.next()?);
                let member_cuts = Arc::clone(&cuts);
                NgBoost::from_forests(base_mu, base_log_var, n_cols, member_cuts, mu, var)
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Self { cuts, members })
    }

    /// Mean of the members' gain-based feature importances (normalized).
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut acc: Vec<f64> = Vec::new();
        for m in &self.members {
            let imp = m.feature_importance();
            if acc.is_empty() {
                acc = imp;
            } else {
                for (a, b) in acc.iter_mut().zip(&imp) {
                    *a += b;
                }
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in &mut acc {
                *v /= total;
            }
        }
        acc
    }

    /// Rough in-memory size in bytes (≈ 10× a single model, as Fig. 9
    /// notes): the members' trees and the one cut table they share.
    pub fn approx_size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.cuts.size_bytes()
            + self
                .members
                .iter()
                .map(NgBoost::heads_size_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy_linear(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..10.0);
            let noise: f64 = rng.gen_range(-0.5..0.5);
            rows.push(vec![x]);
            ys.push(2.0 * x + noise);
        }
        Dataset::from_rows(&rows, &ys)
    }

    fn small_params(n_members: usize) -> EnsembleParams {
        EnsembleParams {
            n_members,
            n_estimators: 40,
            seed: 7,
        }
    }

    #[test]
    fn eq1_eq2_shapes() {
        let data = noisy_linear(400, 1);
        let ens = BayesianEnsemble::fit(&data, &small_params(5)).unwrap();
        assert_eq!(ens.n_members(), 5);
        let p = ens.predict(&[5.0]);
        assert!((p.mean - 10.0).abs() < 1.5, "mean={}", p.mean);
        assert!(p.model_uncertainty >= 0.0);
        assert!(p.data_uncertainty > 0.0);
        assert!((p.total_variance() - (p.model_uncertainty + p.data_uncertainty)).abs() < 1e-12);
        assert!((p.std_dev().powi(2) - p.total_variance()).abs() < 1e-9);
    }

    #[test]
    fn model_uncertainty_shrinks_with_more_data() {
        // Paper §4.3: "when local model does not have enough training data
        // ... the models will have diverse interpretations of this query",
        // i.e. model uncertainty falls as the training pool grows.
        let small = noisy_linear(20, 2);
        let large = noisy_linear(2000, 2);
        let ens_small = BayesianEnsemble::fit(&small, &small_params(8)).unwrap();
        let ens_large = BayesianEnsemble::fit(&large, &small_params(8)).unwrap();
        let probes = [1.0, 3.0, 5.0, 7.0, 9.0];
        let avg = |e: &BayesianEnsemble| -> f64 {
            probes
                .iter()
                .map(|&x| e.predict(&[x]).model_uncertainty)
                .sum::<f64>()
                / probes.len() as f64
        };
        let (u_small, u_large) = (avg(&ens_small), avg(&ens_large));
        assert!(
            u_small > u_large,
            "20-row ensemble should disagree more: small={u_small} large={u_large}"
        );
    }

    #[test]
    fn single_member_has_zero_model_uncertainty() {
        let data = noisy_linear(200, 3);
        let ens = BayesianEnsemble::fit(&data, &small_params(1)).unwrap();
        let p = ens.predict(&[5.0]);
        assert_eq!(p.model_uncertainty, 0.0);
        assert!(p.data_uncertainty > 0.0);
    }

    #[test]
    fn zero_members_or_empty_data_rejected() {
        let data = noisy_linear(50, 4);
        assert!(BayesianEnsemble::fit(&data, &small_params(0)).is_none());
        assert!(BayesianEnsemble::fit(&Dataset::new(1), &small_params(3)).is_none());
    }

    /// Every stored number of a member — scalar head state and both tree
    /// heads through `to_flat_parts` — as bit patterns.
    fn member_bits(m: &NgBoost) -> Vec<u64> {
        let (base_mu, base_log_var, lr, (lo, hi), n_cols) = m.scalar_parts();
        let mut bits = vec![
            base_mu.to_bits(),
            base_log_var.to_bits(),
            lr.to_bits(),
            lo.to_bits(),
            hi.to_bits(),
            n_cols as u64,
            m.n_rounds() as u64,
        ];
        for tree in m.mu_trees().iter().chain(m.var_trees()) {
            let (feature, threshold, left, right, gain) = tree.to_flat_parts();
            bits.extend(feature.iter().map(|&v| u64::from(v)));
            bits.extend(threshold.iter().map(|v| v.to_bits()));
            bits.extend(left.iter().map(|&v| u64::from(v)));
            bits.extend(right.iter().map(|&v| u64::from(v)));
            bits.extend(gain.iter().map(|v| v.to_bits()));
        }
        bits
    }

    /// Three informative columns (one coarse), one constant, one duplicate.
    fn wide(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(5);
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..10.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            let c = rng.gen_range(0u32..4) as f64;
            let noise: f64 = rng.gen_range(-0.5..0.5);
            ds.push(&[a, b, c, 3.0, a], 2.0 * a + 5.0 * b * c + noise);
        }
        ds
    }

    #[test]
    fn deterministic_given_seed() {
        let data = wide(300, 5);
        let a = BayesianEnsemble::fit(&data, &small_params(3)).unwrap();
        let b = BayesianEnsemble::fit(&data, &small_params(3)).unwrap();
        for (ma, mb) in a.members().iter().zip(b.members()) {
            assert_eq!(member_bits(ma), member_bits(mb));
        }
    }

    #[test]
    fn shared_binning_equals_standalone_members() {
        // The ensemble bins the pool once; a member fitted on its own bins
        // it again. Same cuts, same bins, so the same model bit for bit.
        let data = wide(400, 8);
        let params = small_params(10);
        let ens = BayesianEnsemble::fit(&data, &params).unwrap();
        assert_eq!(ens.n_members(), 10);
        for (k, member) in ens.members().iter().enumerate() {
            let seed = splitmix(params.seed, k as u64);
            let alone = NgBoost::fit(&data, params.n_estimators, seed).unwrap();
            assert_eq!(member_bits(member), member_bits(&alone), "member {k}");
        }
    }

    #[test]
    fn members_actually_differ() {
        let data = noisy_linear(200, 6);
        let ens = BayesianEnsemble::fit(&data, &small_params(4)).unwrap();
        let p = ens.predict(&[3.0]);
        // With subsample 0.8 and different seeds, exact agreement would
        // indicate the seeds are not being varied.
        assert!(p.model_uncertainty > 0.0);
    }

    #[test]
    fn ensemble_importance_normalized() {
        let data = noisy_linear(300, 7);
        let ens = BayesianEnsemble::fit(&data, &small_params(3)).unwrap();
        let imp = ens.feature_importance();
        assert_eq!(imp.len(), 1);
        assert!((imp[0] - 1.0).abs() < 1e-9, "single informative feature");
    }

    #[test]
    fn splitmix_distinct() {
        let s: std::collections::HashSet<u64> = (0..100).map(|k| splitmix(42, k)).collect();
        assert_eq!(s.len(), 100);
    }

    /// A decoded ensemble's cut table holds at most `MAX_CUTS` distinct
    /// thresholds per column, counted across every member: spread over
    /// two members, 255 lay out and answer as their trees do, 256 are
    /// refused.
    #[test]
    fn from_parts_refuses_a_column_past_max_cuts() {
        let split = |t: f64| {
            let leaf = u32::MAX;
            Tree::from_flat_parts(
                &[0, leaf, leaf],
                &[t, -1.0, 1.0],
                &[1, 0, 0],
                &[2, 0, 0],
                &[1.0, 0.0, 0.0],
            )
            .unwrap()
        };
        let member = |ts: &[f64]| -> MemberParts {
            let trees: Vec<Tree> = ts.iter().map(|&t| split(t)).collect();
            (0.0, 0.0, trees.clone(), trees)
        };
        let cuts: Vec<f64> = (0..=crate::tree::MAX_CUTS).map(|i| i as f64).collect();
        let (fits, over) = (&cuts[..crate::tree::MAX_CUTS], &cuts[..]);
        let (lo, hi) = fits.split_at(fits.len() / 2);
        let ens = BayesianEnsemble::from_parts(1, vec![member(lo), member(hi)])
            .expect("255 distinct cuts lay out");
        // Row 127.5 lies above thresholds 0..=127 and below the rest.
        let row = [127.5];
        let fold = |ts: &[f64]| {
            ts.iter().fold(0.0, |mu, &t| {
                mu + crate::ngboost::LEARNING_RATE * split(t).predict(&row)
            })
        };
        let want = [fold(lo), fold(hi)].iter().sum::<f64>() / 2.0;
        assert_eq!(ens.predict(&row).mean.to_bits(), want.to_bits());
        let half = over.len() / 2;
        assert!(BayesianEnsemble::from_parts(
            1,
            vec![member(&over[..half]), member(&over[half..])]
        )
        .is_none());
    }
}
