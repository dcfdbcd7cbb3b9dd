//! The instance-optimized local model (paper §4.3): a Bayesian ensemble of
//! NLL-trained gradient-boosting models over the 33-dim plan vector, with
//! decomposed prediction uncertainty. Retrains periodically from the
//! [`crate::pool::TrainingPool`] as observations accumulate — the online
//! analogue of Redshift retraining per-cluster models in the background.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::pool::TrainingPool;
use crate::storefmt::policy_slot;
use stage_gbdt::{ensemble, gbm, ngboost, tree};
use stage_gbdt::{BayesianEnsemble, EnsembleParams, EnsemblePrediction};

/// Local-model configuration.
#[derive(Debug, Clone, Copy)]
pub struct LocalModelConfig {
    /// The ensemble's member count, rounds per member and seed (paper:
    /// K = 10 members, 200 estimators; the default trims estimators for
    /// online replay speed — early stopping usually stops far earlier
    /// anyway). The trees' depth 6 and every other member setting are
    /// `stage-gbdt` constants.
    pub ensemble: EnsembleParams,
    /// Minimum pool size before the first training.
    pub min_train_examples: usize,
    /// Retrain after this many new observations since the last training.
    pub retrain_interval: usize,
}

impl Default for LocalModelConfig {
    fn default() -> Self {
        Self {
            ensemble: EnsembleParams {
                n_members: 10,
                n_estimators: 60,
                seed: 42,
            },
            min_train_examples: 30,
            retrain_interval: 300,
        }
    }
}

/// The seed of a model's retrain after `trainings` earlier ones, from its
/// `base` seed and its instance's salt: it varies across retrainings so
/// ensembles don't ossify, and across instances so fleets don't train in
/// lockstep. It derives only from per-instance state — never from global
/// counters or thread identity — so a replay is deterministic at any
/// parallelism. The AutoWLM baseline retrains under the same rule.
pub(crate) fn retrain_seed(base: u64, instance_salt: u64, trainings: u64) -> u64 {
    (base ^ instance_salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(trainings.wrapping_mul(0x9E37_79B9))
}

/// The local model: an optional trained ensemble plus retraining policy.
#[derive(Debug, Clone)]
pub struct LocalModel {
    config: LocalModelConfig,
    ensemble: Option<BayesianEnsemble>,
    observations_since_train: usize,
    trainings: u64,
    instance_salt: u64,
}

impl LocalModel {
    /// Creates an untrained local model.
    pub fn new(config: LocalModelConfig) -> Self {
        Self {
            config,
            ensemble: None,
            observations_since_train: 0,
            trainings: 0,
            instance_salt: 0,
        }
    }

    /// Sets the per-instance seed salt. Retraining seeds derive only from
    /// the configured base seed, this salt, and the retrain counter — all
    /// per-instance state — so replays are bit-identical regardless of how
    /// instances are scheduled across threads, while distinct instances
    /// still train decorrelated ensembles.
    pub fn set_instance_salt(&mut self, salt: u64) {
        self.instance_salt = salt;
    }

    /// The per-instance seed salt.
    pub fn instance_salt(&self) -> u64 {
        self.instance_salt
    }

    /// Whether a trained ensemble is available.
    pub fn is_trained(&self) -> bool {
        self.ensemble.is_some()
    }

    /// The feature width the ensemble trained on; `None` until the first
    /// training.
    pub(crate) fn n_cols(&self) -> Option<usize> {
        let first = self.ensemble.as_ref()?.members().first()?;
        Some(first.n_cols())
    }

    /// Number of trainings performed.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    /// Counts one pool add (`pool` already holds it) and says whether it
    /// makes a retrain due: first at `min_train_examples`, then every
    /// `retrain_interval` adds — or at once when `drifted` (the shard's
    /// drift sentinel is latched; an untrained model still waits for
    /// `min_train_examples`). The caller then [`LocalModel::retrain`]s, or
    /// skips a poisoned retrain: the stale ensemble keeps serving and the
    /// count keeps climbing past the interval, so the next add is due too.
    pub fn note_pool_add(&mut self, pool: &TrainingPool, drifted: bool) -> bool {
        self.observations_since_train += 1;
        match self.ensemble {
            None => pool.len() >= self.config.min_train_examples,
            Some(_) => drifted || self.observations_since_train >= self.config.retrain_interval,
        }
    }

    /// Retrains from the pool now; whether it trained (not on an empty
    /// pool).
    pub fn retrain(&mut self, pool: &TrainingPool) -> bool {
        let Some(dataset) = pool.to_dataset() else {
            return false;
        };
        let seed = retrain_seed(
            self.config.ensemble.seed,
            self.instance_salt,
            self.trainings,
        );
        let params = EnsembleParams {
            seed,
            ..self.config.ensemble
        };
        let Some(e) = BayesianEnsemble::fit(&dataset, &params) else {
            return false;
        };
        self.ensemble = Some(e);
        self.trainings += 1;
        self.observations_since_train = 0;
        true
    }

    /// Predicts the log-space mean and decomposed uncertainty for a 33-dim
    /// feature vector ([`BayesianEnsemble::predict`]). `None` until the
    /// first training.
    pub fn predict(&self, features: &[f64]) -> Option<EnsemblePrediction> {
        Some(self.ensemble.as_ref()?.predict(features))
    }

    /// [`LocalModel::predict`] for a batch of feature vectors
    /// ([`BayesianEnsemble::predict_batch`]).
    pub fn predict_batch<R: AsRef<[f64]>>(
        &self,
        features: &[R],
    ) -> Option<Vec<EnsemblePrediction>> {
        Some(self.ensemble.as_ref()?.predict_batch(features))
    }

    /// Approximate resident size in bytes.
    pub fn approx_size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .ensemble
                .as_ref()
                .map(BayesianEnsemble::approx_size_bytes)
                .unwrap_or(0)
    }

    /// The configuration this model was built with (store restore needs it
    /// to reassemble the enclosing [`crate::stage::StageConfig`]).
    pub(crate) fn store_config(&self) -> LocalModelConfig {
        self.config
    }

    /// Encodes the local model into an artefact-store section: the full
    /// retrain policy (so a restored shard keeps the same cadence), then
    /// every ensemble member as scalar head state plus both tree heads in
    /// the flat five-array layout. Everything is written via `to_bits`
    /// images, so restored predictions are bit-identical. The booster
    /// settings that are constants keep their slots ([`FIXED_SLOTS`], and
    /// each member's shrinkage and variance clamp), so no byte of the
    /// layout moves.
    pub(crate) fn store_encode(&self, w: &mut stage_store::SectionWriter) {
        encode_ensemble_params(w, &self.config.ensemble);
        w.put_u64(self.config.min_train_examples as u64);
        w.put_u64(self.config.retrain_interval as u64);
        w.put_u64(self.observations_since_train as u64);
        w.put_u64(self.trainings);
        w.put_u64(self.instance_salt);
        match &self.ensemble {
            None => w.put_bool(false),
            Some(e) => {
                w.put_bool(true);
                w.put_u64(e.n_members() as u64);
                for m in e.members() {
                    let (base_mu, base_log_var, learning_rate, log_var_range, n_cols) =
                        m.scalar_parts();
                    w.put_f64(base_mu);
                    w.put_f64(base_log_var);
                    w.put_f64(learning_rate);
                    w.put_f64(log_var_range.0);
                    w.put_f64(log_var_range.1);
                    w.put_u64(n_cols as u64);
                    for head in [m.mu_trees(), m.var_trees()] {
                        w.put_u64(head.len() as u64);
                        for tree in head {
                            let (feature, threshold, left, right, gain) = tree.into_flat_parts();
                            w.put_u32_slice(&feature);
                            w.put_f64_slice(&threshold);
                            w.put_u32_slice(&left);
                            w.put_u32_slice(&right);
                            w.put_f64_slice(&gain);
                        }
                    }
                }
            }
        }
    }

    /// Decodes a local model from an artefact-store section; malformed
    /// trees (bad child links), inconsistent heads, and members the predict
    /// path would panic on are typed errors: every member must share the
    /// section's feature width (the first member's `n_cols`) and split only
    /// on features below it. So is what the walked layout cannot hold
    /// exactly (`stage_gbdt::tree`): a tree deeper than
    /// [`tree::MAX_DEPTH`], a NaN threshold, a feature past
    /// [`tree::MAX_COLS`], or more than [`tree::MAX_CUTS`] distinct cuts
    /// on one column across the ensemble. Every slot that holds a constant
    /// must hold its exact bits. The member count and rounds are checked
    /// with the rest of the snapshot's config
    /// ([`crate::StageConfig::validate`]).
    pub(crate) fn store_decode(
        r: &mut stage_store::SectionReader<'_>,
    ) -> Result<Self, stage_store::StoreError> {
        let malformed = |d: &str| stage_store::StoreError::Malformed { detail: d.into() };
        let ensemble_params = decode_ensemble_params(r)?;
        let min_train_examples =
            usize::try_from(r.u64()?).map_err(|_| malformed("min_train_examples"))?;
        let retrain_interval =
            usize::try_from(r.u64()?).map_err(|_| malformed("retrain_interval"))?;
        let observations_since_train =
            usize::try_from(r.u64()?).map_err(|_| malformed("observations_since_train"))?;
        let trainings = r.u64()?;
        let instance_salt = r.u64()?;
        let ensemble = if r.bool()? {
            let n_members = usize::try_from(r.u64()?).map_err(|_| malformed("member count"))?;
            // A member needs at least its six scalar fields (48 bytes) plus
            // two head counts; reject hostile counts before allocating.
            if n_members.saturating_mul(64) > r.remaining() + 64 {
                return Err(malformed("member count overruns section"));
            }
            let mut members: Vec<ensemble::MemberParts> = Vec::with_capacity(n_members);
            let mut width = None;
            for _ in 0..n_members {
                let base_mu = r.f64()?;
                let base_log_var = r.f64()?;
                let (lr, (lo, hi)) = (ngboost::LEARNING_RATE, ngboost::LOG_VAR_RANGE);
                policy_slot("member learning_rate", r.u64()?, lr.to_bits())?;
                policy_slot("member log_var_lo", r.u64()?, lo.to_bits())?;
                policy_slot("member log_var_hi", r.u64()?, hi.to_bits())?;
                let n_cols = usize::try_from(r.u64()?).map_err(|_| malformed("n_cols"))?;
                if *width.get_or_insert(n_cols) != n_cols {
                    return Err(malformed("member n_cols differs from the section's width"));
                }
                let mut heads = Vec::with_capacity(2);
                for _ in 0..2 {
                    let n_trees = usize::try_from(r.u64()?).map_err(|_| malformed("tree count"))?;
                    if n_trees.saturating_mul(40) > r.remaining() + 40 {
                        return Err(malformed("tree count overruns section"));
                    }
                    let mut trees = Vec::with_capacity(n_trees);
                    for _ in 0..n_trees {
                        let feature = r.u32_vec()?;
                        let threshold = r.f64_vec()?;
                        let left = r.u32_vec()?;
                        let right = r.u32_vec()?;
                        let gain = r.f64_vec()?;
                        if feature
                            .iter()
                            .any(|&f| f != u32::MAX && f as usize >= n_cols)
                        {
                            return Err(malformed("tree splits on a feature past n_cols"));
                        }
                        let tree = stage_gbdt::Tree::from_flat_parts(
                            &feature, &threshold, &left, &right, &gain,
                        )
                        .ok_or_else(|| {
                            malformed("tree arrays are invalid or deeper than the walked layout")
                        })?;
                        trees.push(tree);
                    }
                    heads.push(trees);
                }
                let var_trees = heads.pop().unwrap_or_default();
                let mu_trees = heads.pop().unwrap_or_default();
                if mu_trees.len() != var_trees.len() {
                    return Err(malformed("member heads disagree on length"));
                }
                members.push((base_mu, base_log_var, mu_trees, var_trees));
            }
            let Some(n_cols) = width else {
                return Err(malformed("trained flag set but zero members"));
            };
            Some(
                BayesianEnsemble::from_parts(n_cols, members).ok_or_else(|| {
                    malformed("a column has more distinct cuts than the walked layout holds")
                })?,
            )
        } else {
            None
        };
        Ok(Self {
            config: LocalModelConfig {
                ensemble: ensemble_params,
                min_train_examples,
                retrain_interval,
            },
            ensemble,
            observations_since_train,
            trainings,
            instance_salt,
        })
    }
}

/// The fourteen ensemble slots after `n_estimators`, as `(slot, bits)`.
/// Earlier builds wrote settable booster hyper-parameters here; every
/// build wrote these values, which are now `stage-gbdt` constants, so a
/// restore refuses any other bits rather than trusting them.
const FIXED_SLOTS: [(&str, u64); 14] = [
    ("learning_rate", ngboost::LEARNING_RATE.to_bits()),
    ("subsample", ngboost::SUBSAMPLE.to_bits()),
    // Column subsampling, gone: every tree searches every column.
    ("colsample", 1.0f64.to_bits()),
    (
        "early_stopping_rounds",
        ngboost::EARLY_STOPPING_ROUNDS as u64,
    ),
    ("validation_fraction", gbm::VALIDATION_FRACTION.to_bits()),
    ("n_bins", gbm::N_BINS as u64),
    ("log_var_lo", ngboost::LOG_VAR_RANGE.0.to_bits()),
    ("log_var_hi", ngboost::LOG_VAR_RANGE.1.to_bits()),
    // A member seed that never reached a member: member k trains with
    // `splitmix(seed, k)`.
    ("member_seed", 42),
    ("max_depth", tree::MAX_DEPTH as u64),
    ("lambda", tree::LAMBDA.to_bits()),
    ("min_child_weight", (tree::MIN_CHILD as f64).to_bits()),
    ("min_samples_leaf", tree::MIN_CHILD as u64),
    ("min_gain", tree::MIN_GAIN.to_bits()),
];

/// Writes the ensemble's settable values, then [`FIXED_SLOTS`].
fn encode_ensemble_params(w: &mut stage_store::SectionWriter, p: &EnsembleParams) {
    w.put_u64(p.n_members as u64);
    w.put_u64(p.seed);
    w.put_u64(p.n_estimators as u64);
    for (_, bits) in FIXED_SLOTS {
        w.put_u64(bits);
    }
}

fn decode_ensemble_params(
    r: &mut stage_store::SectionReader<'_>,
) -> Result<EnsembleParams, stage_store::StoreError> {
    let malformed = |d: &str| stage_store::StoreError::Malformed { detail: d.into() };
    let to_usize =
        |v: u64| usize::try_from(v).map_err(|_| malformed("ensemble param overflows usize"));
    let n_members = to_usize(r.u64()?)?;
    let seed = r.u64()?;
    let n_estimators = to_usize(r.u64()?)?;
    for (slot, bits) in FIXED_SLOTS {
        policy_slot(slot, r.u64()?, bits)?;
    }
    Ok(EnsembleParams {
        n_members,
        n_estimators,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn quick_config() -> LocalModelConfig {
        LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: 4,
                n_estimators: 25,
                seed: 7,
            },
            min_train_examples: 20,
            retrain_interval: 50,
        }
    }

    /// Fills a pool with y ≈ 0.1 * x[0] seconds.
    fn filled_pool(n: usize, seed: u64) -> TrainingPool {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = TrainingPool::new(PoolConfig::default());
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..100.0);
            let noise: f64 = rng.gen_range(0.9..1.1);
            pool.add(vec![x, 1.0], 0.1 * x * noise);
        }
        pool
    }

    #[test]
    fn untrained_predicts_none() {
        let m = LocalModel::new(quick_config());
        assert!(!m.is_trained());
        assert!(m.predict(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn trains_at_min_examples() {
        let mut m = LocalModel::new(quick_config());
        let mut pool = TrainingPool::new(PoolConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..25 {
            let x: f64 = rng.gen_range(0.0..100.0);
            pool.add(vec![x, 1.0], 0.1 * x);
            if m.note_pool_add(&pool, false) {
                assert!(m.retrain(&pool));
            }
            if i < 18 {
                assert!(!m.is_trained(), "trained too early at {i}");
            }
        }
        assert!(m.is_trained());
        assert_eq!(m.trainings(), 1);
    }

    #[test]
    fn retrains_on_interval() {
        let mut m = LocalModel::new(quick_config());
        let pool = filled_pool(100, 2);
        m.retrain(&pool);
        assert_eq!(m.trainings(), 1);
        for _ in 0..50 {
            if m.note_pool_add(&pool, false) {
                m.retrain(&pool);
            }
        }
        assert_eq!(m.trainings(), 2);
    }

    #[test]
    fn learns_the_mapping() {
        let mut m = LocalModel::new(quick_config());
        m.retrain(&filled_pool(500, 3));
        let p = m.predict(&[50.0, 1.0]).unwrap();
        let secs = crate::from_log_space(p.mean);
        assert!((secs - 5.0).abs() < 2.0, "expected ~5s, got {secs}");
        assert!(p.total_variance() > 0.0);
    }

    #[test]
    fn retrain_seed_depends_only_on_instance_state() {
        let pool = filled_pool(200, 9);
        let predict_with_salt = |salt: u64| {
            let mut m = LocalModel::new(quick_config());
            m.set_instance_salt(salt);
            m.retrain(&pool);
            m.retrain(&pool); // second training steps the retrain counter
            m.predict(&[50.0, 1.0]).unwrap()
        };
        // Same per-instance state -> bit-identical model, no matter when or
        // where (which thread) the retraining ran.
        let a = predict_with_salt(17);
        let b = predict_with_salt(17);
        assert_eq!(a, b);
        // Default salt is zero and is reported back.
        let mut m = LocalModel::new(quick_config());
        assert_eq!(m.instance_salt(), 0);
        m.set_instance_salt(3);
        assert_eq!(m.instance_salt(), 3);
    }

    #[test]
    fn retrain_due_preview_and_deferral() {
        let mut m = LocalModel::new(quick_config()); // min 20, interval 50
        let pool = filled_pool(100, 5);
        // Untrained + a big-enough pool: this add is due.
        assert!(m.note_pool_add(&pool, false));
        assert!(m.retrain(&pool));
        assert_eq!(m.trainings(), 1);
        for _ in 0..49 {
            assert!(!m.note_pool_add(&pool, false));
        }
        assert!(m.note_pool_add(&pool, false), "the 50th add is due");
        // A poisoned retrain is simply not run: the debt stays due on the
        // next add, and a healthy retrain settles it.
        assert!(m.note_pool_add(&pool, false));
        assert!(m.retrain(&pool));
        assert_eq!(m.trainings(), 2);
        assert!(!m.note_pool_add(&pool, false));
        // A latched drift sentinel brings the trained model's retrain
        // forward to this add; an untrained one still waits for the pool.
        assert!(m.note_pool_add(&pool, true));
        let mut cold = LocalModel::new(quick_config());
        assert!(!cold.note_pool_add(&filled_pool(19, 5), true));
    }

    #[test]
    fn retrain_on_empty_pool_is_noop() {
        let mut m = LocalModel::new(quick_config());
        let empty = TrainingPool::new(PoolConfig::default());
        assert!(!m.retrain(&empty));
        assert!(!m.is_trained());
        assert_eq!(m.trainings(), 0);
    }

    #[test]
    fn size_grows_after_training() {
        let mut m = LocalModel::new(quick_config());
        let before = m.approx_size_bytes();
        m.retrain(&filled_pool(100, 4));
        assert!(m.approx_size_bytes() > before);
    }
}
