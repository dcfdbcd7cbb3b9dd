//! The AutoWLM predictor — the prior production baseline (paper §2.1).
//!
//! One squared-error gradient-boosting model per instance over the same
//! 33-dim flattened plan vector, retrained periodically on *every* executed
//! query (no cache dedup, no duration bucketing — exactly the behaviours
//! Stage's training pool fixes). Before any model exists it falls back to
//! [`DEFAULT_PREDICTION_SECS`], which is the cold-start weakness the paper
//! calls out.

use crate::from_log_space;
use crate::local::retrain_seed;
use crate::pool::{PoolConfig, TrainingPool};
use crate::predictor::{
    ExecTimePredictor, Prediction, PredictionSource, SystemContext, DEFAULT_PREDICTION_SECS,
};
use stage_gbdt::{Gbm, GbmParams};
use stage_plan::{plan_feature_vector, PhysicalPlan};

/// AutoWLM predictor configuration.
#[derive(Debug, Clone, Copy)]
pub struct AutoWlmConfig {
    /// Most boosting rounds of the GBM (paper: the same 200 estimators as
    /// one Stage local-model member, but squared-error loss; the default
    /// trims estimators for replay speed, symmetrically with the local
    /// model). The rest of its schedule is `GbmParams::default()`, and the
    /// trees' depth 6, the validation split and the bin count are
    /// `stage-gbdt` constants.
    pub n_estimators: usize,
    /// FIFO training-set capacity (every executed query is added).
    pub train_capacity: usize,
    /// Minimum training-set size before the first training.
    pub min_train_examples: usize,
    /// Retrain after this many new observations.
    pub retrain_interval: usize,
}

impl Default for AutoWlmConfig {
    fn default() -> Self {
        Self {
            n_estimators: 60,
            train_capacity: 2_000,
            min_train_examples: 30,
            retrain_interval: 300,
        }
    }
}

/// The AutoWLM baseline predictor.
#[derive(Debug, Clone)]
pub struct AutoWlmPredictor {
    config: AutoWlmConfig,
    pool: TrainingPool,
    model: Option<Gbm>,
    observations_since_train: usize,
    trainings: u64,
    instance_salt: u64,
}

impl AutoWlmPredictor {
    /// Creates an untrained predictor.
    pub fn new(config: AutoWlmConfig) -> Self {
        // AutoWLM keeps a flat FIFO: no bucketing, no dedup.
        let pool = TrainingPool::new(PoolConfig {
            bucket_capacity: [config.train_capacity, 0, 0],
            bucketing: false,
        });
        Self {
            config,
            pool,
            model: None,
            observations_since_train: 0,
            trainings: 0,
            instance_salt: 0,
        }
    }

    /// Sets the per-instance seed salt (see
    /// [`crate::LocalModel::set_instance_salt`]): retraining seeds derive
    /// only from per-instance state, keeping replays deterministic at any
    /// parallelism.
    pub fn set_instance_salt(&mut self, salt: u64) {
        self.instance_salt = salt;
    }

    /// Whether a trained model exists.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Number of trainings performed.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    fn maybe_retrain(&mut self) {
        let due = match self.model {
            None => self.pool.len() >= self.config.min_train_examples,
            Some(_) => self.observations_since_train >= self.config.retrain_interval,
        };
        if !due {
            return;
        }
        let Some(dataset) = self.pool.to_dataset() else {
            return;
        };
        let schedule = GbmParams::default();
        let params = GbmParams {
            n_estimators: self.config.n_estimators,
            seed: retrain_seed(schedule.seed, self.instance_salt, self.trainings),
            ..schedule
        };
        if let Some(m) = Gbm::fit(&dataset, &params) {
            self.model = Some(m);
            self.trainings += 1;
            self.observations_since_train = 0;
        }
    }
}

impl ExecTimePredictor for AutoWlmPredictor {
    fn predict(&mut self, plan: &PhysicalPlan, _sys: &SystemContext) -> Prediction {
        match &self.model {
            Some(m) => {
                let features = plan_feature_vector(plan);
                let log_pred = m.predict(features.as_slice());
                Prediction::point(from_log_space(log_pred), PredictionSource::Local)
            }
            None => Prediction::point(DEFAULT_PREDICTION_SECS, PredictionSource::Default),
        }
    }

    fn observe(&mut self, plan: &PhysicalPlan, _sys: &SystemContext, actual_secs: f64) {
        let features = plan_feature_vector(plan);
        self.pool.add(features.0, actual_secs);
        self.observations_since_train += 1;
        self.maybe_retrain();
    }

    fn name(&self) -> &'static str {
        "AutoWLM"
    }

    fn approx_size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.pool.approx_size_bytes()
            + self.model.as_ref().map(Gbm::approx_size_bytes).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stage_plan::{PlanBuilder, S3Format};

    fn plan(rows: f64) -> PhysicalPlan {
        PlanBuilder::select()
            .scan("t", S3Format::Local, rows, 64.0)
            .hash_aggregate(0.01)
            .finish()
    }

    fn sys() -> SystemContext {
        SystemContext::empty(4)
    }

    fn quick() -> AutoWlmConfig {
        AutoWlmConfig {
            n_estimators: 30,
            min_train_examples: 20,
            retrain_interval: 100,
            ..AutoWlmConfig::default()
        }
    }

    #[test]
    fn cold_start_uses_default() {
        let mut p = AutoWlmPredictor::new(quick());
        let pred = p.predict(&plan(1e5), &sys());
        assert_eq!(pred.source, PredictionSource::Default);
        assert_eq!(pred.exec_secs, DEFAULT_PREDICTION_SECS);
    }

    #[test]
    fn learns_from_observations() {
        let mut p = AutoWlmPredictor::new(quick());
        // Exec-time proportional to scan size.
        for i in 1..=120 {
            let rows = (i % 30 + 1) as f64 * 1e4;
            p.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(p.is_trained());
        let small = p.predict(&plan(1e4), &sys()).exec_secs;
        let large = p.predict(&plan(3e5), &sys()).exec_secs;
        assert!(
            large > 2.0 * small,
            "should order by size: small={small} large={large}"
        );
    }

    #[test]
    fn retrains_on_interval() {
        let mut p = AutoWlmPredictor::new(quick());
        for i in 0..220 {
            p.observe(&plan((i % 10 + 1) as f64 * 1e4), &sys(), 1.0);
        }
        // First training at 20 observations, then at 120 and 220.
        assert!(p.trainings() >= 2, "{} trainings", p.trainings());
    }

    #[test]
    fn no_dedup_every_query_counts() {
        let mut p = AutoWlmPredictor::new(quick());
        let q = plan(1e5);
        for _ in 0..5 {
            p.observe(&q, &sys(), 1.0);
        }
        assert_eq!(p.pool.len(), 5, "AutoWLM keeps repeats");
    }

    #[test]
    fn predictions_nonnegative() {
        let mut p = AutoWlmPredictor::new(quick());
        for _ in 0..50 {
            p.observe(&plan(1e4), &sys(), 0.001);
        }
        assert!(p.predict(&plan(1e4), &sys()).exec_secs >= 0.0);
    }

    #[test]
    fn size_accounting() {
        let mut p = AutoWlmPredictor::new(quick());
        let before = p.approx_size_bytes();
        for i in 0..60 {
            p.observe(&plan((i + 1) as f64 * 1e4), &sys(), 1.0);
        }
        assert!(p.approx_size_bytes() > before);
        assert_eq!(p.name(), "AutoWLM");
    }
}
