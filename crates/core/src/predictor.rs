//! The predictor trait and shared prediction types.

use serde::{Deserialize, Serialize};
use stage_plan::PhysicalPlan;

/// Fallback prediction (seconds) when a predictor has no information at all
/// (cold start). Most fleet queries are short, so defaulting short keeps the
/// workload manager's behaviour sane until models warm up.
pub const DEFAULT_PREDICTION_SECS: f64 = 1.0;

/// Which stage of the hierarchy produced a prediction. Its serde image is
/// part of the serving protocol's replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictionSource {
    /// Exec-time cache hit.
    Cache,
    /// Local Bayesian-ensemble model.
    Local,
    /// Global plan-GCN model.
    Global,
    /// Cold-start default (no model had information).
    Default,
}

/// A prediction with optional uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted execution time in seconds.
    pub exec_secs: f64,
    /// Total predictive variance in `ln(1+secs)` space, when the producing
    /// model measures one (`None` for cache/default predictions).
    pub log_variance: Option<f64>,
    /// Producing stage.
    pub source: PredictionSource,
}

impl Prediction {
    /// A cache/default style point prediction.
    pub fn point(exec_secs: f64, source: PredictionSource) -> Self {
        Self {
            exec_secs,
            log_variance: None,
            source,
        }
    }

    /// A symmetric confidence interval in seconds: `exp(μ ± z·σ)` mapped
    /// back from log space (a negative variance reads as zero). Returns
    /// `None` when no variance is available.
    pub fn confidence_interval(&self, z: f64) -> Option<(f64, f64)> {
        let var = self.log_variance?;
        let mu = self.exec_secs.max(0.0).ln_1p();
        let half = z * var.max(0.0).sqrt();
        Some(((mu - half).exp_m1().max(0.0), (mu + half).exp_m1().max(0.0)))
    }
}

/// Everything a predictor may know about the system besides the plan:
/// instance features and the current concurrency level. The global model
/// appends these to its readout (paper §4.4); the cache and local model
/// ignore them.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemContext {
    /// Instance/system feature vector (node type one-hot, node count,
    /// ln memory, concurrency — see `stage_workload::InstanceSpec`).
    pub features: Vec<f64>,
}

impl SystemContext {
    /// A context with no information (all-zero features of width `dim`).
    pub fn empty(dim: usize) -> Self {
        Self {
            features: vec![0.0; dim],
        }
    }
}

/// An online exec-time predictor: predicts before execution, observes the
/// true exec-time afterwards (paper Fig. 4's feedback loop).
pub trait ExecTimePredictor {
    /// Predicts the exec-time of `plan` under `sys`.
    fn predict(&mut self, plan: &PhysicalPlan, sys: &SystemContext) -> Prediction;

    /// Records the observed exec-time after the query ran.
    fn observe(&mut self, plan: &PhysicalPlan, sys: &SystemContext, actual_secs: f64);

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Approximate resident memory of the predictor's state in bytes
    /// (Fig. 9-style accounting).
    fn approx_size_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_prediction_has_no_interval() {
        let p = Prediction::point(3.0, PredictionSource::Cache);
        assert_eq!(p.confidence_interval(2.0), None);
    }

    #[test]
    fn interval_brackets_the_mean() {
        let p = Prediction {
            exec_secs: 10.0,
            log_variance: Some(0.25),
            source: PredictionSource::Local,
        };
        let (lo, hi) = p.confidence_interval(1.96).unwrap();
        assert!(lo < 10.0 && 10.0 < hi, "({lo}, {hi})");
        // Wider z, wider interval.
        let (lo2, hi2) = p.confidence_interval(3.0).unwrap();
        assert!(lo2 < lo && hi2 > hi);
    }

    #[test]
    fn interval_floors_at_zero() {
        let p = Prediction {
            exec_secs: 0.01,
            log_variance: Some(100.0),
            source: PredictionSource::Local,
        };
        let (lo, _) = p.confidence_interval(3.0).unwrap();
        assert!(lo >= 0.0);
    }

    #[test]
    fn empty_context() {
        let c = SystemContext::empty(7);
        assert_eq!(c.features.len(), 7);
        assert!(c.features.iter().all(|&f| f == 0.0));
    }
}
