//! # stage-core
//!
//! The **Stage predictor** (paper §4): a hierarchical query exec-time
//! predictor with three model states, routed in order of cost:
//!
//! 1. [`cache::ExecTimeCache`] — memorizes recently executed queries by the
//!    FNV hash of their 33-dim plan vector; predicts
//!    `α·mean + (1−α)·last` (α = 0.8) with Welford running statistics and
//!    least-recently-updated eviction (§4.2).
//! 2. [`local::LocalModel`] — an instance-optimized Bayesian ensemble of
//!    NLL-trained gradient-boosting models with decomposed uncertainty
//!    (§4.3), fed by a bounded, de-duplicated, duration-bucketed
//!    [`pool::TrainingPool`].
//! 3. [`global::GlobalModel`] — the fleet-trained plan-GCN, consulted only
//!    when the local model is uncertain *and* thinks the query is
//!    long-running (§4.4).
//!
//! [`stage::StagePredictor`] wires the three together behind the
//! [`predictor::ExecTimePredictor`] trait; [`autowlm::AutoWlmPredictor`] is
//! the prior-production baseline (one squared-error GBM per instance,
//! trained on every executed query).
//!
//! All models train and predict in `ln(1+seconds)` space, which linearizes
//! the fleet's heavy latency skew; conversions happen at the trait boundary
//! so callers only ever see seconds.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_macros))]

pub mod autowlm;
pub mod cache;
pub mod drift;
pub mod global;
pub mod local;
pub mod persist;
pub mod pool;
pub mod predictor;
pub mod stage;
pub mod storefmt;

pub use autowlm::{AutoWlmConfig, AutoWlmPredictor};
pub use cache::{CacheConfig, CacheMode, ExecTimeCache};
pub use drift::DriftSentinel;
pub use global::{plan_to_tree_sample, GlobalModel, GlobalModelConfig, GLOBAL_SYS_DIM_BASE};
pub use local::{LocalModel, LocalModelConfig};
pub use persist::{PersistFaults, RestoreError};
pub use pool::{PoolConfig, TrainingPool};
pub use predictor::{
    ExecTimePredictor, Prediction, PredictionSource, SystemContext, DEFAULT_PREDICTION_SECS,
};
pub use stage::{
    ComponentFaults, DegradedStats, RetrainFault, RoutingConfig, RoutingStats, StageConfig,
    StagePredictor, StageSnapshot, TierAnswers,
};
pub use storefmt::{
    load_global_store, load_stage_store, save_global_store, save_stage_store, store_generation,
};

/// Converts seconds to the model target space `ln(1 + secs)`.
pub fn to_log_space(secs: f64) -> f64 {
    secs.max(0.0).ln_1p()
}

/// Converts a model-space prediction back to seconds (inverse of
/// [`to_log_space`], floored at zero).
pub fn from_log_space(log: f64) -> f64 {
    log.exp_m1().max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_space_round_trip() {
        for secs in [0.0, 0.001, 1.0, 59.9, 3600.0] {
            let back = from_log_space(to_log_space(secs));
            assert!((back - secs).abs() < 1e-9 * (1.0 + secs));
        }
    }

    #[test]
    fn log_space_clamps_negatives() {
        assert_eq!(to_log_space(-5.0), 0.0);
        assert_eq!(from_log_space(-3.0), 0.0);
    }
}
