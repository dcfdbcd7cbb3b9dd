//! # stage
//!
//! Facade crate for the reproduction of *Stage: Query Execution Time
//! Prediction in Amazon Redshift* (SIGMOD 2024). Re-exports every workspace
//! crate under one roof so examples and downstream users need a single
//! dependency.
//!
//! See the individual crates for details:
//!
//! * [`plan`] — physical query plans and the 33-dim feature vector
//! * [`gbdt`] — gradient-boosted trees with Gaussian-NLL uncertainty
//! * [`nn`] — the plan-GCN global model substrate
//! * [`workload`] — synthetic Redshift fleet generator and cost-truth executor
//! * [`wlm`] — workload-manager (AutoWLM) replay simulator
//! * [`metrics`] — error/PRR/quantile statistics
//! * [`core`] — the Stage predictor itself (cache → local → global)

#![forbid(unsafe_code)]

pub use stage_core as core;
pub use stage_gbdt as gbdt;
pub use stage_metrics as metrics;
pub use stage_nn as nn;
pub use stage_plan as plan;
pub use stage_wlm as wlm;
pub use stage_workload as workload;
