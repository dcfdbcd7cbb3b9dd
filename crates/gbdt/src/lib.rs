//! # stage-gbdt
//!
//! From-scratch gradient-boosted decision trees — the model class behind both
//! the prior **AutoWLM predictor** (a single tree-boosting model per
//! instance, paper §2.1) and Stage's **local model** (a Bayesian ensemble of
//! tree-boosting models trained with a Gaussian log-likelihood loss,
//! paper §4.3, following Malinin et al. \[31\]).
//!
//! The paper uses the CatBoost/XGBoost packages; the Rust ML ecosystem has no
//! canonical equivalent, so this crate implements the needed subset directly:
//!
//! * [`dataset`] — row-major feature matrices and their binned form for
//!   histogram-based split finding;
//! * [`tree`] — second-order regression trees (XGBoost-style gain with L2
//!   regularization) grown from per-sample gradients with unit hessians:
//!   one flat histogram per node, siblings by subtraction;
//! * [`gbm`] — squared-error gradient boosting with shrinkage, subsampling,
//!   and early stopping (the AutoWLM baseline model), and the one boosting
//!   loop every model here fits through: it owns the validation split, the
//!   row samples, the trees, the updates and early stopping, and a model
//!   supplies only its loss;
//! * [`quantile`] — pinball-loss boosting ([`Gbm::fit_quantile`]) and the
//!   (lo, median, hi) [`QuantileBand`], the §2.2 alternative;
//! * [`ngboost`] — natural-gradient boosting of a Gaussian predictive
//!   distribution `N(μ, σ²)` (the probabilistic likelihood loss of [48/31]):
//!   each iteration fits one tree to the natural gradient of the NLL w.r.t.
//!   μ and one w.r.t. log σ², the loop's two-head case;
//! * [`ensemble`] — the Bayesian ensemble (Eqs. 1–2): K independently
//!   trained NGBoost members; prediction = mean of member means, total
//!   uncertainty = variance of member means (model/knowledge uncertainty)
//!   + mean of member variances (data uncertainty).
//!
//! The settings the paper fixes and no caller varies are constants: the
//! tree shape in [`tree`] (depth 6, λ 1), the validation split and bin
//! count in [`gbm`], and an NGBoost member's shrinkage, row sample,
//! patience and variance clamp in [`ngboost`]. [`GbmParams`] keeps the
//! schedule the AutoWLM baseline and the ablations vary, and
//! [`EnsembleParams`] the member count, round count and seed.
//!
//! Every forest is walked in one layout ([`tree`]): a cut table per model
//! (the quantile cuts its pool was binned on, or a decoded model's
//! thresholds; an ensemble's members share one), each row ranked on it
//! once, and complete depth-6 trees of 2-byte `(rank, column)` nodes that
//! one branch-free kernel walks [`tree::LANES`] (tree, row) chains at a
//! time — one row across many trees, or, once a batch fills the lanes,
//! many rows across one tree; a prediction is a batch of one. A [`Tree`] is one
//! tree's arena form, which `to_flat_parts` / `from_flat_parts` move
//! through the artefact store.
//!
//! All training is deterministic given the seed.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod dataset;
pub mod ensemble;
pub mod gbm;
pub mod mixed;
pub mod ngboost;
pub mod quantile;
pub mod tree;

pub use dataset::Dataset;
pub use ensemble::{BayesianEnsemble, EnsembleParams, EnsemblePrediction};
pub use gbm::{Gbm, GbmParams};
pub use mixed::{MixedEnsemble, MixedEnsembleParams};
pub use ngboost::NgBoost;
pub use quantile::QuantileBand;
pub use tree::Tree;
