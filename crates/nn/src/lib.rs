//! # stage-nn
//!
//! Minimal neural-network substrate for Stage's **global model** (paper
//! §4.4): a graph convolutional network over physical plan trees. The paper
//! trains its GCN with PyTorch on GPUs; no canonical Rust equivalent exists,
//! so this crate implements the needed subset from scratch, CPU-only:
//!
//! * [`tensor`] — dense row-major `f64` matrices with the handful of BLAS-ish
//!   kernels the models need;
//! * [`graph`] — tape-based reverse-mode autodiff over matrix ops (matmul,
//!   bias add, ReLU, dropout, row-stack/mean for child aggregation, column
//!   concat, squared-error loss);
//! * [`layers`] — `Linear` / `Mlp` modules over a [`ParamStore`];
//! * [`adam`] — the Adam optimizer;
//! * [`gcn`] — the plan-GCN itself: node-feature embedding MLP, L rounds of
//!   directed child→parent message passing, root readout concatenated with a
//!   system feature vector, and a regression head (Fig. 5's architecture).
//!
//! The GCN consumes generic [`gcn::TreeSample`]s (node feature vectors +
//! child lists + system features), keeping this crate independent of the
//! plan representation; `stage-core` performs the conversion from
//! `stage_plan::PhysicalPlan`.
//!
//! Everything is deterministic given the seed.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod adam;
pub mod gcn;
pub mod graph;
pub mod layers;
pub mod tensor;

pub use adam::Adam;
pub use gcn::{GcnConfig, PlanGcn, TreeSample};
pub use graph::{Graph, Var};
pub use layers::{Linear, Mlp, ParamStore};
pub use tensor::Matrix;
