//! # stage-nn
//!
//! Minimal neural-network substrate for Stage's **global model** (paper
//! §4.4): a graph convolutional network over physical plan trees. The paper
//! trains its GCN with PyTorch on GPUs; no canonical Rust equivalent exists,
//! so this crate implements the needed subset from scratch, CPU-only:
//!
//! * [`tensor`] — dense row-major `f64` matrices and the one
//!   multiply-accumulate loop (plus an outer-product twin) that inference,
//!   training and the backward all run on;
//! * [`layers`] — `Linear` / `Mlp` modules over a [`ParamStore`], each with
//!   an inference forward, a training forward (dropout) and a hand-written
//!   backward;
//! * [`adam`] — the Adam optimizer;
//! * [`gcn`] — the plan-GCN itself: node-feature embedding MLP, L rounds of
//!   directed child→parent message passing, root readout concatenated with a
//!   system feature vector, and a regression head (Fig. 5's architecture),
//!   trained by mini-batch backprop over flat row buffers.
//!
//! There is no autodiff in the library. A reference tape-based reverse-mode
//! autodiff (`graph.rs`) is compiled for tests only: it is the oracle the
//! hand-written backward and the inference forward are held to, bit for
//! bit, as the stop-at-a-leaf walk is for `stage-gbdt`'s tree walk.
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
#[cfg(test)]
mod graph;
pub mod layers;
pub mod tensor;

pub use adam::Adam;
pub use gcn::{GcnConfig, PlanGcn, TreeSample};
pub use layers::{Linear, Mlp, ParamStore};
pub use tensor::Matrix;
