//! # stage-nn
//!
//! Minimal neural-network substrate for Stage's **global model** (paper
//! §4.4): a graph convolutional network over physical plan trees. The paper
//! trains its GCN with PyTorch on GPUs; no canonical Rust equivalent exists,
//! so this crate implements the needed subset from scratch, CPU-only:
//!
//! * `tensor` — dense row-major `f64` matrices and the one
//!   multiply-accumulate loop (plus an outer-product twin) that the forward
//!   and the backward both run on;
//! * `layers` — `Linear` / `Mlp` modules over a `ParamStore`, which holds
//!   a model's weights and nothing else; each module has one forward
//!   (dropout on for training, off for inference) and a hand-written
//!   backward that adds into gradients the trainer owns;
//! * `adam` — the Adam optimizer, stepping from those gradients at the
//!   learning rate the trainer's schedule hands it;
//! * [`gcn`] — the plan-GCN itself: node-feature embedding MLP, L rounds of
//!   directed child→parent message passing, root readout concatenated with a
//!   system feature vector, and a regression head (Fig. 5's architecture),
//!   trained by mini-batch backprop over flat row buffers; prediction runs
//!   the trainer's forward with dropout off. A trained [`PlanGcn`] is its
//!   weights: the gradients and the optimizer's moments live and die
//!   inside [`PlanGcn::fit`].
//!
//! There is no autodiff in the library. A reference tape-based reverse-mode
//! autodiff (`graph.rs`) is compiled for tests only: it is the oracle the
//! forward (in both modes) and the hand-written backward are held to, bit
//! for bit, as the stop-at-a-leaf walk is for `stage-gbdt`'s tree walk.
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

mod adam;
pub mod gcn;
#[cfg(test)]
mod graph;
mod layers;
mod tensor;

pub use gcn::{GcnConfig, PlanGcn, TreeSample};
