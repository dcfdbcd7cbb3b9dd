//! # stage-bench
//!
//! The experiment harness: everything needed to regenerate the tables and
//! figures of *Stage: Query Execution Time Prediction in Amazon Redshift*
//! against the synthetic fleet substrate, plus the ablations listed in
//! DESIGN.md.
//!
//! * [`mod@replay`] — sequential query replay through any
//!   [`stage_core::ExecTimePredictor`] (the paper's §5.1 protocol: predict,
//!   execute, observe), and the *ablation replay*: the same replay through a
//!   `StagePredictor`, also recording what each of its tiers (cache / local
//!   / global) would have answered for every query;
//! * [`context`] — experiment configuration, fleet construction, and global
//!   model training on disjoint training instances;
//! * [`parallel`] — the shard-parallel fleet replay engine: per-instance
//!   work distributed over a scoped worker pool, index-tagged so results
//!   are identical to the sequential loop at any thread count
//!   (the `parallelism` knob controls sizing);
//! * [`experiments`] — one function per paper artefact (`fig1a` … `fig11`,
//!   `tab1` … `tab6`) and per ablation, each returning both a human-readable
//!   report and a JSON value;
//! * `src/bin/experiments.rs` — the CLI entry point
//!   (`cargo run -p stage-bench --bin experiments -- <exp> [--quick]`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod context;
pub mod experiments;
pub mod parallel;
pub mod replay;

pub use context::{ExperimentContext, HarnessConfig};
pub use parallel::{resolve_parallelism, ParallelFleetReplay};
pub use replay::{ablation_replay, replay, AblationRecord, ReplayRecord};
