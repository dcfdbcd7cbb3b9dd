//! # stage-workload
//!
//! Synthetic Redshift-fleet substrate. The paper evaluates Stage on query
//! logs from the 300 top-billed production instances (~30 M queries); those
//! logs are proprietary, so this crate generates a fleet whose *distributional
//! properties* match everything the paper's design and evaluation key off:
//!
//! * **Repetition** (Fig. 1a): most queries are dashboard/report refreshes —
//!   exact repeats of a recent query. Instances vary widely in their
//!   daily-unique fraction; the fleet-wide average repeat rate is ≈ 60%.
//! * **Latency skew** (Fig. 1b): latencies span milliseconds to hours,
//!   heavily concentrated at the short end.
//! * **Instance heterogeneity**: each instance has *hidden* per-operator
//!   speed factors (hardware generation, data layout, tuning) that are
//!   visible to a per-instance model through its labels but invisible to a
//!   cross-instance model — reproducing the paper's central negative result
//!   that the global model loses to the local model on in-distribution
//!   queries (Table 5).
//! * **Label noise**: the same query repeated at different times sees
//!   different system load and cache states, so observed exec-times vary —
//!   long queries more so (§5.3).
//! * **Drift**: tables grow over time, and optimizer statistics refresh only
//!   daily, so plan estimates lag reality (§4.2's freshness argument for the
//!   cache's α-blend).
//!
//! Modules:
//!
//! * [`instance`] — public instance specs (node type/count/memory) and the
//!   hidden per-instance truth factors;
//! * [`template`] — query templates (dashboard / report / ad-hoc / ETL) that
//!   expand into [`stage_plan::PhysicalPlan`]s given current table stats;
//! * [`truth`] — the cost-truth executor mapping (plan truth, instance,
//!   load) → true exec-time;
//! * [`generator`] — fleet assembly and event-log generation;
//! * [`stats`] — the per-instance daily-unique fraction behind Fig. 1a.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod export;
pub mod generator;
pub mod instance;
pub mod stats;
pub mod template;
pub mod truth;

pub use export::{read_jsonl, write_jsonl};
pub use generator::{Fleet, FleetConfig, InstanceWorkload, QueryEvent};
pub use instance::{InstanceSpec, InstanceTruth, NodeType};
pub use stats::daily_unique_fraction;
pub use template::{Template, TemplateKind};
pub use truth::{CostTruthModel, LoadProfile};
