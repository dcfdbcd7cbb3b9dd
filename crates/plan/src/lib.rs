//! # stage-plan
//!
//! Physical query-plan substrate for the Stage reproduction.
//!
//! Amazon Redshift's exec-time predictors operate on *physical execution
//! plans* produced by the query optimizer (paper §2.1, Fig. 3). This crate
//! provides:
//!
//! * [`operator`] — a Redshift-style physical operator taxonomy (scans,
//!   joins, aggregates, the `DS_DIST_*`/`DS_BCAST` network distribution
//!   operators, DML, …), operator categories, S3 table formats, and query
//!   types;
//! * [`tree`] — the plan tree itself: [`PlanNode`]s carrying the optimizer's
//!   estimated cost/cardinality/width plus base-table metadata, and
//!   [`PhysicalPlan`] with traversal helpers;
//! * [`features`] — the 33-dimensional flattened feature vector the paper
//!   uses for both the exec-time cache key and the local/AutoWLM models
//!   (§4.2 "Cache keys and values"), its stable FNV-1a hash ("Optimization
//!   1"), and the per-node feature vectors consumed by the global GCN model
//!   (§4.4, Fig. 5);
//! * [`builder`] — ergonomic construction of plan trees for tests, examples,
//!   and the synthetic workload generator.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod builder;
pub mod features;
pub mod operator;
pub mod optimizer;
pub mod parse;
pub mod tree;

pub use builder::PlanBuilder;
pub use features::{
    feature_name, node_features, plan_feature_vector, stable_hash_slice, FeatureVector,
    CACHE_FEATURE_DIM, NODE_FEATURE_DIM,
};
pub use operator::{OperatorCategory, OperatorKind, QueryType, S3Format};
pub use optimizer::{optimize, JoinEdge, LogicalQuery, OptimizeError, TableRef};
pub use parse::{parse_explain, ParseError};
pub use tree::{PhysicalPlan, PlanNode};
