//! Fluent construction of physical plan trees.
//!
//! The synthetic workload generator, tests, and examples all need to build
//! Redshift-shaped plans; [`PlanBuilder`] keeps that construction readable:
//!
//! ```
//! use stage_plan::{PlanBuilder, OperatorKind, QueryType, S3Format};
//!
//! let plan = PlanBuilder::select()
//!     .scan("lineitem", S3Format::Local, 6_000_000.0, 120.0)
//!     .scan("orders", S3Format::Local, 1_500_000.0, 96.0)
//!     .hash_join(0.1)
//!     .hash_aggregate(0.01)
//!     .sort()
//!     .finish();
//! assert_eq!(plan.join_count(), 1);
//! assert!(plan.node_count() >= 6);
//! ```
//!
//! The builder maintains a stack of sub-plans: scans push, joins pop two and
//! push one, unary operators transform the top of the stack. Costs are
//! synthesized from simple per-operator cost formulas so generated plans
//! resemble optimizer output; exact truth comes from the workload crate's
//! cost-truth model.

use crate::operator::{OperatorKind, QueryType, S3Format};
use crate::tree::{PhysicalPlan, PlanNode};

/// Stack-based plan builder. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    query_type: QueryType,
    stack: Vec<PlanNode>,
}

impl PlanBuilder {
    /// Starts a SELECT plan.
    pub fn select() -> Self {
        Self::new(QueryType::Select)
    }

    /// Starts a plan of the given statement type.
    pub fn new(query_type: QueryType) -> Self {
        Self {
            query_type,
            stack: Vec::new(),
        }
    }

    /// Pushes a base-table scan. `rows` is the estimated scan output
    /// cardinality (after any filter), `width` the tuple width in bytes.
    /// Table name is accepted for readability but not stored — plans carry
    /// only what the featurizers consume.
    pub fn scan(mut self, _table: &str, format: S3Format, rows: f64, width: f64) -> Self {
        let op = if format == S3Format::Local {
            OperatorKind::SeqScan
        } else {
            OperatorKind::S3Scan
        };
        let cost = rows * 0.01 * format.scan_cost_factor();
        // Table rows: assume the filter kept 10% when rows look filtered;
        // callers wanting exact table sizes use `scan_with_table_rows`.
        self.stack
            .push(PlanNode::leaf(op, cost, rows, width).with_table(format, rows));
        self
    }

    /// Pushes a base-table scan with an explicit full-table row count.
    pub fn scan_with_table_rows(
        mut self,
        format: S3Format,
        out_rows: f64,
        table_rows: f64,
        width: f64,
    ) -> Self {
        let op = if format == S3Format::Local {
            OperatorKind::SeqScan
        } else {
            OperatorKind::S3Scan
        };
        let cost = table_rows * 0.01 * format.scan_cost_factor();
        self.stack
            .push(PlanNode::leaf(op, cost, out_rows, width).with_table(format, table_rows));
        self
    }

    /// Pops two sub-plans and joins them with a hash join (build side =
    /// second-popped, wrapped in `Hash`, distributed via `DsBcast` when
    /// small, `DsDistKey` otherwise). `selectivity` scales the output
    /// cardinality relative to the larger input.
    pub fn hash_join(mut self, selectivity: f64) -> Self {
        let right = self.pop("hash_join needs two inputs");
        let left = self.pop("hash_join needs two inputs");
        let out_rows = (left.est_rows.max(right.est_rows) * selectivity).max(1.0);
        let width = left.width + right.width;

        let (build, probe) = if right.est_rows <= left.est_rows {
            (right, left)
        } else {
            (left, right)
        };
        let dist_op = if build.est_rows < 100_000.0 {
            OperatorKind::DsBcast
        } else {
            OperatorKind::DsDistKey
        };
        let dist = PlanNode::internal(
            dist_op,
            build.est_rows * 0.005,
            build.est_rows,
            build.width,
            vec![build],
        );
        let hash = PlanNode::internal(
            OperatorKind::Hash,
            dist.est_rows * 0.008,
            dist.est_rows,
            dist.width,
            vec![dist],
        );
        let cost = probe.est_rows * 0.012 + hash.est_rows * 0.002;
        self.stack.push(PlanNode::internal(
            OperatorKind::HashJoin,
            cost,
            out_rows,
            width,
            vec![probe, hash],
        ));
        self
    }

    /// Applies a hash aggregation to the top sub-plan; `group_ratio` is the
    /// fraction of input rows surviving as groups.
    pub fn hash_aggregate(self, group_ratio: f64) -> Self {
        self.unary_scaled(OperatorKind::HashAggregate, group_ratio, 0.015)
    }

    /// Applies a scalar (ungrouped) aggregation producing one row.
    pub fn aggregate(mut self) -> Self {
        let input = self.pop("aggregate needs an input");
        let cost = input.est_rows * 0.008;
        let width = input.width.min(32.0);
        self.stack.push(PlanNode::internal(
            OperatorKind::Aggregate,
            cost,
            1.0,
            width,
            vec![input],
        ));
        self
    }

    /// Applies a full sort to the top sub-plan.
    pub fn sort(self) -> Self {
        self.unary_scaled(OperatorKind::Sort, 1.0, 0.02)
    }

    /// Applies a top-N sort.
    pub fn top_sort(mut self, limit: f64) -> Self {
        let input = self.pop("top_sort needs an input");
        let cost = input.est_rows * 0.012;
        let rows = limit.min(input.est_rows).max(1.0);
        let width = input.width;
        self.stack.push(PlanNode::internal(
            OperatorKind::TopSort,
            cost,
            rows,
            width,
            vec![input],
        ));
        self
    }

    /// Applies a window function.
    pub fn window(self) -> Self {
        self.unary_scaled(OperatorKind::WindowAgg, 1.0, 0.018)
    }

    /// Applies duplicate elimination.
    pub fn unique(self, keep_ratio: f64) -> Self {
        self.unary_scaled(OperatorKind::Unique, keep_ratio, 0.01)
    }

    /// Applies a LIMIT.
    pub fn limit(mut self, n: f64) -> Self {
        let input = self.pop("limit needs an input");
        let rows = n.min(input.est_rows).max(1.0);
        let width = input.width;
        self.stack.push(PlanNode::internal(
            OperatorKind::Limit,
            0.01,
            rows,
            width,
            vec![input],
        ));
        self
    }

    /// Pops all pending sub-plans and unions them (UNION ALL / Append).
    pub fn append_all(mut self) -> Self {
        assert!(
            !self.stack.is_empty(),
            "append_all needs at least one input"
        );
        let children = std::mem::take(&mut self.stack);
        let rows: f64 = children.iter().map(|c| c.est_rows).sum();
        let width = children.iter().map(|c| c.width).fold(0.0, f64::max);
        let cost = rows * 0.001;
        self.stack.push(PlanNode::internal(
            OperatorKind::Append,
            cost,
            rows,
            width,
            children,
        ));
        self
    }

    /// Wraps the top sub-plan in a DML operator matching the query type
    /// (INSERT/DELETE/UPDATE plans in Redshift end in a write step).
    pub fn dml(mut self) -> Self {
        let op = match self.query_type {
            QueryType::Insert => OperatorKind::Insert,
            QueryType::Delete => OperatorKind::Delete,
            QueryType::Update => OperatorKind::Update,
            _ => return self, // SELECT/Other: no write step
        };
        let input = self.pop("dml needs an input");
        let cost = input.est_rows * 0.02;
        let rows = input.est_rows;
        let width = input.width;
        self.stack
            .push(PlanNode::internal(op, cost, rows, width, vec![input]));
        self
    }

    /// Finalizes the plan: requires exactly one sub-plan on the stack, wraps
    /// it in a leader `Result` node.
    ///
    /// # Panics
    /// Panics if the stack does not hold exactly one sub-plan.
    #[expect(clippy::expect_used, reason = "non-empty: asserted just above")]
    pub fn finish(mut self) -> PhysicalPlan {
        assert_eq!(
            self.stack.len(),
            1,
            "finish() requires exactly one sub-plan on the stack, found {}",
            self.stack.len()
        );
        let child = self.stack.pop().expect("just checked");
        let rows = child.est_rows;
        let width = child.width;
        let root = PlanNode::internal(OperatorKind::Result, 0.01, rows, width, vec![child]);
        PhysicalPlan::new(self.query_type, root)
    }

    /// Number of pending sub-plans.
    pub fn pending(&self) -> usize {
        self.stack.len()
    }

    fn unary_scaled(mut self, op: OperatorKind, row_ratio: f64, cost_per_row: f64) -> Self {
        let input = self.pop("unary operator needs an input");
        let cost = input.est_rows * cost_per_row;
        let rows = (input.est_rows * row_ratio).max(1.0);
        let width = input.width;
        self.stack
            .push(PlanNode::internal(op, cost, rows, width, vec![input]));
        self
    }

    #[expect(
        clippy::panic,
        reason = "builder-API misuse check: the stack shape is fixed by calling code, never by data \
                  (pinned by join_requires_two_inputs / unary-input tests)"
    )]
    fn pop(&mut self, msg: &str) -> PlanNode {
        self.stack.pop().unwrap_or_else(|| panic!("{msg}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::plan_feature_vector;

    #[test]
    fn tpch_like_join_plan() {
        let plan = PlanBuilder::select()
            .scan("lineitem", S3Format::Local, 6e6, 120.0)
            .scan("orders", S3Format::Local, 1.5e6, 96.0)
            .hash_join(0.1)
            .hash_aggregate(0.01)
            .sort()
            .finish();
        assert_eq!(plan.query_type, QueryType::Select);
        assert_eq!(plan.join_count(), 1);
        // Result, Sort, HashAgg, HashJoin, probe scan, Hash, Dist, build scan
        assert_eq!(plan.node_count(), 8);
        assert!(plan.total_est_cost() > 0.0);
    }

    #[test]
    fn small_build_side_broadcasts() {
        let plan = PlanBuilder::select()
            .scan("big", S3Format::Local, 1e7, 64.0)
            .scan("small", S3Format::Local, 1e3, 32.0)
            .hash_join(0.5)
            .finish();
        let ops: Vec<_> = plan.iter_preorder().map(|n| n.op).collect();
        assert!(ops.contains(&OperatorKind::DsBcast));
        assert!(!ops.contains(&OperatorKind::DsDistKey));
    }

    #[test]
    fn large_build_side_distributes_by_key() {
        let plan = PlanBuilder::select()
            .scan("a", S3Format::Local, 1e7, 64.0)
            .scan("b", S3Format::Local, 5e6, 64.0)
            .hash_join(0.5)
            .finish();
        let ops: Vec<_> = plan.iter_preorder().map(|n| n.op).collect();
        assert!(ops.contains(&OperatorKind::DsDistKey));
    }

    #[test]
    fn dml_wraps_delete() {
        let plan = PlanBuilder::new(QueryType::Delete)
            .scan("t", S3Format::Local, 1e4, 64.0)
            .dml()
            .finish();
        let ops: Vec<_> = plan.iter_preorder().map(|n| n.op).collect();
        assert!(ops.contains(&OperatorKind::Delete));
    }

    #[test]
    fn dml_noop_for_select() {
        let plan = PlanBuilder::select()
            .scan("t", S3Format::Local, 1e4, 64.0)
            .dml()
            .finish();
        assert_eq!(plan.node_count(), 2); // Result + scan only
    }

    #[test]
    fn append_merges_all_pending() {
        let plan = PlanBuilder::select()
            .scan("a", S3Format::Local, 10.0, 8.0)
            .scan("b", S3Format::Local, 20.0, 8.0)
            .scan("c", S3Format::Local, 30.0, 8.0)
            .append_all()
            .finish();
        let append = plan
            .iter_preorder()
            .find(|n| n.op == OperatorKind::Append)
            .unwrap();
        assert_eq!(append.children.len(), 3);
        assert_eq!(append.est_rows, 60.0);
    }

    #[test]
    fn limit_caps_rows() {
        let plan = PlanBuilder::select()
            .scan("t", S3Format::Local, 1e6, 8.0)
            .limit(100.0)
            .finish();
        assert_eq!(plan.root.est_rows, 100.0);
    }

    #[test]
    #[should_panic(expected = "exactly one sub-plan")]
    fn finish_rejects_multiple_pending() {
        PlanBuilder::select()
            .scan("a", S3Format::Local, 1.0, 8.0)
            .scan("b", S3Format::Local, 1.0, 8.0)
            .finish();
    }

    #[test]
    #[should_panic(expected = "needs two inputs")]
    fn join_requires_two_inputs() {
        PlanBuilder::select()
            .scan("a", S3Format::Local, 1.0, 8.0)
            .hash_join(0.1);
    }

    #[test]
    fn identical_builders_produce_identical_vectors() {
        let build = || {
            PlanBuilder::select()
                .scan("l", S3Format::Parquet, 1e5, 100.0)
                .scan("o", S3Format::Local, 2e4, 50.0)
                .hash_join(0.2)
                .hash_aggregate(0.05)
                .finish()
        };
        let a = plan_feature_vector(&build());
        let b = plan_feature_vector(&build());
        assert_eq!(a.stable_hash(), b.stable_hash());
    }
}
