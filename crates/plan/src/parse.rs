//! Parsing EXPLAIN-style plan text back into [`PhysicalPlan`]s.
//!
//! The paper's fleet sweep "gather\[s\] the logs (i.e., STL_EXPLAIN table) on
//! the physical execution plans of executed queries" and parses them into
//! plan trees (§4.4). This module provides the equivalent for this
//! reproduction's textual plan format — the exact format
//! [`PhysicalPlan::explain`] emits — so plan logs can be exported, shipped,
//! and re-ingested for offline global-model training:
//!
//! ```text
//! Select plan:
//! XN Result  (cost=0.01 rows=2000 width=160)
//!   ->  XN Hash Join  (cost=900.00 rows=2000 width=160)
//!     ->  DS_BCAST_INNER  (cost=50.00 rows=1000 width=64)
//! ...
//! ```
//!
//! Nesting is conveyed by two-space indentation per level; scan nodes carry
//! optional `format=… table_rows=…` attributes.

#![expect(
    clippy::expect_used,
    reason = "tree-rebuild stack invariants (the root stays on the stack until the end); only \
              the experiment and log pipelines parse EXPLAIN text, never a verb"
)]

use crate::operator::{OperatorKind, QueryType, S3Format};
use crate::tree::{PhysicalPlan, PlanNode};
use std::fmt;

/// A parse failure with a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "explain parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses the output of [`PhysicalPlan::explain`] back into a plan.
///
/// The parse is strict about structure (header, indentation, attribute
/// syntax) and round-trips exactly:
/// `parse_explain(&plan.explain()) == Ok(plan)` for every plan this crate
/// can build.
pub fn parse_explain(text: &str) -> Result<PhysicalPlan, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());

    // Header: "<QueryType> plan:"
    let (hline, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    let query_type = parse_header(header).ok_or_else(|| {
        err(
            hline + 1,
            format!("expected '<QueryType> plan:', got {header:?}"),
        )
    })?;

    // Parse node lines into (depth, node) pairs.
    let mut flat: Vec<(usize, PlanNode)> = Vec::new();
    for (lno, raw) in lines {
        let line_no = lno + 1;
        let indent = raw.len() - raw.trim_start().len();
        if indent % 2 != 0 {
            return Err(err(line_no, "odd indentation"));
        }
        let depth = indent / 2;
        let mut body = raw.trim_start();
        if depth > 0 {
            body = body
                .strip_prefix("->  ")
                .ok_or_else(|| err(line_no, "nested node must start with '->  '"))?;
        }
        let node = parse_node_line(body, line_no)?;
        flat.push((depth, node));
    }

    if flat.is_empty() {
        return Err(err(hline + 1, "plan has no nodes"));
    }
    if flat[0].0 != 0 {
        return Err(err(hline + 2, "root must be at depth 0"));
    }

    // Rebuild the tree from the depth-annotated pre-order list.
    let mut iter = flat.into_iter();
    let (_, root_proto) = iter.next().expect("non-empty");
    let mut stack: Vec<(usize, PlanNode)> = vec![(0, root_proto)];
    for (depth, node) in iter {
        // Pop completed subtrees.
        while stack.len() > 1 && stack.last().expect("non-empty").0 >= depth {
            let (_, done) = stack.pop().expect("len > 1");
            stack
                .last_mut()
                .expect("stack never empties here")
                .1
                .children
                .push(done);
        }
        let parent_depth = stack.last().expect("non-empty").0;
        if depth != parent_depth + 1 {
            return Err(err(
                0,
                format!("invalid nesting: node at depth {depth} under depth {parent_depth}"),
            ));
        }
        stack.push((depth, node));
    }
    while stack.len() > 1 {
        let (_, done) = stack.pop().expect("len > 1");
        stack
            .last_mut()
            .expect("stack never empties here")
            .1
            .children
            .push(done);
    }
    let (_, root) = stack.pop().expect("root remains");
    Ok(PhysicalPlan::new(query_type, root))
}

fn parse_header(line: &str) -> Option<QueryType> {
    let name = line.trim().strip_suffix(" plan:")?;
    match name {
        "Select" => Some(QueryType::Select),
        "Insert" => Some(QueryType::Insert),
        "Update" => Some(QueryType::Update),
        "Delete" => Some(QueryType::Delete),
        "Other" => Some(QueryType::Other),
        _ => None,
    }
}

/// Parses `"<op name>  (cost=… rows=… width=…[ format=… table_rows=…])"`.
fn parse_node_line(body: &str, line_no: usize) -> Result<PlanNode, ParseError> {
    let open = body
        .find("  (")
        .ok_or_else(|| err(line_no, "missing attribute block"))?;
    let name = &body[..open];
    let attrs = body[open + 3..]
        .strip_suffix(')')
        .ok_or_else(|| err(line_no, "unterminated attribute block"))?;

    let op = OperatorKind::ALL
        .iter()
        .copied()
        .find(|o| o.name() == name)
        .ok_or_else(|| err(line_no, format!("unknown operator {name:?}")))?;

    let mut est_cost = None;
    let mut est_rows = None;
    let mut width = None;
    let mut s3_format = None;
    let mut table_rows = None;
    for kv in attrs.split_whitespace() {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("malformed attribute {kv:?}")))?;
        match k {
            "cost" => est_cost = Some(parse_f64(v, line_no)?),
            "rows" => est_rows = Some(parse_f64(v, line_no)?),
            "width" => width = Some(parse_f64(v, line_no)?),
            "table_rows" => table_rows = Some(parse_f64(v, line_no)?),
            "format" => {
                s3_format = Some(match v {
                    "Parquet" => S3Format::Parquet,
                    "OpenCsv" => S3Format::OpenCsv,
                    "Text" => S3Format::Text,
                    "Local" => S3Format::Local,
                    other => return Err(err(line_no, format!("unknown format {other:?}"))),
                })
            }
            other => return Err(err(line_no, format!("unknown attribute {other:?}"))),
        }
    }
    let (Some(est_cost), Some(est_rows), Some(width)) = (est_cost, est_rows, width) else {
        return Err(err(line_no, "cost/rows/width are required"));
    };
    Ok(PlanNode {
        op,
        est_cost,
        est_rows,
        width,
        s3_format,
        table_rows,
        children: Vec::new(),
    })
}

fn parse_f64(v: &str, line_no: usize) -> Result<f64, ParseError> {
    v.parse()
        .map_err(|_| err(line_no, format!("invalid number {v:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use proptest::prelude::*;

    fn sample_plan() -> PhysicalPlan {
        PlanBuilder::select()
            .scan("lineitem", S3Format::Local, 6e6, 120.0)
            .scan("orders", S3Format::Parquet, 1.5e6, 96.0)
            .hash_join(0.1)
            .hash_aggregate(0.01)
            .sort()
            .finish()
    }

    /// explain() rounds cost to 2 decimals and rows/width to integers, so
    /// round-trip equality needs a plan with representable values.
    fn quantize(plan: &PhysicalPlan) -> PhysicalPlan {
        fn q(node: &PlanNode) -> PlanNode {
            PlanNode {
                op: node.op,
                est_cost: (node.est_cost * 100.0).round() / 100.0,
                est_rows: node.est_rows.round(),
                width: node.width.round(),
                s3_format: node.s3_format,
                table_rows: node.table_rows.map(f64::round),
                children: node.children.iter().map(q).collect(),
            }
        }
        PhysicalPlan::new(plan.query_type, q(&plan.root))
    }

    #[test]
    fn round_trips_a_join_plan() {
        let plan = quantize(&sample_plan());
        let text = plan.explain();
        let back = parse_explain(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn round_trips_all_query_types() {
        for qt in [
            QueryType::Select,
            QueryType::Insert,
            QueryType::Update,
            QueryType::Delete,
            QueryType::Other,
        ] {
            let mut plan = quantize(&sample_plan());
            plan.query_type = qt;
            assert_eq!(parse_explain(&plan.explain()).unwrap().query_type, qt);
        }
    }

    #[test]
    fn preserves_scan_metadata() {
        let plan = quantize(&sample_plan());
        let back = parse_explain(&plan.explain()).unwrap();
        let scans: Vec<_> = back
            .iter_preorder()
            .filter(|n| n.op.is_base_table_scan())
            .collect();
        assert_eq!(scans.len(), 2);
        assert!(scans.iter().any(|n| n.s3_format == Some(S3Format::Parquet)));
        assert!(scans.iter().all(|n| n.table_rows.is_some()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_explain("").is_err());
        assert!(parse_explain("nonsense").is_err());
        assert!(parse_explain("Select plan:\nXN Bogus  (cost=1 rows=1 width=1)").is_err());
        assert!(parse_explain("Select plan:\nXN Result  (cost=1 rows=1)").is_err());
        // Nested node without arrow.
        assert!(parse_explain(
            "Select plan:\nXN Result  (cost=1 rows=1 width=1)\n  XN Seq Scan  (cost=1 rows=1 width=1)"
        )
        .is_err());
        // Depth jump of 2.
        assert!(parse_explain(
            "Select plan:\nXN Result  (cost=1 rows=1 width=1)\n    ->  XN Seq Scan  (cost=1 rows=1 width=1)"
        )
        .is_err());
    }

    #[test]
    fn error_carries_line_numbers() {
        let e = parse_explain("Select plan:\nXN Result  (cost=x rows=1 width=1)").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_round_trip_random_plans(
            scans in proptest::collection::vec((1f64..1e7, 8f64..512.0), 1..5),
            agg in proptest::bool::ANY,
            sort in proptest::bool::ANY,
        ) {
            let mut b = PlanBuilder::select();
            for &(rows, width) in &scans {
                b = b.scan("t", S3Format::Local, rows.round(), width.round());
            }
            while b.pending() > 1 {
                b = b.hash_join(0.25);
            }
            if agg { b = b.hash_aggregate(0.125); }
            if sort { b = b.sort(); }
            let plan = quantize(&b.finish());
            let back = parse_explain(&plan.explain()).unwrap();
            prop_assert_eq!(back, plan);
        }
    }
}
