//! A Selinger-style join-order optimizer.
//!
//! The paper's pipeline (Fig. 3) starts with a parser and *query optimizer*
//! that produce the physical plan the exec-time predictor consumes. This
//! module implements that substrate for this reproduction: given a logical
//! query — base tables with filters plus a join graph — it runs
//! dynamic-programming join enumeration over connected subsets (Selinger),
//! chooses build/probe sides and distribution operators the way
//! [`crate::builder::PlanBuilder`] does, and emits a [`PhysicalPlan`] with
//! cost/cardinality estimates from the same simple cost formulas.
//!
//! The enumeration is exact for up to [`MAX_DP_TABLES`] tables and falls
//! back to a greedy heuristic beyond that (as production optimizers do).

#![expect(
    clippy::expect_used,
    reason = "enumeration over a join graph `optimize` has checked is connected always yields a \
              plan; only experiments and tests plan through this module, never a verb"
)]

use crate::operator::{OperatorKind, QueryType, S3Format};
use crate::tree::{PhysicalPlan, PlanNode};

/// Maximum number of tables for exact DP enumeration (2^n subsets).
pub const MAX_DP_TABLES: usize = 12;

/// A base table reference in a logical query.
#[derive(Debug, Clone, Copy)]
pub struct TableRef {
    /// Total rows in the table.
    pub rows: f64,
    /// Tuple width in bytes.
    pub width: f64,
    /// Storage format.
    pub format: S3Format,
    /// Local filter selectivity in `(0, 1]` applied at the scan.
    pub filter_selectivity: f64,
}

/// An equi-join edge between two tables.
#[derive(Debug, Clone, Copy)]
pub struct JoinEdge {
    /// First table index.
    pub left: usize,
    /// Second table index.
    pub right: usize,
    /// Join selectivity: `|A ⋈ B| = sel × |A| × |B|`.
    pub selectivity: f64,
}

/// A logical query: tables + join graph.
#[derive(Debug, Clone)]
pub struct LogicalQuery {
    /// Base tables.
    pub tables: Vec<TableRef>,
    /// Equi-join predicates.
    pub joins: Vec<JoinEdge>,
}

/// Optimizer failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// The query has no tables.
    Empty,
    /// A join edge references a missing table.
    BadJoinEdge {
        /// Index of the offending edge in `joins`.
        edge: usize,
    },
    /// The join graph is disconnected (cross products are refused).
    Disconnected,
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Empty => write!(f, "query has no tables"),
            OptimizeError::BadJoinEdge { edge } => {
                write!(f, "join edge {edge} references a missing table")
            }
            OptimizeError::Disconnected => {
                write!(f, "join graph is disconnected; refusing a cross product")
            }
        }
    }
}

impl std::error::Error for OptimizeError {}

/// A candidate plan during DP: cost, output estimate, and the tree.
#[derive(Debug, Clone)]
struct Candidate {
    cost: f64,
    rows: f64,
    width: f64,
    node: PlanNode,
}

/// Optimizes a logical query into a physical SELECT plan.
///
/// The returned plan has the shape `Result( joins… over scans )`; callers
/// wanting aggregates/sorts on top can graft them with
/// [`crate::builder::PlanBuilder`]-style nodes.
pub fn optimize(query: &LogicalQuery) -> Result<PhysicalPlan, OptimizeError> {
    if query.tables.is_empty() {
        return Err(OptimizeError::Empty);
    }
    for (i, e) in query.joins.iter().enumerate() {
        if e.left >= query.tables.len() || e.right >= query.tables.len() || e.left == e.right {
            return Err(OptimizeError::BadJoinEdge { edge: i });
        }
    }
    let n = query.tables.len();
    if !is_connected(n, &query.joins) {
        return Err(OptimizeError::Disconnected);
    }

    let best = if n <= MAX_DP_TABLES {
        dp_enumerate(query)
    } else {
        greedy_enumerate(query)
    };
    let root = PlanNode::internal(
        OperatorKind::Result,
        0.01,
        best.rows,
        best.width,
        vec![best.node],
    );
    Ok(PhysicalPlan::new(QueryType::Select, root))
}

/// Scan candidate for one table.
fn scan_candidate(t: &TableRef) -> Candidate {
    let op = if t.format == S3Format::Local {
        OperatorKind::SeqScan
    } else {
        OperatorKind::S3Scan
    };
    let out_rows = (t.rows * t.filter_selectivity).max(1.0);
    let cost = t.rows * 0.01 * t.format.scan_cost_factor();
    let node = PlanNode::leaf(op, cost, out_rows, t.width).with_table(t.format, t.rows);
    Candidate {
        cost,
        rows: out_rows,
        width: t.width,
        node,
    }
}

/// Combined selectivity of all join edges crossing between `a` and `b`
/// (bitmask subsets). `None` if no edge connects them.
fn cross_selectivity(a: u32, b: u32, joins: &[JoinEdge]) -> Option<f64> {
    let mut sel = 1.0;
    let mut found = false;
    for e in joins {
        let l = 1u32 << e.left;
        let r = 1u32 << e.right;
        if (a & l != 0 && b & r != 0) || (a & r != 0 && b & l != 0) {
            sel *= e.selectivity;
            found = true;
        }
    }
    found.then_some(sel)
}

/// Builds the hash-join candidate for probe × build (mirrors
/// `PlanBuilder::hash_join`'s operator choices and cost formulas).
fn join_candidate(left: &Candidate, right: &Candidate, selectivity: f64) -> Candidate {
    // Floor far below one row instead of clamping to 1: a hard clamp makes
    // subset cardinalities order-dependent and breaks the DP's optimal
    // substructure (sub-plans would no longer be interchangeable).
    let out_rows = (left.rows * right.rows * selectivity).max(1e-6);
    let width = left.width + right.width;

    let (build, probe) = if right.rows <= left.rows {
        (right, left)
    } else {
        (left, right)
    };
    let dist_op = if build.rows < 100_000.0 {
        OperatorKind::DsBcast
    } else {
        OperatorKind::DsDistKey
    };
    let dist_cost = build.rows * 0.005;
    let dist = PlanNode::internal(
        dist_op,
        dist_cost,
        build.rows,
        build.width,
        vec![build.node.clone()],
    );
    let hash_cost = build.rows * 0.008;
    let hash = PlanNode::internal(
        OperatorKind::Hash,
        hash_cost,
        build.rows,
        build.width,
        vec![dist],
    );
    let join_cost = probe.rows * 0.012 + build.rows * 0.002;
    let node = PlanNode::internal(
        OperatorKind::HashJoin,
        join_cost,
        out_rows,
        width,
        vec![probe.node.clone(), hash],
    );
    Candidate {
        cost: left.cost + right.cost + dist_cost + hash_cost + join_cost,
        rows: out_rows,
        width,
        node,
    }
}

/// Exact Selinger DP over connected subsets.
fn dp_enumerate(query: &LogicalQuery) -> Candidate {
    let n = query.tables.len();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut best: Vec<Option<Candidate>> = vec![None; (full as usize) + 1];
    for (i, t) in query.tables.iter().enumerate() {
        best[1usize << i] = Some(scan_candidate(t));
    }
    for mask in 1..=full {
        if best[mask as usize].is_some() {
            continue; // singleton already seeded
        }
        // Enumerate proper sub-splits: iterate sub-masks.
        let mut sub = (mask - 1) & mask;
        let mut winner: Option<Candidate> = None;
        while sub != 0 {
            let other = mask & !sub;
            // Only consider each unordered split once.
            if sub < other {
                sub = (sub - 1) & mask;
                continue;
            }
            if let (Some(a), Some(b)) = (&best[sub as usize], &best[other as usize]) {
                if let Some(sel) = cross_selectivity(sub, other, &query.joins) {
                    let cand = join_candidate(a, b, sel);
                    if winner.as_ref().map(|w| cand.cost < w.cost).unwrap_or(true) {
                        winner = Some(cand);
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
        best[mask as usize] = winner;
    }
    best[full as usize]
        .clone()
        .expect("connected graph always has a full plan")
}

/// Greedy fallback for wide queries: repeatedly join the cheapest pair.
fn greedy_enumerate(query: &LogicalQuery) -> Candidate {
    let n = query.tables.len();
    let mut parts: Vec<(u32, Candidate)> = query
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| (1u32 << i, scan_candidate(t)))
        .collect();
    while parts.len() > 1 {
        let mut best: Option<(usize, usize, Candidate)> = None;
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                if let Some(sel) = cross_selectivity(parts[i].0, parts[j].0, &query.joins) {
                    let cand = join_candidate(&parts[i].1, &parts[j].1, sel);
                    if best
                        .as_ref()
                        .map(|(_, _, b)| cand.cost < b.cost)
                        .unwrap_or(true)
                    {
                        best = Some((i, j, cand));
                    }
                }
            }
        }
        let (i, j, cand) = best.expect("connected graph always joins");
        let mask = parts[i].0 | parts[j].0;
        // Remove j first (j > i) to keep indices valid.
        parts.remove(j);
        parts.remove(i);
        parts.push((mask, cand));
        let _ = n;
    }
    parts.pop().expect("one part remains").1
}

/// Connectivity check via union-find.
fn is_connected(n: usize, joins: &[JoinEdge]) -> bool {
    if n <= 1 {
        return true;
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for e in joins {
        if e.left < n && e.right < n {
            let (a, b) = (find(&mut parent, e.left), find(&mut parent, e.right));
            parent[a] = b;
        }
    }
    let root = find(&mut parent, 0);
    (1..n).all(|i| find(&mut parent, i) == root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table(rows: f64, sel: f64) -> TableRef {
        TableRef {
            rows,
            width: 64.0,
            format: S3Format::Local,
            filter_selectivity: sel,
        }
    }

    /// Total estimated cost of a plan (the optimizer's objective).
    fn plan_cost(p: &PhysicalPlan) -> f64 {
        p.total_est_cost()
    }

    #[test]
    fn single_table_is_a_scan() {
        let q = LogicalQuery {
            tables: vec![table(1e6, 0.1)],
            joins: vec![],
        };
        let p = optimize(&q).unwrap();
        assert_eq!(p.join_count(), 0);
        assert_eq!(p.node_count(), 2); // Result + scan
        let scan = p.iter_preorder().last().unwrap();
        assert_eq!(scan.op, OperatorKind::SeqScan);
        assert_eq!(scan.est_rows, 1e5);
    }

    #[test]
    fn two_table_join_builds_on_smaller_side() {
        let q = LogicalQuery {
            tables: vec![table(1e7, 1.0), table(1e3, 1.0)],
            joins: vec![JoinEdge {
                left: 0,
                right: 1,
                selectivity: 1e-7,
            }],
        };
        let p = optimize(&q).unwrap();
        assert_eq!(p.join_count(), 1);
        // Build (hash) side must be the small table, broadcast.
        let hash = p
            .iter_preorder()
            .find(|n| n.op == OperatorKind::Hash)
            .unwrap();
        assert_eq!(hash.est_rows, 1e3);
        assert!(p.iter_preorder().any(|n| n.op == OperatorKind::DsBcast));
    }

    #[test]
    fn star_join_orders_by_cost() {
        // Fact table with two dims; the optimizer must join the more
        // selective dim first (smaller intermediate).
        let q = LogicalQuery {
            tables: vec![
                table(1e7, 1.0), // fact
                table(1e4, 1.0), // dim A, very selective join
                table(1e4, 1.0), // dim B, non-reducing join
            ],
            joins: vec![
                JoinEdge {
                    left: 0,
                    right: 1,
                    selectivity: 1e-8,
                },
                JoinEdge {
                    left: 0,
                    right: 2,
                    selectivity: 1e-4,
                },
            ],
        };
        let p = optimize(&q).unwrap();
        assert_eq!(p.join_count(), 2);
        // The DP plan must be no worse than either left-deep order; verify
        // against a manually built worse order: (fact ⋈ B) first produces a
        // 1e7-row intermediate — the chosen plan's cost must beat it.
        let bad_first = join_candidate(
            &scan_candidate(&q.tables[0]),
            &scan_candidate(&q.tables[2]),
            1e-4,
        );
        let bad_total = join_candidate(&bad_first, &scan_candidate(&q.tables[1]), 1e-8);
        assert!(
            plan_cost(&p) <= bad_total.cost + 0.011,
            "dp={} bad={}",
            plan_cost(&p),
            bad_total.cost
        );
    }

    #[test]
    fn chain_join_handles_many_tables() {
        let n = 8usize;
        let tables: Vec<TableRef> = (0..n)
            .map(|i| table(10f64.powi(3 + (i % 4) as i32), 1.0))
            .collect();
        let joins: Vec<JoinEdge> = (1..n)
            .map(|i| JoinEdge {
                left: i - 1,
                right: i,
                selectivity: 1e-4,
            })
            .collect();
        let p = optimize(&LogicalQuery { tables, joins }).unwrap();
        assert_eq!(p.join_count(), n - 1);
        assert!(
            p.iter_preorder()
                .filter(|x| x.op.is_base_table_scan())
                .count()
                == n
        );
    }

    #[test]
    fn greedy_fallback_beyond_dp_limit() {
        let n = MAX_DP_TABLES + 2;
        let tables: Vec<TableRef> = (0..n).map(|_| table(1e5, 1.0)).collect();
        let joins: Vec<JoinEdge> = (1..n)
            .map(|i| JoinEdge {
                left: i - 1,
                right: i,
                selectivity: 1e-5,
            })
            .collect();
        let p = optimize(&LogicalQuery { tables, joins }).unwrap();
        assert_eq!(p.join_count(), n - 1);
    }

    #[test]
    fn errors() {
        assert_eq!(
            optimize(&LogicalQuery {
                tables: vec![],
                joins: vec![]
            }),
            Err(OptimizeError::Empty)
        );
        let q = LogicalQuery {
            tables: vec![table(10.0, 1.0), table(10.0, 1.0)],
            joins: vec![JoinEdge {
                left: 0,
                right: 5,
                selectivity: 0.1,
            }],
        };
        assert_eq!(optimize(&q), Err(OptimizeError::BadJoinEdge { edge: 0 }));
        let disconnected = LogicalQuery {
            tables: vec![table(10.0, 1.0), table(10.0, 1.0)],
            joins: vec![],
        };
        assert_eq!(optimize(&disconnected), Err(OptimizeError::Disconnected));
        // Self-join edge is rejected as malformed.
        let self_edge = LogicalQuery {
            tables: vec![table(10.0, 1.0), table(10.0, 1.0)],
            joins: vec![
                JoinEdge {
                    left: 0,
                    right: 0,
                    selectivity: 0.1,
                },
                JoinEdge {
                    left: 0,
                    right: 1,
                    selectivity: 0.1,
                },
            ],
        };
        assert_eq!(
            optimize(&self_edge),
            Err(OptimizeError::BadJoinEdge { edge: 0 })
        );
    }

    #[test]
    fn optimized_plans_featurize() {
        let q = LogicalQuery {
            tables: vec![table(1e6, 0.5), table(1e5, 1.0), table(1e4, 1.0)],
            joins: vec![
                JoinEdge {
                    left: 0,
                    right: 1,
                    selectivity: 1e-5,
                },
                JoinEdge {
                    left: 1,
                    right: 2,
                    selectivity: 1e-4,
                },
            ],
        };
        let p = optimize(&q).unwrap();
        let v = crate::features::plan_feature_vector(&p);
        assert!(v.as_slice().iter().all(|x| x.is_finite()));
        // Round-trips through the EXPLAIN parser like builder plans.
        let text = p.explain();
        let back = crate::parse::parse_explain(&text).unwrap();
        assert_eq!(back.node_count(), p.node_count());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// DP is never worse than greedy on the same query.
        #[test]
        fn prop_dp_beats_greedy(
            sizes in proptest::collection::vec(2.0f64..7.0, 2..7),
            sels in proptest::collection::vec(-7.0f64..-1.0, 6),
        ) {
            let n = sizes.len();
            let tables: Vec<TableRef> =
                sizes.iter().map(|&e| table(10f64.powf(e), 1.0)).collect();
            let joins: Vec<JoinEdge> = (1..n)
                .map(|i| JoinEdge {
                    left: i - 1,
                    right: i,
                    selectivity: 10f64.powf(sels[(i - 1) % sels.len()]),
                })
                .collect();
            let q = LogicalQuery { tables, joins };
            let dp = dp_enumerate(&q);
            let greedy = greedy_enumerate(&q);
            prop_assert!(dp.cost <= greedy.cost + 1e-6,
                "dp {} > greedy {}", dp.cost, greedy.cost);
        }

        /// Output cardinality estimate is order-independent.
        #[test]
        fn prop_output_rows_invariant(
            sizes in proptest::collection::vec(2.0f64..6.0, 3..6),
        ) {
            let n = sizes.len();
            let tables: Vec<TableRef> =
                sizes.iter().map(|&e| table(10f64.powf(e), 1.0)).collect();
            let joins: Vec<JoinEdge> = (1..n)
                .map(|i| JoinEdge { left: i - 1, right: i, selectivity: 1e-3 })
                .collect();
            let q = LogicalQuery { tables: tables.clone(), joins };
            let dp = dp_enumerate(&q);
            // Expected: prod(rows) * prod(sels)
            let expected = tables.iter().map(|t| t.rows).product::<f64>()
                * 1e-3f64.powi((n - 1) as i32);
            prop_assert!((dp.rows - expected.max(1.0)).abs() < 1e-6 * expected.max(1.0),
                "rows {} expected {}", dp.rows, expected);
        }
    }
}
