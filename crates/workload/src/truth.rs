//! The cost-truth execution model.
//!
//! Stands in for Redshift's actual executor: maps a plan (with *true*
//! per-node cardinalities), an instance (public spec + hidden truth
//! factors), and the system load at execution time to a ground-truth
//! exec-time in seconds. The model is analytic — per-operator work
//! functions scaled by hidden instance factors, cluster size, memory
//! pressure (spill), a time-varying load factor, and multiplicative
//! log-normal noise whose σ grows with query length (the paper observes
//! long queries are inherently noisier, §5.3).

use crate::instance::{InstanceSpec, InstanceTruth};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use stage_plan::{OperatorKind, PhysicalPlan, PlanNode};

/// Sinusoidal-plus-bursts system load. `factor(t)` multiplies exec-times;
/// `concurrency(t)` feeds the system feature vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Diurnal amplitude in `[0, 1)`.
    pub amplitude: f64,
    /// Period in seconds (one simulated day).
    pub period_secs: f64,
    /// Phase offset in seconds.
    pub phase_secs: f64,
    /// Probability that any given query lands in a load burst.
    pub burst_prob: f64,
    /// Multiplier applied during bursts.
    pub burst_scale: f64,
    /// Baseline number of concurrent queries.
    pub base_concurrency: f64,
}

impl LoadProfile {
    /// Samples a per-instance load profile.
    pub fn sample(rng: &mut StdRng) -> Self {
        Self {
            amplitude: rng.gen_range(0.2..0.7),
            period_secs: 86_400.0,
            phase_secs: rng.gen_range(0.0..86_400.0),
            burst_prob: rng.gen_range(0.01..0.04),
            burst_scale: rng.gen_range(1.5..4.0),
            base_concurrency: rng.gen_range(1.0..8.0),
        }
    }

    /// Deterministic diurnal component at time `t` (≥ `1 - amplitude`).
    pub fn diurnal(&self, t_secs: f64) -> f64 {
        1.0 + self.amplitude
            * (2.0 * std::f64::consts::PI * (t_secs + self.phase_secs) / self.period_secs).sin()
    }

    /// Stochastic load factor at time `t` (diurnal × possible burst).
    pub fn factor(&self, t_secs: f64, rng: &mut StdRng) -> f64 {
        let mut f = self.diurnal(t_secs);
        if rng.gen_range(0.0..1.0) < self.burst_prob {
            f *= self.burst_scale;
        }
        f
    }

    /// Concurrency level accompanying a load factor.
    pub fn concurrency(&self, load_factor: f64, rng: &mut StdRng) -> u32 {
        let mean = self.base_concurrency * load_factor;
        let jitter: f64 = rng.gen_range(0.5..1.5);
        (mean * jitter).round().max(1.0) as u32
    }
}

/// Analytic per-operator cost model with instance factors and noise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostTruthModel {
    /// Noise σ floor for near-instant queries.
    pub sigma_short: f64,
    /// Additional σ approached by multi-minute queries.
    pub sigma_long_extra: f64,
    /// Probability of a pathological outlier execution (lock waits, etc.).
    pub outlier_prob: f64,
    /// Global multiplier on per-operator work (calibrates the fleet's
    /// latency distribution to the paper's top-billed-instance shape).
    pub work_scale: f64,
    /// Parallel-efficiency exponent: work divides by
    /// `cluster_speed^speed_exponent` (< 1 models coordination overhead).
    pub speed_exponent: f64,
}

impl Default for CostTruthModel {
    fn default() -> Self {
        Self {
            sigma_short: 0.22,
            sigma_long_extra: 0.38,
            outlier_prob: 0.007,
            work_scale: 6.0,
            speed_exponent: 0.7,
        }
    }
}

/// Per-row work in seconds on one ra3.4xlarge node, by operator.
fn base_coeff(op: OperatorKind) -> f64 {
    use OperatorKind as K;
    match op {
        K::SeqScan | K::SubqueryScan | K::FunctionScan | K::CteScan => 2.0e-7,
        K::S3Scan => 2.0e-7, // format factor applied separately
        K::HashJoin => 4.0e-7,
        K::MergeJoin => 3.0e-7,
        K::NestedLoopJoin => 1.2e-6,
        K::SemiJoin | K::AntiJoin => 4.5e-7,
        K::Hash => 5.0e-7,
        K::Sort | K::TopSort => 4.0e-7, // × log2(rows) below
        K::HashAggregate => 4.0e-7,
        K::GroupAggregate => 3.0e-7,
        K::Aggregate => 2.0e-7,
        K::DsDistAll | K::DsBcast => 8.0e-7,
        K::DsDistEven | K::DsDistKey => 3.0e-7,
        K::DsDistNone => 2.0e-8,
        K::NetworkReturn => 1.0e-7,
        K::Materialize => 2.5e-7,
        K::WindowAgg => 5.0e-7,
        K::Append | K::Intersect | K::Except | K::Unique => 3.0e-7,
        K::Limit | K::Project | K::Result | K::Subplan => 2.0e-8,
        K::Insert => 1.5e-6,
        K::Delete => 1.0e-6,
        K::Update => 2.0e-6,
    }
}

impl CostTruthModel {
    /// Work of one node in seconds on a single reference node, given *true*
    /// cardinalities. `true_rows` is the node's true output, `child_rows`
    /// the sum of its children's true outputs, and `scanned_rows` the rows a
    /// base-table scan actually reads (0 for non-scans) — column stores pay
    /// for rows read, not rows surviving the filter.
    pub fn node_work(
        &self,
        node: &PlanNode,
        true_rows: f64,
        child_rows: f64,
        scanned_rows: f64,
        spill: bool,
    ) -> f64 {
        let processed = if node.op.is_base_table_scan() {
            scanned_rows.max(true_rows)
        } else {
            true_rows + child_rows
        };
        let mut work = base_coeff(node.op) * processed;
        // Width: wider tuples cost more to move and hash.
        work *= 1.0 + node.width.max(0.0) / 256.0;
        // Sorts are n log n.
        if matches!(node.op, OperatorKind::Sort | OperatorKind::TopSort) {
            work *= (processed + 2.0).log2() / 10.0;
        }
        // External formats read slower.
        if let Some(fmt) = node.s3_format {
            if node.op.is_base_table_scan() {
                work *= fmt.scan_cost_factor();
            }
        }
        // Memory-pressure spill penalty for pipeline-breaking operators.
        if spill
            && matches!(
                node.op,
                OperatorKind::Hash
                    | OperatorKind::Sort
                    | OperatorKind::TopSort
                    | OperatorKind::HashAggregate
                    | OperatorKind::WindowAgg
                    | OperatorKind::Materialize
            )
        {
            work *= 2.5;
        }
        work
    }

    /// Deterministic (noise-free) exec-time of a plan with true per-node
    /// cardinalities (`true_rows` in pre-order, aligned with
    /// [`PhysicalPlan::iter_preorder`]).
    ///
    /// # Panics
    /// Panics if `true_rows.len() != plan.node_count()`.
    pub fn base_exec_time(
        &self,
        plan: &PhysicalPlan,
        true_rows: &[f64],
        scanned_rows: &[f64],
        spec: &InstanceSpec,
        truth: &InstanceTruth,
    ) -> f64 {
        assert_eq!(
            true_rows.len(),
            plan.node_count(),
            "true_rows must align with pre-order nodes"
        );
        assert_eq!(
            scanned_rows.len(),
            plan.node_count(),
            "scanned_rows must align with pre-order nodes"
        );
        // Index nodes in pre-order and record children sums.
        let nodes: Vec<&PlanNode> = plan.iter_preorder().collect();
        // Map each node to its position to find children sums: children of
        // node i are the next subtree_size segments; recompute via traversal.
        let mut child_sum = vec![0.0f64; nodes.len()];
        {
            // Reconstruct child relationships positionally.
            fn walk(
                node: &PlanNode,
                pos: &mut usize,
                true_rows: &[f64],
                child_sum: &mut [f64],
            ) -> usize {
                let my_pos = *pos;
                *pos += 1;
                let mut sum = 0.0;
                for child in &node.children {
                    let child_pos = *pos;
                    walk(child, pos, true_rows, child_sum);
                    sum += true_rows[child_pos];
                }
                child_sum[my_pos] = sum;
                my_pos
            }
            let mut pos = 0usize;
            walk(&plan.root, &mut pos, true_rows, &mut child_sum);
        }

        // Spill check: largest intermediate vs per-query memory budget
        // (assume a query gets memory_gb / 10 of the cluster).
        let budget_bytes = spec.memory_gb * 1e9 / 10.0;
        let max_intermediate = nodes
            .iter()
            .zip(true_rows)
            .map(|(n, &r)| r * n.width.max(8.0))
            .fold(0.0f64, f64::max);
        let spill = max_intermediate > budget_bytes;

        let mut total = 0.0;
        for (i, node) in nodes.iter().enumerate() {
            let w = self.node_work(node, true_rows[i], child_sum[i], scanned_rows[i], spill);
            total += w * truth.category_factor(node.op.category());
        }
        truth.fixed_overhead_secs
            + total * self.work_scale * truth.global_factor
                / spec.cluster_speed().powf(self.speed_exponent)
    }

    /// Full stochastic exec-time: base × load factor × log-normal noise,
    /// with rare outliers. σ grows with the base time.
    #[expect(
        clippy::too_many_arguments,
        reason = "one call site per replay; the arguments are the query's realized state"
    )]
    pub fn exec_time(
        &self,
        plan: &PhysicalPlan,
        true_rows: &[f64],
        scanned_rows: &[f64],
        spec: &InstanceSpec,
        truth: &InstanceTruth,
        load_factor: f64,
        rng: &mut StdRng,
    ) -> f64 {
        let base = self.base_exec_time(plan, true_rows, scanned_rows, spec, truth);
        let sigma = self.sigma_short + self.sigma_long_extra * (1.0 - (-base / 60.0).exp());
        // Short queries are far less exposed to load, spills, and lock
        // waits than long ones (the paper observes the wild run-to-run
        // variance specifically on long queries, §5.3): damp the load and
        // outlier multipliers for sub-second work.
        let damp = 0.25 + 0.75 * (1.0 - (-base / 30.0).exp());
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let effective_load = 1.0 + (load_factor - 1.0) * damp;
        let mut t = base * effective_load * (sigma * z).exp();
        if rng.gen_range(0.0..1.0) < self.outlier_prob {
            let m: f64 = rng.gen_range(2.0..6.0);
            t *= 1.0 + (m - 1.0) * damp;
        }
        t.max(1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::NodeType;
    use rand::SeedableRng;
    use stage_plan::{PlanBuilder, S3Format};

    fn spec(n_nodes: u32) -> InstanceSpec {
        InstanceSpec {
            id: 0,
            node_type: NodeType::Ra3_4Xl,
            n_nodes,
            memory_gb: 96.0 * n_nodes as f64,
        }
    }

    fn neutral_truth() -> InstanceTruth {
        InstanceTruth {
            global_factor: 1.0,
            category_factors: [1.0; stage_plan::OperatorCategory::COUNT],
            fixed_overhead_secs: 0.01,
        }
    }

    fn simple_plan(rows: f64) -> (PhysicalPlan, Vec<f64>, Vec<f64>) {
        let plan = PlanBuilder::select()
            .scan("t", S3Format::Local, rows, 64.0)
            .aggregate()
            .finish();
        let true_rows: Vec<f64> = plan.iter_preorder().map(|n| n.est_rows).collect();
        let scanned = scans_read_everything(&plan);
        (plan, true_rows, scanned)
    }

    /// Test helper: scans read their full output (no pruning), others 0.
    fn scans_read_everything(plan: &PhysicalPlan) -> Vec<f64> {
        plan.iter_preorder()
            .map(|n| {
                if n.op.is_base_table_scan() {
                    n.est_rows
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn bigger_scans_take_longer() {
        let m = CostTruthModel::default();
        let (p1, r1, s1) = simple_plan(1e4);
        let (p2, r2, s2) = simple_plan(1e7);
        let t1 = m.base_exec_time(&p1, &r1, &s1, &spec(4), &neutral_truth());
        let t2 = m.base_exec_time(&p2, &r2, &s2, &spec(4), &neutral_truth());
        assert!(t2 > 10.0 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn more_nodes_run_faster() {
        let m = CostTruthModel::default();
        let (p, r, sc) = simple_plan(1e7);
        let t_small = m.base_exec_time(&p, &r, &sc, &spec(2), &neutral_truth());
        let t_big = m.base_exec_time(&p, &r, &sc, &spec(16), &neutral_truth());
        assert!(t_big < t_small / 4.0, "small={t_small} big={t_big}");
    }

    #[test]
    fn hidden_factors_change_truth() {
        let m = CostTruthModel::default();
        let (p, r, sc) = simple_plan(1e6);
        let mut slow = neutral_truth();
        slow.global_factor = 3.0;
        let t_fast = m.base_exec_time(&p, &r, &sc, &spec(4), &neutral_truth());
        let t_slow = m.base_exec_time(&p, &r, &sc, &spec(4), &slow);
        assert!(t_slow > 2.0 * t_fast);
    }

    #[test]
    fn spill_penalizes_sort_heavy_plans() {
        let m = CostTruthModel::default();
        // Sort over an intermediate far larger than the memory budget.
        let plan = PlanBuilder::select()
            .scan("t", S3Format::Local, 1e9, 512.0)
            .sort()
            .finish();
        let true_rows: Vec<f64> = plan.iter_preorder().map(|n| n.est_rows).collect();
        let tiny = InstanceSpec {
            memory_gb: 10.0,
            ..spec(2)
        };
        let roomy = InstanceSpec {
            memory_gb: 1e6,
            ..spec(2)
        };
        let scanned = scans_read_everything(&plan);
        let t_tiny = m.base_exec_time(&plan, &true_rows, &scanned, &tiny, &neutral_truth());
        let t_roomy = m.base_exec_time(&plan, &true_rows, &scanned, &roomy, &neutral_truth());
        assert!(t_tiny > 1.5 * t_roomy, "tiny={t_tiny} roomy={t_roomy}");
    }

    #[test]
    fn s3_text_scans_slower_than_local() {
        let m = CostTruthModel::default();
        let local = PlanBuilder::select()
            .scan("t", S3Format::Local, 1e6, 64.0)
            .finish();
        let text = PlanBuilder::select()
            .scan("t", S3Format::Text, 1e6, 64.0)
            .finish();
        let rows_l: Vec<f64> = local.iter_preorder().map(|n| n.est_rows).collect();
        let rows_t: Vec<f64> = text.iter_preorder().map(|n| n.est_rows).collect();
        let tl = m.base_exec_time(
            &local,
            &rows_l,
            &scans_read_everything(&local),
            &spec(4),
            &neutral_truth(),
        );
        let tt = m.base_exec_time(
            &text,
            &rows_t,
            &scans_read_everything(&text),
            &spec(4),
            &neutral_truth(),
        );
        assert!(tt > 2.0 * tl, "local={tl} text={tt}");
    }

    #[test]
    fn noise_spreads_more_for_long_queries() {
        // Outliers off: they are rare but huge, and would dominate the CV
        // estimate at this sample size.
        let m = CostTruthModel {
            outlier_prob: 0.0,
            ..CostTruthModel::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let (ps, rs, ss) = simple_plan(1e4); // short
        let (pl, rl, sl) = simple_plan(5e8); // long
        let sample = |p: &PhysicalPlan, r: &[f64], sc: &[f64], rng: &mut StdRng| -> Vec<f64> {
            (0..1000)
                .map(|_| m.exec_time(p, r, sc, &spec(4), &neutral_truth(), 1.0, rng))
                .collect()
        };
        let cv = |xs: &[f64]| -> f64 {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            var.sqrt() / mean
        };
        let cv_short = cv(&sample(&ps, &rs, &ss, &mut rng));
        let cv_long = cv(&sample(&pl, &rl, &sl, &mut rng));
        assert!(
            cv_long > cv_short,
            "long queries should be noisier: short={cv_short} long={cv_long}"
        );
    }

    #[test]
    fn exec_time_positive_and_scales_with_load() {
        let m = CostTruthModel {
            outlier_prob: 0.0,
            sigma_short: 0.0,
            sigma_long_extra: 0.0,
            ..CostTruthModel::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let (p, r, sc) = simple_plan(1e6);
        let t1 = m.exec_time(&p, &r, &sc, &spec(4), &neutral_truth(), 1.0, &mut rng);
        let t2 = m.exec_time(&p, &r, &sc, &spec(4), &neutral_truth(), 2.0, &mut rng);
        assert!(t1 > 0.0);
        // Load impact is duration-damped: ratio = 1 + damp, with
        // damp ∈ [0.25, 1], so doubling the load raises exec-time by
        // between 25% and 100%.
        let ratio = t2 / t1;
        assert!((1.25 - 1e-9..=2.0 + 1e-9).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn load_profile_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let lp = LoadProfile::sample(&mut rng);
        for t in [0.0, 10_000.0, 50_000.0, 86_400.0] {
            let d = lp.diurnal(t);
            assert!(d >= 1.0 - lp.amplitude - 1e-9);
            assert!(d <= 1.0 + lp.amplitude + 1e-9);
            assert!(lp.factor(t, &mut rng) > 0.0);
            assert!(lp.concurrency(d, &mut rng) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_true_rows_rejected() {
        let m = CostTruthModel::default();
        let (p, _, _) = simple_plan(100.0);
        m.base_exec_time(&p, &[1.0], &[1.0], &spec(2), &neutral_truth());
    }
}
