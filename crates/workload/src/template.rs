//! Query templates: the repetition structure of analytic workloads.
//!
//! Redshift customers mostly run dashboards and reports — identical SQL
//! (including parameter values) re-issued on a schedule (paper §3, Fig. 1a).
//! A [`Template`] captures one such recurring query: a fixed plan *shape*
//! (join count, aggregation, sort, …) over fixed tables with fixed
//! selectivities, plus a schedule. Ad-hoc templates re-draw their parameters
//! per execution, producing unique plans that miss the exec-time cache but
//! remain "similar to past-seen queries" — the local model's fuzzy-cache
//! regime (§4.3).
//!
//! Each template also carries fixed per-node *cardinality estimation errors*
//! (the optimizer is consistently wrong in the same way for the same query,
//! more so under deeper joins), and scans drift away from their statistics
//! as tables grow between stats refreshes.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use stage_plan::{PhysicalPlan, PlanBuilder, QueryType, S3Format};

/// A base table in an instance's schema.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TableState {
    /// True row count at simulation start.
    pub rows_at_t0: f64,
    /// Fractional growth per simulated day (0.02 = +2%/day).
    pub growth_per_day: f64,
    /// Average tuple width in bytes.
    pub width: f64,
    /// Storage format.
    pub format: S3Format,
}

impl TableState {
    /// Samples a plausible table: log-uniform sizes 10⁴–10⁹ rows, mostly
    /// local storage, mostly slow growth with occasional fast movers.
    pub fn sample(rng: &mut StdRng) -> Self {
        let log_rows = rng.gen_range(4.0..8.7);
        let format = match rng.gen_range(0..10) {
            0 => S3Format::Parquet,
            1 => S3Format::OpenCsv,
            _ if rng.gen_range(0..20) == 0 => S3Format::Text,
            _ => S3Format::Local,
        };
        let growth_per_day = if rng.gen_range(0..8) == 0 {
            rng.gen_range(0.1..0.4) // fast-changing table
        } else {
            rng.gen_range(0.0..0.05)
        };
        Self {
            rows_at_t0: 10f64.powf(log_rows),
            growth_per_day,
            width: rng.gen_range(16.0..512.0),
            format,
        }
    }

    /// True row count at time `t` (linear growth).
    pub fn true_rows(&self, t_secs: f64) -> f64 {
        self.rows_at_t0 * (1.0 + self.growth_per_day * t_secs / 86_400.0)
    }
}

/// Workload role of a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemplateKind {
    /// Frequently refreshed, fixed-parameter, short queries.
    Dashboard,
    /// Daily/half-daily heavier analytic queries.
    Report,
    /// Unpredictable, parameter-varying exploration.
    AdHoc,
    /// Periodic DML (INSERT/DELETE/UPDATE) maintenance.
    Etl,
}

/// When a template fires.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum Schedule {
    /// Fixed period with a phase offset and ±2% jitter.
    Periodic {
        /// Seconds between firings.
        period_secs: f64,
        /// Offset of the first firing.
        phase_secs: f64,
    },
    /// Memoryless arrivals.
    Poisson {
        /// Expected arrivals per second.
        rate_per_sec: f64,
    },
}

impl Schedule {
    /// All arrival times in `[0, duration_secs)`, ascending.
    pub fn arrivals(&self, duration_secs: f64, rng: &mut StdRng) -> Vec<f64> {
        let mut out = Vec::new();
        match *self {
            Schedule::Periodic {
                period_secs,
                phase_secs,
            } => {
                let mut t = phase_secs;
                while t < duration_secs {
                    let jitter = rng.gen_range(-0.02..0.02) * period_secs;
                    let at = t + jitter;
                    if (0.0..duration_secs).contains(&at) {
                        out.push(at);
                    }
                    t += period_secs;
                }
            }
            Schedule::Poisson { rate_per_sec } => {
                let mut t = 0.0;
                loop {
                    let u: f64 = rng.gen_range(1e-12..1.0);
                    t += -u.ln() / rate_per_sec;
                    if t >= duration_secs {
                        break;
                    }
                    out.push(t);
                }
            }
        }
        // `total_cmp`, not `partial_cmp(..).expect(..)`: a degenerate rate
        // producing NaN must not abort arrival generation mid-serve.
        out.sort_by(f64::total_cmp);
        out
    }
}

/// Plan shape of a template (fixed at creation).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Shape {
    n_joins: usize,
    scalar_agg: bool,
    group_agg: bool,
    group_ratio: f64,
    sort: bool,
    limit: Option<f64>,
    window: bool,
}

/// A recurring query. See the module docs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Template {
    /// Instance-unique id.
    pub id: u32,
    /// Workload role.
    pub kind: TemplateKind,
    /// When it fires.
    pub schedule: Schedule,
    /// Time before which the template does not exist yet (workload churn:
    /// customers add new dashboards/reports mid-stream; fresh templates are
    /// the cold-start / "training set catches up" stressor of §2.1).
    pub active_from_secs: f64,
    query_type: QueryType,
    /// Table ids scanned (first = probe side, rest joined in order).
    tables: Vec<usize>,
    /// Per-scan selectivity.
    selectivities: Vec<f64>,
    join_selectivity: f64,
    shape: Shape,
    /// Per-plan-node ln cardinality error, pre-order (fixed per template).
    card_log_errors: Vec<f64>,
    /// Log-normal σ of per-execution parameter jitter (0 = exact repeats).
    param_jitter: f64,
    /// Fraction of each scanned base table the executor actually reads.
    /// Dashboards filter on sort keys and prune aggressively via zone maps;
    /// reports and ETL read large fractions.
    scan_read_fraction: f64,
    /// Hidden per-template execution multiplier: predicate complexity,
    /// skew, UDFs — everything two "nearly identical plans … with
    /// drastically different performances" (paper §5.4) differ by that no
    /// featurization can see. The cache learns it after one execution;
    /// models cannot.
    latent_factor: f64,
}

/// A template expanded against concrete statistics: the optimizer-visible
/// plan plus the hidden true per-node cardinalities (pre-order).
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The plan the predictors see.
    pub plan: PhysicalPlan,
    /// True output rows per node, aligned with `plan.iter_preorder()`.
    pub true_rows: Vec<f64>,
    /// Rows each base-table scan actually reads (zone-map pruning applied;
    /// 0 for non-scan nodes), aligned with `plan.iter_preorder()`.
    pub scanned_rows: Vec<f64>,
}

impl Template {
    /// Samples a template of the given kind over `tables`.
    pub fn sample(id: u32, kind: TemplateKind, tables: &[TableState], rng: &mut StdRng) -> Self {
        let (n_joins, sel_range, jitter): (usize, (f64, f64), f64) = match kind {
            TemplateKind::Dashboard => (rng.gen_range(0..=2), (1e-5, 1e-2), 0.0),
            TemplateKind::Report => (rng.gen_range(1..=4), (1e-3, 1e-1), 0.0),
            TemplateKind::AdHoc => (rng.gen_range(0..=5), (1e-4, 0.5), 0.35),
            TemplateKind::Etl => (rng.gen_range(0..=1), (1e-2, 0.5), 0.0),
        };
        let n_scans = n_joins + 1;
        let table_ids: Vec<usize> = (0..n_scans)
            .map(|_| rng.gen_range(0..tables.len()))
            .collect();
        let selectivities: Vec<f64> = (0..n_scans)
            .map(|_| {
                let (lo, hi) = sel_range;
                // Log-uniform selectivity.
                (lo.ln() + rng.gen_range(0.0f64..1.0) * (hi.ln() - lo.ln())).exp()
            })
            .collect();
        let query_type = match kind {
            TemplateKind::Etl => match rng.gen_range(0..3) {
                0 => QueryType::Insert,
                1 => QueryType::Delete,
                _ => QueryType::Update,
            },
            _ => QueryType::Select,
        };
        let shape = Shape {
            n_joins,
            scalar_agg: kind != TemplateKind::Etl && rng.gen_range(0..4) == 0,
            group_agg: kind != TemplateKind::Etl && rng.gen_range(0..2) == 0,
            group_ratio: rng.gen_range(0.001..0.2),
            sort: rng.gen_range(0..3) == 0,
            limit: if kind == TemplateKind::Dashboard && rng.gen_range(0..2) == 0 {
                Some(10f64.powf(rng.gen_range(1.0..3.0)).round())
            } else {
                None
            },
            window: kind == TemplateKind::Report && rng.gen_range(0..4) == 0,
        };
        let schedule = match kind {
            TemplateKind::Dashboard => {
                const PERIODS: [f64; 6] =
                    [7_200.0, 14_400.0, 21_600.0, 43_200.0, 86_400.0, 86_400.0];
                let period = PERIODS[rng.gen_range(0..PERIODS.len())];
                Schedule::Periodic {
                    period_secs: period,
                    phase_secs: rng.gen_range(0.0..period),
                }
            }
            TemplateKind::Report => {
                let period = if rng.gen_range(0..2) == 0 {
                    43_200.0
                } else {
                    86_400.0
                };
                Schedule::Periodic {
                    period_secs: period,
                    phase_secs: rng.gen_range(0.0..period),
                }
            }
            TemplateKind::AdHoc => Schedule::Poisson {
                rate_per_sec: rng.gen_range(0.1..0.8) / 3600.0,
            },
            TemplateKind::Etl => {
                const PERIODS: [f64; 3] = [3600.0, 21_600.0, 86_400.0];
                let period = PERIODS[rng.gen_range(0..PERIODS.len())];
                Schedule::Periodic {
                    period_secs: period,
                    phase_secs: rng.gen_range(0.0..period),
                }
            }
        };

        let scan_read_fraction = match kind {
            TemplateKind::Dashboard => {
                let log = rng.gen_range(-2.3f64..-0.52); // 0.5% .. 30%
                10f64.powf(log)
            }
            TemplateKind::Report => rng.gen_range(0.3..1.0),
            TemplateKind::AdHoc => {
                let log = rng.gen_range(-2.0f64..-0.3); // 1% .. 50%
                10f64.powf(log)
            }
            TemplateKind::Etl => rng.gen_range(0.1..0.8),
        };
        let latent_factor = {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (0.9 * z).exp()
        };
        let mut template = Self {
            id,
            kind,
            schedule,
            active_from_secs: 0.0,
            latent_factor,
            query_type,
            tables: table_ids,
            selectivities,
            join_selectivity: rng.gen_range(0.01..0.5),
            shape,
            card_log_errors: Vec::new(),
            param_jitter: jitter,
            scan_read_fraction,
        };
        // Fix per-node cardinality errors: instantiate once to learn the
        // node count, then sample errors whose σ grows with join depth
        // (paper §4.3: the vector is "less representative" for many joins).
        let stats: Vec<f64> = tables.iter().map(|t| t.rows_at_t0).collect();
        let probe = template.build_plan(tables, &stats, 1.0);
        let sigma = 0.25 + 0.3 * n_joins as f64;
        template.card_log_errors = (0..probe.node_count())
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        template
    }

    /// Statement type of this template's queries.
    pub fn query_type(&self) -> QueryType {
        self.query_type
    }

    /// Hidden execution multiplier (see the field docs). Exposed for the
    /// generator and for ablations; predictors must never read it.
    pub fn latent_factor(&self) -> f64 {
        self.latent_factor
    }

    /// Builds the optimizer-visible plan from per-table *statistics* rows.
    fn build_plan(&self, tables: &[TableState], stats_rows: &[f64], jitter: f64) -> PhysicalPlan {
        let mut b = PlanBuilder::new(self.query_type);
        let scan = |b: PlanBuilder, i: usize, jitter: f64| -> PlanBuilder {
            let tid = self.tables[i];
            let t = &tables[tid];
            let out = (stats_rows[tid] * self.selectivities[i] * jitter).max(1.0);
            b.scan_with_table_rows(t.format, out, stats_rows[tid], t.width)
        };
        b = scan(b, 0, jitter);
        for j in 1..=self.shape.n_joins {
            b = scan(b, j, jitter);
            b = b.hash_join(self.join_selectivity);
        }
        if self.shape.group_agg {
            b = b.hash_aggregate(self.shape.group_ratio);
        }
        if self.shape.scalar_agg {
            b = b.aggregate();
        }
        if self.shape.window {
            b = b.window();
        }
        if self.shape.sort {
            b = b.sort();
        }
        if let Some(n) = self.shape.limit {
            b = b.limit(n);
        }
        b = b.dml();
        b.finish()
    }

    /// Expands the template at time `t`.
    ///
    /// * `stats_rows[i]` — per-table row counts the *optimizer* believes
    ///   (refreshed daily by the generator);
    /// * true cardinalities apply the template's fixed estimation errors and
    ///   a drift factor `true_rows(t)/stats_rows` averaged over the scanned
    ///   tables.
    pub fn instantiate(
        &self,
        tables: &[TableState],
        stats_rows: &[f64],
        t_secs: f64,
        rng: &mut StdRng,
    ) -> GeneratedQuery {
        let jitter = if self.param_jitter > 0.0 {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (self.param_jitter * z).exp()
        } else {
            1.0
        };
        let plan = self.build_plan(tables, stats_rows, jitter);

        // Drift of truth away from statistics, averaged over scanned tables.
        let drift: f64 = self
            .tables
            .iter()
            .map(|&tid| tables[tid].true_rows(t_secs) / stats_rows[tid].max(1.0))
            .sum::<f64>()
            / self.tables.len() as f64;

        let mut true_rows = Vec::with_capacity(plan.node_count());
        let mut scanned_rows = Vec::with_capacity(plan.node_count());
        for (i, node) in plan.iter_preorder().enumerate() {
            let err = self.card_log_errors.get(i).copied().unwrap_or(0.0).exp();
            let out_rows = (node.est_rows * err * drift).max(1.0);
            true_rows.push(out_rows);
            // Scans read a template-specific fraction of the (drifted)
            // table, never less than what they output.
            let scanned = match (node.op.is_base_table_scan(), node.table_rows) {
                (true, Some(stats_table_rows)) => {
                    (stats_table_rows * drift * self.scan_read_fraction).max(out_rows)
                }
                _ => 0.0,
            };
            scanned_rows.push(scanned);
        }
        GeneratedQuery {
            plan,
            true_rows,
            scanned_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stage_plan::plan_feature_vector;

    fn tables(rng: &mut StdRng) -> Vec<TableState> {
        (0..6).map(|_| TableState::sample(rng)).collect()
    }

    #[test]
    fn dashboard_repeats_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let ts = tables(&mut rng);
        let tpl = Template::sample(0, TemplateKind::Dashboard, &ts, &mut rng);
        let stats: Vec<f64> = ts.iter().map(|t| t.rows_at_t0).collect();
        let q1 = tpl.instantiate(&ts, &stats, 100.0, &mut rng);
        let q2 = tpl.instantiate(&ts, &stats, 200.0, &mut rng);
        let h1 = plan_feature_vector(&q1.plan).stable_hash();
        let h2 = plan_feature_vector(&q2.plan).stable_hash();
        assert_eq!(h1, h2, "same stats must produce identical dashboard plans");
    }

    #[test]
    fn adhoc_varies_per_execution() {
        let mut rng = StdRng::seed_from_u64(2);
        let ts = tables(&mut rng);
        let tpl = Template::sample(0, TemplateKind::AdHoc, &ts, &mut rng);
        assert!(tpl.param_jitter > 0.0);
        let stats: Vec<f64> = ts.iter().map(|t| t.rows_at_t0).collect();
        let hashes: std::collections::HashSet<u64> = (0..10)
            .map(|i| {
                let q = tpl.instantiate(&ts, &stats, i as f64, &mut rng);
                plan_feature_vector(&q.plan).stable_hash()
            })
            .collect();
        assert!(hashes.len() >= 9, "ad-hoc plans should be unique");
    }

    #[test]
    fn stats_refresh_changes_dashboard_plan() {
        let mut rng = StdRng::seed_from_u64(3);
        let ts = tables(&mut rng);
        let tpl = Template::sample(0, TemplateKind::Dashboard, &ts, &mut rng);
        let stats1: Vec<f64> = ts.iter().map(|t| t.rows_at_t0).collect();
        let stats2: Vec<f64> = ts.iter().map(|t| t.rows_at_t0 * 1.5).collect();
        let q1 = tpl.instantiate(&ts, &stats1, 0.0, &mut rng);
        let q2 = tpl.instantiate(&ts, &stats2, 0.0, &mut rng);
        assert_ne!(
            plan_feature_vector(&q1.plan).stable_hash(),
            plan_feature_vector(&q2.plan).stable_hash()
        );
    }

    #[test]
    fn true_rows_align_with_plan() {
        let mut rng = StdRng::seed_from_u64(4);
        let ts = tables(&mut rng);
        for kind in [
            TemplateKind::Dashboard,
            TemplateKind::Report,
            TemplateKind::AdHoc,
            TemplateKind::Etl,
        ] {
            let tpl = Template::sample(0, kind, &ts, &mut rng);
            let stats: Vec<f64> = ts.iter().map(|t| t.rows_at_t0).collect();
            let q = tpl.instantiate(&ts, &stats, 0.0, &mut rng);
            assert_eq!(q.true_rows.len(), q.plan.node_count(), "{kind:?}");
            assert!(q.true_rows.iter().all(|&r| r >= 1.0 && r.is_finite()));
        }
    }

    #[test]
    fn etl_templates_are_dml() {
        let mut rng = StdRng::seed_from_u64(5);
        let ts = tables(&mut rng);
        let tpl = Template::sample(0, TemplateKind::Etl, &ts, &mut rng);
        assert_ne!(tpl.query_type(), QueryType::Select);
    }

    #[test]
    fn drift_inflates_true_rows() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ts = tables(&mut rng);
        for t in &mut ts {
            t.growth_per_day = 1.0; // double per day
        }
        let tpl = Template::sample(0, TemplateKind::Dashboard, &ts, &mut rng);
        let stats: Vec<f64> = ts.iter().map(|t| t.rows_at_t0).collect();
        let q_now = tpl.instantiate(&ts, &stats, 0.0, &mut rng);
        let q_later = tpl.instantiate(&ts, &stats, 86_400.0, &mut rng);
        let sum_now: f64 = q_now.true_rows.iter().sum();
        let sum_later: f64 = q_later.true_rows.iter().sum();
        assert!(sum_later > 1.5 * sum_now, "now={sum_now} later={sum_later}");
        // Same plan (stale stats), different truth.
        assert_eq!(
            plan_feature_vector(&q_now.plan).stable_hash(),
            plan_feature_vector(&q_later.plan).stable_hash()
        );
    }

    #[test]
    fn periodic_schedule_spacing() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = Schedule::Periodic {
            period_secs: 3600.0,
            phase_secs: 100.0,
        };
        let arr = s.arrivals(86_400.0, &mut rng);
        assert!((23..=25).contains(&arr.len()), "{} arrivals", arr.len());
        assert!(arr.windows(2).all(|w| w[1] > w[0]));
        for w in arr.windows(2) {
            assert!((w[1] - w[0] - 3600.0).abs() < 200.0);
        }
    }

    #[test]
    fn poisson_schedule_rate() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = Schedule::Poisson {
            rate_per_sec: 10.0 / 3600.0,
        };
        let arr = s.arrivals(86_400.0 * 10.0, &mut rng);
        // Expect ~2400 arrivals over 10 days.
        assert!((2000..2900).contains(&arr.len()), "{}", arr.len());
        assert!(arr.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn latent_factors_spread_across_templates() {
        let mut rng = StdRng::seed_from_u64(10);
        let ts = tables(&mut rng);
        let factors: Vec<f64> = (0..50)
            .map(|i| Template::sample(i, TemplateKind::Dashboard, &ts, &mut rng).latent_factor())
            .collect();
        assert!(factors.iter().all(|&f| f > 0.0 && f.is_finite()));
        let min = factors.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = factors.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max / min > 3.0,
            "latent factors should spread widely: {min}..{max}"
        );
    }

    #[test]
    fn table_sampling_plausible() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let t = TableState::sample(&mut rng);
            assert!(t.rows_at_t0 >= 1e4 && t.rows_at_t0 <= 1e9);
            assert!(t.width >= 16.0 && t.width <= 512.0);
            assert!(t.true_rows(86_400.0) >= t.rows_at_t0);
        }
    }
}
