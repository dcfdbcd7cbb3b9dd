//! Shared replay collection: every evaluation instance replayed through
//! the Stage predictor and the AutoWLM baseline. Every table/figure
//! experiment slices this data. The component records (Tables 3–6,
//! Figs. 10–11) are what the tiers of the *replayed* Stage predictor would
//! each have answered ([`ablation_replay`]: one pass, one salted predictor,
//! read two ways) — not a second model of it.

use crate::context::ExperimentContext;
use crate::replay::{ablation_replay, replay, AblationRecord, ReplayRecord};
use stage_core::RoutingStats;

/// Everything recorded for one evaluation instance.
#[derive(Debug, Clone)]
pub struct InstanceData {
    /// Instance id.
    pub id: u32,
    /// Stage predictor replay (with the global model when collected with
    /// `with_global = true`).
    pub stage: Vec<ReplayRecord>,
    /// Stage replay *without* the global model — the configuration
    /// deployed in production (paper §5.2: cache + local model only).
    pub stage_deployed: Vec<ReplayRecord>,
    /// AutoWLM baseline replay over the same events.
    pub auto: Vec<ReplayRecord>,
    /// Component-wise predictions over the same events.
    pub ablation: Vec<AblationRecord>,
    /// Stage routing counters.
    pub stage_stats: RoutingStats,
}

/// The full collected dataset.
#[derive(Debug, Clone)]
pub struct Collected {
    /// Per evaluation instance, by id order.
    pub instances: Vec<InstanceData>,
    /// Whether the global model participated.
    pub with_global: bool,
}

impl Collected {
    /// Total number of replayed queries.
    pub fn total_queries(&self) -> usize {
        self.instances.iter().map(|i| i.stage.len()).sum()
    }

    /// Flattens `(actual, stage_pred, auto_pred)` across instances. Stage
    /// predictions are those of the *deployed* configuration (cache + local
    /// model) — the paper reports global-model regressions and ships Stage
    /// without it (§5.2); the global model is evaluated separately in
    /// Tables 5–6.
    pub fn flat_predictions(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut actual = Vec::with_capacity(self.total_queries());
        let mut stage = Vec::with_capacity(self.total_queries());
        let mut auto = Vec::with_capacity(self.total_queries());
        for inst in &self.instances {
            for (s, a) in inst.stage_deployed.iter().zip(&inst.auto) {
                actual.push(s.actual_secs);
                stage.push(s.predicted_secs);
                auto.push(a.predicted_secs);
            }
        }
        (actual, stage, auto)
    }
}

/// Replays every evaluation instance with all predictors. Trains the global
/// model first when `with_global` is set.
///
/// Instances are replayed shard-parallel: each worker streams its own
/// workload and owns its predictors; only the (immutable) global model is
/// shared. Results carry their instance id and come back in id order, so
/// the output is identical to the sequential loop at any thread count.
pub fn collect(ctx: &ExperimentContext, with_global: bool) -> Collected {
    if with_global {
        ctx.global_model(); // trained here, once; the workers share it
    }
    let instances = ctx.replayer().run(ctx.n_eval(), |shard| {
        let id = shard as u32;
        let workload = ctx.eval_instance(id);

        let mut stage_predictor = if with_global {
            ctx.stage_predictor_for(id)
        } else {
            ctx.stage_predictor_no_global_for(id)
        };
        let (stage, ablation) = ablation_replay(&workload, &mut stage_predictor);

        let stage_deployed = if with_global {
            replay(&workload, &mut ctx.stage_predictor_no_global_for(id))
        } else {
            stage.clone()
        };

        let auto = replay(&workload, &mut ctx.autowlm_predictor_for(id));

        InstanceData {
            id,
            stage,
            stage_deployed,
            auto,
            ablation,
            stage_stats: stage_predictor.stats(),
        }
    });
    Collected {
        instances,
        with_global,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::context::HarnessConfig;
    use stage_workload::FleetConfig;

    pub(crate) fn tiny_context() -> ExperimentContext {
        let mut cfg = HarnessConfig::quick();
        cfg.eval_fleet = FleetConfig {
            n_instances: 2,
            duration_days: 0.5,
            max_events_per_instance: 400,
            ..FleetConfig::tiny()
        };
        cfg.n_train_instances = 2;
        cfg.samples_per_train_instance = 40;
        cfg.global.epochs = 2;
        cfg.global.hidden = 8;
        cfg.global.gcn_layers = 1;
        cfg.stage.local.ensemble.n_members = 3;
        cfg.stage.local.ensemble.n_estimators = 12;
        cfg.autowlm.n_estimators = 12;
        cfg.out_dir = std::env::temp_dir().join("stage-bench-test");
        ExperimentContext::new(cfg)
    }

    #[test]
    fn collect_aligns_all_replays() {
        let ctx = tiny_context();
        let c = collect(&ctx, false);
        assert_eq!(c.instances.len(), 2);
        for inst in &c.instances {
            assert_eq!(inst.stage.len(), inst.auto.len());
            assert_eq!(inst.stage.len(), inst.ablation.len());
            // One predictor read two ways: Table 3's hits are its cache answers.
            let hits = inst.ablation.iter().filter(|r| r.is_cache_hit()).count();
            assert_eq!(hits as u64, inst.stage_stats.cache);
            for ((s, a), ab) in inst.stage.iter().zip(&inst.auto).zip(&inst.ablation) {
                assert_eq!(s.actual_secs, a.actual_secs);
                assert_eq!(s.actual_secs, ab.actual_secs);
            }
        }
        let (actual, stage, auto) = c.flat_predictions();
        assert_eq!(actual.len(), c.total_queries());
        assert_eq!(stage.len(), auto.len());
    }
}
