//! Sequential query replay (the paper's evaluation protocol, §5.1):
//! "on each cluster, we replay all the queries sequentially based on their
//! logged execution start time" — predict first, then reveal the logged
//! exec-time to the predictor.

use serde::{Deserialize, Serialize};
use stage_core::{
    from_log_space, plan_to_tree_sample, ExecTimePredictor, PredictionSource, StagePredictor,
    SystemContext,
};
use stage_workload::{InstanceWorkload, QueryEvent};

/// One replayed query: what happened and what was predicted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayRecord {
    /// Arrival time in seconds since replay start.
    pub arrival_secs: f64,
    /// Logged true exec-time.
    pub actual_secs: f64,
    /// Prediction made *before* execution.
    pub predicted_secs: f64,
    /// Stage of the hierarchy (or baseline) that produced the prediction.
    pub source: PredictionSource,
}

/// Replays an instance workload through a predictor, returning one record
/// per query in arrival order.
pub fn replay(
    workload: &InstanceWorkload,
    predictor: &mut dyn ExecTimePredictor,
) -> Vec<ReplayRecord> {
    replay_with(workload, predictor, |_, _, _| {})
}

/// The one replay loop: per event `before` (a read-only look at the
/// predictor), then predict, then observe.
fn replay_with<P: ExecTimePredictor + ?Sized>(
    workload: &InstanceWorkload,
    predictor: &mut P,
    mut before: impl FnMut(&P, &QueryEvent, &SystemContext),
) -> Vec<ReplayRecord> {
    let mut out = Vec::with_capacity(workload.events.len());
    for event in &workload.events {
        let sys = SystemContext {
            features: workload.spec.system_features(event.concurrency),
        };
        before(predictor, event, &sys);
        let p = predictor.predict(&event.plan, &sys);
        predictor.observe(&event.plan, &sys, event.true_exec_secs);
        out.push(ReplayRecord {
            arrival_secs: event.arrival_secs,
            actual_secs: event.true_exec_secs,
            predicted_secs: p.exec_secs,
            source: p.source,
        });
    }
    out
}

/// Side-by-side component predictions for one query — the raw material of
/// the paper's ablation tables (Tables 3–6) and uncertainty figures
/// (Figs. 10–11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationRecord {
    /// Arrival time.
    pub arrival_secs: f64,
    /// Logged true exec-time.
    pub actual_secs: f64,
    /// Exec-time cache prediction (`None` on a miss).
    pub cache_secs: Option<f64>,
    /// Local-model point prediction (`None` before first training).
    pub local_secs: Option<f64>,
    /// Local-model total log-space std (the routing uncertainty measure).
    pub local_log_std: Option<f64>,
    /// Local-model first-order std in seconds (the PRR ranking measure).
    pub local_secs_std: Option<f64>,
    /// Global-model prediction (`None` when no global model supplied).
    pub global_secs: Option<f64>,
}

impl AblationRecord {
    /// Whether the exec-time cache would have served this query.
    pub fn is_cache_hit(&self) -> bool {
        self.cache_secs.is_some()
    }
}

/// [`replay`] through a Stage predictor that also records, before every
/// query, what *each* of its tiers would answer
/// ([`StagePredictor::tier_answers`]) — not just the tier the router picks
/// — so component accuracies can be compared on identical query subsets.
/// Both records come off the one predictor: a cache hit in one is a
/// `Cache`-sourced answer in the other, and a `Local`-sourced answer is the
/// other's `local_secs`, bit for bit.
pub fn ablation_replay(
    workload: &InstanceWorkload,
    predictor: &mut StagePredictor,
) -> (Vec<ReplayRecord>, Vec<AblationRecord>) {
    let mut tiers = Vec::with_capacity(workload.events.len());
    let routed = replay_with(workload, predictor, |p, event, sys| {
        let t = p.tier_answers(&event.plan, sys);
        tiers.push(AblationRecord {
            arrival_secs: event.arrival_secs,
            actual_secs: event.true_exec_secs,
            cache_secs: t.cache,
            local_secs: t.local.map(|l| from_log_space(l.mean)),
            local_log_std: t.local.map(|l| l.std_dev()),
            local_secs_std: t.local.map(|l| from_log_space(l.mean) * l.std_dev()),
            global_secs: t.global,
        });
    });
    (routed, tiers)
}

/// Builds GCN training samples from an instance's events, sub-sampled to at
/// most `max_samples` queries *stratified by duration*: long queries are
/// rare but the global model must learn them (it is consulted exactly when
/// the local model suspects a long query), so each duration bucket gets a
/// share of the budget before the short-query flood fills the rest.
pub fn training_samples(
    workload: &InstanceWorkload,
    max_samples: usize,
) -> Vec<stage_nn::TreeSample> {
    use stage_metrics::ExecTimeBucket;
    let n = workload.events.len();
    if n == 0 || max_samples == 0 {
        return Vec::new();
    }
    // Partition event indices by duration bucket.
    let mut strata: [Vec<usize>; 5] = Default::default();
    for (i, e) in workload.events.iter().enumerate() {
        let b = ExecTimeBucket::ALL
            .iter()
            .position(|&x| x == ExecTimeBucket::of(e.true_exec_secs))
            .expect("bucket");
        strata[b].push(i);
    }
    // Long buckets first, each capped at an eighth of the budget (so the
    // four long buckets can take at most half); the short bucket — the
    // regime the model most often predicts in — fills the rest.
    let mut chosen = Vec::with_capacity(max_samples.min(n));
    for b in (1..5).rev() {
        let cap = (max_samples / 8).max(1);
        take_evenly(&strata[b], cap, &mut chosen);
        if chosen.len() >= max_samples {
            break;
        }
    }
    let remaining = max_samples.saturating_sub(chosen.len());
    take_evenly(&strata[0], remaining, &mut chosen);
    chosen.truncate(max_samples);

    chosen
        .into_iter()
        .map(|i| {
            let event = &workload.events[i];
            let sys = SystemContext {
                features: workload.spec.system_features(event.concurrency),
            };
            plan_to_tree_sample(&event.plan, &sys, event.true_exec_secs)
        })
        .collect()
}

/// Pushes up to `cap` evenly spaced elements of `from` into `into`.
fn take_evenly(from: &[usize], cap: usize, into: &mut Vec<usize>) {
    if from.is_empty() || cap == 0 {
        return;
    }
    let step = (from.len() as f64 / cap as f64).max(1.0);
    let mut pos = 0.0;
    let mut taken = 0usize;
    while (pos as usize) < from.len() && taken < cap {
        into.push(from[pos as usize]);
        taken += 1;
        pos += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stage_core::{AutoWlmConfig, AutoWlmPredictor, LocalModelConfig, StageConfig};
    use stage_gbdt::EnsembleParams;
    use stage_workload::FleetConfig;

    fn quick_local() -> LocalModelConfig {
        LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: 3,
                n_estimators: 15,
                seed: 3,
            },
            min_train_examples: 25,
            retrain_interval: 150,
        }
    }

    fn workload() -> InstanceWorkload {
        InstanceWorkload::generate(&FleetConfig::tiny(), 0)
    }

    #[test]
    fn replay_covers_every_event_in_order() {
        let w = workload();
        let mut stage = StagePredictor::new(StageConfig {
            local: quick_local(),
            ..StageConfig::default()
        });
        let records = replay(&w, &mut stage);
        assert_eq!(records.len(), w.events.len());
        for (r, e) in records.iter().zip(&w.events) {
            assert_eq!(r.arrival_secs, e.arrival_secs);
            assert_eq!(r.actual_secs, e.true_exec_secs);
            assert!(r.predicted_secs >= 0.0);
        }
        // Repeats exist in the tiny fleet, so the cache must fire.
        assert!(stage.stats().cache > 0);
    }

    #[test]
    fn autowlm_replay_works() {
        let w = workload();
        let mut auto = AutoWlmPredictor::new(AutoWlmConfig::default());
        let records = replay(&w, &mut auto);
        assert_eq!(records.len(), w.events.len());
        // First predictions are cold-start defaults.
        assert_eq!(records[0].source, PredictionSource::Default);
    }

    #[test]
    fn ablation_records_are_the_replayed_predictors_own_answers() {
        for id in 0..2u32 {
            let w = InstanceWorkload::generate(&FleetConfig::tiny(), id);
            // Instance 1 logs 26 queries: train early, refit often.
            let salted = || {
                let mut p = StagePredictor::new(StageConfig {
                    local: LocalModelConfig {
                        min_train_examples: 10,
                        retrain_interval: 5,
                        ..quick_local()
                    },
                    ..StageConfig::default()
                });
                p.set_instance_salt(u64::from(id));
                p
            };
            // Asking every tier first changes nothing about the replay.
            let plain = replay(&w, &mut salted());
            let (routed, tiers) = ablation_replay(&w, &mut salted());
            assert_eq!(routed, plain);
            assert_eq!(tiers.len(), w.events.len());
            // Whatever tier answered, the side-by-side record holds that
            // answer; a cache hit there is a `Cache` answer here.
            let (mut hits, mut locals) = (0, 0);
            for (r, t) in plain.iter().zip(&tiers) {
                assert_eq!(t.is_cache_hit(), r.source == PredictionSource::Cache);
                let own = match r.source {
                    PredictionSource::Cache => t.cache_secs,
                    PredictionSource::Local => t.local_secs,
                    _ => continue,
                };
                assert_eq!(own.map(f64::to_bits), Some(r.predicted_secs.to_bits()));
                hits += usize::from(t.is_cache_hit());
                locals += usize::from(!t.is_cache_hit());
            }
            assert!(
                hits > 0 && locals > 0,
                "vacuous: {hits} hits, {locals} local"
            );
            // No global attached -> no global answers; local ones carry
            // their uncertainty.
            assert!(tiers.iter().all(|t| t.global_secs.is_none()));
            let trained = tiers.iter().filter(|t| t.local_secs.is_some());
            assert!(trained.clone().all(|t| t.local_log_std.unwrap() >= 0.0));
        }
    }

    #[test]
    fn training_samples_subsample_evenly() {
        let w = workload();
        let all = training_samples(&w, usize::MAX);
        assert_eq!(all.len(), w.events.len());
        let some = training_samples(&w, 10);
        assert!(some.len() <= 10);
        assert!(!some.is_empty());
        for s in &some {
            assert!(s.validate().is_ok());
        }
        assert!(training_samples(&w, 0).is_empty());
    }
}
