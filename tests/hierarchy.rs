//! Cross-crate integration tests: the full Stage hierarchy (plan →
//! featurization → cache → local ensemble → global GCN) wired together over
//! the synthetic fleet, exercising the paper's §4 routing semantics.

use stage::core::{
    ExecTimePredictor, LocalModelConfig, PredictionSource, StageConfig, StagePredictor,
    SystemContext,
};
use stage::gbdt::EnsembleParams;
use stage::plan::{PlanBuilder, S3Format};
use stage::workload::{FleetConfig, InstanceWorkload};
use stage_bench::replay::replay;

fn quick_stage_config() -> StageConfig {
    StageConfig {
        local: LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: 4,
                n_estimators: 20,
                seed: 9,
            },
            min_train_examples: 25,
            retrain_interval: 200,
        },
        ..StageConfig::default()
    }
}

fn tiny_fleet_instance(id: u32) -> InstanceWorkload {
    InstanceWorkload::generate(
        &FleetConfig {
            n_instances: 1,
            duration_days: 1.0,
            max_events_per_instance: 1_200,
            ..FleetConfig::default()
        },
        id,
    )
}

#[test]
fn full_replay_routes_through_cache_and_local() {
    let workload = tiny_fleet_instance(0);
    let mut stage = StagePredictor::new(quick_stage_config());
    let records = replay(&workload, &mut stage);
    assert_eq!(records.len(), workload.events.len());

    let stats = stage.stats();
    assert!(stats.cache > 0, "repeats must hit the cache");
    assert!(stats.local > 0, "ad-hoc misses must reach the local model");
    assert_eq!(stats.total() as usize, records.len());

    // Cache-hit fraction in a plausible band for a dashboard-heavy instance.
    let cache_frac = stats.fraction(PredictionSource::Cache);
    assert!(
        (0.2..=0.95).contains(&cache_frac),
        "cache fraction {cache_frac}"
    );
    for r in &records {
        assert!(r.predicted_secs.is_finite() && r.predicted_secs >= 0.0);
    }
}

#[test]
fn cache_beats_autowlm_on_repeating_queries() {
    // The paper's Table 3 claim, end to end: on queries the cache serves,
    // cache error < AutoWLM error (the model trains on what the cache knows
    // exactly).
    let workload = tiny_fleet_instance(1);
    let mut stage = StagePredictor::new(quick_stage_config());
    let stage_records = replay(&workload, &mut stage);
    let mut auto = stage::core::AutoWlmPredictor::new(stage::core::AutoWlmConfig::default());
    let auto_records = replay(&workload, &mut auto);

    let mut cache_err = 0.0;
    let mut auto_err = 0.0;
    let mut n = 0usize;
    for (s, a) in stage_records.iter().zip(&auto_records) {
        if s.source == PredictionSource::Cache {
            cache_err += (s.actual_secs - s.predicted_secs).abs();
            auto_err += (a.actual_secs - a.predicted_secs).abs();
            n += 1;
        }
    }
    assert!(n > 50, "need a meaningful cache-hit subset, got {n}");
    assert!(
        cache_err < auto_err,
        "cache MAE {} should beat AutoWLM {} on hits",
        cache_err / n as f64,
        auto_err / n as f64
    );
}

#[test]
fn deterministic_end_to_end() {
    let workload = tiny_fleet_instance(2);
    let run = || {
        let mut stage = StagePredictor::new(quick_stage_config());
        replay(&workload, &mut stage)
            .iter()
            .map(|r| r.predicted_secs)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn observing_identical_plans_from_different_builders_hits_cache() {
    // Plans constructed independently but identically must collide on the
    // cache key (the repeat-detection property everything rests on).
    let build = || {
        PlanBuilder::select()
            .scan("web_sales", S3Format::Local, 250_000.0, 96.0)
            .scan("date_dim", S3Format::Local, 2_000.0, 32.0)
            .hash_join(0.15)
            .hash_aggregate(0.01)
            .top_sort(100.0)
            .finish()
    };
    let sys = SystemContext::empty(3);
    let mut stage = StagePredictor::new(quick_stage_config());
    stage.observe(&build(), &sys, 4.2);
    let p = stage.predict(&build(), &sys);
    assert_eq!(p.source, PredictionSource::Cache);
    assert!((p.exec_secs - 4.2).abs() < 1e-9);
}

#[test]
fn confidence_intervals_cover_the_truth_reasonably() {
    // Calibration smoke test: replay an instance, collect local-model
    // predictions with intervals, and check the 95% interval covers the
    // truth for a majority of queries (perfect calibration would be 95%;
    // we assert a loose lower bound).
    let workload = tiny_fleet_instance(3);
    let mut stage = StagePredictor::new(quick_stage_config());
    let mut covered = 0usize;
    let mut total = 0usize;
    for event in &workload.events {
        let sys = SystemContext {
            features: workload.spec.system_features(event.concurrency),
        };
        let p = stage.predict(&event.plan, &sys);
        if let Some((lo, hi)) = p.confidence_interval(1.96) {
            total += 1;
            if (lo..=hi).contains(&event.true_exec_secs) {
                covered += 1;
            }
        }
        stage.observe(&event.plan, &sys, event.true_exec_secs);
    }
    assert!(total > 100, "need interval predictions, got {total}");
    let coverage = covered as f64 / total as f64;
    assert!(
        coverage > 0.5,
        "95% intervals should cover the truth most of the time, got {coverage:.2}"
    );
}
