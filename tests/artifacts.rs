//! Artefact-lifecycle integration tests: export a workload log, re-ingest
//! it, replay it, persist the trained models, reload them, and verify the
//! reloaded predictor behaves identically — the full offline pipeline the
//! paper's fleet sweep implies.

use stage::core::{
    CacheConfig, CacheMode, ExecTimeCache, ExecTimePredictor, StageConfig, StagePredictor,
    SystemContext,
};
use stage::plan::parse_explain;
use stage::workload::{read_jsonl, write_jsonl, FleetConfig, InstanceWorkload};

fn workload() -> InstanceWorkload {
    InstanceWorkload::generate(
        &FleetConfig {
            n_instances: 1,
            duration_days: 0.5,
            max_events_per_instance: 500,
            ..FleetConfig::tiny()
        },
        0,
    )
}

#[test]
fn exported_log_replays_identically() {
    let w = workload();
    let mut buf = Vec::new();
    write_jsonl(&w.events, &mut buf).unwrap();
    let reloaded = read_jsonl(buf.as_slice()).unwrap();
    assert_eq!(reloaded.len(), w.events.len());

    let run = |events: &[stage::workload::QueryEvent]| -> Vec<f64> {
        let mut p = StagePredictor::new(StageConfig::default());
        events
            .iter()
            .map(|e| {
                let sys = SystemContext {
                    features: w.spec.system_features(e.concurrency),
                };
                let pred = p.predict(&e.plan, &sys).exec_secs;
                p.observe(&e.plan, &sys, e.true_exec_secs);
                pred
            })
            .collect()
    };
    assert_eq!(run(&w.events), run(&reloaded));
}

#[test]
fn persisted_cache_resumes_mid_replay() {
    let w = workload();
    let split = w.events.len() / 2;

    // Run the first half, checkpoint the cache, reload, continue: the
    // reloaded cache must predict exactly like the uninterrupted one.
    let mut cache = ExecTimeCache::new(CacheConfig::default());
    for e in &w.events[..split] {
        cache.record(ExecTimeCache::key_of(&e.plan), e.true_exec_secs);
    }
    let text = serde_json::to_string(&cache).unwrap();
    let mut resumed: ExecTimeCache = serde_json::from_str(&text).unwrap();

    for e in &w.events[split..] {
        let key = ExecTimeCache::key_of(&e.plan);
        assert_eq!(cache.lookup(key), resumed.lookup(key));
        cache.record(key, e.true_exec_secs);
        resumed.record(key, e.true_exec_secs);
    }
    assert_eq!(cache.len(), resumed.len());
}

#[test]
fn explain_text_round_trips_through_parser() {
    // Every generated plan must survive explain -> parse (the offline
    // log-shipping format). Estimates are rounded by the text format, so
    // compare structure and operator sequences.
    let w = workload();
    for e in w.events.iter().step_by(17) {
        let text = e.plan.explain();
        let parsed = parse_explain(&text).expect("generated plans must parse");
        assert_eq!(parsed.node_count(), e.plan.node_count());
        assert_eq!(parsed.query_type, e.plan.query_type);
        let ops_a: Vec<_> = e.plan.iter_preorder().map(|n| n.op).collect();
        let ops_b: Vec<_> = parsed.iter_preorder().map(|n| n.op).collect();
        assert_eq!(ops_a, ops_b);
    }
}

#[test]
fn holt_cache_mode_works_through_stage() {
    let mut cfg = StageConfig::default();
    cfg.cache.mode = CacheMode::Holt {
        level_alpha: 0.7,
        trend_beta: 0.3,
    };
    let mut p = StagePredictor::new(cfg);
    let sys = SystemContext::empty(1);
    let plan = stage::plan::PlanBuilder::select()
        .scan("t", stage::plan::S3Format::Local, 1e5, 64.0)
        .finish();
    // Steadily growing exec-times (table growth): Holt stays close.
    for i in 0..15 {
        p.observe(&plan, &sys, 10.0 + i as f64);
    }
    let pred = p.predict(&plan, &sys);
    assert!(
        pred.exec_secs > 23.0,
        "trend-aware cache should extrapolate: {}",
        pred.exec_secs
    );
}
