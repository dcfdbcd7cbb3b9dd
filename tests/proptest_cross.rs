//! Cross-crate property tests: invariants that must hold for *any* plan the
//! builder can produce and any observation sequence the predictor can see.

use proptest::prelude::*;
use stage::core::{
    plan_to_tree_sample, CacheConfig, ExecTimeCache, ExecTimePredictor, GlobalModel,
    GlobalModelConfig, LocalModelConfig, Prediction, StageConfig, StagePredictor, SystemContext,
};
use stage::plan::{
    plan_feature_vector, PhysicalPlan, PlanBuilder, PlanNode, S3Format, CACHE_FEATURE_DIM,
};
use std::sync::Arc;

/// Strategy: a random but well-formed plan.
fn arb_plan() -> impl Strategy<Value = PhysicalPlan> {
    (
        1u32..4, // number of joins
        proptest::collection::vec((1e2f64..1e8, 8f64..512.0), 1..5),
        proptest::bool::ANY, // aggregate?
        proptest::bool::ANY, // sort?
        0usize..4,           // format selector
    )
        .prop_map(|(joins, scans, agg, sort, fmt_i)| {
            let fmt = [
                S3Format::Local,
                S3Format::Parquet,
                S3Format::OpenCsv,
                S3Format::Text,
            ][fmt_i];
            let mut b = PlanBuilder::select();
            let n = scans.len();
            for (rows, width) in &scans {
                b = b.scan("t", fmt, *rows, *width);
            }
            for _ in 1..n.min(joins as usize + 1) {
                b = b.hash_join(0.1);
            }
            // Collapse any leftover scans.
            while b.pending() > 1 {
                b = b.hash_join(0.2);
            }
            if agg {
                b = b.hash_aggregate(0.05);
            }
            if sort {
                b = b.sort();
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn feature_vector_always_33_dims_finite(plan in arb_plan()) {
        let v = plan_feature_vector(&plan);
        prop_assert_eq!(v.dim(), CACHE_FEATURE_DIM);
        prop_assert!(v.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn identical_plan_identical_key(plan in arb_plan()) {
        let a = ExecTimeCache::key_of(&plan);
        let b = ExecTimeCache::key_of(&plan.clone());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn predictions_always_nonnegative_finite(
        plan in arb_plan(),
        observations in proptest::collection::vec(0.001f64..1e4, 0..30),
    ) {
        let mut stage = StagePredictor::new(StageConfig::default());
        let sys = SystemContext::empty(1);
        for &secs in &observations {
            stage.observe(&plan, &sys, secs);
        }
        let p = stage.predict(&plan, &sys);
        prop_assert!(p.exec_secs.is_finite());
        prop_assert!(p.exec_secs >= 0.0);
        if let Some(v) = p.log_variance {
            prop_assert!(v >= 0.0 && v.is_finite());
        }
    }

    #[test]
    fn cache_prediction_bounded_by_observations(
        observations in proptest::collection::vec(0.001f64..1e4, 1..30),
    ) {
        let mut cache = ExecTimeCache::new(CacheConfig::default());
        for &secs in &observations {
            cache.record(42, secs);
        }
        let p = cache.lookup(42).unwrap();
        let lo = observations.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = observations.iter().cloned().fold(0.0f64, f64::max);
        // α-blend of mean and last stays within the observed range.
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    }

    #[test]
    fn explain_mentions_every_node(plan in arb_plan()) {
        let text = plan.explain();
        for node in plan.iter_preorder() {
            prop_assert!(text.contains(node.op.name()));
        }
    }
}

/// Optimizer estimates and system features no sane optimizer reports.
const WILD: [f64; 5] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e308, -1e308];

/// Plan `i` of a family of distinct, ordinary plans.
fn ordinary_plan(i: usize) -> PhysicalPlan {
    let rows = 1e3 * (1 + i % 97) as f64;
    let mut b = PlanBuilder::select().scan("t0", S3Format::Local, rows, 64.0);
    for j in 0..i % 3 {
        b = b
            .scan("tj", S3Format::Parquet, rows / (j + 2) as f64, 48.0)
            .hash_join(0.1);
    }
    if i.is_multiple_of(2) {
        b = b.hash_aggregate(0.05);
    }
    b.finish()
}

/// Plan `i` with some node's `est_cost` or `est_rows` (or both) replaced
/// by a [`WILD`] value, a different node and value for each `i`.
fn wild_plan(i: usize) -> PhysicalPlan {
    fn walk(node: &mut PlanNode, at: &mut usize, i: usize) {
        let wild = WILD[(i + *at) % WILD.len()];
        match (i + *at) % 4 {
            0 => node.est_cost = wild,
            1 => node.est_rows = wild,
            2 => (node.est_cost, node.est_rows) = (wild, wild),
            _ => {}
        }
        *at += 1;
        for child in &mut node.children {
            walk(child, at, i);
        }
    }
    let mut plan = ordinary_plan(i);
    walk(&mut plan.root, &mut 0, i);
    plan
}

/// Fails unless `p` is finite and non-negative and its calibrated
/// interval, if any, is finite.
fn check(stage: &mut StagePredictor, p: &Prediction, what: &str) {
    assert!(
        p.exec_secs.is_finite() && p.exec_secs >= 0.0,
        "{what}: {p:?}"
    );
    if let Some((lo, hi)) = stage.calibrated_interval(p) {
        assert!(lo.is_finite() && hi.is_finite(), "{what}: [{lo}, {hi}]");
    }
}

/// Plans whose `est_cost` / `est_rows` and system features hold ±∞, NaN
/// and ±1e308 get a finite, non-negative answer from every tier — the
/// cache, a local model that retrains on them and the global model — one
/// at a time and in batches, and every calibrated interval is finite.
#[test]
fn non_finite_estimates_answer_finite_from_every_tier() {
    let calm = SystemContext {
        features: vec![1.0, 0.5],
    };
    let secs = |i: usize| 0.05 * (1 + i % 40) as f64;
    let train: Vec<_> = (0..40)
        .map(|i| plan_to_tree_sample(&ordinary_plan(i), &calm, secs(i)))
        .collect();
    let global = GlobalModel::train(
        &train,
        calm.features.len(),
        &GlobalModelConfig {
            hidden: 8,
            gcn_layers: 2,
            epochs: 3,
            ..GlobalModelConfig::default()
        },
    );
    let config = StageConfig {
        local: LocalModelConfig {
            retrain_interval: 60,
            ..LocalModelConfig::default()
        },
        ..StageConfig::default()
    };
    let mut stage = StagePredictor::with_global(config, Arc::new(global));
    let contexts: Vec<SystemContext> = WILD
        .iter()
        .map(|&w| SystemContext {
            features: vec![w, 0.5],
        })
        .chain([calm.clone()])
        .collect();
    for i in 0..300 {
        let sys = &contexts[i % contexts.len()];
        // Every third plan repeats an earlier one, so the cache answers too.
        let id = if i % 3 == 2 { i / 3 } else { i };
        let plans = [wild_plan(id), ordinary_plan(id)];
        for plan in &plans {
            let p = stage.predict(plan, sys);
            check(
                &mut stage,
                &p,
                &format!("plan {id} under {:?}", sys.features),
            );
            stage.observe(plan, sys, secs(id));
        }
        if i.is_multiple_of(10) {
            for p in stage.predict_batch(&plans, sys) {
                check(
                    &mut stage,
                    &p,
                    &format!("batch {id} under {:?}", sys.features),
                );
            }
        }
    }
    let stats = stage.stats();
    assert!(stage.local().trainings() >= 3, "{stats:?}");
    assert!(
        stats.cache > 0 && stats.local > 0 && stats.global > 0,
        "{stats:?}"
    );
}
