//! The paper's step-change scenario (§5.3) against `StagePredictor`
//! directly: per shard, a steady warm-up, then every true execution time
//! ×30 until the drift sentinel latches (every plan is fresh, so the
//! observe that latches is the pool add that retrains), then a recovery
//! tail. A control arm drives the same trace unshifted; any detection there
//! is a false alarm. `tests/serve_integration.rs` proves a served shard
//! answers what this predictor answers, drift retrain included.

use stage::core::{
    ExecTimePredictor, LocalModelConfig, StageConfig, StagePredictor, SystemContext,
};
use stage::gbdt::EnsembleParams;
use stage::metrics::interval_coverage;
use stage::workload::{FleetConfig, InstanceWorkload};

/// Steady warm-up queries before the shift (past the local ensemble's
/// training gate and the sentinel's `min_samples` warm-up).
const STEADY: usize = 80;
/// Post-shift query budget for detection.
const DETECT_BUDGET: usize = 240;
/// Recovery-tail queries after the drift retrain.
const RECOVERY: usize = 120;
const FACTOR: f64 = 30.0;

/// A serving-speed configuration: a small ensemble and a short retrain
/// cadence, so an episode of a few hundred queries crosses several refits.
fn bench_stage_config() -> StageConfig {
    StageConfig {
        local: LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: 4,
                n_estimators: 25,
                seed: 11,
            },
            min_train_examples: 20,
            retrain_interval: 20,
        },
        ..StageConfig::default()
    }
}

/// What one shard's episode measured (errors are mean `|log1p error|`).
#[derive(Debug)]
struct Episode {
    /// Post-shift queries until the sentinel latched.
    detected_after: Option<usize>,
    /// The control arm over the window the shifted arm is judged on: the
    /// shard's error floor.
    steady_err: f64,
    /// Between the shift and the drift retrain.
    pre_err: f64,
    /// Over the recovery tail.
    post_err: f64,
    /// Client-measured coverage of the calibrated intervals in the tail.
    coverage: Option<f64>,
    /// Detections in the control arm.
    false_alarms: u64,
}

impl Episode {
    /// Ends the episode degraded (tail error well above its own floor) with
    /// no detection. An undetected shard whose tail returned to the floor
    /// was handled by the periodic retrain — the other adaptation channel —
    /// and is not a miss: on a heavy-tailed shard the steady residual spread
    /// can swamp even a 30× shift in log space, and the winsorized CUSUM
    /// (correctly) stays quiet. The margin is generous on purpose.
    fn undetected_hurt(&self) -> bool {
        self.detected_after.is_none() && self.post_err > 1.25 * self.steady_err + 0.1
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn log_err(pred: f64, actual: f64) -> f64 {
    (pred.max(0.0).ln_1p() - actual.max(0.0).ln_1p()).abs()
}

fn episode(instance: u32) -> Episode {
    // A multi-day trace so no query repeats within the run: repeats answer
    // from the cache (no variance, no interval) and would blind the
    // coverage measurement.
    let fleet = FleetConfig {
        n_instances: 64,
        duration_days: 30.0,
        seed: 42,
        max_events_per_instance: 4_000,
        ..FleetConfig::tiny()
    };
    let wl = InstanceWorkload::generate(&fleet, instance);
    let query = |i: usize| {
        let event = &wl.events[i % wl.events.len()];
        let sys = SystemContext {
            features: wl.spec.system_features(event.concurrency),
        };
        (&event.plan, sys, event.true_exec_secs)
    };

    let mut control = StagePredictor::new(bench_stage_config());
    let mut steady = Vec::new();
    for i in 0..STEADY + DETECT_BUDGET {
        let (plan, sys, actual) = query(i);
        if i >= STEADY {
            steady.push(log_err(control.predict(plan, &sys).exec_secs, actual));
        }
        control.observe(plan, &sys, actual);
    }

    let mut s = StagePredictor::new(bench_stage_config());
    for i in 0..STEADY {
        let (plan, sys, actual) = query(i);
        s.observe(plan, &sys, actual);
    }
    let (mut pre, mut detected_after) = (Vec::new(), None);
    for i in 0..DETECT_BUDGET {
        let (plan, sys, actual) = query(STEADY + i);
        let actual = actual * FACTOR;
        pre.push(log_err(s.predict(plan, &sys).exec_secs, actual));
        s.observe(plan, &sys, actual);
        if s.drift().detections() > 0 {
            detected_after = Some(i + 1);
            break;
        }
    }
    let (mut post, mut intervals) = (Vec::new(), Vec::new());
    for i in 0..RECOVERY {
        let (plan, sys, actual) = query(STEADY + DETECT_BUDGET + i);
        let actual = actual * FACTOR;
        let p = s.predict(plan, &sys);
        post.push(log_err(p.exec_secs, actual));
        intervals.extend(s.calibrated_interval(&p).map(|(lo, hi)| (actual, lo, hi)));
        s.observe(plan, &sys, actual);
    }

    Episode {
        detected_after,
        steady_err: mean(&steady),
        pre_err: mean(&pre),
        post_err: mean(&post),
        coverage: interval_coverage(&intervals),
        false_alarms: control.drift().detections(),
    }
}

#[test]
fn a_step_change_is_detected_retrained_and_recovered() {
    let nominal = stage::core::drift::TARGET_COVERAGE;
    let shards: Vec<Episode> = (0..2).map(episode).collect();
    let of = |field: fn(&Episode) -> Option<f64>| {
        mean(&shards.iter().filter_map(field).collect::<Vec<_>>())
    };
    let (pre, post) = (of(|e| Some(e.pre_err)), of(|e| Some(e.post_err)));
    let coverage = of(|e| e.coverage);
    println!("log err {pre:.3} -> {post:.3}, coverage {coverage:.3} (nominal {nominal})");
    println!("{shards:#?}");

    assert!(
        !shards.iter().any(Episode::undetected_hurt),
        "a shard was hurt and not detected"
    );
    assert!(
        shards.iter().any(|e| e.detected_after.is_some()),
        "no shard detected the shift"
    );
    assert!(post < pre, "the retrain did not recover: {pre} -> {post}");
    assert!(
        shards.iter().any(|e| e.coverage.is_some()) && coverage >= nominal - 0.02,
        "recovery coverage {coverage} below nominal {nominal}"
    );
    let false_alarms: u64 = shards.iter().map(|e| e.false_alarms).sum();
    assert_eq!(false_alarms, 0, "steady traffic raised a drift alarm");
}
