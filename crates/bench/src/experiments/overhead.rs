//! Fig. 9 — inference latency vs memory footprint per predictor component.
//!
//! Latencies are timed with `std::time::Instant`, alongside the memory
//! accounting, so the whole figure regenerates from one command. The local
//! model is timed twice: warm, one row predicted back to back, and cold,
//! with a sweep larger than L2 between calls, which is closer to how a
//! server meets it between other shards' work. The per-tier numbers
//! tracked across commits are the benchmark's
//! `core.predict_ns.{cache,local,global}` (`bash benchmark/run.sh`).

use super::ExperimentReport;
use crate::context::ExperimentContext;
use crate::replay::replay;
use serde_json::json;
use stage_core::{ExecTimePredictor, SystemContext};
use std::time::Instant;

/// Bytes the cold probe sweeps between calls: larger than any L2.
const SWEEP_BYTES: usize = 16 << 20;

/// Median of `n` timed executions of `f`, in microseconds.
fn time_us<F: FnMut()>(n: usize, f: F) -> f64 {
    time_after_us(n, || {}, f)
}

/// Median of `n` timed executions of `f`, each after an untimed
/// `before()`, in microseconds.
#[expect(
    clippy::disallowed_methods,
    reason = "timing is this experiment's output (Fig. 9); it feeds no model or replay"
)]
fn time_after_us(n: usize, mut before: impl FnMut(), mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        before();
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

/// Fig. 9: per-component inference latency (µs) and memory (bytes).
pub fn fig9(ctx: &ExperimentContext) -> ExperimentReport {
    // Warm up predictors on one instance so every component is trained.
    let workload = ctx.eval_instance(0);
    let global = ctx.global_model();
    let mut stage = ctx.stage_predictor();
    let _ = replay(&workload, &mut stage);
    let mut auto = ctx.autowlm_predictor();
    let _ = replay(&workload, &mut auto);

    // Probe queries: one that hits the cache (the last event repeated) and
    // one fresh plan for model inference.
    let probe = workload.events.last().expect("non-empty workload");
    let sys = SystemContext {
        features: workload.spec.system_features(probe.concurrency),
    };

    const REPS: usize = 2_000;
    let cache_us = {
        // The last observed event is cached by construction.
        time_us(REPS, || {
            let _ = stage.predict(&probe.plan, &sys);
        })
    };
    let auto_us = time_us(REPS, || {
        let _ = auto.predict(&probe.plan, &sys);
    });
    // Local model direct inference (bypassing the cache).
    let features = stage_plan::plan_feature_vector(&probe.plan);
    let local_us = time_us(REPS, || {
        let _ = stage.local().predict(features.as_slice());
    });
    let mut sweep = vec![0u8; SWEEP_BYTES];
    let local_cold_us = time_after_us(
        REPS / 4,
        || {
            for line in sweep.iter_mut().step_by(64) {
                *line = line.wrapping_add(1);
            }
            std::hint::black_box(&sweep);
        },
        || {
            let _ = stage.local().predict(features.as_slice());
        },
    );
    let global_us = time_us(200, || {
        let _ = global.predict(&probe.plan, &sys);
    });

    let (cache_b, pool_b, local_b) = stage.size_breakdown();
    let stage_b = stage.approx_size_bytes();
    let auto_b = auto.approx_size_bytes();
    let global_b = global.approx_size_bytes();
    let global_fraction = stage.stats().fraction(stage_core::PredictionSource::Global);

    let text = format!(
        "Fig 9 — inference latency and memory overhead\n\
         component        latency(us)      memory(bytes)\n\
         exec-time cache  {cache_us:>10.2} {cache_b:>17}\n\
         local model      {local_us:>10.2} {local_b:>17}\n\
         local, cold      {local_cold_us:>10.2}    (after a {sweep_mib} MiB sweep)\n\
         global model     {global_us:>10.2} {global_b:>17}\n\
         AutoWLM          {auto_us:>10.2} {auto_b:>17}\n\
         Stage (overall)  {cache_us:>10.2} {stage_b:>17}  (+ training pool {pool_b})\n\
         \nglobal model invoked on {:.1}% of predictions (paper: ~3%)\n\
         Paper's shape: cache ≈ µs; local ≈ 10× AutoWLM; global ≈ 100× others\n\
         (the CPU-scaled global model sits well below 100×: EXPERIMENTS.md caveat 6);\n\
         Stage total memory excludes the global model (deployed as a shared service).\n",
        100.0 * global_fraction,
        sweep_mib = SWEEP_BYTES >> 20,
    );

    let json = json!({
        "latency_us": {
            "cache": cache_us, "local": local_us, "local_cold": local_cold_us,
            "global": global_us, "autowlm": auto_us
        },
        "memory_bytes": {
            "cache": cache_b, "pool": pool_b, "local": local_b,
            "stage_total": stage_b, "autowlm": auto_b, "global": global_b
        },
        "global_invocation_fraction": global_fraction,
    });
    ExperimentReport::new("fig9", text, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::data::tests::tiny_context;

    #[test]
    fn fig9_produces_positive_numbers() {
        let ctx = tiny_context();
        let r = fig9(&ctx);
        for key in ["cache", "local", "local_cold", "global", "autowlm"] {
            assert!(
                r.json["latency_us"][key].as_f64().unwrap() >= 0.0,
                "{key} latency"
            );
        }
        assert!(r.json["memory_bytes"]["stage_total"].as_u64().unwrap() > 0);
    }
}
