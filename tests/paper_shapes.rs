//! Shape tests: the qualitative results the paper reports must hold on the
//! synthetic fleet. These are the "does the reproduction reproduce"
//! assertions — statistical, so they run on moderately sized workloads with
//! generous margins.

use stage::metrics::ExecTimeBucket;
use stage::workload::stats::{daily_unique_fraction, repeat_fraction};
use stage::workload::{FleetConfig, InstanceWorkload};
use stage_bench::replay::{ablation_replay, replay};
use stage_core::{AutoWlmConfig, AutoWlmPredictor, StageConfig, StagePredictor};

fn fleet_config() -> FleetConfig {
    FleetConfig {
        n_instances: 3,
        duration_days: 1.5,
        max_events_per_instance: 3_000,
        ..FleetConfig::default()
    }
}

#[test]
fn fleet_repeat_rate_in_paper_band() {
    // Paper Fig. 1a: >60% of queries repeat within 24 h on average.
    let cfg = fleet_config();
    let mut repeats = 0.0;
    let mut total = 0.0;
    for id in 0..cfg.n_instances as u32 {
        let w = InstanceWorkload::generate(&cfg, id);
        if let Some(r) = repeat_fraction(&w.events) {
            repeats += r * w.events.len() as f64;
            total += w.events.len() as f64;
        }
    }
    let rate = repeats / total;
    assert!(
        (0.40..=0.90).contains(&rate),
        "fleet repeat rate {rate} outside the plausible band around the paper's 60%"
    );
}

#[test]
fn latency_distribution_spans_orders_of_magnitude() {
    // Paper Fig. 1b / Table 1: most queries < 10 s, a meaningful 10–60 s
    // band, and a long tail beyond 60 s.
    let cfg = fleet_config();
    let mut buckets = [0usize; 5];
    let mut total = 0usize;
    for id in 0..cfg.n_instances as u32 {
        let w = InstanceWorkload::generate(&cfg, id);
        for e in &w.events {
            let b = ExecTimeBucket::ALL
                .iter()
                .position(|&x| x == ExecTimeBucket::of(e.true_exec_secs))
                .expect("bucket");
            buckets[b] += 1;
            total += 1;
        }
    }
    let frac = |i: usize| buckets[i] as f64 / total as f64;
    assert!(frac(0) > 0.7, "short bucket should dominate: {:?}", buckets);
    assert!(
        frac(1) > 0.01,
        "10-60s band must carry real mass: {:?}",
        buckets
    );
    assert!(
        buckets[2] + buckets[3] + buckets[4] > 0,
        "long tail must exist: {:?}",
        buckets
    );
}

#[test]
fn stage_beats_autowlm_at_the_median() {
    // Paper Table 1: Stage's P50 absolute error beats AutoWLM's (driven by
    // the cache's near-optimal repeats).
    let cfg = fleet_config();
    let mut stage_errs = Vec::new();
    let mut auto_errs = Vec::new();
    for id in 0..cfg.n_instances as u32 {
        let w = InstanceWorkload::generate(&cfg, id);
        let mut stage = StagePredictor::new(StageConfig::default());
        for r in replay(&w, &mut stage) {
            stage_errs.push((r.actual_secs - r.predicted_secs).abs());
        }
        let mut auto = AutoWlmPredictor::new(AutoWlmConfig::default());
        for r in replay(&w, &mut auto) {
            auto_errs.push((r.actual_secs - r.predicted_secs).abs());
        }
    }
    let p50 = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    };
    let s = p50(&mut stage_errs);
    let a = p50(&mut auto_errs);
    assert!(s < a, "Stage P50-AE {s} should beat AutoWLM {a}");
}

#[test]
fn uncertainty_ranks_errors_positively() {
    // Paper Fig. 11: the local model's uncertainty correlates with its
    // error (positive PRR on pooled queries).
    let cfg = fleet_config();
    let mut errors = Vec::new();
    let mut uncertainties = Vec::new();
    for id in 0..cfg.n_instances as u32 {
        let w = InstanceWorkload::generate(&cfg, id);
        let mut stage = StagePredictor::new(StageConfig::default());
        let (_, records) = ablation_replay(&w, &mut stage);
        for r in &records {
            if r.is_cache_hit() {
                continue;
            }
            if let (Some(p), Some(u)) = (r.local_secs, r.local_log_std) {
                errors.push((r.actual_secs - p).abs());
                uncertainties.push(u);
            }
        }
    }
    assert!(
        errors.len() > 300,
        "need scored queries, got {}",
        errors.len()
    );
    let prr = stage::metrics::prr_score(&errors, &uncertainties).expect("defined");
    assert!(
        prr > 0.15,
        "uncertainty should rank errors clearly better than random: PRR {prr}"
    );
}

#[test]
fn cache_hit_rate_matches_repeat_rate() {
    // The exec-time cache's hit rate must track the workload's repeat rate
    // (it is the mechanism that exploits it).
    let cfg = fleet_config();
    let w = InstanceWorkload::generate(&cfg, 0);
    let unique = daily_unique_fraction(&w.events).unwrap();
    let mut stage = StagePredictor::new(StageConfig::default());
    let _ = replay(&w, &mut stage);
    let hit_rate = stage.cache().hit_rate();
    // Hit rate ≈ repeat rate (cache capacity is ample for one instance);
    // allow slack for eviction and the 24 h window definition.
    assert!(
        (hit_rate - (1.0 - unique)).abs() < 0.15,
        "hit rate {hit_rate} vs repeat rate {}",
        1.0 - unique
    );
}
