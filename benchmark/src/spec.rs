//! The one spec type every run is driven from — full, smoke and traced.
//!
//! A workload is a traffic mix chosen to put the work on particular
//! layers; the knobs are the properties Stage's behaviour depends on:
//! share of repeated plans, working-set size against the 2 000-entry
//! exec-time cache, shard count and age, and request batching.

use serde::Serialize;
use stage_core::PredictionSource;

/// How the timed work is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Mode {
    /// Closed-loop clients over TCP against an in-process `Server`.
    Served,
    /// `predict` then `observe` on a `StagePredictor`, no sockets.
    Inproc,
}

/// Share of answers a tier must give for the run to count as the workload
/// it claims to be.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TierMix {
    pub source: PredictionSource,
    pub min_share: f64,
    pub max_share: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why this workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub mode: Mode,
    /// Served: shards hosted. Inproc: instances replayed.
    pub shards: u32,
    /// Fixed-parameter (dashboard/report) plans per shard, observed once
    /// in set-up and then repeated.
    pub hot_set: usize,
    /// Unique ad-hoc plans per corpus, scanned cyclically.
    pub fresh_set: usize,
    /// Queries drawn from the hot set, per thousand.
    pub repeat_permille: u32,
    /// Fresh plans observed per shard in set-up, after the hot set.
    pub warmup_observes: usize,
    /// Plans per Predict request: 1 uses `Predict`, more use `PredictBatch`.
    pub batch: usize,
    /// Round trips a shard may receive; 0 is unbounded.
    pub max_per_shard: usize,
    /// Serve with a fleet-trained global model mapped.
    pub global_model: bool,
    /// Queries per client over which `rel_log_err` is taken. The timed
    /// window never ends before them, so the metric repeats for a seed
    /// whatever the host's speed.
    pub accuracy_prefix: usize,
    /// Queries per shard that the full in-process oracle replays.
    pub oracle_prefix: usize,
    /// Operations (requests, or replayed events) in the traced run.
    pub traced_ops: usize,
    /// Measure snapshot save / restore after the traced run.
    pub measure_store: bool,
    pub expect: Option<TierMix>,
}

/// Shards the full oracle replays; the rest are covered by the stateless
/// checks (cache mirror, global-model sample).
pub const ORACLE_SHARDS: u32 = 2;

const fn tier(source: PredictionSource, min_share: f64, max_share: f64) -> Option<TierMix> {
    Some(TierMix {
        source,
        min_share,
        max_share,
    })
}

pub fn all() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "hit_heavy",
            why: "Every plan repeats from a 1500-plan hot set below cache capacity: socket, framing, plan decode and hashing do the work, so wire and hit-path changes show here.",
            mode: Mode::Served,
            shards: 2,
            hot_set: 1_500,
            fresh_set: 0,
            repeat_permille: 1_000,
            warmup_observes: 0,
            batch: 1,
            max_per_shard: 0,
            global_model: false,
            accuracy_prefix: 30_000,
            oracle_prefix: 10_000,
            traced_ops: 8_000,
            measure_store: false,
            expect: tier(PredictionSource::Cache, 0.99, 1.0),
        },
        WorkloadSpec {
            name: "miss_heavy",
            why: "8000 unique ad-hoc plans per shard, 4x cache capacity: every Predict is a local-model answer and every Observe feeds the pool, so ensemble walk and retraining dominate.",
            mode: Mode::Served,
            shards: 2,
            hot_set: 0,
            fresh_set: 8_000,
            repeat_permille: 0,
            warmup_observes: 300,
            batch: 1,
            max_per_shard: 0,
            global_model: false,
            accuracy_prefix: 2_000,
            oracle_prefix: 700,
            traced_ops: 2_400,
            measure_store: true,
            expect: tier(PredictionSource::Local, 0.99, 1.0),
        },
        WorkloadSpec {
            name: "global_heavy",
            why: "3000 young shards that never reach the local model's training threshold: every Predict falls through to the global GCN, the paper's new-cluster case, with thousands of live shards.",
            mode: Mode::Served,
            shards: 3_000,
            hot_set: 0,
            fresh_set: 8_000,
            repeat_permille: 0,
            warmup_observes: 0,
            batch: 1,
            max_per_shard: 24,
            global_model: true,
            accuracy_prefix: 6_000,
            oracle_prefix: 24,
            traced_ops: 3_000,
            measure_store: false,
            expect: tier(PredictionSource::Global, 1.0, 1.0),
        },
        WorkloadSpec {
            name: "batch64",
            why: "PredictBatch of 64 plans at the fleet's 60% repeat rate, then 64 Observes: one frame, one lock scope and the flat-forest batch walk, so scalar-path gains that tax the batch path show.",
            mode: Mode::Served,
            shards: 2,
            hot_set: 400,
            fresh_set: 8_000,
            repeat_permille: 600,
            warmup_observes: 0,
            batch: 64,
            max_per_shard: 0,
            global_model: false,
            accuracy_prefix: 3_200,
            oracle_prefix: 1_280,
            traced_ops: 60,
            measure_store: false,
            expect: tier(PredictionSource::Cache, 0.58, 0.62),
        },
        WorkloadSpec {
            name: "replay_inproc",
            why: "The paper-reproduction replay with no sockets: predict then observe on StagePredictor over default-mix instances. Accuracy anchor, and the bypass workload for every serve change.",
            mode: Mode::Inproc,
            shards: 16,
            hot_set: 0,
            fresh_set: 0,
            repeat_permille: 0,
            warmup_observes: 0,
            batch: 1,
            max_per_shard: 0,
            global_model: true,
            accuracy_prefix: 8_000,
            oracle_prefix: 1_000,
            traced_ops: 3_000,
            measure_store: false,
            expect: None,
        },
    ]
}

pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    /// The same workload at `scale` of its size: the smoke run's 1/50.
    /// Set sizes stay — they define the tier mix — and every operation
    /// count shrinks.
    pub fn scaled(mut self, scale: f64) -> Self {
        let shrink = |n: usize| ((n as f64 * scale).ceil() as usize).max(1);
        self.accuracy_prefix = shrink(self.accuracy_prefix);
        self.oracle_prefix = shrink(self.oracle_prefix);
        self.traced_ops = shrink(self.traced_ops);
        self
    }

    /// Whether local index `i` of a shard's sequence repeats a hot plan.
    /// Bresenham spacing: exactly `repeat_permille`/1000 of any prefix, to
    /// within one query.
    pub fn is_hot(&self, i: usize) -> bool {
        self.hot_before(i + 1) > self.hot_before(i)
    }

    /// Hot queries among a shard's first `i`.
    pub fn hot_before(&self, i: usize) -> usize {
        i * self.repeat_permille as usize / 1_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        let specs = all();
        for (i, a) in specs.iter().enumerate() {
            assert!(
                a.why.len() <= 200,
                "{} why is {} chars",
                a.name,
                a.why.len()
            );
            assert!(!a.why.contains('\n'));
            assert!(specs.iter().skip(i + 1).all(|b| a.name != b.name));
        }
        assert!(by_name("hit_heavy").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn repeat_share_is_within_half_a_percent_of_target() {
        for spec in all() {
            let target = f64::from(spec.repeat_permille) / 1_000.0;
            for n in [1_000usize, 4_096, 40_960] {
                let hot = (0..n).filter(|&i| spec.is_hot(i)).count();
                assert_eq!(hot, spec.hot_before(n));
                let share = hot as f64 / n as f64;
                assert!(
                    (share - target).abs() <= 0.005,
                    "{}: {share} vs {target} over {n}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn smoke_scale_keeps_the_mix_and_shrinks_the_counts() {
        let full = by_name("batch64").unwrap();
        let smoke = full.clone().scaled(0.02);
        assert_eq!(smoke.hot_set, full.hot_set);
        assert_eq!(smoke.repeat_permille, full.repeat_permille);
        assert_eq!(smoke.accuracy_prefix, 64);
        assert_eq!(smoke.traced_ops, 2);
    }
}
