//! Seeded inputs: everything the program under test sees is generated here
//! from `--seed` through `InstanceWorkload::generate`.
//!
//! Dashboard and report templates have fixed parameters, so within one
//! statistics day each fires the same plan every time — the hot set.
//! Ad-hoc templates jitter their parameters, so every execution is a plan
//! the cache has never seen — the fresh set.

use crate::spec::{Mode, WorkloadSpec};
use stage_core::{
    plan_to_tree_sample, ExecTimeCache, GlobalModel, GlobalModelConfig, SystemContext,
};
use stage_plan::PhysicalPlan;
use stage_workload::instance::INSTANCE_FEATURE_DIM;
use stage_workload::{FleetConfig, InstanceWorkload};
use std::collections::HashSet;

/// One query as the admission controller meets it: the plan and system
/// context it asks about, and the exec-time it later reports.
pub struct Query {
    pub plan: PhysicalPlan,
    pub sys: Vec<f64>,
    pub true_secs: f64,
    /// `ExecTimeCache::key_of(&plan)`, computed once in set-up so the
    /// checks after the run need no feature extraction.
    pub key: u64,
}

impl Query {
    pub fn context(&self) -> SystemContext {
        SystemContext {
            features: self.sys.clone(),
        }
    }
}

/// The instance's log as `(arrival, query)` pairs.
fn queries_of(instance: InstanceWorkload) -> Vec<(f64, Query)> {
    let spec = instance.spec;
    instance
        .events
        .into_iter()
        .map(|e| {
            let q = Query {
                key: ExecTimeCache::key_of(&e.plan),
                sys: spec.system_features(e.concurrency),
                true_secs: e.true_exec_secs,
                plan: e.plan,
            };
            (e.arrival_secs, q)
        })
        .collect()
}

/// Seeded Fisher-Yates shuffle (splitmix64 draws).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// Merges several instances' logs into one, in arrival order.
fn merged(mut logs: Vec<(f64, Query)>) -> Vec<Query> {
    logs.sort_by(|a, b| a.0.total_cmp(&b.0));
    logs.into_iter().map(|(_, q)| q).collect()
}

/// The plans one shard (or, on `global_heavy`, one client's shards) draws
/// from.
pub struct Corpus {
    /// Every execution of a hot plan over one day, shuffled, each with its
    /// own noisy exec-time.
    pub hot: Vec<Query>,
    /// Index into `hot` of each hot plan's first execution: the set-up
    /// pass that fills the cache.
    pub hot_first: Vec<usize>,
    /// Unique ad-hoc plans.
    pub fresh: Vec<Query>,
}

/// Instances pooled into one corpus. An instance's schema, cluster and
/// hidden speed factors set its plan sizes and its exec-time scale — and
/// through the duration-bucketed training pool, what a retrain costs — so
/// a corpus cut from one instance would make every metric swing with the
/// seed. Pooled over 32, a seed changes the draws, not the workload.
const POOL: u32 = 32;

/// Seed streams of the generators, kept apart so no corpus shares an
/// instance with another.
const HOT_STREAM: u64 = 0x51A6_E001;
const FRESH_STREAM: u64 = 0x51A6_E002;
const TRAIN_STREAM: u64 = 0x51A6_E003;
const REPLAY_STREAM: u64 = 0x51A6_E004;

fn only(kind_counts: [(usize, usize); 4], days: f64, cap: usize, seed: u64) -> FleetConfig {
    let [dashboards, reports, adhoc, etl] = kind_counts;
    FleetConfig {
        n_instances: 1,
        duration_days: days,
        seed,
        dashboards,
        reports,
        adhoc,
        etl,
        max_events_per_instance: cap,
        ..FleetConfig::default()
    }
}

impl Corpus {
    pub fn generate(spec: &WorkloadSpec, seed: u64, id: u32) -> Self {
        let pooled = |cfg: &FleetConfig| -> Vec<(f64, Query)> {
            (0..POOL)
                .flat_map(|p| queries_of(InstanceWorkload::generate(cfg, id * POOL + p)))
                .collect()
        };
        let mut hot = Vec::new();
        let mut hot_first = Vec::new();
        if spec.hot_set > 0 {
            // A fifth more templates than needed: two templates can land
            // on the same 33-dim vector.
            let per_instance = spec.hot_set.div_ceil(POOL as usize);
            let d = per_instance + per_instance / 5;
            let r = per_instance / 15;
            let cfg = only(
                [(d, d), (r, r), (0, 0), (0, 0)],
                1.0,
                usize::MAX,
                seed ^ HOT_STREAM,
            );
            // A day of arrivals carries the day's load curve, and cycled in
            // a fraction of a second that curve looks like a step change
            // every lap: the drift sentinel fires, and the health loop
            // answers with retrains that stall the shard. The hit-path
            // workloads want stationary repeats, so the order is shuffled.
            let mut all = merged(pooled(&cfg));
            shuffle(&mut all, seed ^ HOT_STREAM);
            let mut set = HashSet::new();
            for q in all {
                let new = !set.contains(&q.key);
                if new && set.len() == spec.hot_set {
                    continue;
                }
                if new {
                    set.insert(q.key);
                    hot_first.push(hot.len());
                }
                hot.push(q);
            }
            assert_eq!(
                hot_first.len(),
                spec.hot_set,
                "generator gave too few fixed plans"
            );
        }
        let mut fresh = Vec::new();
        if spec.fresh_set > 0 {
            // 400 ad-hoc templates fire about 3 000 times a day. A fifth
            // more than needed: jittered parameters do, rarely, collide.
            let per_instance = spec.fresh_set.div_ceil(POOL as usize);
            let want = per_instance + per_instance / 5;
            let cfg = only(
                [(0, 0), (0, 0), (400, 400), (0, 0)],
                want as f64 / 3_000.0,
                want,
                seed ^ FRESH_STREAM,
            );
            let mut seen = HashSet::new();
            fresh = merged(pooled(&cfg));
            fresh.retain(|q| seen.insert(q.key));
            fresh.truncate(spec.fresh_set);
            assert_eq!(
                fresh.len(),
                spec.fresh_set,
                "generator gave too few ad-hoc plans"
            );
        }
        Self {
            hot,
            hot_first,
            fresh,
        }
    }
}

/// Corpora generated per workload: shard `s` draws from `s % CORPORA`.
pub const CORPORA: u32 = 2;

/// A workload's spec plus its generated inputs.
pub struct Workload {
    pub spec: WorkloadSpec,
    /// Served workloads.
    pub corpora: Vec<Corpus>,
    /// `replay_inproc`: one event log per instance.
    pub replay: Vec<Vec<Query>>,
}

impl Workload {
    pub fn generate(spec: &WorkloadSpec, seed: u64) -> Self {
        let (corpora, replay) = match spec.mode {
            Mode::Served => (
                (0..CORPORA.min(spec.shards))
                    .map(|id| Corpus::generate(spec, seed, id))
                    .collect(),
                Vec::new(),
            ),
            // What `stage_bench::replay` is run on: the default template
            // mix, 1.5 days, at most 6 000 events an instance.
            Mode::Inproc => {
                let cfg = FleetConfig {
                    n_instances: spec.shards as usize,
                    duration_days: 1.5,
                    max_events_per_instance: 6_000,
                    seed: seed ^ REPLAY_STREAM,
                    ..FleetConfig::default()
                };
                let logs = (0..spec.shards)
                    .map(|id| merged(queries_of(InstanceWorkload::generate(&cfg, id))))
                    .collect();
                (Vec::new(), logs)
            }
        };
        Self {
            spec: spec.clone(),
            corpora,
            replay,
        }
    }

    fn corpus(&self, shard: u32) -> &Corpus {
        &self.corpora[(shard % CORPORA) as usize]
    }

    /// What set-up observes on `shard` before timing: each hot plan once,
    /// then the warm-up slice of the fresh set.
    pub fn setup_queries(&self, shard: u32) -> impl Iterator<Item = &Query> {
        let c = self.corpus(shard);
        c.hot_first
            .iter()
            .map(|&i| &c.hot[i])
            .chain(c.fresh.iter().take(self.spec.warmup_observes))
    }

    /// The `i`-th timed query of `shard`. Shards sharing a corpus start
    /// `max_per_shard` apart in its fresh set, so on `global_heavy` no two
    /// shards are sent the same plan until the set wraps.
    pub fn query(&self, shard: u32, i: usize) -> &Query {
        let c = self.corpus(shard);
        let hot_before = self.spec.hot_before(i);
        if self.spec.is_hot(i) {
            &c.hot[hot_before % c.hot.len()]
        } else {
            let base = (shard / CORPORA) as usize * self.spec.max_per_shard;
            let at = self.spec.warmup_observes + base + (i - hot_before);
            &c.fresh[at % c.fresh.len()]
        }
    }

    /// Queries a shard can be sent before `max_per_shard` stops it.
    pub fn shard_budget(&self) -> usize {
        match self.spec.max_per_shard {
            0 => usize::MAX,
            n => n,
        }
    }

    /// FNV-1a digest of the keys `shard` is sent: set-up, then the first
    /// `n` timed queries. Same seed, same digest.
    pub fn key_digest(&self, shard: u32, n: usize) -> u64 {
        let timed = (0..n.min(self.shard_budget())).map(|i| self.query(shard, i));
        self.setup_queries(shard)
            .chain(timed)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, q| {
                (h ^ q.key).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

/// Shards client `c` of `clients` owns: a disjoint split, so each shard's
/// request order — and with it every answer — depends on the seed alone.
pub fn owned_shards(shards: u32, clients: usize, c: usize) -> Vec<u32> {
    (c as u32..shards).step_by(clients).collect()
}

/// Where the `j`-th operation of a client owning `owned` goes: the shard,
/// and the index of the operation in that shard's own sequence.
pub fn route(owned: &[u32], j: usize) -> (u32, usize) {
    (owned[j % owned.len()], j / owned.len())
}

/// Trains the fleet-wide global model. The architecture is
/// `HarnessConfig::quick()`'s (hidden 48, 3 GCN layers) so a forward pass
/// costs what it costs in the experiments; instances x samples x epochs
/// are cut to about 1.5 s because every process that needs the model
/// trains it again — nothing is cached between runs, so `setup_s` repeats.
pub fn train_global(seed: u64) -> GlobalModel {
    const INSTANCES: u32 = 8;
    const SAMPLES_PER_INSTANCE: usize = 50;
    let cfg = FleetConfig {
        n_instances: INSTANCES as usize,
        duration_days: 1.0,
        max_events_per_instance: 2_000,
        seed: seed ^ TRAIN_STREAM,
        ..FleetConfig::default()
    };
    let mut samples = Vec::new();
    for id in 0..INSTANCES {
        let log = merged(queries_of(InstanceWorkload::generate(&cfg, id)));
        let step = (log.len() / SAMPLES_PER_INSTANCE).max(1);
        samples.extend(
            log.iter()
                .step_by(step)
                .take(SAMPLES_PER_INSTANCE)
                .map(|q| plan_to_tree_sample(&q.plan, &q.context(), q.true_secs)),
        );
    }
    let config = GlobalModelConfig {
        hidden: 48,
        gcn_layers: 3,
        epochs: 6,
        ..GlobalModelConfig::default()
    };
    GlobalModel::train(&samples, INSTANCE_FEATURE_DIM, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn same_seed_same_key_sequence_and_other_seed_another() {
        for name in ["hit_heavy", "batch64", "global_heavy"] {
            let spec = spec::by_name(name).unwrap();
            let a = Workload::generate(&spec, 11);
            let b = Workload::generate(&spec, 11);
            let c = Workload::generate(&spec, 12);
            for shard in 0..2 {
                assert_eq!(a.key_digest(shard, 500), b.key_digest(shard, 500));
                assert_ne!(a.key_digest(shard, 500), c.key_digest(shard, 500));
            }
            assert_ne!(a.key_digest(0, 500), a.key_digest(1, 500));
        }
    }

    #[test]
    fn hot_queries_are_pre_observed_and_fresh_ones_are_new() {
        let spec = spec::by_name("batch64").unwrap();
        let w = Workload::generate(&spec, 3);
        let seen: HashSet<u64> = w.setup_queries(0).map(|q| q.key).collect();
        assert_eq!(seen.len(), spec.hot_set);
        let mut fresh_keys = HashSet::new();
        for i in 0..4_000 {
            let q = w.query(0, i);
            if spec.is_hot(i) {
                assert!(seen.contains(&q.key));
            } else {
                assert!(!seen.contains(&q.key));
                assert!(fresh_keys.insert(q.key), "fresh plan repeated at {i}");
            }
        }
    }

    #[test]
    fn global_heavy_never_sends_a_shard_a_25th_observe() {
        let spec = spec::by_name("global_heavy").unwrap();
        let w = Workload::generate(&spec, 5);
        assert_eq!(w.shard_budget(), 24);
        for clients in [1usize, 2] {
            let mut per_shard = vec![0usize; spec.shards as usize];
            for c in 0..clients {
                let owned = owned_shards(spec.shards, clients, c);
                let budget = owned.len() * w.shard_budget();
                for j in 0..budget {
                    let (shard, i) = route(&owned, j);
                    assert_eq!(i, per_shard[shard as usize]);
                    assert!(i < 24);
                    per_shard[shard as usize] += 1;
                }
                // The first operation past the budget is the 25th.
                assert_eq!(route(&owned, budget).1, 24);
            }
            assert!(per_shard.iter().all(|&n| n == 24));
        }
        // Neighbouring shards of a client are sent different plans.
        assert_ne!(w.query(0, 0).key, w.query(2, 0).key);
        assert_ne!(w.query(0, 23).key, w.query(2, 0).key);
    }
}
