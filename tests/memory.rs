//! Heap bounds, read off a counting global allocator: what one epoch of
//! global-model training and one local-model retrain hold at their peak,
//! what a trained global model keeps, and what a young shard holds once it
//! has seen a couple of dozen observations — and, in the release build,
//! how many allocations a served predict and observe make. This file is
//! its own test binary because the allocator counts the whole process.

use stage::core::global::plan_to_tree_sample;
#[cfg(not(debug_assertions))]
use stage::core::{ExecTimePredictor, PredictionSource, StagePredictor};
use stage::core::{
    GlobalModel, GlobalModelConfig, PoolConfig, StageConfig, SystemContext, TrainingPool,
};
use stage::gbdt::{BayesianEnsemble, EnsembleParams};
use stage::nn::TreeSample;
use stage::plan::{plan_feature_vector, PhysicalPlan};
use stage::workload::generator::{FleetConfig, InstanceWorkload};
use stage::workload::instance::INSTANCE_FEATURE_DIM;
use stage_serve::ShardRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

/// The system allocator, counting live bytes, their high-water mark and
/// the calls that allocate (`alloc`, `alloc_zeroed`, `realloc`).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counters
// are plain statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One measurement at a time: the counters see every thread, so the tests
/// of this binary must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// `(live bytes after f, peak live bytes during f)`, both relative to the
/// live bytes before it.
fn measure<R>(f: impl FnOnce() -> R) -> (R, isize, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let r = f();
    let live = LIVE.load(Relaxed) as isize - base as isize;
    (r, live, PEAK.load(Relaxed) - base)
}

/// `(r, allocator calls f made)`.
#[cfg(not(debug_assertions))]
fn calls<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = CALLS.load(Relaxed);
    let r = f();
    (r, CALLS.load(Relaxed) - before)
}

/// `n` queries of distinct plans from a fleet of eight instances, in fleet
/// order.
fn distinct_queries(seed: u64, n: usize) -> Vec<(PhysicalPlan, SystemContext, f64)> {
    let mut seen = HashSet::new();
    let queries: Vec<_> = fleet_queries(seed, 2_000)
        .into_iter()
        .filter(|(plan, _, _)| seen.insert(plan_feature_vector(plan).stable_hash()))
        .take(n)
        .collect();
    assert_eq!(queries.len(), n);
    queries
}

/// `n` queries a fleet of eight instances ran, evenly spaced through each
/// instance's day: plan, system context and exec-time.
fn fleet_queries(seed: u64, per_instance: usize) -> Vec<(PhysicalPlan, SystemContext, f64)> {
    const INSTANCES: u32 = 8;
    let cfg = FleetConfig {
        n_instances: INSTANCES as usize,
        duration_days: 1.0,
        max_events_per_instance: 2_000,
        seed,
        ..FleetConfig::default()
    };
    (0..INSTANCES)
        .flat_map(|id| {
            let w = InstanceWorkload::generate(&cfg, id);
            let step = (w.events.len() / per_instance).max(1);
            let spec = w.spec;
            let events = w.events.into_iter().step_by(step).take(per_instance);
            events
                .map(|e| {
                    let sys = SystemContext {
                        features: spec.system_features(e.concurrency),
                    };
                    (e.plan, sys, e.true_exec_secs)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// One epoch of the global model at the benchmark's shape (400 samples,
/// hidden 48, 3 GCN layers, batches of 32). The model is ≈ 150 KB; a tape
/// that copied every weight matrix at every use held ≈ 90 MB per batch,
/// the tape that read weights in place 6 422 KiB, and the tape-free
/// trainer, whose peak is one batch's kept forward rows, 5 080 KiB. The
/// bound is that plus 50 %.
#[test]
fn one_global_training_epoch_peaks_at_a_few_megabytes() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let samples: Vec<TreeSample> = fleet_queries(7, 50)
        .iter()
        .map(|(plan, sys, secs)| plan_to_tree_sample(plan, sys, *secs))
        .collect();
    assert_eq!(samples.len(), 400);
    let config = GlobalModelConfig {
        hidden: 48,
        gcn_layers: 3,
        epochs: 1,
        ..GlobalModelConfig::default()
    };
    let (model, _, peak) = measure(|| GlobalModel::train(&samples, INSTANCE_FEATURE_DIM, &config));
    assert!(model.n_parameters() > 19_000);
    eprintln!("one epoch: peak live heap {} KiB", peak / 1024);
    assert!(
        peak <= 7_620 << 10,
        "one epoch peaked at {peak} B of live heap"
    );
}

/// What a trained global model keeps, at the benchmark's shape (the
/// epoch test's samples and config): its weights, eight bytes each, and
/// little else — 153 592 B for 152 840 B of weights. A store that kept a
/// gradient beside every weight held 307 072 B. The bound is the weights
/// plus 25 %.
#[test]
fn a_trained_global_model_retains_its_weights_and_little_else() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let samples: Vec<TreeSample> = fleet_queries(7, 50)
        .iter()
        .map(|(plan, sys, secs)| plan_to_tree_sample(plan, sys, *secs))
        .collect();
    let config = GlobalModelConfig {
        hidden: 48,
        gcn_layers: 3,
        epochs: 1,
        ..GlobalModelConfig::default()
    };
    let (model, live, _) = measure(|| GlobalModel::train(&samples, INSTANCE_FEATURE_DIM, &config));
    let weights = 8 * model.n_parameters();
    eprintln!("trained global model: {live} B of live heap for {weights} B of weights");
    assert!(
        live as usize <= weights + weights / 4,
        "a trained global model retains {live} B for {weights} B of weights"
    );
}

/// One retrain of the local model at the paper's shape (ten members of at
/// most 200 rounds, the default `EnsembleParams`) on `tests/exactness.rs`'s
/// pool: the first 300 queries of each of a four-instance fleet (seed 32)
/// through the default training pool, 1 200 rows. The peak is the trained
/// ensemble plus one member's fit in flight — the binned pool, each head's
/// scores and gradients, the round's row sample and the grower's buffers.
/// It was 2 388 KiB while every tree allocated its own buffers; with one
/// scratch per fit, which keeps a free histogram for the second head's
/// root while the first head grows and each head's leaf weights, it is
/// 2 396 KiB. The bound is the first plus 50 %.
#[test]
fn one_local_retrain_peaks_at_a_few_megabytes() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = FleetConfig {
        n_instances: 4,
        duration_days: 1.0,
        max_events_per_instance: 300,
        seed: 32,
        ..FleetConfig::default()
    };
    let mut pool = TrainingPool::new(PoolConfig::default());
    for id in 0..4 {
        let events = InstanceWorkload::generate(&cfg, id).events;
        for e in events.iter().take(300) {
            pool.add(plan_feature_vector(&e.plan).0, e.true_exec_secs);
        }
    }
    let data = pool.to_dataset().expect("a non-empty pool");
    assert_eq!(data.n_rows(), 1_200);
    let (ens, _, peak) = measure(|| BayesianEnsemble::fit(&data, &EnsembleParams::default()));
    assert_eq!(ens.expect("trains").members().len(), 10);
    eprintln!("one local retrain: peak live heap {} KiB", peak / 1024);
    assert!(
        peak <= 3_582 << 10,
        "one local retrain peaked at {peak} B of live heap"
    );
}

/// A fleet of young shards (the paper's new-cluster case): 3 000 shards,
/// 24 observations each, none trained. Each holds its cache entries and
/// pool examples, not a table sized for the cache's capacity.
#[test]
fn a_young_shard_holds_what_it_has_seen() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const SHARDS: u32 = 3_000;
    const OBSERVES: usize = 24;
    let queries = fleet_queries(11, 250);
    let (registry, live, _) = measure(|| {
        let registry = ShardRegistry::new(SHARDS, StageConfig::default());
        for id in 0..SHARDS {
            for j in 0..OBSERVES {
                let (plan, sys, secs) = &queries[(id as usize * 7 + j) % queries.len()];
                registry.with_shard_write(id, |s| s.observe(plan, sys, *secs));
            }
        }
        registry
    });
    let trained = (0..SHARDS)
        .filter(|&id| {
            registry.with_shard_read(id, |s| s.predictor().local().is_trained()) == Some(true)
        })
        .count();
    assert_eq!(trained, 0, "every shard stays young");
    let per_shard = live as usize / SHARDS as usize;
    eprintln!("young shard: {per_shard} B of live heap");
    assert!(per_shard <= 16 << 10, "a young shard holds {per_shard} B");
}

/// A warm shard under the default config: 1 500 unique plans observed, so
/// its cache and pool are full of them and its ten-member ensemble has
/// trained and retrained. The local model is about half of it.
#[test]
fn a_warm_shard_holds_a_few_megabytes() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const OBSERVES: usize = 1_500;
    let mut seen = HashSet::new();
    let queries: Vec<_> = fleet_queries(13, 2_000)
        .into_iter()
        .filter(|(plan, _, _)| seen.insert(plan_feature_vector(plan).stable_hash()))
        .take(OBSERVES)
        .collect();
    assert_eq!(queries.len(), OBSERVES);
    let (registry, live, _) = measure(|| {
        let registry = ShardRegistry::new(1, StageConfig::default());
        for (plan, sys, secs) in &queries {
            registry.with_shard_write(0, |s| s.observe(plan, sys, *secs));
        }
        registry
    });
    let trainings = registry.with_shard_read(0, |s| s.predictor().local().trainings());
    assert!(trainings >= Some(2), "the shard trained: {trainings:?}");
    eprintln!("warm shard: {} KiB of live heap", live / 1024);
    assert!(live <= 7 << 19, "a warm shard holds {live} B");
}

/// The warm shard above, then each of its 1 500 plans observed once more:
/// a cache hit, whose local answer the shard memoises, so every cached
/// plan is memoised (the memo holds at most the cache's 2 000). It stays
/// under the same bound.
#[test]
fn a_warm_shard_with_every_plan_memoised_holds_a_few_megabytes() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let queries = distinct_queries(13, 1_500);
    let (registry, live, _) = measure(|| {
        let registry = ShardRegistry::new(1, StageConfig::default());
        for (plan, sys, secs) in queries.iter().chain(&queries) {
            registry.with_shard_write(0, |s| s.observe(plan, sys, *secs));
        }
        registry
    });
    let cached = registry.with_shard_read(0, |s| s.predictor().cache().len());
    assert_eq!(cached, Some(1_500));
    eprintln!(
        "warm shard, every plan memoised: {} KiB of live heap",
        live / 1024
    );
    assert!(live <= 7 << 19, "a warm shard holds {live} B");
}

/// Allocator calls of the verbs a server runs, on a default-config shard
/// trained on 200 distinct observes, in the build the servers ship (a
/// debug build also walks the ensemble on every reuse of a memoised
/// answer). A cache-hit observe whose local answer is memoised allocates
/// no more than extracting its plan's features does (3; 6 while such an
/// observe walked the ensemble); a cache-hit and a cache-miss predict
/// allocate no more than they were measured to: 4 and 8.
#[cfg(not(debug_assertions))]
#[test]
fn a_memoised_observe_allocates_no_more_than_feature_extraction() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let queries = distinct_queries(17, 201);
    let ((fresh, _, _), warm) = queries.split_last().expect("201 queries");
    let mut s = StagePredictor::new(StageConfig::default());
    for (plan, sys, secs) in warm {
        s.observe(plan, sys, *secs);
    }
    assert!(s.local().is_trained());
    let (plan, sys, secs) = &warm[0];
    // The first hit observe walks (warm[0] was seen before the training)
    // and memoises its answer; the second reuses it.
    s.observe(plan, sys, *secs);
    let (_, observe) = calls(|| s.observe(plan, sys, *secs));
    let (_, extract) = calls(|| plan_feature_vector(plan));
    let (hit, hit_predict) = calls(|| s.predict(plan, sys));
    let (miss, miss_predict) = calls(|| s.predict(fresh, sys));
    assert_eq!(hit.source, PredictionSource::Cache);
    assert_eq!(miss.source, PredictionSource::Local);
    eprintln!(
        "allocator calls: memoised hit observe {observe}, plan_feature_vector {extract}, \
         hit predict {hit_predict}, miss predict {miss_predict}"
    );
    assert!(
        observe <= extract,
        "a memoised observe made {observe} calls"
    );
    assert!(
        hit_predict <= 4,
        "a cache-hit predict made {hit_predict} calls"
    );
    assert!(
        miss_predict <= 8,
        "a cache-miss predict made {miss_predict} calls"
    );
}
