//! Heap bounds, read off a counting global allocator: what one epoch of
//! global-model training holds at its peak, and what a young shard holds
//! once it has seen a couple of dozen observations. This file is its own
//! test binary because the allocator counts the whole process.

use stage::core::global::plan_to_tree_sample;
use stage::core::{GlobalModel, GlobalModelConfig, StageConfig, SystemContext};
use stage::nn::TreeSample;
use stage::plan::{plan_feature_vector, PhysicalPlan};
use stage::workload::generator::{FleetConfig, InstanceWorkload};
use stage::workload::instance::INSTANCE_FEATURE_DIM;
use stage_serve::ShardRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counters
// are plain statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
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
