//! Decoders never trust a word. Every 4-byte window of every wire payload,
//! and every aligned word of every section of a trained snapshot and of a
//! global-model store, is overwritten with `u32::MAX` in turn (store CRCs
//! rebuilt, so the damage reaches the decoders), the global model's
//! clamp range is swapped, and each integer of its JSON image is set to
//! 4 000 000 000 in turn. Each decode must return with no single
//! allocation over 64 × its input, and every predictor a damaged store
//! decodes to — a global model on a cold shard, so it answers the misses —
//! must then serve 25 Predict + Observe rounds, one retrain among them,
//! without a panic (and, for a global store, with no single allocation
//! over 64 MiB).

use stage_core::global::{plan_to_tree_sample, GlobalModelConfig};
use stage_core::storefmt::{snapshot_sections, SECTION_GLOBAL};
use stage_core::{
    load_global_store, load_stage_store, save_global_store, DegradedStats, ExecTimePredictor,
    GlobalModel, PredictionSource, RoutingStats, StageConfig, StagePredictor, SystemContext,
};
use stage_plan::{PhysicalPlan, PlanBuilder, S3Format};
use stage_serve::{wire, BatchPrediction, Request, Response};
use stage_store::{build_file, SectionWriter, StoreView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The system allocator behind a per-thread ceiling on any single request:
/// a request over it is refused (the process aborts, naming the size), and
/// the largest request the thread made is recorded.
struct Capped;

thread_local! {
    static CEILING: Cell<usize> = const { Cell::new(usize::MAX) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Whether this thread may make a `size`-byte request; records it if so.
/// Const-initialized `Cell`s: reading them never allocates.
fn admit(size: usize) -> bool {
    if size > CEILING.try_with(Cell::get).unwrap_or(usize::MAX) {
        return false;
    }
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    true
}

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged, so `System`'s guarantees are ours; refusing a request
// (returning null) is allowed for any request by `GlobalAlloc`'s contract.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc_zeroed(layout)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if admit(new_size) {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Capped = Capped;

/// Runs `f` with this thread's single-request ceiling at `ceiling`;
/// returns its result and the largest request it made.
fn capped<T>(ceiling: usize, f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.set(0);
    CEILING.set(ceiling);
    let out = f();
    CEILING.set(usize::MAX);
    (out, LARGEST.get())
}

/// Copies of `bytes`, each with one 4-byte window at a multiple of `step`
/// overwritten with `u32::MAX`, with the window's offset.
fn lying_words(bytes: &[u8], step: usize) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..bytes.len().saturating_sub(3)).step_by(step).map(|at| {
        let mut lying = bytes.to_vec();
        lying[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        (at, lying)
    })
}

fn plan(id: u32) -> PhysicalPlan {
    PlanBuilder::select()
        .scan("hostile", S3Format::Local, f64::from(id + 1) * 1e4, 64.0)
        .hash_aggregate(0.01)
        .finish()
}

fn secs(id: u32) -> f64 {
    f64::from(id % 40 + 1) / 10.0
}

#[test]
fn no_lying_word_in_a_wire_payload_panics_or_sizes_an_allocation() {
    let sys = vec![0.5, 2.0];
    let requests = [
        Request::Predict {
            instance: 1,
            plan: plan(1),
            sys: sys.clone(),
        },
        Request::PredictBatch {
            instance: 1,
            plans: vec![plan(2), plan(3)],
            sys: sys.clone(),
        },
        Request::Observe {
            instance: 1,
            plan: plan(4),
            sys,
            actual_secs: 1.5,
        },
        Request::Stats { instance: 1 },
        Request::Snapshot,
        Request::Shutdown,
    ];
    let batch_row = |exec_secs| BatchPrediction {
        exec_secs,
        interval_lo: Some(exec_secs / 2.0),
        interval_hi: Some(exec_secs * 2.0),
        source: PredictionSource::Local,
    };
    let responses = [
        Response::Predicted {
            exec_secs: 1.0,
            interval_lo: Some(0.5),
            interval_hi: Some(2.0),
            source: PredictionSource::Local,
            latency_us: 9,
        },
        Response::PredictionsBatch {
            predictions: vec![batch_row(1.0), batch_row(3.0)],
            latency_us: 9,
        },
        Response::Observed { latency_us: 9 },
        Response::Stats {
            routing: RoutingStats::default(),
            observes: 1,
            predict_batches: 1,
            cache_len: 1,
            pool_len: 1,
            local_trained: true,
            degraded: DegradedStats::default(),
            timed_out: 1,
            snapshots_skipped: 1,
            drift_detections: 1,
            forced_retrains: 1,
            checkpoint_failures: 1,
            interval_coverage: Some(0.9),
        },
        Response::Snapshotted { instances: 2 },
        Response::ShuttingDown,
        Response::Overloaded { retry_after_ms: 5 },
        Response::TimedOut { waited_us: 5 },
        Response::Error {
            message: "unknown instance".into(),
        },
    ];
    let (mut decodes, mut largest) = (0, 0);
    let mut check = |payload: &[u8], decode: &dyn Fn(&[u8])| {
        for (_, lying) in lying_words(payload, 1) {
            largest = largest.max(capped(64 * lying.len(), || decode(&lying)).1);
            decodes += 1;
        }
    };
    for request in &requests {
        let mut payload = Vec::new();
        wire::encode_request(request, &mut payload);
        check(&payload, &|p| drop(wire::decode_request(p)));
    }
    for response in &responses {
        let mut payload = Vec::new();
        wire::encode_response(response, &mut payload);
        check(&payload, &|p| drop(wire::decode_response(p)));
    }
    assert!(decodes > 500, "only {decodes} lying payloads decoded");
    // The counting allocator saw the decodes (a sweep it never armed for
    // would pass vacuously).
    assert!(largest > 0, "no allocation was counted");
}

/// A small cold shard: 2 members × 5 rounds, trained at the 20th new plan.
fn small_predictor() -> StagePredictor {
    let mut config = StageConfig::default();
    config.local.ensemble.n_members = 2;
    config.local.ensemble.member.n_estimators = 5;
    config.local.min_train_examples = 20;
    config.local.retrain_interval = 20;
    StagePredictor::new(config)
}

/// [`small_predictor`] with 40 cache entries, retrain due at the 20th new
/// plan after the snapshot.
fn trained_predictor() -> StagePredictor {
    let mut p = small_predictor();
    let sys = SystemContext::empty(2);
    for id in 0..40 {
        p.observe(&plan(id), &sys, secs(id));
    }
    assert_eq!(p.local().trainings(), 2, "trained at 20 and 40 plans");
    p
}

/// Serves 25 new plans (Predict then Observe each) inside `catch_unwind`;
/// returns the retrains they ran, or `None` on a panic.
fn serve_traffic(mut p: StagePredictor) -> Option<u64> {
    let sys = SystemContext::empty(2);
    let before = p.local().trainings();
    catch_unwind(AssertUnwindSafe(|| {
        for id in 1_000..1_025 {
            p.predict(&plan(id), &sys);
            p.observe(&plan(id), &sys, secs(id));
        }
        p.local().trainings() - before
    }))
    .ok()
}

#[test]
fn no_lying_word_in_a_store_image_panics_or_sizes_an_allocation() {
    let dir = std::env::temp_dir().join(format!("stage-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard.store");
    let warm = trained_predictor();
    let sections = snapshot_sections(&warm.snapshot());
    let restore = |image: &[u8]| {
        std::fs::write(&path, image).unwrap();
        capped(64 * image.len(), || load_stage_store(&path, None)).0
    };

    let clean = restore(&build_file(&sections, 0)).unwrap();
    let retrains = serve_traffic(StagePredictor::from_snapshot(clean));
    assert_eq!(retrains, Some(1), "the clean image must retrain once");

    let (mut restored, mut quarantined) = (0, 0);
    for (s, (id, bytes)) in sections.iter().enumerate() {
        for (at, lying) in lying_words(bytes, 4) {
            let mut image = sections.clone();
            image[s].1 = lying;
            let Ok(snap) = restore(&build_file(&image, 0)) else {
                quarantined += 1;
                continue;
            };
            restored += 1;
            let retrains = serve_traffic(StagePredictor::from_snapshot(snap));
            assert!(
                retrains.is_some(),
                "section {id} word {at}: a verb panicked"
            );
        }
    }
    assert!(
        restored > 0 && quarantined > 0,
        "{restored} / {quarantined}"
    );

    let global = tiny_global();
    let gpath = dir.join("global.store");
    save_global_store(&global, &gpath, 1, None).unwrap();
    let file = std::fs::read(&gpath).unwrap();
    let section = StoreView::parse(&file)
        .unwrap()
        .section(SECTION_GLOBAL)
        .unwrap()
        .to_vec();
    // One more lie no single word tells: the clamp range, swapped.
    let json = std::str::from_utf8(&section[8..]).unwrap();
    let (head, tail) = json.split_once("\"target_range\":[").unwrap();
    let (range, rest) = tail.split_once(']').unwrap();
    let (lo, hi) = range.split_once(',').unwrap();
    let mut swapped = SectionWriter::new();
    swapped.put_bytes(format!("{head}\"target_range\":[{hi},{lo}]{rest}").as_bytes());
    let swapped = ("the swapped target_range".to_string(), swapped.finish());
    // And the lies about the GCN's structure, which parse and pass every
    // CRC: each JSON integer (a parameter id, a shape, a width, a layer
    // count) set to 4 000 000 000 in turn.
    let integers: Vec<_> = json_integers(json)
        .into_iter()
        .map(|(key, at, len)| {
            let mut lying = SectionWriter::new();
            let edited = format!("{}4000000000{}", &json[..at], &json[at + len..]);
            lying.put_bytes(edited.as_bytes());
            (format!("{key} = 4000000000"), lying.finish())
        })
        .collect();
    assert!(integers.len() > 50, "only {} JSON integers", integers.len());
    let words = lying_words(&section, 4).map(|(at, lying)| (format!("word {at}"), lying));
    for (what, lying) in words.chain([swapped]).chain(integers) {
        let image = build_file(&[(SECTION_GLOBAL, lying)], 1);
        std::fs::write(&gpath, &image).unwrap();
        let (loaded, _) = capped(64 * image.len(), || load_global_store(&gpath, None));
        if let Ok((model, _)) = loaded {
            // Cold, so the global model answers every miss until it trains.
            // A width that lies would size a buffer by it: no single
            // allocation while serving may pass 64 MiB.
            let mut p = small_predictor();
            p.set_global(Arc::new(model));
            assert!(
                capped(64 << 20, || serve_traffic(p)).0.is_some(),
                "global model, {what}: a verb panicked"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every integer literal in a JSON text as `(key, offset, length)`, the
/// key being the object field it sits under (`[]` inside an array).
fn json_integers(json: &str) -> Vec<(String, usize, usize)> {
    let bytes = json.as_bytes();
    let mut found = Vec::new();
    let (mut at, mut key, mut in_string, mut string_start) = (0, String::new(), false, 0);
    while at < bytes.len() {
        let b = bytes[at];
        if in_string {
            if b == b'"' {
                in_string = false;
                key = json[string_start..at].to_string();
            }
            at += 1;
            continue;
        }
        match b {
            b'"' => (in_string, string_start) = (true, at + 1),
            b'[' => key = "[]".to_string(),
            b'0'..=b'9' | b'-' => {
                let len = bytes[at..]
                    .iter()
                    .take_while(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .count();
                let token = &json[at..at + len];
                if token.bytes().all(|c| c.is_ascii_digit()) {
                    found.push((key.clone(), at, len));
                }
                at += len;
                continue;
            }
            _ => {}
        }
        at += 1;
    }
    found
}

fn tiny_global() -> GlobalModel {
    let sys = SystemContext::empty(2);
    let samples: Vec<_> = (0..25)
        .map(|id| plan_to_tree_sample(&plan(id), &sys, secs(id)))
        .collect();
    let config = GlobalModelConfig {
        hidden: 4,
        gcn_layers: 1,
        epochs: 2,
        ..GlobalModelConfig::default()
    };
    GlobalModel::train(&samples, 2, &config)
}
