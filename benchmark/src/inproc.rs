//! `replay_inproc`: the paper's evaluation protocol with no sockets —
//! replay each instance's log in arrival order, `predict` before execution
//! and `observe` after, on a `StagePredictor::with_global` with the default
//! config, exactly as `stage_bench::replay` does. Instances are split over
//! the threads; a thread that finishes its logs starts them again on fresh
//! predictors, so the window is always full.

use crate::check::{shard_predictor, source_index, Verdict};
use crate::corpus::{owned_shards, Query, Workload};
use crate::served::{nanos, Answer, Ledger};
use crate::trace::Tracer;
use stage_core::{ExecTimePredictor, GlobalModel, PredictionSource, StagePredictor};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Events an instance replays before its thread turns to the next one.
pub const CHUNK: usize = 1_000;

/// Time-slices one thread's instances: [`CHUNK`] events of the first, then
/// of the next, and round again. Each instance still replays in arrival
/// order on its own predictor, as in `stage_bench::replay`; slicing only
/// means that the first events a thread replays — the ones
/// `abs_err_mean_s` is taken over — come from all of its instances, not
/// from whichever is first. An instance whose log ends starts over on a
/// fresh predictor, so the window is always full.
struct Rotation {
    cursors: Vec<usize>,
    k: usize,
    in_chunk: usize,
}

impl Rotation {
    fn new(instances: usize) -> Self {
        Self {
            cursors: vec![0; instances],
            k: 0,
            in_chunk: 0,
        }
    }

    /// Which of the thread's instances replays next, which event of its
    /// log, and whether the instance is starting over.
    fn next(&mut self, log_len: impl Fn(usize) -> usize) -> (usize, usize, bool) {
        if self.in_chunk == CHUNK {
            self.in_chunk = 0;
            self.k = (self.k + 1) % self.cursors.len();
        }
        let k = self.k;
        let restart = self.cursors[k] == log_len(k);
        if restart {
            self.cursors[k] = 0;
        }
        let i = self.cursors[k];
        self.cursors[k] += 1;
        self.in_chunk += 1;
        (k, i, restart)
    }
}

fn replay_loop(
    w: &Workload,
    owned: Vec<u32>,
    global: &Arc<GlobalModel>,
    seconds: f64,
    start: &Barrier,
) -> Ledger {
    let mut l = Ledger::with_capacity(owned);
    let owned = l.owned.clone();
    let log = |k: usize| &w.replay[owned[k] as usize];
    let mut predictors: Vec<StagePredictor> = owned
        .iter()
        .map(|&i| shard_predictor(i, Some(global)))
        .collect();
    let mut rotation = Rotation::new(predictors.len());
    start.wait();
    let t0 = Instant::now();
    loop {
        let (k, i, restart) = rotation.next(|k| log(k).len());
        if restart {
            predictors[k] = shard_predictor(owned[k], Some(global));
        }
        let (p, q) = (&mut predictors[k], &log(k)[i]);
        // One request here is one replayed event. Timing `predict` alone
        // would give a quantile that flips with the seed: about half the
        // predictions are cache hits near 1 µs and half local-model
        // answers near 10 µs, so the median sits on the edge between them.
        let event = Instant::now();
        let sys = q.context();
        let prediction = p.predict(&q.plan, &sys);
        let t = Instant::now();
        p.observe(&q.plan, &sys, q.true_secs);
        l.observe_ns.push(nanos(t.elapsed()));
        l.predict_ns.push(nanos(event.elapsed()));
        if l.ops < w.spec.accuracy_prefix {
            l.score(prediction.exec_secs, q.true_secs);
        }
        l.answers.push(Answer::new(
            prediction.exec_secs,
            None,
            None,
            prediction.source,
        ));
        l.ops += 1;
        if l.ops >= w.spec.accuracy_prefix && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    l.requests = 2 * l.ops as u64;
    l.elapsed = t0.elapsed();
    l
}

pub fn run(w: &Workload, global: &Arc<GlobalModel>, threads: usize, seconds: f64) -> Vec<Ledger> {
    let start = Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                let owned = owned_shards(w.spec.shards, threads, c);
                let start = &start;
                scope.spawn(move || replay_loop(w, owned, global, seconds, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

/// A replay has no second implementation to be held against, so the check
/// is that it is a function of its inputs: a second predictor fed the
/// same prefix must give the same bits, and every answer must be usable.
pub fn verify(w: &Workload, l: &Ledger, global: &Arc<GlobalModel>) -> Verdict {
    let mut v = Verdict::default();
    for (i, a) in l.answers.iter().enumerate() {
        if !(a.secs.is_finite() && a.secs >= 0.0) {
            v.miss(|| format!("event {i}: not a usable answer {a:?}"));
        }
    }
    // The thread's first chunk is the head of its first instance's log.
    let instance = l.owned[0];
    let mut p = shard_predictor(instance, Some(global));
    let log = &w.replay[instance as usize];
    let prefix = w.spec.oracle_prefix.min(CHUNK);
    for (i, (q, got)) in log.iter().zip(&l.answers).take(prefix).enumerate() {
        let sys = q.context();
        let want = p.predict(&q.plan, &sys);
        p.observe(&q.plan, &sys, q.true_secs);
        v.oracle_checked += 1;
        if want.exec_secs.to_bits() != got.secs.to_bits() || want.source != got.source {
            v.miss(|| format!("instance {instance} event {i}: replayed {got:?}, again {want:?}"));
        }
    }
    v
}

pub fn predict_span(source: PredictionSource) -> &'static str {
    match source {
        PredictionSource::Cache => "core.predict.cache",
        PredictionSource::Local => "core.predict.local",
        PredictionSource::Global => "core.predict.global",
        PredictionSource::Default => "core.predict.default",
    }
}

/// What the traced replay measured besides its spans.
pub struct TracedReplay {
    pub tracer: Tracer,
    pub sources: [u64; 4],
    /// Wall time of the traced pass and of the same events replayed with
    /// no spans: their difference is what the instrument costs.
    pub traced_wall: Duration,
    pub untraced_wall: Duration,
    pub ops: usize,
}

/// Replays the first `ops` events in the order one thread owning every
/// instance would, each instance on a fresh predictor.
fn replay_prefix(
    w: &Workload,
    global: &Arc<GlobalModel>,
    ops: usize,
    mut each: impl FnMut(u32, &mut StagePredictor, &Query),
) {
    let mut predictors: Vec<StagePredictor> = (0..w.spec.shards)
        .map(|i| shard_predictor(i, Some(global)))
        .collect();
    let mut rotation = Rotation::new(predictors.len());
    for id in 0..ops {
        let (k, i, restart) = rotation.next(|k| w.replay[k].len());
        if restart {
            predictors[k] = shard_predictor(k as u32, Some(global));
        }
        each(id as u32, &mut predictors[k], &w.replay[k][i]);
    }
}

/// One thread replays the first `traced_ops` events twice: bare, then with
/// a span around every call the workload makes. Only those calls are
/// wrapped — no layer is replayed on the side — so the second pass differs
/// from the first by the spans alone.
pub fn traced(w: &Workload, global: &Arc<GlobalModel>) -> TracedReplay {
    let ops = w.spec.traced_ops;

    let t0 = Instant::now();
    let mut sink = 0.0;
    replay_prefix(w, global, ops, |_, p, q| {
        let sys = q.context();
        sink += p.predict(&q.plan, &sys).exec_secs;
        p.observe(&q.plan, &sys, q.true_secs);
    });
    std::hint::black_box(sink);
    let untraced_wall = t0.elapsed();

    let mut tracer = Tracer::new(ops * 4);
    let mut sources = [0u64; 4];
    let mut done = 0;
    let t0 = Instant::now();
    replay_prefix(w, global, ops, |id, p, q| {
        tracer.set_query(id);
        let root = tracer.enter("query");
        let (sys, _) = tracer.leaf("workload.system_context", || q.context());
        let (prediction, _) = tracer.leaf("core.predict", || p.predict(&q.plan, &sys));
        tracer.rename_last(predict_span(prediction.source));
        sources[source_index(prediction.source)] += 1;
        let before = p.local().trainings();
        tracer.leaf("core.observe", || p.observe(&q.plan, &sys, q.true_secs));
        if p.local().trainings() != before {
            tracer.rename_last("gbdt.fit");
        }
        tracer.exit(root);
        done += 1;
    });
    TracedReplay {
        traced_wall: t0.elapsed(),
        tracer,
        sources,
        untraced_wall,
        ops: done,
    }
}
