//! Verb dispatch: admission first, then the verb under its shard's lock.
//!
//! Backpressure is per connection: a peer that stops reading while
//! pipelining requests grows its own write buffer, and past a bound its
//! shard verbs are answered [`Response::Overloaded`] until the backlog
//! drains. A full accept inbox sheds the new connection instead. Unknown
//! instances are rejected *before* any dispatch — an out-of-range id is
//! never aliased onto a live shard — and the timed-out counter lives on
//! the shard itself, so its index space is the registry's.

use crate::protocol::{BatchPrediction, Request, Response};
use crate::registry::Shard;
use crate::server::Shared;
use stage_core::SystemContext;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Per-connection write-buffer bound: once a pipelining peer that is not
/// reading its replies has this many unsent bytes buffered, its shard
/// verbs are answered `Overloaded` until the backlog drains.
const WBUF_SHED_LIMIT: usize = 1 << 20;

fn unknown_instance(instance: u32, n: usize) -> Response {
    Response::Error {
        message: format!("unknown instance {instance} (server hosts 0..{n})"),
    }
}

/// Admits and executes one shard verb (Predict / PredictBatch / Observe)
/// inline: `verb` runs under the instance's shard write lock once the
/// request has passed admission. Admission order matters: a peer
/// pipelining requests without reading its replies is shed first (the wait
/// moves to the client where it belongs), then unknown instances are
/// rejected (no aliasing onto a live shard), then the drain flag, then the
/// deadline — only a request that passed all four touches the shard.
fn serve_shard_verb(
    shared: &Shared,
    instance: u32,
    deadline_exempt: bool,
    arrived: Instant,
    wbuf_backlog: usize,
    verb: impl FnOnce(&mut Shard) -> Response,
) -> Response {
    if wbuf_backlog > WBUF_SHED_LIMIT {
        shared.overloaded.fetch_add(1, Ordering::Relaxed);
        return Response::Overloaded { retry_after_ms: 1 };
    }
    if !shared.registry.contains(instance) {
        return unknown_instance(instance, shared.registry.len());
    }
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Response::ShuttingDown;
    }
    if !deadline_exempt {
        if let Some(d) = shared.request_deadline {
            // `arrived` is stamped at read-readiness, before decode, so
            // the wait is the socket-to-dispatch time.
            let waited = arrived.elapsed();
            if waited > d {
                shared
                    .registry
                    .with_shard_write(instance, |s| s.note_timed_out());
                return Response::TimedOut {
                    waited_us: waited.as_micros() as u64,
                };
            }
        }
    }
    shared
        .registry
        .with_shard_write(instance, verb)
        .unwrap_or_else(|| unknown_instance(instance, shared.registry.len()))
}

/// Dispatches one decoded request. Returns the reply and whether the
/// connection should close after the reply flushes.
pub(crate) fn serve_request(
    shared: &Shared,
    request: Request,
    arrived: Instant,
    wbuf_backlog: usize,
) -> (Response, bool) {
    let latency_us = || arrived.elapsed().as_micros() as u64;
    match request {
        Request::Predict {
            instance,
            plan,
            sys,
        } => (
            serve_shard_verb(shared, instance, false, arrived, wbuf_backlog, |shard| {
                let p = shard.predict(&plan, &SystemContext { features: sys });
                // Conformal interval from the shard's drift sentinel: its
                // width tracks the observed residual distribution (and
                // widens while degraded tiers answer).
                let (interval_lo, interval_hi) = shard.calibrated_interval(&p).unzip();
                Response::Predicted {
                    exec_secs: p.exec_secs,
                    interval_lo,
                    interval_hi,
                    source: p.source,
                    latency_us: latency_us(),
                }
            }),
            false,
        ),
        // One lock acquisition prices the whole batch, so locking overhead
        // amortises across it.
        Request::PredictBatch {
            instance,
            plans,
            sys,
        } => (
            serve_shard_verb(shared, instance, false, arrived, wbuf_backlog, |shard| {
                let predictions = shard
                    .predict_batch(&plans, &SystemContext { features: sys })
                    .into_iter()
                    .map(|p| {
                        let (interval_lo, interval_hi) = shard.calibrated_interval(&p).unzip();
                        BatchPrediction {
                            exec_secs: p.exec_secs,
                            interval_lo,
                            interval_hi,
                            source: p.source,
                        }
                    })
                    .collect();
                Response::PredictionsBatch {
                    predictions,
                    latency_us: latency_us(),
                }
            }),
            false,
        ),
        // Observes are exempt from the deadline: feedback must land even
        // under backlog.
        Request::Observe {
            instance,
            plan,
            sys,
            actual_secs,
        } => (
            serve_shard_verb(shared, instance, true, arrived, wbuf_backlog, |shard| {
                shard.observe(&plan, &SystemContext { features: sys }, actual_secs);
                Response::Observed {
                    latency_us: latency_us(),
                }
            }),
            false,
        ),
        Request::Stats { instance } => (
            shared
                .registry
                .with_shard_read(instance, |shard| Response::Stats {
                    routing: shard.predictor().stats(),
                    observes: shard.observes(),
                    predict_batches: shard.predict_batches(),
                    cache_len: shard.predictor().cache().len() as u64,
                    pool_len: shard.predictor().pool().len() as u64,
                    local_trained: shard.predictor().local().is_trained(),
                    degraded: shard.predictor().degraded_stats(),
                    timed_out: shard.timed_out(),
                    snapshots_skipped: shard.snapshots_skipped(),
                    drift_detections: shard.predictor().drift().detections(),
                    forced_retrains: shard.predictor().drift().forced_retrains(),
                    checkpoint_failures: shared.checkpoint_failures.load(Ordering::Relaxed),
                    interval_coverage: shard.predictor().drift().coverage(),
                })
                .unwrap_or_else(|| unknown_instance(instance, shared.registry.len())),
            false,
        ),
        Request::Snapshot => (
            match &shared.snapshot_dir {
                Some(dir) => match shared.registry.save_snapshots(dir) {
                    // Skipped shards still count as checkpointed: their
                    // artefact on disk is current, which is what the caller
                    // asked for.
                    Ok(summary) => Response::Snapshotted {
                        instances: summary.instances(),
                    },
                    Err(e) => Response::Error {
                        message: format!("checkpoint failed: {e}"),
                    },
                },
                None => Response::Error {
                    message: "no snapshot directory configured".to_string(),
                },
            },
            false,
        ),
        Request::Shutdown => {
            shared.begin_shutdown();
            (Response::ShuttingDown, true)
        }
    }
}
