//! The wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response per line, in order. The framing is
//! deliberately primitive — compact JSON never contains a raw newline, so
//! a `BufRead::read_line` loop is a complete parser and any language's
//! `netcat | jq` can drive the server. Requests are externally tagged
//! (`{"Predict": {...}}`, `"Shutdown"`), matching serde's default enum
//! representation.

use serde::{Deserialize, Serialize};
use stage_core::{DegradedStats, PredictionSource, RoutingStats};
use stage_plan::PhysicalPlan;
use std::io::{self, BufRead, Write};

/// A client request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Predict the exec-time of `plan` on `instance` before running it.
    Predict {
        /// Target instance id (shard).
        instance: u32,
        /// The optimizer-produced physical plan.
        plan: PhysicalPlan,
        /// System-context feature vector (instance features + concurrency,
        /// see `stage_workload::InstanceSpec::system_features`).
        sys: Vec<f64>,
    },
    /// Predict the exec-times of a whole batch of plans on `instance` in
    /// one round trip. Answers arrive in submission order; the batch is
    /// served under a single shard-lock acquisition, so per-prediction
    /// overhead (framing, queueing, locking) is amortised across the batch.
    PredictBatch {
        /// Target instance id (shard).
        instance: u32,
        /// The optimizer-produced physical plans, in submission order.
        plans: Vec<PhysicalPlan>,
        /// System-context feature vector shared by the whole batch (all
        /// plans are priced against the same instant's system state).
        sys: Vec<f64>,
    },
    /// Report the observed exec-time after running a query, feeding the
    /// instance's cache and training pool exactly like offline replay.
    Observe {
        /// Target instance id (shard).
        instance: u32,
        /// The executed plan.
        plan: PhysicalPlan,
        /// System-context feature vector at submission time.
        sys: Vec<f64>,
        /// Observed execution time in seconds.
        actual_secs: f64,
    },
    /// Fetch routing/ingestion counters for one instance.
    Stats {
        /// Target instance id (shard).
        instance: u32,
    },
    /// Checkpoint every instance's predictor to the snapshot directory.
    Snapshot,
    /// Start the graceful drain: shard verbs answer `ShuttingDown` from now
    /// on, pending replies flush, a final checkpoint runs, the server stops.
    Shutdown,
}

/// Tallest plan a request of either codec may carry: a leaf at
/// [`crate::wire::MAX_PLAN_DEPTH`], the binary decoder's deepest node.
pub const MAX_PLAN_HEIGHT: usize = crate::wire::MAX_PLAN_DEPTH + 1;

impl Request {
    /// The request, if no plan it carries is taller than [`MAX_PLAN_HEIGHT`].
    pub fn admit(self) -> Result<Self, String> {
        let tallest = match &self {
            Request::Predict { plan, .. } | Request::Observe { plan, .. } => plan.height(),
            Request::PredictBatch { plans, .. } => {
                plans.iter().map(PhysicalPlan::height).max().unwrap_or(0)
            }
            _ => 0,
        };
        if tallest > MAX_PLAN_HEIGHT {
            return Err(format!("plan of {tallest} levels, over {MAX_PLAN_HEIGHT}"));
        }
        Ok(self)
    }
}

/// One element of a [`Response::PredictionsBatch`] answer, mirroring the
/// per-prediction fields of [`Response::Predicted`] without the per-message
/// latency (the batch carries one latency for the whole round trip).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchPrediction {
    /// Point prediction in seconds.
    pub exec_secs: f64,
    /// Lower bound of the shard's split-conformal prediction interval
    /// (target coverage [`stage_core::drift::TARGET_COVERAGE`], 0.90;
    /// `None` when the answering tier measures no uncertainty).
    pub interval_lo: Option<f64>,
    /// Upper bound of the same interval.
    pub interval_hi: Option<f64>,
    /// Which stage of the hierarchy answered.
    pub source: PredictionSource,
}

/// A server response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Predict`].
    Predicted {
        /// Point prediction in seconds.
        exec_secs: f64,
        /// Lower bound of the shard's split-conformal prediction interval
        /// (target coverage [`stage_core::drift::TARGET_COVERAGE`], 0.90;
        /// `None` when the answering tier measures no uncertainty).
        interval_lo: Option<f64>,
        /// Upper bound of the same interval.
        interval_hi: Option<f64>,
        /// Which stage of the hierarchy answered.
        source: PredictionSource,
        /// Server-side service latency (socket arrival → answered) in µs.
        latency_us: u64,
    },
    /// Answer to [`Request::PredictBatch`]: one prediction per submitted
    /// plan, in submission order.
    PredictionsBatch {
        /// Per-plan predictions, index-aligned with the request's `plans`.
        predictions: Vec<BatchPrediction>,
        /// Server-side service latency (socket arrival → answered) in µs for
        /// the whole batch.
        latency_us: u64,
    },
    /// Answer to [`Request::Observe`].
    Observed {
        /// Server-side service latency in µs.
        latency_us: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Prediction routing counters.
        routing: RoutingStats,
        /// Observations ingested.
        observes: u64,
        /// `PredictBatch` requests served (the routing counters above count
        /// every prediction inside each batch individually).
        predict_batches: u64,
        /// Exec-time cache entries.
        cache_len: u64,
        /// Training-pool entries.
        pool_len: u64,
        /// Whether the local model has a trained ensemble.
        local_trained: bool,
        /// Degraded-mode counters: predictions answered by a cheaper tier
        /// because a component was (injected or genuinely) unavailable.
        degraded: DegradedStats,
        /// Requests for this instance answered [`Response::TimedOut`]
        /// because they overstayed the per-request deadline before dispatch.
        timed_out: u64,
        /// Checkpoint passes that skipped this instance because its
        /// artefact was already current (no state change since the last
        /// checkpoint, or byte-identical sections).
        snapshots_skipped: u64,
        /// Workload step-changes the drift sentinel has detected on this
        /// instance (CUSUM threshold crossings), a lifetime count that is
        /// part of the checkpointed state.
        drift_detections: u64,
        /// Retrains a latched sentinel brought forward to the shard's next
        /// pool add (only retrains that ran count); `drift_detections`
        /// above this: latched, and no new plan seen since.
        forced_retrains: u64,
        /// Background checkpoint passes that failed server-wide (the
        /// health loop backs off exponentially while this climbs).
        checkpoint_failures: u64,
        /// Empirical coverage of the calibrated intervals served by this
        /// instance (fraction of observed queries whose truth fell inside
        /// the interval predicted for them); `None` until the first
        /// residual lands.
        interval_coverage: Option<f64>,
    },
    /// Answer to [`Request::Snapshot`].
    Snapshotted {
        /// Instances checkpointed.
        instances: u32,
    },
    /// Answer to [`Request::Shutdown`]: the drain has begun.
    ShuttingDown,
    /// Backpressure: this connection has more than 1 MiB of replies
    /// buffered that its peer has not read, so its shard verbs are refused
    /// until the backlog drains. The request was **not** executed; read the
    /// pending replies, then retry.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// Degraded answer: more than the server's per-request deadline passed
    /// between the request's bytes arriving on the socket and its dispatch,
    /// so it was answered without being executed — a stale prediction is
    /// worse than a fast "no answer" for an admission controller. Observes
    /// are never timed out (feedback is durable); only predictions degrade
    /// this way.
    TimedOut {
        /// Socket-arrival-to-dispatch wait when the deadline was checked, µs.
        waited_us: u64,
    },
    /// The request was malformed or referenced an unknown instance.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Writes one message as a compact-JSON line.
pub fn write_message<T: Serialize, W: Write>(out: &mut W, msg: &T) -> io::Result<()> {
    let mut line = String::new();
    write_message_buffered(out, msg, &mut line)
}

/// Writes one message as a compact-JSON line, serializing into `buf` (a
/// caller-owned scratch buffer, cleared first) so a connection loop reuses
/// one allocation for every response instead of allocating per message.
pub fn write_message_buffered<T: Serialize, W: Write>(
    out: &mut W,
    msg: &T,
    buf: &mut String,
) -> io::Result<()> {
    buf.clear();
    serde_json::to_string_into(msg, buf);
    // One write per message: two small writes on an unbuffered socket would
    // emit two TCP segments and invite Nagle/delayed-ACK stalls.
    buf.push('\n');
    out.write_all(buf.as_bytes())?;
    out.flush()
}

/// Reads one message line; `Ok(None)` on a clean EOF.
pub fn read_message<T: serde::de::DeserializeOwned, R: BufRead>(
    input: &mut R,
) -> io::Result<Option<T>> {
    let mut line = String::new();
    if input.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let msg = serde_json::from_str(line.trim_end())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stage_plan::{PlanBuilder, S3Format};

    fn plan() -> PhysicalPlan {
        PlanBuilder::select()
            .scan("t", S3Format::Local, 1e4, 64.0)
            .hash_aggregate(0.01)
            .finish()
    }

    #[test]
    fn requests_round_trip_as_single_lines() {
        let requests = vec![
            Request::Predict {
                instance: 3,
                plan: plan(),
                sys: vec![1.0, 2.0],
            },
            Request::PredictBatch {
                instance: 1,
                plans: vec![plan(), plan()],
                sys: vec![1.0, 2.0],
            },
            Request::Observe {
                instance: 3,
                plan: plan(),
                sys: vec![1.0, 2.0],
                actual_secs: 4.25,
            },
            Request::Stats { instance: 0 },
            Request::Snapshot,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &requests {
            write_message(&mut buf, r).unwrap();
        }
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), requests.len());
        let mut reader = io::BufReader::new(buf.as_slice());
        for expected in &requests {
            let got: Request = read_message(&mut reader).unwrap().unwrap();
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(expected).unwrap()
            );
        }
        assert!(read_message::<Request, _>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Predicted {
                exec_secs: 2.5,
                interval_lo: Some(1.0),
                interval_hi: Some(6.0),
                source: PredictionSource::Local,
                latency_us: 120,
            },
            Response::PredictionsBatch {
                predictions: vec![
                    BatchPrediction {
                        exec_secs: 2.5,
                        interval_lo: Some(1.0),
                        interval_hi: Some(6.0),
                        source: PredictionSource::Local,
                    },
                    BatchPrediction {
                        exec_secs: 0.5,
                        interval_lo: None,
                        interval_hi: None,
                        source: PredictionSource::Cache,
                    },
                ],
                latency_us: 310,
            },
            Response::Observed { latency_us: 40 },
            Response::Stats {
                routing: RoutingStats {
                    cache: 3,
                    local: 2,
                    global: 0,
                    default: 1,
                },
                observes: 6,
                predict_batches: 2,
                cache_len: 4,
                pool_len: 5,
                local_trained: false,
                degraded: DegradedStats {
                    global_failover: 1,
                    local_failover: 2,
                    retrains_poisoned: 0,
                    retrains_slowed: 1,
                },
                timed_out: 3,
                snapshots_skipped: 4,
                drift_detections: 1,
                forced_retrains: 1,
                checkpoint_failures: 2,
                interval_coverage: Some(0.925),
            },
            Response::Snapshotted { instances: 2 },
            Response::ShuttingDown,
            Response::Overloaded { retry_after_ms: 5 },
            Response::TimedOut { waited_us: 250_000 },
            Response::Error {
                message: "unknown instance 9".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &responses {
            write_message(&mut buf, r).unwrap();
        }
        let mut reader = io::BufReader::new(buf.as_slice());
        for expected in &responses {
            let got: Response = read_message(&mut reader).unwrap().unwrap();
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(expected).unwrap()
            );
        }
    }

    #[test]
    fn buffered_writer_matches_unbuffered() {
        let msg = Request::Stats { instance: 7 };
        let mut plain = Vec::new();
        write_message(&mut plain, &msg).unwrap();
        let mut buffered = Vec::new();
        let mut scratch = String::from("stale contents from a previous message");
        write_message_buffered(&mut buffered, &msg, &mut scratch).unwrap();
        assert_eq!(plain, buffered);
    }

    #[test]
    fn malformed_line_is_invalid_data() {
        let mut reader = io::BufReader::new(&b"{nonsense\n"[..]);
        let err = read_message::<Request, _>(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
