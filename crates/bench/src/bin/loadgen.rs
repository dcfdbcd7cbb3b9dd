//! Load generator for the stage-serve online prediction service.
//!
//! Drives a server with the synthetic fleet's own query streams: each
//! instance thread replays its `stage-workload` event log (cycling when the
//! log is shorter than the requested round count) as predict→observe
//! round-trips, paced by a shared token bucket at the target rate. Reports
//! sustained throughput and client-side p50/p95/p99 service latency as
//! exact nearest-rank quantiles over the raw samples, and verifies **zero
//! dropped observes** — every `Overloaded` feedback answer is retried
//! until ingested, then cross-checked against the server's own counters.
//!
//! Latency samples time *successful attempts only*: overload backoff
//! sleeps and refused attempts are excluded, so the percentiles measure
//! the service rather than the client's retry schedule.
//!
//! ```text
//! cargo run --release -p stage-bench --bin loadgen -- \
//!     [--instances N] [--rounds N] [--qps F] [--seed N] [--batch N] \
//!     [--codec binary|json] [--addr HOST:PORT] [--out FILE] [--smoke]
//! ```
//!
//! `--codec` picks the wire format (default `binary`). Whichever codec
//! drives the load, each thread also opens one client on the *other*
//! codec and re-prices the leading rounds' plans through it: predictions
//! are pure reads, so the two codecs must answer **bit-identically**
//! (`f64::to_bits` plus source). Any divergence is counted in
//! `codec_mismatches` and fails the run.
//!
//! `--batch N` (default 1) prices plans through the `PredictBatch` verb in
//! groups of N instead of one `Predict` per round-trip, order-checked
//! against the scalar verb on the leading batches. `--smoke` shrinks the
//! run to CI size (400 round-trips) and keeps every correctness check.
//!
//! Without `--addr` the server is booted in-process on an ephemeral port
//! (and shut down gracefully afterwards), so the default invocation is
//! self-contained. The artefact lands in `results/bench_serve.json`.

use serde::Serialize;
use stage_core::{LocalModelConfig, StageConfig};
use stage_gbdt::{EnsembleParams, NgBoostParams};
use stage_serve::{Codec, Response, ServeClient, ServeConfig, Server};
use stage_workload::{FleetConfig, InstanceWorkload};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Retry bound for a single rejected request (~10 s at 1 ms backoff).
const MAX_RETRIES: u32 = 10_000;

/// How many leading batches per thread are re-priced through the scalar
/// verb to prove index alignment (cheap: a few extra round-trips).
const ORDER_CHECK_BATCHES: u64 = 2;

/// How many leading round groups per thread are re-priced through the
/// other codec to prove the two wire formats answer bit-identically.
const CROSS_CODEC_GROUPS: u64 = 3;

struct Args {
    instances: u32,
    rounds: u64,
    qps: f64,
    seed: u64,
    batch: u64,
    codec: Codec,
    addr: Option<String>,
    out: String,
    smoke: bool,
}

#[derive(Serialize)]
struct LatencySummary {
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

#[derive(Serialize)]
struct SourceCounts {
    cache: u64,
    local: u64,
    global: u64,
    default: u64,
}

/// The `results/bench_serve.json` artefact.
#[derive(Serialize)]
struct ServeBenchReport {
    /// Wire format that carried the driving load (`"binary"` or `"json"`).
    codec: String,
    instances: u32,
    round_trips: u64,
    batch: u64,
    predict_batch_requests: u64,
    order_mismatches: u64,
    /// Cross-codec re-predictions whose answer diverged (must be zero).
    codec_mismatches: u64,
    target_qps: f64,
    elapsed_secs: f64,
    round_trips_per_sec: f64,
    requests_per_sec: f64,
    predict_latency: LatencySummary,
    observe_latency: LatencySummary,
    predict_overload_retries: u64,
    observe_overload_retries: u64,
    dropped_observes: u64,
    sources: SourceCounts,
    server_in_process: bool,
}

/// Per-thread tallies merged after the run.
struct ThreadResult {
    /// Per-success round-trip times (seconds); raw, for exact quantiles.
    predict_samples: Vec<f64>,
    observe_samples: Vec<f64>,
    predict_retries: u64,
    observe_retries: u64,
    dropped_observes: u64,
    sources: SourceCounts,
    /// Predictions the server must have counted in its routing stats
    /// (batched predictions plus scalar order-check and cross-codec
    /// re-predicts).
    expected_predicts: u64,
    /// `PredictBatch` requests served for this thread's instance.
    batch_requests: u64,
    /// Batch answers whose length or per-index values diverged from the
    /// scalar path — must be zero.
    order_mismatches: u64,
    /// Answers that differed between the two codecs — must be zero.
    codec_mismatches: u64,
}

/// Exact nearest-rank quantile (sorted input): the smallest sample whose
/// cumulative rank reaches `p`. `rank = ceil(p·n)` clamped to `[1, n]` —
/// the classic off-by-one (`(p·n) as usize`, which over-reads by one rank
/// and makes p99 of small samples the max) is exactly what this replaces.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

fn summarize(samples: &mut [f64]) -> LatencySummary {
    samples.sort_by(|a, b| a.total_cmp(b));
    LatencySummary {
        p50_us: nearest_rank(samples, 0.50) * 1e6,
        p95_us: nearest_rank(samples, 0.95) * 1e6,
        p99_us: nearest_rank(samples, 0.99) * 1e6,
    }
}

/// A serving-speed Stage configuration: the same trimmed ensemble the
/// replay tests use, so retrains pause a shard for milliseconds rather
/// than seconds while still exercising the full predict→observe→retrain
/// path. Inbox bounds and loop counts stay at server defaults — that is
/// what the backpressure claim is about.
fn serving_stage_config() -> StageConfig {
    StageConfig {
        local: LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: 4,
                member: NgBoostParams {
                    n_estimators: 25,
                    ..NgBoostParams::default()
                },
                seed: 11,
            },
            min_train_examples: 30,
            retrain_interval: 300,
        },
        ..StageConfig::default()
    }
}

fn connect_codec(addr: &str, codec: Codec) -> std::io::Result<ServeClient> {
    match codec {
        Codec::Binary => ServeClient::connect(addr),
        Codec::Json => ServeClient::connect_json(addr),
    }
}

fn codec_name(codec: Codec) -> &'static str {
    match codec {
        Codec::Binary => "binary",
        Codec::Json => "json",
    }
}

/// A token bucket: capacity `burst`, refilled continuously at `rate_per_sec`.
/// Holds the run to its target request rate; `take` blocks (sleeping) until
/// a token is available.
struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// Creates a bucket emitting `rate_per_sec` tokens per second with the
    /// given burst capacity (also the initial fill).
    ///
    /// # Panics
    /// Panics unless `rate_per_sec > 0` and `burst >= 1`.
    fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(burst >= 1.0, "burst must admit at least one token");
        Self {
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill: Instant::now(),
        }
    }

    /// Takes one token if available right now.
    fn try_take(&mut self) -> bool {
        let now = Instant::now();
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Blocks (sleeping in short slices) until a token is available, then
    /// takes it.
    fn take(&mut self) {
        while !self.try_take() {
            let deficit = (1.0 - self.tokens) / self.rate_per_sec;
            std::thread::sleep(Duration::from_secs_f64(deficit.clamp(1e-5, 0.05)));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Some(a) => a,
        None => return ExitCode::from(2),
    };

    // Boot an in-process server unless pointed at an external one.
    let (server, addr) = match &args.addr {
        Some(addr) => (None, addr.clone()),
        None => {
            let server = match Server::start(ServeConfig {
                n_instances: args.instances,
                stage: serving_stage_config(),
                ..ServeConfig::default()
            }) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("loadgen: cannot start in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = server.local_addr().to_string();
            (Some(server), addr)
        }
    };

    println!(
        "loadgen: {} round-trips across {} instances against {addr} at {} rt/s target \
         (codec {}, predict batch size {})",
        args.rounds,
        args.instances,
        args.qps,
        codec_name(args.codec),
        args.batch
    );

    let bucket = Mutex::new(TokenBucket::new(args.qps, (args.qps / 10.0).max(1.0)));
    let started = Instant::now();
    let results: Vec<ThreadResult> =
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for instance in 0..args.instances {
                let rounds = per_instance_rounds(args.rounds, args.instances, instance);
                let addr = addr.as_str();
                let bucket = &bucket;
                let seed = args.seed;
                let batch = args.batch;
                let codec = args.codec;
                handles.push(scope.spawn(move || {
                    drive_instance(instance, rounds, addr, bucket, seed, batch, codec)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("driver panicked"))
                .collect()
        });
    let elapsed = started.elapsed().as_secs_f64();

    // Merge thread tallies.
    let mut predict_samples = Vec::new();
    let mut observe_samples = Vec::new();
    let mut predict_retries = 0;
    let mut observe_retries = 0;
    let mut dropped_observes = 0;
    let mut batch_requests = 0;
    let mut order_mismatches = 0;
    let mut codec_mismatches = 0;
    let mut sources = SourceCounts {
        cache: 0,
        local: 0,
        global: 0,
        default: 0,
    };
    for r in &results {
        predict_samples.extend_from_slice(&r.predict_samples);
        observe_samples.extend_from_slice(&r.observe_samples);
        predict_retries += r.predict_retries;
        observe_retries += r.observe_retries;
        dropped_observes += r.dropped_observes;
        batch_requests += r.batch_requests;
        order_mismatches += r.order_mismatches;
        codec_mismatches += r.codec_mismatches;
        sources.cache += r.sources.cache;
        sources.local += r.sources.local;
        sources.global += r.sources.global;
        sources.default += r.sources.default;
    }

    // Cross-check the server's ingestion counters: every observe the
    // clients believe was accepted must be visible server-side, every
    // prediction (batched, scalar, or cross-codec) must have advanced a
    // routing counter, and the batch counter must match the batches each
    // thread got served.
    let mut counter_mismatch = false;
    if let Ok(mut client) = ServeClient::connect(&addr) {
        for (idx, r) in results.iter().enumerate() {
            let instance = idx as u32;
            let expected_observes = per_instance_rounds(args.rounds, args.instances, instance);
            match client.stats(instance) {
                Ok(Response::Stats {
                    routing,
                    observes,
                    predict_batches,
                    ..
                }) => {
                    if observes != expected_observes
                        || routing.total() != r.expected_predicts
                        || predict_batches != r.batch_requests
                    {
                        eprintln!(
                            "loadgen: instance {instance}: server saw {observes} observes / \
                             {} predicts / {predict_batches} batches, expected \
                             {expected_observes} / {} / {}",
                            routing.total(),
                            r.expected_predicts,
                            r.batch_requests
                        );
                        counter_mismatch = true;
                    }
                }
                other => {
                    eprintln!("loadgen: stats({instance}) failed: {other:?}");
                    counter_mismatch = true;
                }
            }
        }
        if server.is_some() {
            let _ = client.shutdown();
        }
    }
    if let Some(server) = server {
        if let Err(e) = server.join() {
            eprintln!("loadgen: server shutdown error: {e}");
        }
    }

    let report = ServeBenchReport {
        codec: codec_name(args.codec).to_string(),
        instances: args.instances,
        round_trips: args.rounds,
        batch: args.batch,
        predict_batch_requests: batch_requests,
        order_mismatches,
        codec_mismatches,
        target_qps: args.qps,
        elapsed_secs: elapsed,
        round_trips_per_sec: args.rounds as f64 / elapsed,
        requests_per_sec: 2.0 * args.rounds as f64 / elapsed,
        predict_latency: summarize(&mut predict_samples),
        observe_latency: summarize(&mut observe_samples),
        predict_overload_retries: predict_retries,
        observe_overload_retries: observe_retries,
        dropped_observes,
        sources,
        server_in_process: args.addr.is_none(),
    };

    println!(
        "loadgen: {} round-trips in {:.2}s = {:.0} rt/s ({:.0} req/s) on {}",
        report.round_trips,
        report.elapsed_secs,
        report.round_trips_per_sec,
        report.requests_per_sec,
        report.codec,
    );
    println!(
        "loadgen: predict p50/p95/p99 = {:.0}/{:.0}/{:.0} µs, observe = {:.0}/{:.0}/{:.0} µs",
        report.predict_latency.p50_us,
        report.predict_latency.p95_us,
        report.predict_latency.p99_us,
        report.observe_latency.p50_us,
        report.observe_latency.p95_us,
        report.observe_latency.p99_us,
    );
    println!(
        "loadgen: sources cache/local/global/default = {}/{}/{}/{}, \
         overload retries predict={} observe={}, dropped observes={}, codec mismatches={}",
        report.sources.cache,
        report.sources.local,
        report.sources.global,
        report.sources.default,
        report.predict_overload_retries,
        report.observe_overload_retries,
        report.dropped_observes,
        report.codec_mismatches,
    );

    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::File::create(&args.out) {
        Ok(f) => {
            if let Err(e) = serde_json::to_writer_pretty(f, &report) {
                eprintln!("loadgen: cannot write {}: {e}", args.out);
                return ExitCode::FAILURE;
            }
            println!("loadgen: wrote {}", args.out);
        }
        Err(e) => {
            eprintln!("loadgen: cannot create {}: {e}", args.out);
            return ExitCode::FAILURE;
        }
    }

    if dropped_observes > 0 || counter_mismatch || order_mismatches > 0 || codec_mismatches > 0 {
        eprintln!(
            "loadgen: FAILED: lost feedback (dropped={dropped_observes}), \
             misordered batch answers (order_mismatches={order_mismatches}), or \
             codec divergence (codec_mismatches={codec_mismatches})"
        );
        return ExitCode::FAILURE;
    }
    if args.smoke {
        println!("loadgen smoke OK ({})", report.codec);
    }
    ExitCode::SUCCESS
}

/// Splits `total` round-trips across instances (remainder to the low ids).
fn per_instance_rounds(total: u64, instances: u32, instance: u32) -> u64 {
    let base = total / u64::from(instances);
    let extra = u64::from(u64::from(instance) < total % u64::from(instances));
    base + extra
}

/// One instance's driver: replays its workload events as paced
/// predict→observe round-trips over its own connection. With `batch > 1`
/// predictions travel through `PredictBatch` in groups, order-checked
/// against the scalar verb on the leading batches. The leading groups are
/// additionally re-priced through the *other* codec and must answer
/// bit-identically.
fn drive_instance(
    instance: u32,
    rounds: u64,
    addr: &str,
    bucket: &Mutex<TokenBucket>,
    seed: u64,
    batch: u64,
    codec: Codec,
) -> ThreadResult {
    let workload = InstanceWorkload::generate(
        &FleetConfig {
            n_instances: 64, // id space; only this shard's stream is built
            duration_days: 1.0,
            seed,
            max_events_per_instance: 20_000,
            ..FleetConfig::tiny()
        },
        instance,
    );
    let mut result = ThreadResult {
        predict_samples: Vec::new(),
        observe_samples: Vec::new(),
        predict_retries: 0,
        observe_retries: 0,
        dropped_observes: 0,
        sources: SourceCounts {
            cache: 0,
            local: 0,
            global: 0,
            default: 0,
        },
        expected_predicts: 0,
        batch_requests: 0,
        order_mismatches: 0,
        codec_mismatches: 0,
    };
    let mut client = match connect_codec(addr, codec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: instance {instance}: cannot connect: {e}");
            result.dropped_observes = rounds;
            return result;
        }
    };
    // The differential witness: same server, opposite codec. Opened lazily
    // failure-tolerant — a missing witness fails the cross-check loudly
    // rather than silently skipping it.
    let alt_codec = match codec {
        Codec::Binary => Codec::Json,
        Codec::Json => Codec::Binary,
    };
    let mut alt_client = connect_codec(addr, alt_codec).ok();

    let mut done = 0u64;
    let mut group_idx = 0u64;
    while done < rounds {
        let group_len = batch.max(1).min(rounds - done) as usize;
        let mut events = Vec::with_capacity(group_len);
        for k in 0..group_len {
            // Pace the *round-trip* rate; the observe rides the same token.
            bucket.lock().expect("bucket poisoned").take();
            events.push(&workload.events[((done + k as u64) as usize) % workload.events.len()]);
        }

        // Price the group on the driving codec, remembering the answers
        // for the cross-codec comparison.
        let mut answers: Vec<Option<(f64, stage_core::PredictionSource)>> = Vec::new();
        if batch > 1 {
            answers = drive_batch(
                instance,
                &workload,
                &events,
                &mut client,
                &mut result,
                group_idx < ORDER_CHECK_BATCHES,
            );
        } else if let Some(event) = events.first() {
            let sys = workload.spec.system_features(event.concurrency);
            answers.push(predict_scalar(
                instance,
                &event.plan,
                &sys,
                &mut client,
                &mut result,
            ));
        }

        // Cross-codec differential: predictions are pure reads, so asking
        // the same question over the other wire format must answer with
        // the same bits and the same source.
        if group_idx < CROSS_CODEC_GROUPS {
            match alt_client.as_mut() {
                Some(alt) => {
                    for (event, main_answer) in events.iter().zip(&answers) {
                        let Some((main_secs, main_source)) = main_answer else {
                            continue;
                        };
                        let sys = workload.spec.system_features(event.concurrency);
                        let Some((alt_secs, alt_source)) =
                            predict_scalar(instance, &event.plan, &sys, alt, &mut result)
                        else {
                            result.codec_mismatches += 1;
                            continue;
                        };
                        if alt_secs.to_bits() != main_secs.to_bits() || alt_source != *main_source {
                            eprintln!(
                                "loadgen: instance {instance}: codec divergence: \
                                 {} answered {main_secs} ({main_source:?}), \
                                 {} answered {alt_secs} ({alt_source:?})",
                                codec_name(codec),
                                codec_name(alt_codec),
                            );
                            result.codec_mismatches += 1;
                        }
                    }
                }
                None => {
                    eprintln!("loadgen: instance {instance}: no cross-codec witness connection");
                    result.codec_mismatches += 1;
                }
            }
        }

        // Observe (must never drop — retried until ingested). The recorded
        // latency is the successful attempt's round trip only; backoff
        // sleeps and refused attempts never pollute the percentiles.
        for event in &events {
            let sys = workload.spec.system_features(event.concurrency);
            match client.observe_with_retry_timed(
                instance,
                &event.plan,
                &sys,
                event.true_exec_secs,
                MAX_RETRIES,
            ) {
                Ok((retries, served_in)) => {
                    result.observe_samples.push(served_in.as_secs_f64());
                    result.observe_retries += u64::from(retries);
                }
                Err(e) => {
                    eprintln!("loadgen: instance {instance}: observe dropped: {e}");
                    result.dropped_observes += 1;
                }
            }
        }
        done += group_len as u64;
        group_idx += 1;
    }
    result
}

/// One scalar predict with bounded retry on shed requests (they were never
/// executed). Returns the answer when one arrived. Latency is recorded per
/// successful attempt (never the backoff sleeps).
fn predict_scalar(
    instance: u32,
    plan: &stage_plan::PhysicalPlan,
    sys: &[f64],
    client: &mut ServeClient,
    result: &mut ThreadResult,
) -> Option<(f64, stage_core::PredictionSource)> {
    let mut attempts = 0;
    loop {
        let t0 = Instant::now();
        match client.predict(instance, plan, sys) {
            Ok(Response::Predicted {
                exec_secs, source, ..
            }) => {
                result.predict_samples.push(t0.elapsed().as_secs_f64());
                result.expected_predicts += 1;
                match source {
                    stage_core::PredictionSource::Cache => result.sources.cache += 1,
                    stage_core::PredictionSource::Local => result.sources.local += 1,
                    stage_core::PredictionSource::Global => result.sources.global += 1,
                    stage_core::PredictionSource::Default => result.sources.default += 1,
                }
                return Some((exec_secs, source));
            }
            Ok(Response::Overloaded { retry_after_ms }) => {
                result.predict_retries += 1;
                attempts += 1;
                if attempts > MAX_RETRIES {
                    eprintln!("loadgen: instance {instance}: predict starved");
                    return None;
                }
                std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.max(1)));
            }
            other => {
                eprintln!("loadgen: instance {instance}: predict failed: {other:?}");
                return None;
            }
        }
    }
}

/// Prices one group of events through `PredictBatch` (bounded retry on
/// shed batches) and, on `order_check` groups, re-prices every plan through
/// the scalar verb asserting bit-identical index-aligned answers. Returns
/// the per-position answers for the cross-codec comparison.
fn drive_batch(
    instance: u32,
    workload: &InstanceWorkload,
    events: &[&stage_workload::QueryEvent],
    client: &mut ServeClient,
    result: &mut ThreadResult,
    order_check: bool,
) -> Vec<Option<(f64, stage_core::PredictionSource)>> {
    let plans: Vec<_> = events.iter().map(|e| e.plan.clone()).collect();
    // One system context prices the whole batch (the protocol's contract:
    // a queue-full admitted at the same instant).
    let sys = workload.spec.system_features(events[0].concurrency);

    let mut attempts = 0;
    let predictions = loop {
        let t0 = Instant::now();
        match client.predict_batch(instance, &plans, &sys) {
            Ok(Response::PredictionsBatch { predictions, .. }) => {
                let per_prediction = t0.elapsed().as_secs_f64() / plans.len() as f64;
                for _ in 0..plans.len() {
                    result.predict_samples.push(per_prediction);
                }
                result.batch_requests += 1;
                result.expected_predicts += plans.len() as u64;
                break predictions;
            }
            Ok(Response::Overloaded { retry_after_ms }) => {
                result.predict_retries += 1;
                attempts += 1;
                if attempts > MAX_RETRIES {
                    eprintln!("loadgen: instance {instance}: batch predict starved");
                    return Vec::new();
                }
                std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.max(1)));
            }
            other => {
                eprintln!("loadgen: instance {instance}: batch predict failed: {other:?}");
                return Vec::new();
            }
        }
    };

    if predictions.len() != plans.len() {
        eprintln!(
            "loadgen: instance {instance}: batch answered {} predictions for {} plans",
            predictions.len(),
            plans.len()
        );
        result.order_mismatches += 1;
        return Vec::new();
    }
    for p in &predictions {
        match p.source {
            stage_core::PredictionSource::Cache => result.sources.cache += 1,
            stage_core::PredictionSource::Local => result.sources.local += 1,
            stage_core::PredictionSource::Global => result.sources.global += 1,
            stage_core::PredictionSource::Default => result.sources.default += 1,
        }
    }
    if order_check {
        // Predictions are pure reads of model state, so re-pricing the same
        // plan under the same system context must answer identically — any
        // index shuffle inside the batch shows up here.
        for (k, bp) in predictions.iter().enumerate() {
            let Some((exec_secs, source)) =
                predict_scalar(instance, &plans[k], &sys, client, result)
            else {
                continue;
            };
            if exec_secs.to_bits() != bp.exec_secs.to_bits() || source != bp.source {
                eprintln!(
                    "loadgen: instance {instance}: batch position {k} diverged from scalar: \
                     {} ({:?}) vs {} ({:?})",
                    bp.exec_secs, bp.source, exec_secs, source
                );
                result.order_mismatches += 1;
            }
        }
    }
    predictions
        .iter()
        .map(|p| Some((p.exec_secs, p.source)))
        .collect()
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        instances: 2,
        rounds: 10_000,
        qps: 2_000.0,
        seed: 42,
        batch: 1,
        codec: Codec::Binary,
        addr: None,
        out: "results/bench_serve.json".to_string(),
        smoke: false,
    };
    let mut explicit_rounds = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--instances" => {
                i += 1;
                args.instances = parse_val(&argv, i, "--instances")?;
            }
            "--rounds" => {
                i += 1;
                args.rounds = parse_val(&argv, i, "--rounds")?;
                explicit_rounds = true;
            }
            "--qps" => {
                i += 1;
                args.qps = parse_val(&argv, i, "--qps")?;
            }
            "--seed" => {
                i += 1;
                args.seed = parse_val(&argv, i, "--seed")?;
            }
            "--batch" => {
                i += 1;
                args.batch = parse_val(&argv, i, "--batch")?;
            }
            "--codec" => {
                i += 1;
                args.codec = match argv.get(i).map(|s| s.as_str()) {
                    Some("binary") => Codec::Binary,
                    Some("json") => Codec::Json,
                    other => {
                        eprintln!("loadgen: --codec must be binary or json, got {other:?}");
                        return None;
                    }
                };
            }
            "--addr" => {
                i += 1;
                args.addr = Some(argv.get(i)?.clone());
            }
            "--out" => {
                i += 1;
                args.out = argv.get(i)?.clone();
            }
            "--smoke" => args.smoke = true,
            other => {
                eprintln!("loadgen: unknown flag {other}");
                eprintln!(
                    "usage: loadgen [--instances N] [--rounds N] [--qps F] [--seed N] \
                     [--batch N] [--codec binary|json] [--addr HOST:PORT] [--out FILE] [--smoke]"
                );
                return None;
            }
        }
        i += 1;
    }
    if args.smoke && !explicit_rounds {
        args.rounds = 400;
    }
    if args.instances == 0 || args.rounds == 0 || args.qps <= 0.0 || args.batch == 0 {
        eprintln!("loadgen: instances, rounds, qps, and batch must be positive");
        return None;
    }
    Some(args)
}

fn parse_val<T: std::str::FromStr>(argv: &[String], i: usize, flag: &str) -> Option<T> {
    match argv.get(i).and_then(|s| s.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("loadgen: invalid value for {flag}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_paces() {
        let mut tb = TokenBucket::new(1000.0, 5.0);
        // The initial burst is free...
        for _ in 0..5 {
            assert!(tb.try_take());
        }
        // ...then tokens only arrive with time.
        assert!(!tb.try_take());
        let t0 = Instant::now();
        tb.take();
        assert!(t0.elapsed() >= Duration::from_micros(200));
    }
}
