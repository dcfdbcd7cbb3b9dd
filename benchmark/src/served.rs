//! The served workloads' load generator: an in-process `Server` with the
//! default `StageConfig`, and closed-loop clients — AutoWLM asks, waits for
//! the answer, runs the query, then reports the observed time — one
//! binary-codec connection and one disjoint set of shards each.

use crate::corpus::{owned_shards, route, Workload};
use stage_core::PredictionSource;
use stage_plan::PhysicalPlan;
use stage_serve::{Response, ServeClient, ServeConfig, Server};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Retries an `Overloaded` Observe gets before it counts as dropped.
const OBSERVE_RETRIES: u32 = 8;

/// One served prediction as the client received it. Absent interval
/// bounds are NaN.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub secs: f64,
    pub lo: f64,
    pub hi: f64,
    pub source: PredictionSource,
}

impl Answer {
    /// Placeholder for a request that got no prediction; it keeps answers
    /// index-aligned with queries and is already counted as failed.
    pub const MISSING: Answer = Answer {
        secs: f64::NAN,
        lo: f64::NAN,
        hi: f64::NAN,
        source: PredictionSource::Default,
    };

    pub fn new(secs: f64, lo: Option<f64>, hi: Option<f64>, source: PredictionSource) -> Self {
        Self {
            secs,
            lo: lo.unwrap_or(f64::NAN),
            hi: hi.unwrap_or(f64::NAN),
            source,
        }
    }

    pub fn is_missing(&self) -> bool {
        self.secs.is_nan()
    }

    /// Bit-for-bit equality, NaN bounds (no interval) included.
    pub fn same_bits(&self, other: &Answer) -> bool {
        self.secs.to_bits() == other.secs.to_bits()
            && self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.source == other.source
    }
}

pub fn boot(shards: u32, global_model_path: Option<PathBuf>) -> io::Result<Server> {
    Server::start(ServeConfig {
        n_instances: shards,
        global_model_path,
        ..ServeConfig::default()
    })
}

/// Observes every shard's set-up queries, clients in parallel.
pub fn warm_up(w: &Workload, addr: SocketAddr, clients: usize) -> io::Result<()> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> io::Result<()> {
                    let mut client = ServeClient::connect(addr)?;
                    for shard in owned_shards(w.spec.shards, clients, c) {
                        for q in w.setup_queries(shard) {
                            client.observe_with_retry(
                                shard,
                                &q.plan,
                                &q.sys,
                                q.true_secs,
                                OBSERVE_RETRIES,
                            )?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up client panicked"))
    })
}

/// What one client sent and got back during the timed window.
pub struct Ledger {
    pub owned: Vec<u32>,
    /// Per Predict / PredictBatch request, ns (on `replay_inproc`, per
    /// replayed event: predict and observe together).
    pub predict_ns: Vec<u32>,
    /// Per Observe, successful attempt only, ns.
    pub observe_ns: Vec<u32>,
    /// One per query, in the order sent.
    pub answers: Vec<Answer>,
    /// Completed operations: a Predict (or PredictBatch) and its Observes.
    pub ops: usize,
    pub requests: u64,
    pub failed: u64,
    pub retries: u64,
    pub elapsed: Duration,
    /// Over the first `accuracy_prefix` queries: summed |served − true| in
    /// seconds and in `ln(1+s)` space, and every `ln(1+true)`.
    pub abs_err_sum: f64,
    pub abs_log_err_sum: f64,
    pub log_true: Vec<f64>,
    /// Every owned shard reached `max_per_shard` before the window ended.
    pub exhausted: bool,
}

/// Room for every sample a window can produce. Reserved up front and only
/// touched as it fills, so the vectors never reallocate mid-window: a
/// doubling copy would add its old half to `peak_rss_mb` in just those
/// runs that were fast enough to cross the boundary.
const LEDGER_CAPACITY: usize = 1 << 21;

impl Ledger {
    pub fn with_capacity(owned: Vec<u32>) -> Self {
        Self {
            predict_ns: Vec::with_capacity(LEDGER_CAPACITY),
            observe_ns: Vec::with_capacity(LEDGER_CAPACITY),
            answers: Vec::with_capacity(LEDGER_CAPACITY),
            ..Self::new(owned)
        }
    }

    pub fn new(owned: Vec<u32>) -> Self {
        Self {
            owned,
            predict_ns: Vec::new(),
            observe_ns: Vec::new(),
            answers: Vec::new(),
            ops: 0,
            requests: 0,
            failed: 0,
            retries: 0,
            elapsed: Duration::ZERO,
            abs_err_sum: 0.0,
            abs_log_err_sum: 0.0,
            log_true: Vec::new(),
            exhausted: false,
        }
    }
}

impl Ledger {
    /// Adds one query of the accuracy prefix.
    pub fn score(&mut self, served_secs: f64, true_secs: f64) {
        let log_true = true_secs.ln_1p();
        self.abs_err_sum += (served_secs - true_secs).abs();
        self.abs_log_err_sum += (served_secs.ln_1p() - log_true).abs();
        self.log_true.push(log_true);
    }
}

/// A latency sample: ns, saturating at 4.29 s.
pub fn nanos(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn client_loop(
    w: &Workload,
    addr: SocketAddr,
    owned: Vec<u32>,
    seconds: f64,
    start: &Barrier,
) -> io::Result<Ledger> {
    let spec = &w.spec;
    let batch = spec.batch;
    let op_budget = match w.shard_budget() {
        usize::MAX => usize::MAX,
        per_shard => owned.len() * (per_shard / batch),
    };
    let mut client = ServeClient::connect(addr)?;
    // Finish the codec handshake before the clock starts.
    client.stats(owned[0])?;
    let mut l = Ledger::with_capacity(owned);
    let mut plans: Vec<PhysicalPlan> = Vec::with_capacity(batch);
    start.wait();
    let t0 = Instant::now();
    loop {
        if l.ops >= op_budget {
            l.exhausted = true;
            break;
        }
        let (shard, b) = route(&l.owned, l.ops);
        let first = b * batch;
        let answered_before = l.answers.len();
        l.requests += 1;
        if batch == 1 {
            let q = w.query(shard, first);
            let t = Instant::now();
            let response = client.predict(shard, &q.plan, &q.sys)?;
            l.predict_ns.push(nanos(t.elapsed()));
            match response {
                Response::Predicted {
                    exec_secs,
                    interval_lo,
                    interval_hi,
                    source,
                    ..
                } => l
                    .answers
                    .push(Answer::new(exec_secs, interval_lo, interval_hi, source)),
                _ => {
                    l.failed += 1;
                    l.answers.push(Answer::MISSING);
                }
            }
        } else {
            plans.clear();
            plans.extend((0..batch).map(|k| w.query(shard, first + k).plan.clone()));
            let t = Instant::now();
            let response = client.predict_batch(shard, &plans, &w.query(shard, first).sys)?;
            l.predict_ns.push(nanos(t.elapsed()));
            match response {
                Response::PredictionsBatch { predictions, .. } if predictions.len() == batch => {
                    l.answers.extend(
                        predictions.iter().map(|p| {
                            Answer::new(p.exec_secs, p.interval_lo, p.interval_hi, p.source)
                        }),
                    );
                }
                _ => {
                    l.failed += 1;
                    l.answers.extend((0..batch).map(|_| Answer::MISSING));
                }
            }
        }
        for k in 0..batch {
            let q = w.query(shard, first + k);
            l.requests += 1;
            match client.observe_with_retry_timed(
                shard,
                &q.plan,
                &q.sys,
                q.true_secs,
                OBSERVE_RETRIES,
            ) {
                Ok((retries, took)) => {
                    l.retries += u64::from(retries);
                    l.observe_ns.push(nanos(took));
                }
                // Still overloaded after every retry, or rejected: a
                // dropped observe. A broken socket ends the run instead.
                Err(e) if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::Other) => {
                    l.failed += 1;
                }
                Err(e) => return Err(e),
            }
            let a = l.answers[answered_before + k];
            if answered_before + k < spec.accuracy_prefix && !a.is_missing() {
                l.score(a.secs, q.true_secs);
            }
        }
        l.ops += 1;
        if l.answers.len() >= spec.accuracy_prefix && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    l.elapsed = t0.elapsed();
    Ok(l)
}

/// Runs the timed window: every client loops for `seconds` (and at least
/// its accuracy prefix), all released together.
pub fn run_clients(
    w: &Workload,
    addr: SocketAddr,
    clients: usize,
    seconds: f64,
) -> io::Result<Vec<Ledger>> {
    let start = Barrier::new(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let owned = owned_shards(w.spec.shards, clients, c);
                let start = &start;
                scope.spawn(move || client_loop(w, addr, owned, seconds, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Operations client-side ledger `l` completed on the shard at position
/// `k` of its owned list.
pub fn ops_on(l: &Ledger, k: usize) -> usize {
    let n = l.owned.len();
    l.ops / n + usize::from(k < l.ops % n)
}

/// Server-side totals from the `Stats` verb, summed over shards.
#[derive(Debug, Default, Clone)]
pub struct ServerTotals {
    pub timed_out: u64,
    pub drift_detections: u64,
    pub forced_retrains: u64,
    pub coverage_sum: f64,
    pub coverage_n: u64,
    /// Shards whose counters disagree with the client ledgers.
    pub stats_mismatch: u64,
    pub first_mismatch: Option<String>,
}

/// Asks every shard for its `Stats` and holds them against what the
/// clients sent it: observes (set-up included), predictions, batches.
pub fn reconcile(w: &Workload, addr: SocketAddr, ledgers: &[Ledger]) -> io::Result<ServerTotals> {
    let mut totals = ServerTotals::default();
    let mut client = ServeClient::connect(addr)?;
    let setup_observes = |shard| w.setup_queries(shard).count() as u64;
    for l in ledgers {
        for (k, &shard) in l.owned.iter().enumerate() {
            let ops = ops_on(l, k) as u64;
            let queries = ops * w.spec.batch as u64;
            let Response::Stats {
                routing,
                observes,
                predict_batches,
                timed_out,
                drift_detections,
                forced_retrains,
                interval_coverage,
                ..
            } = client.stats(shard)?
            else {
                return Err(io::Error::other(format!("shard {shard}: no Stats answer")));
            };
            let want_batches = if w.spec.batch > 1 { ops } else { 0 };
            if observes != setup_observes(shard) + queries
                || routing.total() != queries
                || predict_batches != want_batches
            {
                totals.stats_mismatch += 1;
                totals.first_mismatch.get_or_insert_with(|| {
                    format!(
                        "shard {shard}: server saw {observes} observes / {} predictions / \
                         {predict_batches} batches, clients sent {} / {queries} / {want_batches}",
                        routing.total(),
                        setup_observes(shard) + queries,
                    )
                });
            }
            totals.timed_out += timed_out;
            totals.drift_detections += drift_detections;
            totals.forced_retrains += forced_retrains;
            if let Some(c) = interval_coverage {
                totals.coverage_sum += c;
                totals.coverage_n += 1;
            }
        }
    }
    Ok(totals)
}
