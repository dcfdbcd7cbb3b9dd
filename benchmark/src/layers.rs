//! The traced run of a served workload: the per-layer numbers.
//!
//! One harness thread sends the workload's own request sequence to the
//! server through a thin client (`TcpStream` + `wire::*`), and for every
//! request replays the server's chain itself — decode, predict, calibrate,
//! encode — on a mirror `ShardRegistry`, with a span around each call into
//! a layer's public functions. What the socket round trip cost beyond that
//! chain is `serve.residual_us`: socket, `poll`, inbox and scheduling, the
//! share nothing in-process can account for. The mirror is also a full
//! oracle: every served answer is held against it bit for bit.

use crate::check::{source_index, Verdict};
use crate::corpus::{owned_shards, route, Query, Workload};
use crate::inproc::predict_span;
use crate::served::Answer;
use crate::trace::Tracer;
use stage_core::{ExecTimeCache, GlobalModel, Prediction, StageConfig, SystemContext};
use stage_plan::{plan_feature_vector, PhysicalPlan};
use stage_serve::protocol::{read_message, write_message};
use stage_serve::wire::{self, HANDSHAKE};
use stage_serve::{BatchPrediction, Request, Response, ShardRegistry};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per `LocalModel::predict_batch` measurement.
const BATCH_ROWS: usize = 64;

/// The mirror of the server's shards, fed the same set-up.
pub fn mirror_registry(
    w: &Workload,
    global: Option<&Arc<GlobalModel>>,
    threads: usize,
) -> ShardRegistry {
    let registry = ShardRegistry::new(w.spec.shards, StageConfig::default());
    if let Some(g) = global {
        registry.set_global(Arc::clone(g));
    }
    std::thread::scope(|scope| {
        for c in 0..threads {
            let registry = &registry;
            scope.spawn(move || {
                for shard in owned_shards(w.spec.shards, threads, c) {
                    for q in w.setup_queries(shard) {
                        registry.with_shard_write(shard, |s| {
                            s.observe(&q.plan, &q.context(), q.true_secs)
                        });
                    }
                }
            });
        }
    });
    registry
}

/// Snapshot timings, each the median of [`STORE_ROUNDS`].
#[derive(Debug, Default, Clone)]
pub struct StoreTimings {
    pub checkpoint_ms: f64,
    pub checkpoint_dirty_ms: f64,
    pub restore_ms: f64,
    pub bytes: u64,
    pub restore_mismatch: u64,
}

const STORE_ROUNDS: usize = 7;

pub struct TracedServed {
    pub tracer: Tracer,
    /// Shards the operations were routed over.
    pub shards: Vec<u32>,
    /// Per Predict request: round trip minus the in-process chain, µs.
    pub residual_us: Vec<f64>,
    /// Per Predict request: write to reply complete, ns.
    pub wait_ns: Vec<u64>,
    pub request_bytes: u64,
    pub requests: u64,
    pub plans: u64,
    pub plan_nodes: u64,
    pub mirror_hits: u64,
    pub mirror_misses: u64,
    pub batch_ns_per_row: Vec<u64>,
    pub predict_batch_ns_per_row: Vec<u64>,
    pub fits: u64,
    pub sources: [u64; 4],
    pub failed: u64,
    pub verdict: Verdict,
    pub ops: usize,
    pub wall: Duration,
}

struct Harness<'a> {
    w: &'a Workload,
    registry: &'a ShardRegistry,
    global: Option<&'a Arc<GlobalModel>>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    mirrors: Vec<Option<ExecTimeCache>>,
    /// Request payload, frame, reply payload, encoded reply, JSON line.
    payload: Vec<u8>,
    frame: Vec<u8>,
    reply: Vec<u8>,
    encoded: Vec<u8>,
    json: Vec<u8>,
    rows: Vec<Vec<f64>>,
    out: TracedServed,
}

fn bad_reply(what: &str, response: &Response) -> io::Error {
    io::Error::other(format!("{what}: unexpected reply {response:?}"))
}

/// The mirror exec-time cache of `shard`, created on first use with the
/// shard's set-up observes already recorded.
fn mirror_of<'m>(
    mirrors: &'m mut [Option<ExecTimeCache>],
    w: &Workload,
    shard: u32,
) -> &'m mut ExecTimeCache {
    mirrors[shard as usize].get_or_insert_with(|| {
        let mut cache = ExecTimeCache::new(StageConfig::default().cache);
        for q in w.setup_queries(shard) {
            cache.record(q.key, q.true_secs);
        }
        cache
    })
}

impl Harness<'_> {
    /// The client half of one request: encode, frame, send, wait, decode.
    /// Leaves the request payload in `self.payload`; returns the reply and
    /// the wait in ns.
    fn round_trip(&mut self, request: &Request) -> io::Result<(Response, u64)> {
        let t = &mut self.out.tracer;
        self.payload.clear();
        t.leaf("serve.wire.encode_request", || {
            wire::encode_request(request, &mut self.payload)
        });
        self.frame.clear();
        let (framed, _) = t.leaf("serve.wire.frame_crc", || {
            wire::frame_into(&mut self.frame, &self.payload)?;
            wire::try_unframe(&self.frame).map(|_| ())
        });
        framed?;
        self.out.request_bytes += self.frame.len() as u64;
        self.out.requests += 1;
        let (got, wait_ns) = t.leaf("serve.wait", || {
            self.writer.write_all(&self.frame)?;
            wire::read_frame(&mut self.reader, &mut self.reply)
        });
        if !got? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let (response, _) = t.leaf("serve.wire.decode_response", || {
            wire::decode_response(&self.reply)
        });
        Ok((response?, wait_ns))
    }

    /// The server half of a Predict / PredictBatch, replayed in-process on
    /// the mirror. Returns the mirror's answers and the chain's ns.
    fn chain_predict(&mut self, shard: u32) -> io::Result<(Vec<Answer>, u64)> {
        let chain = self.out.tracer.enter("inproc.predict");
        let (decoded, decode_ns) = self.out.tracer.leaf("serve.wire.decode_request", || {
            wire::decode_request(&self.payload)
        });
        let (plans, sys, scalar): (Vec<PhysicalPlan>, Vec<f64>, bool) = match decoded? {
            Request::Predict { plan, sys, .. } => (vec![plan], sys, true),
            Request::PredictBatch { plans, sys, .. } => (plans, sys, false),
            other => return Err(io::Error::other(format!("not a predict: {other:?}"))),
        };
        let sys = SystemContext { features: sys };
        let registry = self.registry;
        let (predictions, predict_ns): (Vec<Prediction>, u64) =
            self.out.tracer.leaf("core.predict_batch", || {
                registry
                    .with_shard_write(shard, |s| match plans.as_slice() {
                        [plan] if scalar => vec![s.predict(plan, &sys)],
                        plans => s.predict_batch(plans, &sys),
                    })
                    .expect("mirror hosts every shard")
            });
        if scalar {
            self.out
                .tracer
                .rename_last(predict_span(predictions[0].source));
        } else {
            self.out
                .predict_batch_ns_per_row
                .push(predict_ns / plans.len() as u64);
        }
        let (intervals, calibrate_ns) = self.out.tracer.leaf("core.calibrate", || {
            registry
                .with_shard_write(shard, |s| {
                    predictions
                        .iter()
                        .map(|p| s.calibrated_interval(p))
                        .collect::<Vec<_>>()
                })
                .expect("mirror hosts every shard")
        });
        let answers: Vec<Answer> = predictions
            .iter()
            .zip(&intervals)
            .map(|(p, i)| {
                let (lo, hi) = i.unzip();
                Answer::new(p.exec_secs, lo, hi, p.source)
            })
            .collect();
        let response = match answers.as_slice() {
            [a] if scalar => Response::Predicted {
                exec_secs: a.secs,
                interval_lo: intervals[0].map(|i| i.0),
                interval_hi: intervals[0].map(|i| i.1),
                source: a.source,
                latency_us: 0,
            },
            _ => Response::PredictionsBatch {
                predictions: predictions
                    .iter()
                    .zip(&intervals)
                    .map(|(p, i)| BatchPrediction {
                        exec_secs: p.exec_secs,
                        interval_lo: i.map(|i| i.0),
                        interval_hi: i.map(|i| i.1),
                        source: p.source,
                    })
                    .collect(),
                latency_us: 0,
            },
        };
        self.encoded.clear();
        let (_, encode_ns) = self.out.tracer.leaf("serve.wire.encode_response", || {
            wire::encode_response(&response, &mut self.encoded)
        });
        self.out.tracer.exit(chain);
        for p in &predictions {
            self.out.sources[source_index(p.source)] += 1;
        }

        // Calls the server makes inside `predict`, and the JSON codec it
        // would have used instead, timed on their own.
        let side = self.out.tracer.enter("layers");
        for plan in &plans {
            self.out.plans += 1;
            self.out.plan_nodes += plan.node_count() as u64;
            let (features, _) = self
                .out
                .tracer
                .leaf("plan.feature_vector", || plan_feature_vector(plan));
            let (key, _) = self.out.tracer.leaf("plan.hash", || {
                ExecTimeCache::key_of_features(features.as_slice())
            });
            let mirror = mirror_of(&mut self.mirrors, self.w, shard);
            let (hit, _) = self
                .out
                .tracer
                .leaf("core.cache.lookup", || mirror.lookup(key).is_some());
            if hit {
                self.out.mirror_hits += 1;
            } else {
                self.out.mirror_misses += 1;
            }
            self.rows.push(features.0);
        }
        let trained = registry
            .with_shard_read(shard, |s| s.predictor().local().is_trained())
            .unwrap_or(false);
        if trained {
            let row = self.rows.last().expect("a plan was predicted");
            self.out.tracer.leaf("gbdt.ensemble_predict", || {
                registry.with_shard_read(shard, |s| s.predictor().local().predict(row))
            });
            if self.rows.len() >= BATCH_ROWS {
                let rows = &self.rows;
                let (_, ns) = self.out.tracer.leaf("gbdt.ensemble_predict_batch", || {
                    registry.with_shard_read(shard, |s| s.predictor().local().predict_batch(rows))
                });
                self.out.batch_ns_per_row.push(ns / rows.len() as u64);
            }
        }
        if self.rows.len() >= BATCH_ROWS {
            self.rows.clear();
        }
        if let Some(g) = self.global {
            self.out
                .tracer
                .leaf("nn.gcn_forward", || g.predict(&plans[0], &sys));
        }
        self.json.clear();
        let request = if scalar {
            Request::Predict {
                instance: shard,
                plan: plans.into_iter().next().expect("one plan"),
                sys: sys.features,
            }
        } else {
            Request::PredictBatch {
                instance: shard,
                plans,
                sys: sys.features,
            }
        };
        write_message(&mut self.json, &request)?;
        let (parsed, _) = self.out.tracer.leaf("serve.json.decode_request", || {
            read_message::<Request, _>(&mut self.json.as_slice())
        });
        parsed?;
        self.out.tracer.exit(side);
        Ok((answers, decode_ns + predict_ns + calibrate_ns + encode_ns))
    }

    /// The server half of an Observe on the mirror.
    fn chain_observe(&mut self, shard: u32, q: &Query) -> io::Result<()> {
        let registry = self.registry;
        let trainings = || {
            registry
                .with_shard_read(shard, |s| s.predictor().local().trainings())
                .unwrap_or(0)
        };
        let chain = self.out.tracer.enter("inproc.observe");
        let (decoded, _) = self.out.tracer.leaf("serve.wire.decode_request", || {
            wire::decode_request(&self.payload)
        });
        let Request::Observe {
            plan,
            sys,
            actual_secs,
            ..
        } = decoded?
        else {
            return Err(io::Error::other("not an observe"));
        };
        let sys = SystemContext { features: sys };
        let before = trainings();
        self.out.tracer.leaf("core.observe", || {
            registry.with_shard_write(shard, |s| s.observe(&plan, &sys, actual_secs))
        });
        if trainings() != before {
            self.out.tracer.rename_last("gbdt.fit");
            self.out.fits += 1;
        }
        self.encoded.clear();
        self.out.tracer.leaf("serve.wire.encode_response", || {
            wire::encode_response(&Response::Observed { latency_us: 0 }, &mut self.encoded)
        });
        self.out.tracer.exit(chain);
        let mirror = mirror_of(&mut self.mirrors, self.w, shard);
        self.out
            .tracer
            .leaf("core.cache.record", || mirror.record(q.key, q.true_secs));
        Ok(())
    }

    fn op(&mut self, j: usize, all: &[u32]) -> io::Result<()> {
        let w = self.w;
        let batch = w.spec.batch;
        let (shard, b) = route(all, j);
        let first = b * batch;
        self.out.tracer.set_query(j as u32);
        let root = self.out.tracer.enter("query");
        let (request, _) = self.out.tracer.leaf("bench.build_request", || {
            let q = w.query(shard, first);
            if batch == 1 {
                Request::Predict {
                    instance: shard,
                    plan: q.plan.clone(),
                    sys: q.sys.clone(),
                }
            } else {
                Request::PredictBatch {
                    instance: shard,
                    plans: (0..batch)
                        .map(|k| w.query(shard, first + k).plan.clone())
                        .collect(),
                    sys: q.sys.clone(),
                }
            }
        });
        let (response, wait_ns) = self.round_trip(&request)?;
        let served: Vec<Answer> = match &response {
            Response::Predicted {
                exec_secs,
                interval_lo,
                interval_hi,
                source,
                ..
            } => vec![Answer::new(*exec_secs, *interval_lo, *interval_hi, *source)],
            Response::PredictionsBatch { predictions, .. } => predictions
                .iter()
                .map(|p| Answer::new(p.exec_secs, p.interval_lo, p.interval_hi, p.source))
                .collect(),
            _ => {
                self.out.failed += 1;
                Vec::new()
            }
        };
        let (mirror, chain_ns) = self.chain_predict(shard)?;
        self.out.wait_ns.push(wait_ns);
        self.out
            .residual_us
            .push((wait_ns as f64 - chain_ns as f64) / 1_000.0);
        if served.len() != mirror.len() {
            self.out.verdict.miss(|| {
                format!(
                    "shard {shard}: {} answers for {} plans",
                    served.len(),
                    mirror.len()
                )
            });
        }
        for (t, (got, want)) in served.iter().zip(&mirror).enumerate() {
            self.out.verdict.oracle_checked += 1;
            if !got.same_bits(want) {
                self.out.verdict.miss(|| {
                    format!(
                        "shard {shard} query {}: served {got:?}, mirror {want:?}",
                        first + t
                    )
                });
            }
        }
        for k in 0..batch {
            let q = w.query(shard, first + k);
            let (request, _) = self
                .out
                .tracer
                .leaf("bench.build_request", || Request::Observe {
                    instance: shard,
                    plan: q.plan.clone(),
                    sys: q.sys.clone(),
                    actual_secs: q.true_secs,
                });
            let (response, _) = self.round_trip(&request)?;
            if !matches!(response, Response::Observed { .. }) {
                return Err(bad_reply("observe", &response));
            }
            self.chain_observe(shard, q)?;
        }
        self.out.tracer.exit(root);
        self.out.ops += 1;
        Ok(())
    }
}

/// Shards the traced run sends to. Where shards are bounded
/// (`global_heavy`) it fills as few as `traced_ops` needs rather than
/// touching each once: a shard's first request faults in its cache's
/// pages, on the server and on the mirror, and a run made only of first
/// requests would report that as the cost of every layer it passes.
pub fn traced_shards(w: &Workload) -> Vec<u32> {
    let needed = match w.shard_budget() {
        usize::MAX => w.spec.shards as usize,
        per_shard => (w.spec.traced_ops * w.spec.batch).div_ceil(per_shard),
    };
    (0..w.spec.shards).take(needed).collect()
}

/// Runs `traced_ops` operations of the workload against `addr`, mirrored
/// on `registry`.
pub fn traced(
    w: &Workload,
    addr: SocketAddr,
    registry: &ShardRegistry,
    global: Option<&Arc<GlobalModel>>,
) -> io::Result<TracedServed> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    writer.set_read_timeout(Some(Duration::from_secs(30)))?;
    writer.write_all(&HANDSHAKE)?;
    let mut reader = BufReader::new(writer.try_clone()?);
    let mut ack = [0u8; 4];
    reader.read_exact(&mut ack)?;
    if ack != HANDSHAKE {
        return Err(io::Error::other("server did not ack the binary handshake"));
    }
    let ops = w.spec.traced_ops;
    let all = traced_shards(w);
    let mut h = Harness {
        w,
        registry,
        global,
        writer,
        reader,
        mirrors: (0..w.spec.shards).map(|_| None).collect(),
        payload: Vec::new(),
        frame: Vec::new(),
        reply: Vec::new(),
        encoded: Vec::new(),
        json: Vec::new(),
        rows: Vec::with_capacity(BATCH_ROWS),
        out: TracedServed {
            tracer: Tracer::new(ops * w.spec.batch * 24),
            shards: all.clone(),
            residual_us: Vec::with_capacity(ops),
            wait_ns: Vec::with_capacity(ops),
            request_bytes: 0,
            requests: 0,
            plans: 0,
            plan_nodes: 0,
            mirror_hits: 0,
            mirror_misses: 0,
            batch_ns_per_row: Vec::new(),
            predict_batch_ns_per_row: Vec::new(),
            fits: 0,
            sources: [0; 4],
            failed: 0,
            verdict: Verdict::default(),
            ops: 0,
            wall: Duration::ZERO,
        },
    };
    let t0 = Instant::now();
    for j in 0..ops {
        h.op(j, &all)?;
    }
    h.out.wall = t0.elapsed();
    Ok(h.out)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Snapshot cost on `registry` as the traced run left it: a full
/// checkpoint, a dirty one after 100 more observes, a restore into a
/// fresh registry, and 64 probes that the restored shards answer with the
/// same bits.
pub fn measure_store(
    w: &Workload,
    registry: &ShardRegistry,
    dir: &Path,
    ops_done: usize,
) -> io::Result<StoreTimings> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1_000.0;
    let all: Vec<u32> = (0..w.spec.shards).collect();
    let (mut full, mut dirty, mut restore) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = StoreTimings::default();
    let mut next = ops_done;
    for _ in 0..STORE_ROUNDS {
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        registry.save_snapshots(dir)?;
        full.push(ms(t));
        for _ in 0..100 {
            let (shard, i) = route(&all, next);
            let q = w.query(shard, i);
            registry.with_shard_write(shard, |s| s.observe(&q.plan, &q.context(), q.true_secs));
            next += 1;
        }
        let t = Instant::now();
        registry.save_snapshots(dir)?;
        dirty.push(ms(t));
        out.bytes = dir_bytes(dir);
        let restored = ShardRegistry::new(w.spec.shards, StageConfig::default());
        let t = Instant::now();
        let summary = restored.load_snapshots(dir);
        restore.push(ms(t));
        if summary.restored != w.spec.shards {
            out.restore_mismatch += 1;
        }
        for probe in 0..64 {
            let (shard, i) = route(&all, next + probe);
            let q = w.query(shard, i);
            let ask =
                |r: &ShardRegistry| r.with_shard_write(shard, |s| s.predict(&q.plan, &q.context()));
            let (a, b) = (ask(registry), ask(&restored));
            let same = matches!((a, b), (Some(a), Some(b))
                if a.exec_secs.to_bits() == b.exec_secs.to_bits() && a.source == b.source);
            if !same {
                out.restore_mismatch += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    out.checkpoint_ms = crate::stats::median(&mut full);
    out.checkpoint_dirty_ms = crate::stats::median(&mut dirty);
    out.restore_ms = crate::stats::median(&mut restore);
    Ok(out)
}
