//! The one driver for a `stage-serve` under faults (DESIGN.md §10).
//!
//! [`run`] applies a `&[Step]` to a real server through [`ServeClient`] and
//! to a model — one plain [`StagePredictor`] per shard, consulting its own
//! [`FaultPlan`] built from the same configuration as the server's — and
//! checks after every step that the two cannot be told apart: answers and
//! interval bounds by `to_bits`, `source`, every `Stats` counter, and after
//! every checkpoint pass every artefact on disk — the model's sections
//! where the pass wrote, a torn image where its plan tore the write, and
//! the bytes that were there where a clean shard was skipped or the pass
//! never got that far — so a restart can restore the model from those
//! bytes: they are what it would have written.
//!
//! A finished run's [`Report`] holds the served reply of every step: what
//! a fixed trace asserts on beyond the model's agreement.
//! [`Link::deliver`] is the only at-least-once loop in the repository.
//! [`falsify`] turns a diverging trace into a label (the seed), a shrunk
//! trace and a Rust literal that pastes back in as a fixed trace.

use stage_chaos::{FaultPlan, FaultPlanConfig, FaultSite, SitePolicy};
use stage_core::storefmt::{self, snapshot_sections};
use stage_core::{
    plan_to_tree_sample, ComponentFaults, DegradedStats, ExecTimePredictor, GlobalModel,
    GlobalModelConfig, PersistFaults, Prediction, StageConfig, StagePredictor, SystemContext,
};
use stage_plan::{OperatorKind, PhysicalPlan, PlanBuilder, PlanNode, S3Format};
use stage_serve::{
    wire, BatchPrediction, Codec, Request, Response, ServeClient, ServeConfig, Server,
    ShardRegistry,
};
use stage_store::StoreView;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The system-context vector every step sends (the global models below are
/// trained at this width).
pub const SYS: [f64; 2] = [0.0, 0.0];

/// Sends of one verb before the driver gives up on the server.
const MAX_SENDS: u32 = 200;

/// A unique temp dir per use; removed on drop so reruns start clean.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{name}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The counter a shard verb moves when the server applies it, read out of
/// a `Stats` reply (an unknown shard's is an `Error`: no verb moves it).
fn moved(request: &Request, stats: &Response) -> u64 {
    match (request, stats) {
        (_, Response::Error { .. }) => 0,
        (Request::Predict { .. }, Response::Stats { routing, .. }) => routing.total(),
        (
            Request::PredictBatch { .. },
            Response::Stats {
                predict_batches, ..
            },
        ) => *predict_batches,
        (Request::Observe { .. }, Response::Stats { observes, .. }) => *observes,
        _ => panic!("{request:?} moves no counter of {stats:?}"),
    }
}

/// The shard a request names, if any.
fn shard_of(request: &Request) -> Option<u32> {
    match request {
        Request::Predict { instance, .. }
        | Request::PredictBatch { instance, .. }
        | Request::Observe { instance, .. }
        | Request::Stats { instance } => Some(*instance),
        Request::Snapshot | Request::Shutdown => None,
    }
}

/// A client connection that outlives its sockets.
pub struct Link {
    addr: SocketAddr,
    codec: Codec,
    client: Option<ServeClient>,
    /// I/O errors met so far; each one cost a connection.
    pub io_errors: u64,
}

impl Link {
    pub fn new(addr: SocketAddr, codec: Codec) -> Self {
        Self {
            addr,
            codec,
            client: None,
            io_errors: 0,
        }
    }

    fn retarget(&mut self, addr: SocketAddr, codec: Codec) {
        (self.addr, self.codec, self.client) = (addr, codec, None);
    }

    fn call(&mut self, request: &Request) -> io::Result<Response> {
        if self.client.is_none() {
            let timeout = Some(stage_serve::client::DEFAULT_IO_TIMEOUT);
            let client = ServeClient::connect_with_codec(self.addr, timeout, self.codec)?;
            self.client = Some(client);
        }
        let reply = self.client.as_mut().expect("just connected").call(request);
        if reply.is_err() {
            self.io_errors += 1;
            self.client = None;
        }
        reply
    }

    /// Delivers `request` at least once: sends until a reply arrives. A send
    /// that met an I/O error may or may not have been applied, so before
    /// resending a shard verb the link reconnects and reads the shard's
    /// `Stats` (idempotent, delivered the same way) to see whether the
    /// counter the verb moves went past `before` — its value before the
    /// first send. Returns the reply and how many unanswered sends the
    /// server applied; the answered one is the caller's to count.
    pub fn deliver(&mut self, request: &Request, before: u64) -> (Response, u64) {
        // `Stats` moves nothing: it is resent blind.
        let shard = shard_of(request).filter(|_| !matches!(request, Request::Stats { .. }));
        let mut lost = 0;
        for _ in 0..MAX_SENDS {
            match (self.call(request), shard) {
                (Ok(Response::Overloaded { retry_after_ms }), _) => {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                (Ok(reply), _) => return (reply, lost),
                (Err(_), None) => {}
                (Err(_), Some(instance)) => {
                    let (stats, _) = self.deliver(&Request::Stats { instance }, 0);
                    let applied = moved(request, &stats) - before;
                    assert!(
                        applied == lost || applied == lost + 1,
                        "one send moved the counter from {lost} to {applied}"
                    );
                    lost = applied;
                }
            }
        }
        panic!("{request:?}: no reply in {MAX_SENDS} sends");
    }
}

/// A CRC-valid binary frame whose payload lies about its own shape: it
/// passes `try_unframe` and must die in `decode_request`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame {
    /// `read_plans`: a `PredictBatch` claiming 1000 plans, carrying one.
    PlansCount,
    /// `f64s`: a `Predict` whose `sys` claims 1000 floats, carrying two.
    SysCount,
    /// The plan node's child count: a leaf claiming 1000 children.
    ChildCount,
    /// A plan nested past `MAX_PLAN_DEPTH`.
    DeepPlan,
}

/// One step of a trace. `Debug` output is a Rust expression (given
/// `use Step::*` and `use Frame::*`), which is how a shrunk trace is
/// printed.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Predict {
        shard: u32,
        plan: u32,
    },
    /// Plans `first .. first + len`, in order.
    PredictBatch {
        shard: u32,
        first: u32,
        len: u32,
    },
    Observe {
        shard: u32,
        plan: u32,
        secs: f64,
    },
    Stats {
        shard: u32,
    },
    Snapshot,
    /// Graceful shutdown (final checkpoint) and start: the state continues.
    Restart,
    /// `kill -9`: the files go back to what the last completed checkpoint
    /// left, optionally with the truncated `*.tmp` sibling a kill
    /// mid-checkpoint leaves behind.
    Kill {
        torn_tmp: bool,
    },
    /// The shard's artefact loses its second half in place: damage the
    /// crash-safe writer never does (a disk fault), which the next start
    /// must quarantine unless a checkpoint rewrites the file first.
    Truncate {
        shard: u32,
    },
    /// Reconnect on the other codec (binary ↔ JSON).
    SwitchCodec,
    /// Publish the next global-model generation and wait for the server to
    /// install it.
    HotSwap,
    /// Arm (`true`) or disarm both fault plans.
    Faults(bool),
    Garbage(Frame),
}

/// The query behind a plan id: forty table sizes, made distinct per id.
pub fn plan_of(id: u32) -> PhysicalPlan {
    PlanBuilder::select()
        .scan("oracle", S3Format::Local, secs_of(id) * 1e5, 64.0)
        .hash_aggregate(0.01)
        .finish()
}

/// The steady-state exec-time of [`plan_of`]`(id)`.
pub fn secs_of(id: u32) -> f64 {
    (f64::from(id % 40 + 1) * 1e4 + f64::from(id)) / 1e5
}

/// Relative weights [`generate`] draws step kinds with, in the order
/// Predict, PredictBatch, Observe, Stats, Snapshot, Restart, Kill,
/// SwitchCodec, HotSwap, Faults, Garbage.
pub type Mix = [u32; 11];
/// Predict / PredictBatch / Observe / Stats only.
pub const TRAFFIC: Mix = [300, 50, 500, 60, 0, 0, 0, 0, 0, 0, 0];
/// Everything the driver can do.
pub const EVERYTHING: Mix = [300, 50, 500, 60, 30, 10, 10, 15, 1, 10, 15];

/// A seed-deterministic trace of `n` steps over `shards` shards: six in ten
/// plans are new, the rest repeat one of the last fifty, and from step
/// `0.6 n` on every exec-time is ×30 (the drift episode).
pub fn generate(seed: u64, n: usize, shards: u32, mix: &Mix) -> Vec<Step> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_plan = 0u32;
    let mut plan = |rng: &mut StdRng| {
        if next_plan == 0 || rng.gen_range(0..10) < 6 {
            next_plan += 1;
            next_plan - 1
        } else {
            rng.gen_range(next_plan.saturating_sub(50)..next_plan)
        }
    };
    let frames = [
        Frame::PlansCount,
        Frame::SysCount,
        Frame::ChildCount,
        Frame::DeepPlan,
    ];
    (0..n)
        .map(|i| {
            let shard = rng.gen_range(0..shards);
            let mut draw = rng.gen_range(0..mix.iter().sum());
            let kind = mix.iter().position(|&weight| {
                let hit = draw < weight;
                draw = draw.saturating_sub(weight);
                hit
            });
            match kind.expect("the draw is below the total weight") {
                0 => Step::Predict {
                    shard,
                    plan: plan(&mut rng),
                },
                1 => Step::PredictBatch {
                    shard,
                    first: plan(&mut rng),
                    len: rng.gen_range(0..6),
                },
                2 => {
                    let plan = plan(&mut rng);
                    let shift = if i * 10 >= n * 6 { 30.0 } else { 1.0 };
                    Step::Observe {
                        shard,
                        plan,
                        secs: secs_of(plan) * shift,
                    }
                }
                3 => Step::Stats { shard },
                4 => Step::Snapshot,
                5 => Step::Restart,
                6 => Step::Kill {
                    torn_tmp: rng.gen_range(0..2) == 0,
                },
                7 => Step::SwitchCodec,
                8 => Step::HotSwap,
                9 => Step::Faults(rng.gen_range(0..3) > 0),
                _ => Step::Garbage(frames[rng.gen_range(0..frames.len())]),
            }
        })
        .collect()
}

/// What a trace runs against.
#[derive(Debug, Clone)]
pub struct Setup {
    pub shards: u32,
    /// The server's fault plan and the model's are each built from this (a
    /// configuration with no site enabled injects nothing).
    pub faults: FaultPlanConfig,
    /// Self-test only: the model ignores every `Observe` of this plan.
    pub sabotage: Option<u32>,
}

/// `shards` shards served under a fault plan with `sites` enabled (none:
/// the plan is installed and injects nothing).
pub fn setup(shards: u32, seed: u64, sites: &[(FaultSite, SitePolicy)]) -> Setup {
    let config = FaultPlanConfig::new(seed).stall(Duration::from_millis(1));
    let with = |config: FaultPlanConfig, &(site, policy)| config.site(site, policy);
    Setup {
        shards,
        faults: sites.iter().fold(config, with),
        sabotage: None,
    }
}

/// The ensemble every trace serves: a thousand steps cross dozens of refits
/// in well under a second.
pub fn small_stage() -> StageConfig {
    let mut stage = StageConfig::default();
    stage.local.ensemble.n_members = 2;
    stage.local.ensemble.n_estimators = 10;
    stage.local.min_train_examples = 20;
    stage.local.retrain_interval = 20;
    stage
}

/// Two different global models, trained once per test process; generation
/// `g` publishes `globals()[g % 2]`.
fn globals() -> &'static [GlobalModel; 2] {
    static MODELS: OnceLock<[GlobalModel; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        let sys = SystemContext::empty(SYS.len());
        let config = GlobalModelConfig {
            hidden: 8,
            gcn_layers: 1,
            epochs: 3,
            ..GlobalModelConfig::default()
        };
        [1.0, 3.0].map(|scale| {
            let samples: Vec<_> = (0..25)
                .map(|id| plan_to_tree_sample(&plan_of(id), &sys, secs_of(id) * scale))
                .collect();
            GlobalModel::train(&samples, SYS.len(), &config)
        })
    })
}

/// The library predictor plus the per-process state a served shard adds.
struct ModelShard {
    predictor: StagePredictor,
    observes: u64,
    predict_batches: u64,
    snapshots_skipped: u64,
    /// No verb has moved the shard since this process last wrote its
    /// artefact: the next checkpoint pass skips it.
    saved: bool,
}

/// What one or more checkpoint passes did, as the model ran them.
struct Passes {
    /// Whether the last pass reached the end (`false`: a write failed).
    completed: bool,
    /// Per shard: `None` if no pass wrote its artefact, else whether the
    /// last write was torn on its way to disk.
    wrote: Vec<Option<bool>>,
}

/// What a completed trace did: what the ledgers and vacuity checks read.
#[derive(Debug, Default)]
pub struct Report {
    /// Per step, the served reply (its clock reading zeroed) that the model
    /// matched: `None` for a step that sends no verb, or whose reply the
    /// sockets lost. `Restart` and `Kill` answer the `Shutdown` verb.
    pub replies: Vec<Option<Response>>,
    /// The server's fault plan (its `injected` counters are the ledger).
    pub plan: Option<Arc<FaultPlan>>,
    pub io_errors: u64,
    /// `Observe`s the server applied whose reply never arrived.
    pub lost_observes: u64,
    /// `Snapshot` steps answered `Error` (every one beside an injection).
    pub snapshot_errors: u64,
    /// Clean shards the checkpoint passes skipped (the served shards count
    /// the same: `Stats::snapshots_skipped`).
    pub skipped: u64,
    /// `*.quarantine` files found after a start; the model restarted each
    /// of those shards cold and the next `Stats` found the served one equal.
    pub quarantined: u64,
    /// The closing `Stats` sweep, summed over the shards (`observes`: of
    /// the last process lifetime).
    pub observes: u64,
    pub answered_global: u64,
    pub degraded: DegradedStats,
    pub drift_detections: u64,
    pub forced_retrains: u64,
}

struct Run<'a> {
    setup: &'a Setup,
    dir: TempDir,
    server: Option<Server>,
    link: Link,
    served_plan: Arc<FaultPlan>,
    model_plan: Arc<FaultPlan>,
    shards: Vec<ModelShard>,
    /// Each shard's artefact as the last checkpoint attempt left it: the
    /// bytes a kill goes back to and a start restores (`None`: no file).
    disk: Vec<Option<Vec<u8>>>,
    /// Generation of the published global model (0: none yet).
    generation: u64,
    global: Option<Arc<GlobalModel>>,
    report: Report,
}

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Runs `steps` against a fresh server and a fresh model. `Err` is the
/// index of the first step after which the two differed, and how.
pub fn run(setup: &Setup, steps: &[Step]) -> Result<Report, (usize, String)> {
    let mut run = Run {
        setup,
        dir: TempDir::new("stage-oracle"),
        server: None,
        link: Link::new(([127, 0, 0, 1], 0).into(), Codec::Binary),
        served_plan: Arc::new(FaultPlan::new(setup.faults.clone())),
        model_plan: Arc::new(FaultPlan::new(setup.faults.clone())),
        shards: Vec::new(),
        disk: vec![None; setup.shards as usize],
        generation: 0,
        global: None,
        report: Report::default(),
    };
    run.shards = (0..setup.shards).map(|i| run.cold(i)).collect();
    run.boot().map_err(|what| (0, what))?;
    for (i, step) in steps.iter().enumerate() {
        let reply = run.step(step).map_err(|what| (i, what))?;
        run.report.replies.push(reply);
    }
    run.finish().map_err(|what| (steps.len(), what))?;
    Ok(run.report)
}

/// `served` must be the reply the model expects, compared as the bytes the
/// binary codec puts on the wire for each — an `f64` travels as its
/// `to_bits` image, so equal bytes are equal bits — with the one field that
/// is a clock reading zeroed. Returns `served` so zeroed.
fn same_reply(served: &Response, model: &Response) -> Result<Response, String> {
    let mut served = served.clone();
    if let Response::Predicted { latency_us, .. }
    | Response::PredictionsBatch { latency_us, .. }
    | Response::Observed { latency_us } = &mut served
    {
        *latency_us = 0;
    }
    let image = |reply: &Response| {
        let mut bytes = Vec::new();
        wire::encode_response(reply, &mut bytes);
        bytes
    };
    ensure!(
        image(&served) == image(model),
        "served {served:?}, the library answers {model:?}"
    );
    Ok(served)
}

impl Run<'_> {
    fn artefact(&self, shard: usize) -> PathBuf {
        ShardRegistry::snapshot_path(&self.dir.0, shard as u32)
    }

    /// A model shard as `ShardRegistry::new` builds it.
    fn cold(&self, shard: u32) -> ModelShard {
        let mut predictor = StagePredictor::new(small_stage());
        predictor.set_instance_salt(u64::from(shard));
        self.fresh_process(predictor)
    }

    /// What a starting server makes of a predictor: counters at zero, fault
    /// hook and global model attached.
    fn fresh_process(&self, mut predictor: StagePredictor) -> ModelShard {
        predictor.set_component_faults(Arc::clone(&self.model_plan) as Arc<dyn ComponentFaults>);
        if let Some(global) = &self.global {
            predictor.set_global(Arc::clone(global));
        }
        ModelShard {
            predictor,
            observes: 0,
            predict_batches: 0,
            snapshots_skipped: 0,
            saved: false,
        }
    }

    /// Starts a server on whatever the directory holds and brings the model
    /// to the same state: every shard restored from the model's own record
    /// of its artefact, cold where the record says absent or torn — and
    /// cold, too, where the server quarantined a file, which only an
    /// injected restore fault or a torn artefact may explain.
    fn boot(&mut self) -> Result<(), String> {
        let flips_before = self.served_plan.injected(FaultSite::PersistRestore);
        let server = Server::start(ServeConfig {
            n_instances: self.setup.shards,
            stage: small_stage(),
            snapshot_dir: Some(self.dir.0.clone()),
            global_model_path: Some(self.dir.0.join("global.store")),
            chaos: Some(Arc::clone(&self.served_plan)),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server did not start: {e}"))?;
        let published = (self.generation > 0).then_some(self.generation);
        ensure!(
            server.global_generation() == published,
            "started on global generation {:?}, published {published:?}",
            server.global_generation()
        );
        self.link.retarget(server.local_addr(), self.link.codec);
        self.server = Some(server);

        let flips = self.served_plan.injected(FaultSite::PersistRestore) - flips_before;
        let (mut quarantined, mut torn) = (0, 0);
        for i in 0..self.shards.len() {
            let mut aside = self.artefact(i).into_os_string();
            aside.push(".quarantine");
            let set_aside = Path::new(&aside).exists();
            let _ = std::fs::remove_file(&aside);
            let restored = self.disk[i]
                .as_deref()
                .and_then(|bytes| self.restore(bytes));
            let unreadable = self.disk[i].is_some() && restored.is_none();
            ensure!(
                set_aside || !unreadable,
                "shard {i}: a torn artefact was not quarantined"
            );
            self.shards[i] = match restored {
                Some(predictor) if !set_aside => self.fresh_process(predictor),
                _ => self.cold(i as u32),
            };
            if set_aside {
                quarantined += 1;
                torn += u64::from(unreadable);
                self.disk[i] = None;
            }
        }
        ensure!(
            quarantined - torn <= flips && flips <= quarantined,
            "{quarantined} artefacts quarantined: {torn} were torn, {flips} bit flips injected"
        );
        self.report.quarantined += quarantined;
        (0..self.setup.shards).try_for_each(|shard| self.stats(shard).map(drop))
    }

    /// A predictor restored from an artefact's bytes the way a server reads
    /// them; `None` if they do not restore (the server quarantines those).
    fn restore(&self, artefact: &[u8]) -> Option<StagePredictor> {
        let path = self.dir.0.join("model.store");
        std::fs::write(&path, artefact).ok()?;
        let snapshot = storefmt::load_stage_store(&path, None).ok()?;
        Some(StagePredictor::from_snapshot(snapshot))
    }

    /// Runs `n` checkpoint passes on the model as `save_snapshots` runs them:
    /// in shard order, a shard no verb has moved since this process wrote it
    /// is skipped and counts that; any other is written through the model's
    /// own fault plan, which may tear the image on its way to disk or fail
    /// the write — and a failed write ends the pass.
    fn checkpoint(&mut self, n: u64) -> Passes {
        let plan: &dyn PersistFaults = &*self.model_plan;
        let mut passes = Passes {
            completed: true,
            wrote: vec![None; self.shards.len()],
        };
        for _ in 0..n {
            passes.completed = true;
            for (shard, wrote) in self.shards.iter_mut().zip(&mut passes.wrote) {
                if shard.saved {
                    shard.snapshots_skipped += 1;
                    self.report.skipped += 1;
                    continue;
                }
                let (at, mut image) = (Path::new(""), vec![0; 2]);
                let written = plan.before_write(at, &mut image);
                if written.and_then(|()| plan.on_fsync(at)).is_err() {
                    passes.completed = false;
                    break;
                }
                shard.saved = true;
                *wrote = Some(image.len() < 2);
            }
        }
        passes
    }

    /// Stops the server with the `Shutdown` verb — and where the sockets
    /// lost it or its reply, with the same drain called in-process (it is
    /// idempotent) — then runs its final checkpoint on the model too: both
    /// must end the same way. Every thread must join — a panic anywhere in
    /// the server ends here. Returns the verb's reply, if one arrived.
    fn stop(&mut self) -> Result<(Option<Response>, Passes), String> {
        let reply = self.link.call(&Request::Shutdown).ok();
        self.link.client = None;
        let server = self.server.take().expect("a booted run has a server");
        if !matches!(reply, Some(Response::ShuttingDown)) {
            server.shutdown();
        }
        let stopped = server.join();
        let panicked = matches!(&stopped, Err(e) if e.to_string().contains("panicked"));
        ensure!(!panicked, "server thread died: {stopped:?}");
        let passes = self.checkpoint(1);
        ensure!(
            stopped.is_ok() == passes.completed,
            "final checkpoint: {stopped:?}, the model's completed: {}",
            passes.completed
        );
        Ok((reply, passes))
    }

    /// Reads every artefact and checks it is what the model's passes left:
    /// its sections as of now where the last write went through, bytes that
    /// do not parse where that write was torn, and where nothing wrote — a
    /// clean shard skipped, a failed write, a pass that ended earlier — the
    /// bytes that were there before, torn ones included.
    fn audit_disk(&mut self, wrote: &[Option<bool>]) -> Result<(), String> {
        for (i, wrote) in wrote.iter().enumerate() {
            let found = std::fs::read(self.artefact(i)).ok();
            let legal = match (wrote, found.as_deref().map(StoreView::parse)) {
                (None, _) => found == self.disk[i],
                (Some(true), parsed) => matches!(parsed, Some(Err(_))),
                (Some(false), Some(Ok(view))) => {
                    let now = snapshot_sections(&self.shards[i].predictor.snapshot());
                    view.section_ids().iter().eq(now.iter().map(|(id, _)| id))
                        && now
                            .iter()
                            .all(|(id, bytes)| view.section(*id) == Some(&bytes[..]))
                }
                _ => false,
            };
            ensure!(
                legal,
                "shard {i}: the artefact is not what the model left (wrote, torn: {wrote:?})"
            );
            self.disk[i] = found;
        }
        Ok(())
    }

    /// `kill`: `None` restarts gracefully; `Some(torn_tmp)` undoes whatever
    /// the dying process wrote after its last checkpoint attempt. Returns
    /// the `Shutdown` verb's reply.
    fn restart(&mut self, kill: Option<bool>) -> Result<Option<Response>, String> {
        let io = |e: io::Error| e.to_string();
        let (reply, passes) = self.stop()?;
        let Some(torn_tmp) = kill else {
            self.audit_disk(&passes.wrote)?;
            return self.boot().map(|()| reply);
        };
        for (i, bytes) in self.disk.iter().enumerate() {
            match bytes {
                Some(bytes) => std::fs::write(self.artefact(i), bytes).map_err(io)?,
                None => drop(std::fs::remove_file(self.artefact(i))),
            }
        }
        if let (true, Some(Some(bytes))) = (torn_tmp, self.disk.first()) {
            let mut tmp = self.artefact(0).into_os_string();
            tmp.push(".99999.0.tmp");
            std::fs::write(tmp, &bytes[..bytes.len() / 3]).map_err(io)?;
        }
        self.boot().map(|()| reply)
    }

    /// Applies `request` to the model and answers as `serve_request` would
    /// (latency zero).
    fn model_reply(&mut self, request: &Request) -> Response {
        let context = |sys: &[f64]| SystemContext {
            features: sys.to_vec(),
        };
        let n = self.shards.len();
        if let Some(instance) = shard_of(request).filter(|&i| i as usize >= n) {
            return Response::Error {
                message: format!("unknown instance {instance} (server hosts 0..{n})"),
            };
        }
        match request {
            Request::Predict {
                instance,
                plan,
                sys,
            } => {
                let s = &mut self.shards[*instance as usize];
                s.saved = false;
                let p = s.predictor.predict(plan, &context(sys));
                let (interval_lo, interval_hi) = s.predictor.calibrated_interval(&p).unzip();
                Response::Predicted {
                    exec_secs: p.exec_secs,
                    interval_lo,
                    interval_hi,
                    source: p.source,
                    latency_us: 0,
                }
            }
            Request::PredictBatch {
                instance,
                plans,
                sys,
            } => {
                let s = &mut self.shards[*instance as usize];
                s.predict_batches += 1;
                s.saved = false;
                let predictions = s.predictor.predict_batch(plans, &context(sys));
                let answers = predictions.into_iter().map(|p: Prediction| {
                    let (interval_lo, interval_hi) = s.predictor.calibrated_interval(&p).unzip();
                    BatchPrediction {
                        exec_secs: p.exec_secs,
                        interval_lo,
                        interval_hi,
                        source: p.source,
                    }
                });
                Response::PredictionsBatch {
                    predictions: answers.collect(),
                    latency_us: 0,
                }
            }
            Request::Observe {
                instance,
                plan,
                sys,
                actual_secs,
            } => {
                let s = &mut self.shards[*instance as usize];
                s.observes += 1;
                s.saved = false;
                s.predictor.observe(plan, &context(sys), *actual_secs);
                Response::Observed { latency_us: 0 }
            }
            Request::Stats { instance } => {
                let s = &self.shards[*instance as usize];
                let p = &s.predictor;
                Response::Stats {
                    routing: p.stats(),
                    observes: s.observes,
                    predict_batches: s.predict_batches,
                    cache_len: p.cache().len() as u64,
                    pool_len: p.pool().len() as u64,
                    local_trained: p.local().is_trained(),
                    degraded: p.degraded_stats(),
                    timed_out: 0,
                    snapshots_skipped: s.snapshots_skipped,
                    drift_detections: p.drift().detections(),
                    forced_retrains: p.drift().forced_retrains(),
                    checkpoint_failures: 0,
                    interval_coverage: p.drift().coverage(),
                }
            }
            other => panic!("the model has no reply to {other:?}"),
        }
    }

    /// Sends a shard verb, applies it to the model as often as the server
    /// applied it, and compares the answer with the model's last.
    fn shard_verb(&mut self, shard: u32, request: &Request) -> Result<Response, String> {
        let stats = self.model_reply(&Request::Stats { instance: shard });
        let (served, lost) = self.link.deliver(request, moved(request, &stats));
        let mut model = self.model_reply(request);
        for _ in 0..lost {
            model = self.model_reply(request);
        }
        self.report.lost_observes += lost * u64::from(matches!(request, Request::Observe { .. }));
        same_reply(&served, &model)
    }

    /// A shard's `Stats` against the model's, and the two plans' ledgers
    /// against each other: both were asked the same questions in order.
    fn stats(&mut self, shard: u32) -> Result<Response, String> {
        let request = Request::Stats { instance: shard };
        let (served, _) = self.link.deliver(&request, 0);
        let served = same_reply(&served, &self.model_reply(&request))?;
        for site in [
            FaultSite::LocalPredict,
            FaultSite::LocalRetrain,
            FaultSite::GlobalPredict,
            FaultSite::PersistWrite,
            FaultSite::PersistFsync,
        ] {
            let (served, model) = (
                self.served_plan.injected(site),
                self.model_plan.injected(site),
            );
            ensure!(
                served == model,
                "{site:?}: the server's plan injected {served}, the model's {model}"
            );
        }
        Ok(served)
    }

    /// Applies one step to both sides; returns the served reply it matched.
    fn step(&mut self, step: &Step) -> Result<Option<Response>, String> {
        let sys = SYS.to_vec();
        match *step {
            Step::Predict { shard, plan } => {
                let plan = plan_of(plan);
                let request = Request::Predict {
                    instance: shard,
                    plan,
                    sys,
                };
                self.shard_verb(shard, &request).map(Some)
            }
            Step::PredictBatch { shard, first, len } => {
                let request = Request::PredictBatch {
                    instance: shard,
                    plans: (first..first + len).map(plan_of).collect(),
                    sys,
                };
                self.shard_verb(shard, &request).map(Some)
            }
            Step::Observe { shard, plan, secs } => {
                let request = Request::Observe {
                    instance: shard,
                    plan: plan_of(plan),
                    sys,
                    actual_secs: secs,
                };
                if self.setup.sabotage == Some(plan) {
                    // The planted divergence: the server alone observes.
                    self.link.deliver(&request, 0);
                    return Ok(None);
                }
                self.shard_verb(shard, &request).map(Some)
            }
            Step::Stats { shard } => self.stats(shard).map(Some),
            Step::Snapshot => {
                let resends = self.link.io_errors;
                let (reply, _) = self.link.deliver(&Request::Snapshot, 0);
                // One pass per send that arrived. A send whose reply was lost
                // is a pass the driver did not see, but shard 0 did: every
                // pass after the first finds it clean, skips it and counts.
                let mut passes = 1;
                if self.link.io_errors > resends {
                    let (stats, _) = self.link.deliver(&Request::Stats { instance: 0 }, 0);
                    let Response::Stats {
                        snapshots_skipped, ..
                    } = stats
                    else {
                        return Err(format!("shard 0 answered {stats:?}"));
                    };
                    let first = &self.shards[0];
                    passes = snapshots_skipped + u64::from(!first.saved) - first.snapshots_skipped;
                }
                let passes = self.checkpoint(passes);
                match reply {
                    Response::Snapshotted { instances }
                        if instances == self.setup.shards && passes.completed => {}
                    Response::Error { .. } if !passes.completed => self.report.snapshot_errors += 1,
                    other => return Err(format!("snapshot answered {other:?}")),
                }
                self.audit_disk(&passes.wrote).map(|()| Some(reply))
            }
            Step::Restart => self.restart(None),
            Step::Kill { torn_tmp } => self.restart(Some(torn_tmp)),
            Step::Truncate { shard } => {
                let path = self.artefact(shard as usize);
                if let Some(bytes) = &mut self.disk[shard as usize] {
                    bytes.truncate(bytes.len() / 2);
                    std::fs::write(path, bytes).map_err(|e| e.to_string())?;
                }
                Ok(None)
            }
            Step::SwitchCodec => {
                let other = match self.link.codec {
                    Codec::Binary => Codec::Json,
                    Codec::Json => Codec::Binary,
                };
                self.link.retarget(self.link.addr, other);
                Ok(None)
            }
            Step::HotSwap => {
                self.generation += 1;
                let generation = self.generation;
                let path = self.dir.0.join("global.store");
                let model = &globals()[(generation % 2) as usize];
                storefmt::save_global_store(model, &path, generation, None)
                    .map_err(|e| e.to_string())?;
                let server = self.server.as_ref().expect("a booted run has a server");
                let deadline = Instant::now() + Duration::from_secs(10);
                while server.global_generation() != Some(generation) {
                    let waiting = Instant::now() < deadline;
                    ensure!(waiting, "generation {generation} never installed");
                    std::thread::sleep(Duration::from_millis(5));
                }
                // What the server read is what the model reads.
                let (loaded, _) =
                    storefmt::load_global_store(&path, None).map_err(|e| e.to_string())?;
                let loaded = Arc::new(loaded);
                for s in &mut self.shards {
                    s.predictor.set_global(Arc::clone(&loaded));
                }
                self.global = Some(loaded);
                Ok(None)
            }
            Step::Faults(armed) => {
                for plan in [&self.served_plan, &self.model_plan] {
                    if armed {
                        plan.rearm();
                    } else {
                        plan.disarm();
                    }
                }
                Ok(None)
            }
            Step::Garbage(frame) => {
                let probe = Request::Stats { instance: 0 };
                let mut probe_payload = Vec::new();
                wire::encode_request(&probe, &mut probe_payload);
                let payloads = [&garbage(frame)[..], &probe_payload[..]];
                let replies = (0..MAX_SENDS)
                    .find_map(|_| raw_exchange(self.link.addr, &payloads).ok())
                    .ok_or("garbage frame: no reply")?;
                let [Response::Error { message }, stats] = &replies[..] else {
                    return Err(format!("{frame:?} answered {replies:?}"));
                };
                let refused = message.starts_with("bad request");
                ensure!(refused, "{frame:?} answered {message:?}");
                // The same connection answered the next request, and the
                // shard is where the model left it.
                same_reply(stats, &self.model_reply(&probe)).map(|_| None)
            }
        }
    }

    /// The closing sweep: every shard's `Stats`, then a clean stop.
    fn finish(&mut self) -> Result<(), String> {
        self.step(&Step::Faults(false))?;
        for shard in 0..self.setup.shards {
            let Response::Stats {
                routing,
                observes,
                degraded,
                drift_detections,
                forced_retrains,
                ..
            } = self.stats(shard)?
            else {
                unreachable!("`stats` compared it with a `Stats`");
            };
            self.report.observes += observes;
            self.report.answered_global += routing.global;
            self.report.drift_detections += drift_detections;
            self.report.forced_retrains += forced_retrains;
            self.report.degraded.global_failover += degraded.global_failover;
            self.report.degraded.local_failover += degraded.local_failover;
            self.report.degraded.retrains_poisoned += degraded.retrains_poisoned;
            self.report.degraded.retrains_slowed += degraded.retrains_slowed;
        }
        let (_, passes) = self.stop()?;
        ensure!(passes.completed, "the disarmed final checkpoint failed");
        self.report.io_errors = self.link.io_errors;
        self.report.plan = Some(Arc::clone(&self.served_plan));
        self.audit_disk(&passes.wrote)
    }
}

/// The payload of a [`Frame`]: a valid request with one count overwritten,
/// or a plan too deep to decode.
fn garbage(frame: Frame) -> Vec<u8> {
    let sys = SYS.to_vec();
    let mut plan = plan_of(0);
    if frame == Frame::DeepPlan {
        for _ in 0..wire::MAX_PLAN_DEPTH + 8 {
            plan.root = PlanNode::internal(OperatorKind::ALL[0], 1.0, 1.0, 1.0, vec![plan.root]);
        }
    }
    let request = match frame {
        Frame::PlansCount => Request::PredictBatch {
            instance: 0,
            plans: vec![plan],
            sys,
        },
        _ => Request::Predict {
            instance: 0,
            plan,
            sys,
        },
    };
    let mut payload = Vec::new();
    wire::encode_request(&request, &mut payload);
    // `sys` closes both payloads: a u32 count and two f64s. Before it sits
    // the child count (zero) of the plan's last node, a leaf.
    let sys_count = payload.len() - 4 - 8 * SYS.len();
    let at = match frame {
        Frame::PlansCount => 1 + 4, // after the tag and the instance
        Frame::SysCount => sys_count,
        Frame::ChildCount => sys_count - 4,
        Frame::DeepPlan => return payload,
    };
    payload[at..at + 4].copy_from_slice(&1000u32.to_le_bytes());
    payload
}

/// One raw binary-codec connection: each payload framed (so its CRC is
/// right whatever it says), one reply read per payload.
fn raw_exchange(addr: SocketAddr, payloads: &[&[u8]]) -> io::Result<Vec<Response>> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(30)))?;
    sock.write_all(&wire::HANDSHAKE)?;
    sock.read_exact(&mut [0u8; wire::HANDSHAKE.len()])?;
    let mut replies = Vec::new();
    for payload in payloads {
        let (mut frame, mut reply) = (Vec::new(), Vec::new());
        wire::frame_into(&mut frame, payload)?;
        sock.write_all(&frame)?;
        if !wire::read_frame(&mut sock, &mut reply)? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        replies.push(wire::decode_response(&reply)?);
    }
    Ok(replies)
}

/// A diverging trace, made usable.
#[derive(Debug)]
pub struct Failure {
    /// Index of the first step of the original trace that diverged.
    pub step: usize,
    /// A shorter trace that still diverges.
    pub shrunk: Vec<Step>,
    /// Label, divergence, and the shrunk trace as a pasteable literal.
    pub message: String,
}

/// Runs a trace; if it diverges, shrinks it by delta debugging over steps
/// (drop a chunk, keep the drop if the rest still diverges, halve the
/// chunk) and reports. `label` names the trace — for a generated one, its
/// seed.
pub fn falsify(label: &str, setup: &Setup, steps: &[Step]) -> Result<Report, Failure> {
    let (step, what) = match run(setup, steps) {
        Ok(report) => return Ok(report),
        Err(diverged) => diverged,
    };
    let mut shrunk = steps[..steps.len().min(step + 1)].to_vec();
    let (mut runs, mut chunk) = (0, shrunk.len() / 2);
    while chunk > 0 {
        let mut at = 0;
        while at < shrunk.len() && runs < 300 {
            let mut candidate = shrunk.clone();
            candidate.drain(at..(at + chunk).min(shrunk.len()));
            runs += 1;
            match run(setup, &candidate) {
                Err((last, _)) => {
                    candidate.truncate(last + 1);
                    shrunk = candidate;
                }
                Ok(_) => at += chunk,
            }
        }
        chunk /= 2;
    }
    let message = format!(
        "{label}: step {step} ({:?}) diverged: {what}\n\
         shrunk to {} steps in {runs} runs; as a fixed trace:\n\
         check(\"{label}\", &setup, &{shrunk:?});",
        steps.get(step),
        shrunk.len(),
    );
    Err(Failure {
        step,
        shrunk,
        message,
    })
}

/// [`falsify`], panicking with the report on a divergence.
pub fn check(label: &str, setup: &Setup, steps: &[Step]) -> Report {
    falsify(label, setup, steps).unwrap_or_else(|failure| panic!("{}", failure.message))
}
