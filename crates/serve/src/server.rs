//! The serving loop: TCP accept → per-core event-loop shards → readiness
//! driven read/decode/dispatch/write state machines → shard registry.
//!
//! ```text
//!            ┌───────────────┐ inbox+wake ┌──────────────────┐ shard write lock
//! client ──► │ accept thread │ ─────────► │ event loop 0..L  │ ─────────► shard
//!            │ (round-robin) │            │ poll(2) over all │            registry
//!            └───────────────┘            │ conns; decode →  │
//!                  │ inbox full?          │ dispatch inline →│
//!                  └─► shed (drop conn)   │ buffered writes  │
//!                                         └──────────────────┘
//! ```
//!
//! `Shutdown` flips the drain flag: shard verbs answer `ShuttingDown`
//! (Stats/Snapshot still serve), the accept loop exits, and
//! [`Server::join`] terminates the loops — each flushes pending replies
//! best-effort, then the final checkpoint runs.
//!
//! The crate root's lint levels cover this file: no `unwrap`/`expect`/
//! `panic!`/assert/indexing and no clock or blocking call outside an
//! `#[expect(…, reason)]` — malformed input, unknown
//! instances, and resource exhaustion all map to protocol errors or
//! `io::Result`s. A verb takes exactly one shard lock, its own (under chaos,
//! the fault plan's leaf counter lock nests inside it). The health thread
//! holds no lock while it waits: it sleeps on a one-slot channel that
//! `Shutdown` fills, so a wake sent while it is busy checkpointing stays
//! buffered instead of being lost.

use crate::conn::{run_loop, Conn, Sock};
use crate::evloop::Waker;
use crate::health::run_health;
use crate::registry::ShardRegistry;
use stage_chaos::{ChaosStream, FaultPlan};
use stage_core::persist::PersistFaults;
use stage_core::{ComponentFaults, StageConfig};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Number of instance shards to host (instance ids `0..n`).
    pub n_instances: u32,
    /// Event-loop shards; each owns a subset of the connections
    /// (round-robin at accept) and executes their verbs inline.
    pub n_loops: usize,
    /// Bound of each loop's hand-off inbox from the accept thread; a full
    /// inbox sheds the new connection rather than queueing it invisibly.
    pub queue_capacity: usize,
    /// Per-instance predictor configuration.
    pub stage: StageConfig,
    /// Snapshot directory: load-on-start (warm restart) plus the target of
    /// background/final/on-demand checkpoints. `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Background checkpoint cadence; `None` checkpoints only on demand
    /// (`Snapshot` request) and at shutdown.
    pub snapshot_every: Option<Duration>,
    /// Read-only global-model artefact (`stage-store` format, written by
    /// fleet training): loaded at start and shared by every shard through
    /// one `Arc`, then polled for generation bumps so a fleet-wide GCN
    /// hot-swap lands without restarting the server. `None` — the default —
    /// serves whatever global model `stage` configured (usually none).
    pub global_model_path: Option<PathBuf>,
    /// Per-request deadline: a predict request that waited longer than
    /// this between arriving on the socket and dispatching is answered
    /// [`Response::TimedOut`](crate::Response::TimedOut) instead of
    /// executed (a stale prediction is worse than a fast "no answer").
    /// Observes are exempt — feedback is never dropped. `None` disables.
    pub request_deadline: Option<Duration>,
    /// Mid-message stall bound: a connection holding an unfinished request
    /// (partial line, partial frame, partial handshake) with no progress
    /// for this long is hung up on (slow-loris defense). Idle connections
    /// between requests are kept indefinitely. `None` disables.
    pub conn_read_timeout: Option<Duration>,
    /// Fault-injection plan (chaos testing): wraps every accepted socket in
    /// a `ChaosStream` and hooks snapshot I/O and the model tiers.
    /// `None` — the production value — injects nothing anywhere.
    pub chaos: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            n_instances: 2,
            n_loops: 2,
            queue_capacity: 1024,
            stage: StageConfig::default(),
            snapshot_dir: None,
            snapshot_every: None,
            global_model_path: None,
            request_deadline: None,
            conn_read_timeout: Some(Duration::from_secs(30)),
            chaos: None,
        }
    }
}

/// One event loop's handle shared with the accept thread: the sending half
/// of its bounded inbox (the loop thread owns the receiver) and its waker.
pub(crate) struct LoopShard {
    pub(crate) inbox: SyncSender<Sock>,
    pub(crate) waker: Waker,
}

/// State shared by every server thread.
pub(crate) struct Shared {
    pub(crate) registry: ShardRegistry,
    pub(crate) shutting_down: AtomicBool,
    /// Set by [`Server::join`]: loops flush and exit.
    pub(crate) terminate: AtomicBool,
    pub(crate) overloaded: AtomicU64,
    pub(crate) snapshot_dir: Option<PathBuf>,
    /// Shared global-model artefact to map and watch (`None` disables).
    pub(crate) global_model_path: Option<PathBuf>,
    /// Generation of the currently installed global model; `u64::MAX` is
    /// the sentinel for "none installed yet". Written by the checkpointer
    /// thread on a hot-swap, read by tests and the next poll.
    pub(crate) global_generation: AtomicU64,
    local_addr: SocketAddr,
    /// Wakes the background health loop early (for shutdown). One slot:
    /// a wake sent while the loop is busy waits for its next `recv`.
    health_wake: SyncSender<()>,
    pub(crate) request_deadline: Option<Duration>,
    /// Background checkpoint passes that failed (server-wide). The health
    /// loop backs off exponentially while this climbs; Stats reports it so
    /// an operator sees a sick snapshot directory before a crash loses
    /// warm state.
    pub(crate) checkpoint_failures: AtomicU64,
}

// Compile-time proof that everything crossing a thread boundary is safe to
// do so: `Shared` is cloned into the accept loop, event loops, and
// checkpointer; `Sock`s travel through the loop inboxes.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Shared>();
    assert_send_sync::<LoopShard>();
    assert_send::<Sock>();
    assert_send::<Conn>();
};

impl Shared {
    /// Flips the server into draining mode exactly once: shard verbs start
    /// answering `ShuttingDown`, and the accept loop is woken so it can
    /// exit. The event loops keep running (serving Stats/Snapshot and the
    /// drain answers) until [`Server::join`] terminates them.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.health_wake.try_send(());
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }
}

fn invalid_config(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, format!("serve config: {what}"))
}

/// A running server; dropping the handle does **not** stop it — send a
/// [`Request::Shutdown`](crate::Request::Shutdown) (or call [`Server::shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: JoinHandle<()>,
    loop_handles: Vec<JoinHandle<()>>,
    loop_shards: Vec<Arc<LoopShard>>,
    checkpoint_handle: JoinHandle<()>,
}

impl Server {
    /// Binds, warm-starts from the snapshot directory when one is
    /// configured, and spawns the accept loop, event loops, and
    /// the background health loop. Invalid configuration and
    /// failed spawns are `Err`s, never panics.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        if config.n_loops == 0 {
            return Err(invalid_config("need at least one event loop"));
        }
        if config.n_instances == 0 {
            return Err(invalid_config("need at least one instance"));
        }
        if config.queue_capacity == 0 {
            return Err(invalid_config("queue capacity must be positive"));
        }
        config.stage.validate().map_err(|e| invalid_config(&e))?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let mut registry = ShardRegistry::new(config.n_instances, config.stage);
        // Persist faults must be installed before the warm start (restore
        // corruption is part of the fault surface) …
        if let Some(plan) = &config.chaos {
            registry.set_persist_faults(Arc::clone(plan) as Arc<dyn PersistFaults>);
        }
        if let Some(dir) = &config.snapshot_dir {
            let summary = registry.load_snapshots(dir);
            if summary.restored > 0 || summary.quarantined > 0 {
                eprintln!(
                    "stage-serve: warm-started {}/{} instances from {} ({} quarantined)",
                    summary.restored,
                    config.n_instances,
                    dir.display(),
                    summary.quarantined
                );
            }
        }
        // … but component faults only after it: a restored shard replaces
        // its predictor wholesale, which would drop an earlier hook.
        if let Some(plan) = &config.chaos {
            registry.set_component_faults(Arc::clone(plan) as Arc<dyn ComponentFaults>);
        }
        let (health_wake, health_woken) = mpsc::sync_channel(1);
        let shared = Arc::new(Shared {
            registry,
            shutting_down: AtomicBool::new(false),
            terminate: AtomicBool::new(false),
            overloaded: AtomicU64::new(0),
            snapshot_dir: config.snapshot_dir.clone(),
            global_model_path: config.global_model_path.clone(),
            global_generation: AtomicU64::new(u64::MAX),
            local_addr,
            health_wake,
            request_deadline: config.request_deadline,
            checkpoint_failures: AtomicU64::new(0),
        });
        // Map the shared global-model artefact before serving starts so the
        // first request already routes through it (a missing file is fine —
        // fleet training may not have published one yet).
        shared.poll_global_model();

        let mut loop_shards = Vec::with_capacity(config.n_loops);
        let mut loop_handles = Vec::with_capacity(config.n_loops);
        for l in 0..config.n_loops {
            let (inbox, inbox_rx) = mpsc::sync_channel(config.queue_capacity);
            let lshard = Arc::new(LoopShard {
                inbox,
                waker: Waker::new()?,
            });
            let shared = Arc::clone(&shared);
            let lshard2 = Arc::clone(&lshard);
            let conn_read_timeout = config.conn_read_timeout;
            let handle = std::thread::Builder::new()
                .name(format!("serve-loop-{l}"))
                .spawn(move || run_loop(&shared, &lshard2, &inbox_rx, conn_read_timeout))?;
            loop_shards.push(lshard);
            loop_handles.push(handle);
        }

        let snapshot_cadence = match (&config.snapshot_dir, config.snapshot_every) {
            (Some(dir), Some(every)) => Some((dir.clone(), every)),
            _ => None,
        };
        let checkpoint_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-health".to_string())
                .spawn(move || run_health(&shared, &health_woken, snapshot_cadence))?
        };

        #[expect(
            clippy::disallowed_methods,
            reason = "the accept thread blocks in accept by design; it serves no connection"
        )]
        let accept_handle = {
            let shared = Arc::clone(&shared);
            let loop_shards: Vec<Arc<LoopShard>> = loop_shards.iter().map(Arc::clone).collect();
            let chaos = config.chaos.clone();
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    let mut next = 0usize;
                    let mut adopt = |stream: TcpStream| {
                        // Replies are small; Nagle+delayed-ACK would add
                        // ~40 ms to every round-trip.
                        stream.set_nodelay(true).ok();
                        if stream.set_nonblocking(true).is_err() {
                            return;
                        }
                        let sock = match &chaos {
                            Some(plan) => Sock::Chaos(ChaosStream::new(stream, Arc::clone(plan))),
                            None => Sock::Plain(stream),
                        };
                        let Some(lshard) = loop_shards.get(next % loop_shards.len().max(1)) else {
                            return;
                        };
                        next = next.wrapping_add(1);
                        match lshard.inbox.try_send(sock) {
                            Ok(()) => lshard.waker.wake(),
                            // Inbox full (or its loop gone): shed the
                            // connection — the dropped socket is an EOF to
                            // the client, which retries, and the shed is
                            // counted.
                            Err(_) => {
                                shared.overloaded.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    };
                    for stream in listener.incoming() {
                        // Adopt before looking at the drain flag: the stream
                        // in hand may be a client, not the wake-up.
                        if let Ok(stream) = stream {
                            adopt(stream);
                        }
                        if shared.shutting_down.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    // Clients the kernel queued before the drain flag landed
                    // get a loop and a `ShuttingDown` answer; closing the
                    // listener over them would reset them instead. The
                    // wake-up connection is adopted too and reads EOF.
                    if listener.set_nonblocking(true).is_ok() {
                        loop {
                            match listener.accept() {
                                Ok((stream, _)) => adopt(stream),
                                // One queued peer gave up; the rest of the
                                // backlog still counts.
                                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                                // `WouldBlock`: the backlog is empty.
                                Err(_) => break,
                            }
                        }
                    }
                })?
        };

        Ok(Self {
            shared,
            accept_handle,
            loop_handles,
            loop_shards,
            checkpoint_handle,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Requests (or whole connections) shed for overload so far.
    pub fn overloaded_count(&self) -> u64 {
        self.shared.overloaded.load(Ordering::Relaxed)
    }

    /// Generation of the installed shared global model, `None` until the
    /// first artefact is loaded.
    pub fn global_generation(&self) -> Option<u64> {
        match self.shared.global_generation.load(Ordering::SeqCst) {
            u64::MAX => None,
            gen => Some(gen),
        }
    }

    /// Background checkpoint passes that failed so far (server-wide).
    pub fn checkpoint_failures(&self) -> u64 {
        self.shared.checkpoint_failures.load(Ordering::Relaxed)
    }

    /// Initiates the same graceful drain a
    /// [`Request::Shutdown`](crate::Request::Shutdown) does.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server has fully drained and stopped, then runs
    /// the final checkpoint. Call after `shutdown` / a client `Shutdown`.
    /// A serving thread that panicked surfaces as an `Err` here.
    #[expect(
        clippy::disallowed_methods,
        reason = "join runs on the caller's thread after the drain, never on an event loop"
    )]
    pub fn join(self) -> io::Result<()> {
        self.accept_handle
            .join()
            .map_err(|_| io::Error::other("accept thread panicked"))?;
        // The accept loop is down; now the event loops flush and exit.
        self.shared.terminate.store(true, Ordering::SeqCst);
        for lshard in &self.loop_shards {
            lshard.waker.wake();
        }
        for h in self.loop_handles {
            h.join()
                .map_err(|_| io::Error::other("event loop thread panicked"))?;
        }
        self.checkpoint_handle
            .join()
            .map_err(|_| io::Error::other("checkpointer thread panicked"))?;
        // Every in-flight request is now answered (or its connection
        // closed); persist the final state so a restart resumes warm.
        if let Some(dir) = &self.shared.snapshot_dir {
            self.shared.registry.save_snapshots(dir)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::protocol::Response;
    use stage_plan::{PhysicalPlan, PlanBuilder, S3Format};
    use std::time::Instant;

    fn plan(rows: f64) -> PhysicalPlan {
        PlanBuilder::select()
            .scan("t", S3Format::Local, rows, 64.0)
            .hash_aggregate(0.01)
            .finish()
    }

    #[test]
    fn snapshot_without_dir_is_an_error() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let r = client.snapshot().unwrap();
        assert!(matches!(r, Response::Error { .. }));
        client.shutdown().unwrap();
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn requests_after_shutdown_are_refused_not_lost() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut a = ServeClient::connect(server.local_addr()).unwrap();
        let mut b = ServeClient::connect(server.local_addr()).unwrap();
        // `connect` returns once the kernel queued the socket, not once the
        // accept thread handed it to a loop: one round trip proves `b` is
        // adopted before the shutdown below (a `b` still queued at shutdown
        // is `connections_in_backlog_at_shutdown_are_answered_not_reset`).
        b.stats(0).unwrap();
        a.shutdown().unwrap();
        // The other connection's next shard request sees the drain.
        let r = b.predict(0, &plan(1e4), &[0.0, 0.0]).unwrap();
        assert!(matches!(r, Response::ShuttingDown));
        drop(a);
        drop(b);
        server.join().unwrap();
    }

    #[test]
    fn connections_in_backlog_at_shutdown_are_answered_not_reset() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut a = ServeClient::connect(server.local_addr()).unwrap();
        // `a` is adopted before the burst opens, so its Shutdown can land
        // while the accept thread is still working through the burst.
        a.stats(0).unwrap();
        // No warm-up round trip: `connect` returns once the kernel queued
        // the socket, so some of these are still in the backlog below.
        let mut burst: Vec<ServeClient> = (0..64)
            .map(|_| ServeClient::connect(server.local_addr()).unwrap())
            .collect();
        a.shutdown().unwrap();
        for (i, c) in burst.iter_mut().enumerate() {
            let r = c.predict(0, &plan(1e4), &[0.0, 0.0]);
            assert!(
                matches!(r, Ok(Response::ShuttingDown)),
                "burst client {i} must be answered ShuttingDown, got {r:?}"
            );
        }
        drop(a);
        drop(burst);
        server.join().unwrap();
    }

    /// A JSON line nested far past `serde_json::MAX_NESTING` (≈ 200 KB,
    /// well under the frame limit) is answered with an error instead of
    /// overflowing the serve loop's stack; that connection and others keep
    /// being served.
    #[test]
    fn a_deeply_nested_json_line_is_an_error_not_an_abort() {
        use std::io::{BufRead, BufReader, Write};
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let deep = 100_000;
        let line = format!(
            "{{\"Predict\":{{\"instance\":0,\"plan\":{}1{},\"sys\":[]}}}}\n{{\"Stats\":{{\"instance\":0}}}}\n",
            "[".repeat(deep),
            "]".repeat(deep)
        );
        conn.write_all(line.as_bytes()).unwrap();
        let mut replies = BufReader::new(conn.try_clone().unwrap()).lines();
        let mut reply = || serde_json::from_str::<Response>(&replies.next().unwrap().unwrap());
        let Response::Error { message } = reply().unwrap() else {
            panic!("a deep line must answer Error");
        };
        assert!(message.contains("nesting"), "{message}");
        assert!(matches!(reply().unwrap(), Response::Stats { .. }));
        let mut other = ServeClient::connect(server.local_addr()).unwrap();
        assert!(matches!(other.stats(0).unwrap(), Response::Stats { .. }));
        other.shutdown().unwrap();
        drop((conn, other));
        server.join().unwrap();
    }

    /// Both codecs admit the same plans: on each, the tallest plan the
    /// binary decoder reads ([`crate::protocol::MAX_PLAN_HEIGHT`] levels)
    /// is served in every verb that carries plans, and one level taller is
    /// answered `Error`, the connection still usable.
    #[test]
    fn both_codecs_bound_a_plan_to_the_same_height() {
        use crate::client::Codec;
        use crate::protocol::MAX_PLAN_HEIGHT;
        use stage_plan::{OperatorKind, PlanNode};
        let of_height = |height: usize| {
            let mut tall = plan(1e4);
            tall.root = PlanNode::leaf(OperatorKind::ALL[0], 1.0, 1.0, 1.0);
            for _ in 1..height {
                tall.root =
                    PlanNode::internal(OperatorKind::ALL[0], 1.0, 1.0, 1.0, vec![tall.root]);
            }
            assert_eq!(tall.height(), height);
            tall
        };
        let server = Server::start(ServeConfig::default()).unwrap();
        for codec in [Codec::Json, Codec::Binary] {
            let mut client =
                ServeClient::connect_with_codec(server.local_addr(), None, codec).unwrap();
            for (height, admitted) in [(MAX_PLAN_HEIGHT, true), (MAX_PLAN_HEIGHT + 1, false)] {
                let tall = of_height(height);
                let answers = [
                    client.predict(0, &tall, &[]).unwrap(),
                    client
                        .predict_batch(0, &[plan(1e4), tall.clone()], &[])
                        .unwrap(),
                    client.observe(0, &tall, &[], 1.0).unwrap(),
                ];
                for answer in answers {
                    let refused = matches!(answer, Response::Error { .. });
                    assert_eq!(refused, !admitted, "{codec:?}, {height} levels: {answer:?}");
                }
            }
            assert!(matches!(client.stats(0).unwrap(), Response::Stats { .. }));
        }
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.shutdown().unwrap();
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn unknown_instances_are_rejected_not_aliased() {
        // An id the registry does not host must be rejected explicitly,
        // however it relates to the loop and shard counts — never mapped
        // onto a live shard.
        let server = Server::start(ServeConfig {
            n_instances: 2,
            n_loops: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        for bogus in [2u32, 4, 7, u32::MAX] {
            let p = client.predict(bogus, &plan(1e4), &[0.0, 0.0]).unwrap();
            let Response::Error { message } = p else {
                panic!("instance {bogus} must be rejected, got {p:?}");
            };
            assert!(message.contains("unknown instance"), "{message}");
            let o = client.observe(bogus, &plan(1e4), &[0.0, 0.0], 1.0).unwrap();
            assert!(matches!(o, Response::Error { .. }));
        }
        // The rejections touched no shard state.
        let s = client.stats(0).unwrap();
        let Response::Stats {
            routing, observes, ..
        } = s
        else {
            panic!("expected Stats, got {s:?}");
        };
        assert_eq!(routing.total(), 0);
        assert_eq!(observes, 0);
        client.shutdown().unwrap();
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn expired_predictions_time_out_but_observes_survive() {
        // A zero deadline expires every prediction by dispatch time (the
        // arrival stamp is taken at read-readiness, strictly before
        // decode), so the degraded path is exercised deterministically.
        let server = Server::start(ServeConfig {
            request_deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let p = client.predict(0, &plan(1e5), &[0.0, 0.0]).unwrap();
        assert!(matches!(p, Response::TimedOut { .. }), "got {p:?}");
        // Observes are exempt from the deadline: feedback always lands.
        let o = client.observe(0, &plan(1e5), &[0.0, 0.0], 2.0).unwrap();
        assert!(matches!(o, Response::Observed { .. }));
        let s = client.stats(0).unwrap();
        let Response::Stats {
            timed_out,
            observes,
            ..
        } = s
        else {
            panic!("expected Stats, got {s:?}");
        };
        assert_eq!(timed_out, 1);
        assert_eq!(observes, 1);
        client.shutdown().unwrap();
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn stalled_client_cannot_pin_the_drain() {
        use std::io::Write as _;
        let server = Server::start(ServeConfig {
            conn_read_timeout: Some(Duration::from_millis(20)),
            ..ServeConfig::default()
        })
        .unwrap();
        // A misbehaving peer sends half a request line and then stalls
        // forever (slow-loris). The mid-message reaper hangs up on it;
        // either way it must not block the graceful drain below.
        let mut stall = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stall.write_all(br#"{"Stats":{"inst"#).unwrap();
        // A well-behaved client still gets served, then drains the server.
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let p = client.predict(0, &plan(1e4), &[0.0, 0.0]).unwrap();
        assert!(matches!(p, Response::Predicted { .. }));
        client.shutdown().unwrap();
        drop(client);
        server.join().unwrap();
        drop(stall);
    }

    #[test]
    fn global_model_maps_at_start_and_hot_swaps_on_generation_bump() {
        use stage_core::global::{plan_to_tree_sample, GlobalModel, GlobalModelConfig};
        use stage_core::SystemContext;

        let dir =
            std::env::temp_dir().join(format!("stage-serve-global-swap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("global.store");

        let sys = SystemContext::empty(2);
        let samples: Vec<_> = (1..=25)
            .map(|i| plan_to_tree_sample(&plan(i as f64 * 1e4), &sys, i as f64 * 0.2))
            .collect();
        let cfg = GlobalModelConfig {
            hidden: 8,
            gcn_layers: 1,
            epochs: 3,
            ..GlobalModelConfig::default()
        };
        let model = GlobalModel::train(&samples, 2, &cfg);
        stage_core::save_global_store(&model, &path, 1, None).unwrap();

        let server = Server::start(ServeConfig {
            global_model_path: Some(path.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        // The artefact was loaded before serving started.
        assert_eq!(server.global_generation(), Some(1));

        // Fleet training publishes a newer generation; the background poll
        // must install it without a restart.
        stage_core::save_global_store(&model, &path, 2, None).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.global_generation() != Some(2) {
            assert!(Instant::now() < deadline, "hot-swap never landed");
            std::thread::sleep(Duration::from_millis(20));
        }

        server.shutdown();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shutdown that lands while the health loop is mid-checkpoint wakes
    /// it when the checkpoint ends, not a full tick later.
    #[test]
    fn a_shutdown_during_a_checkpoint_is_not_lost() {
        let dir = std::env::temp_dir().join("stage-serve-lost-wake-test");
        let tick = Duration::from_secs(2);
        let server = Server::start(ServeConfig {
            snapshot_dir: Some(dir.clone()),
            snapshot_every: Some(tick),
            ..ServeConfig::default()
        })
        .unwrap();
        // Holding shard 0 past the first tick parks that tick's checkpoint
        // on the lock; the shutdown lands while it waits.
        server.shared.registry.with_shard_write(0, |_| {
            std::thread::sleep(tick + Duration::from_millis(500));
            server.shutdown();
        });
        let started = Instant::now();
        server.join().unwrap();
        let joined = started.elapsed();
        assert!(joined < tick / 2, "join took {joined:?} on a {tick:?} tick");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degenerate_configs_are_errors_not_panics() {
        for broken in [
            ServeConfig {
                n_loops: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                n_instances: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            },
        ] {
            let Err(err) = Server::start(broken) else {
                panic!("degenerate config must be refused");
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    /// A stage config that would panic later — in `start` itself (a
    /// zero-capacity cache) or inside the first retrain's Observe on an
    /// event-loop thread (the rest) — is refused up front.
    #[test]
    fn server_start_rejects_configs_a_verb_would_panic_on() {
        assert!(StageConfig::default().validate().is_ok());
        let broken: [fn(&mut StageConfig); 2] = [
            |c| c.cache.capacity = 0,
            |c| c.local.ensemble.n_members = u32::MAX as usize,
        ];
        for (i, breaks) in broken.iter().enumerate() {
            let mut config = ServeConfig::default();
            breaks(&mut config.stage);
            let Err(err) = Server::start(config) else {
                panic!("broken stage config {i} must be refused");
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "config {i}");
        }
    }
}
