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
//! Connections are non-blocking sockets owned by one of a handful of event
//! loops; a loop `poll(2)`s every socket it owns plus a waker pipe, so one
//! box holds tens of thousands of idle WLM connections at the cost of a
//! few file descriptors per loop iteration — no stack and no parked
//! thread per connection.
//!
//! Each connection speaks one of two codecs, negotiated by its first
//! bytes: the [`crate::wire`] magic preamble selects length-prefixed
//! CRC-checked binary frames, anything else (JSON starts `{` or `"`) is
//! served newline-delimited JSON. Verbs execute inline
//! on the loop thread under the target shard's lock — on the small hosts
//! this repo benches on, a handoff to a worker pool costs more than the
//! verb itself (PR 4 measured the same effect for parsing). Every refit is
//! such a verb's work — a shard retrains only inside the `Observe` that
//! makes it due, never on the background `serve-health` thread.
//!
//! Backpressure is per connection: a peer that stops reading while
//! pipelining requests grows its own write buffer, and past a bound its
//! shard verbs are answered [`Response::Overloaded`] until the backlog
//! drains. A full accept inbox sheds the new connection instead. Unknown
//! instances are rejected *before* any dispatch — an out-of-range id is
//! never aliased onto a live shard — and the timed-out counter lives on
//! the shard itself, so its index space is the registry's.
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
//! `io::Result`s. All locks are `stage_core::sync` ordered locks: a verb
//! takes its shard's lock (under chaos, the fault plan's session-rank
//! counters nest inside it), the health thread parks on the session-rank
//! checkpoint gate, and the debug-build lock-order detector runs on every
//! acquisition.

use crate::evloop::{poll_fds, PollFd, Waker, POLLIN, POLLOUT};
use crate::protocol::{write_message_buffered, BatchPrediction, Request, Response};
use crate::registry::{Shard, ShardRegistry};
use crate::wire::{self, Unframed, HANDSHAKE, MAX_FRAME_LEN};
use stage_chaos::{ChaosStream, FaultPlan};
use stage_core::persist::PersistFaults;
use stage_core::sync::{self, OrderedMutex, RANK_SESSION};
use stage_core::{ComponentFaults, StageConfig, SystemContext};
use std::io::{self, Read, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection write-buffer bound: once a pipelining peer that is not
/// reading its replies has this many unsent bytes buffered, its shard
/// verbs are answered `Overloaded` until the backlog drains.
const WBUF_SHED_LIMIT: usize = 1 << 20;

/// Per-readiness read budget: one connection hands the loop back after
/// this many bytes so a firehose peer cannot starve its loop-mates
/// (level-triggered polling re-signals whatever is left).
const READ_BUDGET: usize = 256 * 1024;

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
    /// [`Response::TimedOut`] instead of executed (a stale prediction is
    /// worse than a fast "no answer"). Observes are exempt — feedback is
    /// never dropped. `None` disables.
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

/// An accepted socket, optionally wrapped in the chaos fault injector.
/// Both variants are non-blocking; the wrapper passes `WouldBlock`
/// through untouched, so the event loop drives a faulted socket exactly
/// like a plain one.
enum Sock {
    Plain(TcpStream),
    Chaos(ChaosStream<TcpStream>),
}

impl Sock {
    fn tcp(&self) -> &TcpStream {
        match self {
            Sock::Plain(s) => s,
            Sock::Chaos(c) => c.get_ref(),
        }
    }

    fn fd(&self) -> RawFd {
        self.tcp().as_raw_fd()
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Plain(s) => s.read(buf),
            Sock::Chaos(c) => c.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Plain(s) => s.write(buf),
            Sock::Chaos(c) => c.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sock::Plain(s) => s.flush(),
            Sock::Chaos(c) => c.flush(),
        }
    }
}

/// Which wire format a connection speaks (decided by its first bytes).
enum CodecState {
    /// Nothing received yet; the first byte picks the codec.
    Negotiating,
    /// Newline-delimited JSON (debuggability, old clients).
    Json,
    /// Length-prefixed CRC-checked binary frames ([`crate::wire`]).
    Binary,
}

/// One connection's state machine.
struct Conn {
    sock: Sock,
    fd: RawFd,
    codec: CodecState,
    /// Bytes read but not yet parsed into a complete message.
    rbuf: Vec<u8>,
    /// Encoded replies not yet written to the socket.
    wbuf: Vec<u8>,
    /// How much of `wbuf` is already written.
    wpos: usize,
    /// Close once `wbuf` drains (EOF seen, Shutdown acked, or framing
    /// desync).
    closing: bool,
    /// Remove from the loop now.
    dead: bool,
    /// Last time a byte arrived (drives the mid-message stall reaper).
    last_progress: Instant,
}

impl Conn {
    #[expect(
        clippy::disallowed_methods,
        reason = "stall-reaper clock: a connection's age, never part of an answer"
    )]
    fn new(sock: Sock) -> Self {
        let fd = sock.fd();
        Self {
            sock,
            fd,
            codec: CodecState::Negotiating,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            dead: false,
            last_progress: Instant::now(),
        }
    }

    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// One event loop's handle shared with the accept thread: the sending half
/// of its bounded inbox (the loop thread owns the receiver) and its waker.
struct LoopShard {
    inbox: SyncSender<Sock>,
    waker: Waker,
}

/// State shared by every server thread.
struct Shared {
    registry: ShardRegistry,
    shutting_down: AtomicBool,
    /// Set by [`Server::join`]: loops flush and exit.
    terminate: AtomicBool,
    overloaded: AtomicU64,
    snapshot_dir: Option<PathBuf>,
    /// Shared global-model artefact to map and watch (`None` disables).
    global_model_path: Option<PathBuf>,
    /// Generation of the currently installed global model; `u64::MAX` is
    /// the sentinel for "none installed yet". Written by the checkpointer
    /// thread on a hot-swap, read by tests and the next poll.
    global_generation: AtomicU64,
    local_addr: SocketAddr,
    // Wakes the background health loop early (for shutdown).
    checkpoint_gate: (OrderedMutex<()>, Condvar),
    request_deadline: Option<Duration>,
    /// Background checkpoint passes that failed (server-wide). The health
    /// loop backs off exponentially while this climbs; Stats reports it so
    /// an operator sees a sick snapshot directory before a crash loses
    /// warm state.
    checkpoint_failures: AtomicU64,
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
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.checkpoint_gate.1.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Checks the global-model artefact for a generation bump and
    /// hot-swaps it onto every shard when one landed. Cheap when nothing
    /// changed: a 64-byte header read, no mapping, no lock. Damage is
    /// logged and the previous model keeps serving — a half-written
    /// artefact must never take down a running fleet.
    fn poll_global_model(&self) {
        let Some(path) = &self.global_model_path else {
            return;
        };
        let installed = self.global_generation.load(Ordering::SeqCst);
        match stage_core::store_generation(path) {
            Ok(gen) if installed == u64::MAX || gen > installed => {
                match self.registry.load_global_store(path) {
                    Ok(loaded) => {
                        self.global_generation.store(loaded, Ordering::SeqCst);
                        eprintln!(
                            "stage-serve: installed global model generation {loaded} from {}",
                            path.display()
                        );
                    }
                    Err(e) => eprintln!(
                        "stage-serve: global model reload failed ({e}); keeping generation {}",
                        installed
                    ),
                }
            }
            Ok(_) => {}
            Err(e) if e.is_not_found() => {}
            Err(e) => eprintln!(
                "stage-serve: global model header unreadable ({e}); keeping generation {}",
                installed
            ),
        }
    }
}

fn unknown_instance(instance: u32, n: usize) -> Response {
    Response::Error {
        message: format!("unknown instance {instance} (server hosts 0..{n})"),
    }
}

fn invalid_config(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, format!("serve config: {what}"))
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
fn serve_request(
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

/// Encodes `response` onto the connection's write buffer in its codec.
fn push_response(
    conn: &mut Conn,
    response: &Response,
    json_buf: &mut String,
    bin_buf: &mut Vec<u8>,
) {
    match conn.codec {
        CodecState::Json | CodecState::Negotiating => {
            if write_message_buffered(&mut conn.wbuf, response, json_buf).is_err() {
                conn.dead = true;
            }
        }
        CodecState::Binary => {
            bin_buf.clear();
            wire::encode_response(response, bin_buf);
            if wire::frame_into(&mut conn.wbuf, bin_buf).is_err() {
                conn.dead = true;
            }
        }
    }
}

/// Parses and dispatches every complete message buffered on `conn`.
fn process_input(
    shared: &Shared,
    conn: &mut Conn,
    arrived: Instant,
    json_buf: &mut String,
    bin_buf: &mut Vec<u8>,
) {
    loop {
        if conn.dead || conn.closing {
            return;
        }
        match conn.codec {
            CodecState::Negotiating => {
                let Some(&first) = conn.rbuf.first() else {
                    return;
                };
                if HANDSHAKE.first() == Some(&first) {
                    let Some(preamble) = conn.rbuf.get(..HANDSHAKE.len()) else {
                        return; // partial handshake; wait for more bytes
                    };
                    if preamble == HANDSHAKE {
                        // Echo the preamble as the ack, then speak frames.
                        conn.wbuf.extend_from_slice(&HANDSHAKE);
                        conn.rbuf.drain(..HANDSHAKE.len());
                        conn.codec = CodecState::Binary;
                    } else {
                        // Right magic, wrong version (or corrupt preamble):
                        // no compatible codec to fall back to.
                        conn.dead = true;
                        return;
                    }
                } else {
                    // JSON requests start with '{' or '"'; anything that
                    // isn't the magic byte is served as newline-JSON, which
                    // answers garbage with a parse error.
                    conn.codec = CodecState::Json;
                }
            }
            CodecState::Json => {
                let Some(nl) = conn.rbuf.iter().position(|&b| b == b'\n') else {
                    if conn.rbuf.len() > MAX_FRAME_LEN as usize {
                        // A "line" longer than any legal frame is abuse,
                        // not a request.
                        let r = Response::Error {
                            message: "request line exceeds maximum length".to_string(),
                        };
                        push_response(conn, &r, json_buf, bin_buf);
                        conn.closing = true;
                    }
                    return;
                };
                let parsed = conn
                    .rbuf
                    .get(..nl)
                    .and_then(|line| std::str::from_utf8(line).ok())
                    .map(|line| serde_json::from_str::<Request>(line.trim_end()));
                conn.rbuf.drain(..nl + 1);
                match parsed {
                    Some(Ok(request)) => {
                        let backlog = conn.wbuf.len() - conn.wpos;
                        let (response, close) = serve_request(shared, request, arrived, backlog);
                        push_response(conn, &response, json_buf, bin_buf);
                        if close {
                            conn.closing = true;
                        }
                    }
                    Some(Err(e)) => {
                        let r = Response::Error {
                            message: format!("bad request: {e}"),
                        };
                        push_response(conn, &r, json_buf, bin_buf);
                    }
                    None => {
                        let r = Response::Error {
                            message: "bad request: not UTF-8".to_string(),
                        };
                        push_response(conn, &r, json_buf, bin_buf);
                    }
                }
            }
            CodecState::Binary => {
                let (consumed, decoded) = match wire::try_unframe(&conn.rbuf) {
                    Ok(Unframed::NeedMore) => return,
                    Ok(Unframed::Frame { consumed, payload }) => {
                        (consumed, wire::decode_request(payload))
                    }
                    Err(e) => {
                        // Oversized header or CRC mismatch: the stream is
                        // desynchronised and — unlike newline-JSON — there
                        // is no boundary to resync on. Answer and hang up.
                        let r = Response::Error {
                            message: format!("bad frame: {e}"),
                        };
                        push_response(conn, &r, json_buf, bin_buf);
                        conn.closing = true;
                        return;
                    }
                };
                conn.rbuf.drain(..consumed);
                match decoded {
                    Ok(request) => {
                        let backlog = conn.wbuf.len() - conn.wpos;
                        let (response, close) = serve_request(shared, request, arrived, backlog);
                        push_response(conn, &response, json_buf, bin_buf);
                        if close {
                            conn.closing = true;
                        }
                    }
                    // The frame boundary was intact (CRC passed), so a
                    // decode error is answerable without losing sync.
                    Err(e) => {
                        let r = Response::Error {
                            message: format!("bad request: {e}"),
                        };
                        push_response(conn, &r, json_buf, bin_buf);
                    }
                }
            }
        }
    }
}

/// Writes as much pending output as the socket accepts right now.
fn flush_writes(conn: &mut Conn) {
    while conn.wpos < conn.wbuf.len() {
        let Some(chunk) = conn.wbuf.get(conn.wpos..) else {
            break;
        };
        match conn.sock.write(chunk) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
        if conn.closing {
            conn.dead = true;
        }
    } else if conn.wpos > 64 * 1024 {
        // Reclaim the written prefix so a long-lived slow reader doesn't
        // hold its history forever.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
}

/// Reads whatever the socket has (up to the fairness budget), then parses,
/// dispatches, and flushes.
fn handle_readable(shared: &Shared, conn: &mut Conn, json_buf: &mut String, bin_buf: &mut Vec<u8>) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the request-deadline clock; a timed-out verb is answered TimedOut, not blocked"
    )]
    let arrived = Instant::now();
    let mut tmp = [0u8; 16 * 1024];
    let mut budget = READ_BUDGET;
    loop {
        match conn.sock.read(&mut tmp) {
            Ok(0) => {
                // EOF: serve whatever complete messages are buffered, then
                // close after the replies flush.
                conn.closing = true;
                break;
            }
            Ok(n) => {
                if let Some(chunk) = tmp.get(..n) {
                    conn.rbuf.extend_from_slice(chunk);
                }
                conn.last_progress = arrived;
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    process_input(shared, conn, arrived, json_buf, bin_buf);
    flush_writes(conn);
}

/// Best-effort flush of pending replies at loop exit, then close. The
/// sockets flip back to blocking with a short write timeout so a dead peer
/// cannot wedge the drain.
fn final_flush(conns: &mut Vec<Conn>) {
    for conn in conns.iter_mut() {
        if conn.wants_write() {
            let _ = conn.sock.tcp().set_nonblocking(false);
            let _ = conn
                .sock
                .tcp()
                .set_write_timeout(Some(Duration::from_millis(250)));
            if let Some(rest) = conn.wbuf.get(conn.wpos..) {
                let owned = rest.to_vec();
                let _ = conn.sock.write_all(&owned);
            }
        }
        let _ = conn.sock.tcp().shutdown(SockShutdown::Both);
    }
    conns.clear();
}

/// One event loop: adopt inbox connections, poll, serve readiness.
fn run_loop(
    shared: &Arc<Shared>,
    lshard: &Arc<LoopShard>,
    inbox: &Receiver<Sock>,
    conn_read_timeout: Option<Duration>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut json_buf = String::new();
    let mut bin_buf = Vec::new();
    let poll_ms = conn_read_timeout.map_or(500, |t| {
        i32::try_from(t.as_millis() / 2)
            .unwrap_or(500)
            .clamp(5, 500)
    });
    loop {
        if shared.terminate.load(Ordering::SeqCst) {
            final_flush(&mut conns);
            return;
        }
        conns.extend(inbox.try_iter().map(Conn::new));

        pollfds.clear();
        pollfds.push(PollFd::new(lshard.waker.read_fd(), POLLIN));
        for conn in &conns {
            let mut events = POLLIN;
            if conn.wants_write() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd::new(conn.fd, events));
        }
        if poll_fds(&mut pollfds, poll_ms).is_err() {
            // EINVAL/ENOMEM from poll: back off rather than spin.
            #[expect(
                clippy::disallowed_methods,
                reason = "bounded 1 ms backoff on a failing poll; the loop is already not serving"
            )]
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if pollfds.first().is_some_and(|f| f.ready(POLLIN)) {
            lshard.waker.drain();
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            let Some(pfd) = pollfds.get(i + 1) else {
                continue;
            };
            if pfd.ready(POLLIN) || pfd.failed() {
                // POLLHUP/POLLERR land here too: the read returns the
                // buffered bytes, then EOF or the error, in order.
                handle_readable(shared, conn, &mut json_buf, &mut bin_buf);
            } else if pfd.ready(POLLOUT) {
                flush_writes(conn);
            }
        }
        if let Some(timeout) = conn_read_timeout {
            for conn in conns.iter_mut() {
                // Mid-message only: an idle connection between requests
                // stays for as long as the client wants it.
                if !conn.rbuf.is_empty() && conn.last_progress.elapsed() > timeout {
                    conn.dead = true;
                }
            }
        }
        conns.retain(|c| !c.dead);
    }
}

/// A running server; dropping the handle does **not** stop it — send a
/// [`Request::Shutdown`] (or call [`Server::shutdown`]) and then
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
        let shared = Arc::new(Shared {
            registry,
            shutting_down: AtomicBool::new(false),
            terminate: AtomicBool::new(false),
            overloaded: AtomicU64::new(0),
            snapshot_dir: config.snapshot_dir.clone(),
            global_model_path: config.global_model_path.clone(),
            global_generation: AtomicU64::new(u64::MAX),
            local_addr,
            checkpoint_gate: (OrderedMutex::new(RANK_SESSION, ()), Condvar::new()),
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

        // One background health loop drives both periodic duties: the
        // global-model generation poll (when an artefact path is
        // configured) and checkpoints (when a cadence is configured).
        let snapshot_cadence = match (&config.snapshot_dir, config.snapshot_every) {
            (Some(dir), Some(every)) => Some((dir.clone(), every)),
            _ => None,
        };
        let checkpoint_handle = {
            let shared = Arc::clone(&shared);
            // The generation poll is a 64-byte header read; a sub-second
            // cadence keeps hot-swap latency low without measurable cost.
            // A configured snapshot cadence paces the whole loop.
            let tick = snapshot_cadence
                .as_ref()
                .map_or(Duration::from_millis(200), |(_, every)| *every);
            std::thread::Builder::new()
                .name("serve-health".to_string())
                .spawn(move || {
                    // Bounded exponential backoff on checkpoint failures: a
                    // sick snapshot directory (full disk, yanked mount) must
                    // not burn a full encode of every shard each tick. Skips
                    // double per consecutive failure, capped at 32 ticks; any
                    // success re-arms the full cadence.
                    let mut consecutive_failures = 0u32;
                    let mut skip_ticks = 0u64;
                    loop {
                        let (gate, cv) = &shared.checkpoint_gate;
                        let guard = gate.lock();
                        // The returned guard is dropped immediately so no
                        // session-rank lock is held while the checkpoint
                        // takes shard locks below.
                        let _ = sync::wait_timeout(cv, guard, tick);
                        if shared.shutting_down.load(Ordering::SeqCst) {
                            // The final checkpoint runs in `join` after the
                            // drain completes.
                            return;
                        }
                        shared.poll_global_model();
                        if let Some((dir, _)) = &snapshot_cadence {
                            if skip_ticks > 0 {
                                skip_ticks -= 1;
                                continue;
                            }
                            match shared.registry.save_snapshots(dir) {
                                Ok(_) => consecutive_failures = 0,
                                Err(e) => {
                                    shared.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                                    consecutive_failures = consecutive_failures.saturating_add(1);
                                    skip_ticks = (1u64 << consecutive_failures.min(5)) - 1;
                                    eprintln!(
                                        "stage-serve: background checkpoint failed ({e}); \
                                         retrying in {} ticks",
                                        skip_ticks + 1
                                    );
                                }
                            }
                        }
                    }
                })?
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

    /// Requests answered [`Response::TimedOut`] so far, all instances.
    pub fn timed_out_count(&self) -> u64 {
        let n = self.shared.registry.len() as u32;
        (0..n)
            .filter_map(|id| self.shared.registry.with_shard_read(id, |s| s.timed_out()))
            .sum()
    }

    /// Initiates the same graceful drain a [`Request::Shutdown`] does.
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
    use stage_plan::{PhysicalPlan, PlanBuilder, S3Format};

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
        assert_eq!(server.timed_out_count(), 1);
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
        let broken: [fn(&mut StageConfig); 4] = [
            |c| c.cache.capacity = 0,
            |c| c.local.ensemble.member.n_bins = 1,
            |c| c.local.ensemble.member.log_var_range = (1.0, -1.0),
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
