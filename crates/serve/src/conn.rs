//! The event loops' per-connection state machine.
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

use crate::dispatch::serve_request;
use crate::evloop::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::protocol::{write_message_buffered, Request, Response};
use crate::server::{LoopShard, Shared};
use crate::wire::{self, Unframed, HANDSHAKE, MAX_FRAME_LEN};
use stage_chaos::ChaosStream;
use std::io::{self, Read, Write};
use std::net::{Shutdown as SockShutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{atomic::Ordering, mpsc::Receiver, Arc};
use std::time::{Duration, Instant};

/// Per-readiness read budget: one connection hands the loop back after
/// this many bytes so a firehose peer cannot starve its loop-mates
/// (level-triggered polling re-signals whatever is left).
const READ_BUDGET: usize = 256 * 1024;

/// An accepted socket, optionally wrapped in the chaos fault injector.
/// Both variants are non-blocking; the wrapper passes `WouldBlock`
/// through untouched, so the event loop drives a faulted socket exactly
/// like a plain one.
pub(crate) enum Sock {
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
pub(crate) struct Conn {
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
        let decoded = match conn.codec {
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
                continue;
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
                    Some(parsed) => parsed.map_err(|e| e.to_string()),
                    None => Err("not UTF-8".to_string()),
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
                // The frame boundary was intact (CRC passed), so a decode
                // error is answerable without losing sync.
                decoded.map_err(|e| e.to_string())
            }
        };
        let (response, close) = match decoded.and_then(Request::admit) {
            Ok(request) => serve_request(shared, request, arrived, conn.wbuf.len() - conn.wpos),
            Err(e) => {
                let message = format!("bad request: {e}");
                (Response::Error { message }, false)
            }
        };
        push_response(conn, &response, json_buf, bin_buf);
        conn.closing |= close;
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
pub(crate) fn run_loop(
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
