//! A blocking client for the stage-serve protocol, used by the benchmark
//! and the integration tests.
//!
//! The client speaks either wire codec. [`ServeClient::connect`] opens the
//! binary codec (the hot-path default): it sends the [`crate::wire`] magic
//! preamble at connect and pipelines the first request behind it, deferring
//! the ack read until just before the first response — codec negotiation
//! costs zero extra round trips. [`ServeClient::connect_with_codec`] opens
//! either codec explicitly.
//!
//! Robustness posture: every connection carries read and write timeouts by
//! default (a hung server must surface as `WouldBlock`/`TimedOut`, never as
//! a caller blocked forever), and [`ServeClient::observe_with_retry`] caps
//! its attempts with decorrelated-jitter backoff so a persistently
//! overloaded server produces a typed error instead of a synchronized
//! retry storm.

use crate::protocol::{read_message, write_message, Request, Response};
use crate::wire::{self, HANDSHAKE};
use stage_plan::PhysicalPlan;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default socket read/write timeout: generous enough for a retrain to
/// complete on the shard ahead of the response, small enough that a wedged
/// server is detected the same minute.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Which wire format a [`ServeClient`] connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Newline-delimited JSON: human-readable, `netcat`-able, the format
    /// every pre-binary client speaks.
    Json,
    /// Length-prefixed CRC-checked binary frames ([`crate::wire`]): the
    /// hot-path default.
    Binary,
}

/// Decorrelated-jitter backoff (AWS architecture-blog variant): each sleep
/// is uniform in `[base, prev * 3]`, clamped to `cap`. Pure function of the
/// previous sleep and a caller-threaded RNG state, so retry schedules are
/// testable and two clients that collide once do not collide forever.
pub fn decorrelated_jitter(
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng_state: &mut u64,
) -> Duration {
    // xorshift64* — cheap, seedable, no external deps.
    let mut x = (*rng_state).max(1);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng_state = x;
    let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let base_us = base.as_micros() as u64;
    let hi_us = (prev.as_micros() as u64).saturating_mul(3).max(base_us + 1);
    let span = hi_us - base_us;
    let sleep_us = base_us + r % span.max(1);
    Duration::from_micros(sleep_us).min(cap)
}

/// A synchronous connection to a stage-serve server: one in-flight request
/// at a time (open several clients to pipeline).
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    codec: Codec,
    /// Binary handshake sent but its echo not yet consumed (the ack is
    /// read lazily, just before the first response).
    awaiting_ack: bool,
    /// Request-encode scratch (binary codec).
    enc_buf: Vec<u8>,
    /// Frame-assembly scratch (binary codec): header + payload leave in
    /// one `write_all`.
    frame_buf: Vec<u8>,
    /// Response-payload scratch (binary codec).
    payload_in: Vec<u8>,
    /// Backoff state for `observe_with_retry` (seeded from the local port
    /// so concurrent clients decorrelate without any shared RNG).
    rng_state: u64,
}

impl ServeClient {
    /// Connects to a running server with the default I/O timeouts on the
    /// binary codec.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with_codec(addr, Some(DEFAULT_IO_TIMEOUT), Codec::Binary)
    }

    /// Connects with explicit timeout and codec.
    pub fn connect_with_codec<A: ToSocketAddrs>(
        addr: A,
        timeout: Option<Duration>,
        codec: Codec,
    ) -> io::Result<Self> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        writer.set_read_timeout(timeout)?;
        writer.set_write_timeout(timeout)?;
        let rng_state = writer
            .local_addr()
            .map(|a| 0x9E37_79B9_7F4A_7C15 ^ u64::from(a.port()))
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        let reader = BufReader::new(writer.try_clone()?);
        let awaiting_ack = codec == Codec::Binary;
        if awaiting_ack {
            // Open with the magic preamble; the server's echo is consumed
            // lazily before the first response read, so negotiation adds
            // no round trip.
            writer.write_all(&HANDSHAKE)?;
        }
        Ok(Self {
            reader,
            writer,
            codec,
            awaiting_ack,
            enc_buf: Vec::new(),
            frame_buf: Vec::new(),
            payload_in: Vec::new(),
            rng_state,
        })
    }

    /// The codec this connection negotiated.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        match self.codec {
            Codec::Json => {
                write_message(&mut self.writer, request)?;
                read_message(&mut self.reader)?.ok_or_else(unexpected_eof)
            }
            Codec::Binary => {
                self.enc_buf.clear();
                wire::encode_request(request, &mut self.enc_buf);
                self.frame_buf.clear();
                wire::frame_into(&mut self.frame_buf, &self.enc_buf)?;
                self.writer.write_all(&self.frame_buf)?;
                self.writer.flush()?;
                if self.awaiting_ack {
                    let mut ack = [0u8; 4];
                    self.reader.read_exact(&mut ack)?;
                    if ack != HANDSHAKE {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "server did not ack the binary handshake",
                        ));
                    }
                    self.awaiting_ack = false;
                }
                if !wire::read_frame(&mut self.reader, &mut self.payload_in)? {
                    return Err(unexpected_eof());
                }
                wire::decode_response(&self.payload_in)
            }
        }
    }

    /// `Predict` convenience wrapper.
    pub fn predict(
        &mut self,
        instance: u32,
        plan: &PhysicalPlan,
        sys: &[f64],
    ) -> io::Result<Response> {
        self.call(&Request::Predict {
            instance,
            plan: plan.clone(),
            sys: sys.to_vec(),
        })
    }

    /// `PredictBatch` convenience wrapper: one round trip prices every
    /// plan in `plans` against the same system context; answers arrive in
    /// submission order inside [`Response::PredictionsBatch`].
    pub fn predict_batch(
        &mut self,
        instance: u32,
        plans: &[PhysicalPlan],
        sys: &[f64],
    ) -> io::Result<Response> {
        self.call(&Request::PredictBatch {
            instance,
            plans: plans.to_vec(),
            sys: sys.to_vec(),
        })
    }

    /// `Observe` convenience wrapper.
    pub fn observe(
        &mut self,
        instance: u32,
        plan: &PhysicalPlan,
        sys: &[f64],
        actual_secs: f64,
    ) -> io::Result<Response> {
        self.call(&Request::Observe {
            instance,
            plan: plan.clone(),
            sys: sys.to_vec(),
            actual_secs,
        })
    }

    /// `Observe` that retries `Overloaded` answers so no feedback is ever
    /// silently dropped; returns the number of retries it took. Attempts
    /// are hard-capped at `max_retries`, and sleeps follow decorrelated
    /// jitter from the server's `retry_after_ms` hint up to one second —
    /// many clients backing off from the same overload spread out instead
    /// of stampeding back in lockstep.
    pub fn observe_with_retry(
        &mut self,
        instance: u32,
        plan: &PhysicalPlan,
        sys: &[f64],
        actual_secs: f64,
        max_retries: u32,
    ) -> io::Result<u32> {
        self.observe_with_retry_timed(instance, plan, sys, actual_secs, max_retries)
            .map(|(retries, _)| retries)
    }

    /// [`ServeClient::observe_with_retry`], additionally reporting how long
    /// the *successful* attempt's round trip took. Backoff sleeps and the
    /// refused attempts are excluded, so latency percentiles built from
    /// this number measure the service, not the client's retry schedule.
    #[expect(
        clippy::disallowed_methods,
        reason = "client-side backoff and round-trip timing; the client runs on its caller's thread"
    )]
    pub fn observe_with_retry_timed(
        &mut self,
        instance: u32,
        plan: &PhysicalPlan,
        sys: &[f64],
        actual_secs: f64,
        max_retries: u32,
    ) -> io::Result<(u32, Duration)> {
        const BACKOFF_CAP: Duration = Duration::from_secs(1);
        let mut prev = Duration::ZERO;
        for attempt in 0..=max_retries {
            let t0 = Instant::now();
            match self.observe(instance, plan, sys, actual_secs)? {
                Response::Observed { .. } => return Ok((attempt, t0.elapsed())),
                Response::Overloaded { retry_after_ms } => {
                    let base = Duration::from_millis(retry_after_ms.max(1));
                    prev =
                        decorrelated_jitter(base, BACKOFF_CAP, prev.max(base), &mut self.rng_state);
                    std::thread::sleep(prev);
                }
                other => return Err(io::Error::other(format!("observe rejected: {other:?}"))),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("observe still overloaded after {max_retries} retries"),
        ))
    }

    /// `Stats` convenience wrapper.
    pub fn stats(&mut self, instance: u32) -> io::Result<Response> {
        self.call(&Request::Stats { instance })
    }

    /// `Snapshot` convenience wrapper.
    pub fn snapshot(&mut self) -> io::Result<Response> {
        self.call(&Request::Snapshot)
    }

    /// `Shutdown` convenience wrapper.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.call(&Request::Shutdown)
    }
}

fn unexpected_eof() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "server closed the connection mid-request",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_in_envelope_and_decorrelates() {
        let base = Duration::from_millis(2);
        let cap = Duration::from_millis(500);
        let mut a_state = 7u64;
        let mut b_state = 8u64;
        let mut a = base;
        let mut b = base;
        let mut diverged = false;
        for _ in 0..100 {
            let na = decorrelated_jitter(base, cap, a, &mut a_state);
            let nb = decorrelated_jitter(base, cap, b, &mut b_state);
            assert!(na >= base && na <= cap);
            assert!(nb >= base && nb <= cap);
            // The next sleep never exceeds 3x the previous one (pre-clamp).
            assert!(na <= (a * 3).max(base + Duration::from_micros(1)).min(cap));
            diverged |= na != nb;
            a = na;
            b = nb;
        }
        assert!(diverged, "different seeds must produce different schedules");
    }

    #[test]
    fn jitter_is_deterministic_per_state() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_secs(1);
        let mut s1 = 42u64;
        let mut s2 = 42u64;
        for _ in 0..50 {
            let d1 = decorrelated_jitter(base, cap, base, &mut s1);
            let d2 = decorrelated_jitter(base, cap, base, &mut s2);
            assert_eq!(d1, d2);
        }
    }

    #[test]
    fn jitter_zero_state_is_rescued() {
        let mut state = 0u64;
        let d = decorrelated_jitter(
            Duration::from_millis(1),
            Duration::from_secs(1),
            Duration::from_millis(1),
            &mut state,
        );
        assert!(d >= Duration::from_millis(1));
        assert_ne!(state, 0, "xorshift state must leave the zero fixpoint");
    }
}
