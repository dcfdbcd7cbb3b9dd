//! Socket-level fault injection: a transparent `Read`/`Write` wrapper.
//!
//! [`ChaosStream`] wraps one half of a TCP connection. On each operation it
//! asks the plan for a decision; injected faults rotate deterministically
//! (by injection ordinal) through the failure flavours a real network
//! exhibits:
//!
//! * reads — mid-message disconnect, or a slow-loris stall that delivers
//!   one byte after a pause;
//! * writes — a torn frame (a prefix of the payload escapes onto the wire,
//!   then the connection dies), a clean disconnect, or a stalled write.
//!
//! Injected errors are ordinary `io::Error`s, so the wrapped server
//! exercises exactly the code paths a flaky network would. The wrapper is
//! agnostic to the stream's blocking mode and wire format: `WouldBlock`
//! from a non-blocking inner socket passes through untouched, so the same
//! fault plan lands on the event-loop serving path, and a torn write tears
//! binary frames (truncated `len|crc|payload`, caught by the CRC check)
//! exactly as it tears JSON lines.

use crate::plan::{FaultPlan, FaultSite};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// A `Read`/`Write` adapter injecting socket faults per the shared plan.
pub struct ChaosStream<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S> ChaosStream<S> {
    /// Wraps a stream half under `plan`.
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }

    /// The wrapped stream (e.g. to reach `TcpStream` socket options).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

#[cfg(unix)]
impl<S: std::os::unix::io::AsRawFd> std::os::unix::io::AsRawFd for ChaosStream<S> {
    /// The wrapped descriptor, so a readiness loop (`poll`) can watch a
    /// chaos-wrapped socket like a plain one — faults fire on the
    /// read/write calls, never on readiness itself.
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        self.inner.as_raw_fd()
    }
}

impl<S: Read> Read for ChaosStream<S> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the stall is the injected fault; chaos runs opt into it"
    )]
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.plan.decide(FaultSite::SockRead) {
            Some(k) if k % 2 == 0 => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: injected read disconnect",
            )),
            Some(_) => {
                // Slow-loris: stall, then trickle at most one byte so the
                // peer's message crawls in.
                std::thread::sleep(self.plan.stall());
                if buf.is_empty() {
                    return self.inner.read(buf);
                }
                let (head, _) = buf.split_at_mut(1);
                self.inner.read(head)
            }
            None => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for ChaosStream<S> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the stall is the injected fault; chaos runs opt into it"
    )]
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.plan.decide(FaultSite::SockWrite) {
            Some(k) => match k % 3 {
                0 => {
                    // Torn frame: half the payload escapes onto the wire,
                    // then the connection dies. The peer sees a truncated
                    // line and must resynchronise.
                    let (head, _) = buf.split_at(buf.len() / 2);
                    if !head.is_empty() {
                        let _ = self.inner.write(head);
                        let _ = self.inner.flush();
                    }
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "chaos: injected torn write",
                    ))
                }
                1 => Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "chaos: injected write disconnect",
                )),
                _ => {
                    std::thread::sleep(self.plan.stall());
                    self.inner.write(buf)
                }
            },
            None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlanConfig, SitePolicy};
    use std::time::Duration;

    fn plan_with(site: FaultSite, policy: SitePolicy) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(
            FaultPlanConfig::new(11)
                .stall(Duration::from_millis(1))
                .site(site, policy),
        ))
    }

    #[test]
    fn clean_plan_is_transparent() {
        let plan = plan_with(FaultSite::SockRead, SitePolicy::OFF);
        let mut w = ChaosStream::new(Vec::new(), Arc::clone(&plan));
        w.write_all(b"hello").unwrap();
        w.flush().unwrap();
        assert_eq!(w.get_ref(), b"hello");

        let mut r = ChaosStream::new(&b"world"[..], plan);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "world");
    }

    #[test]
    fn read_faults_rotate_disconnect_and_stall() {
        // p=1: ordinal 0 disconnects, ordinal 1 stalls (partial read).
        let plan = plan_with(FaultSite::SockRead, SitePolicy::flat(1.0, u64::MAX));
        let mut r = ChaosStream::new(&b"abcdef"[..], plan);
        let mut buf = [0u8; 4];
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 1, "slow-loris read must trickle a single byte");
    }

    #[test]
    fn write_faults_rotate_torn_disconnect_stall() {
        let plan = plan_with(FaultSite::SockWrite, SitePolicy::flat(1.0, u64::MAX));
        let mut w = ChaosStream::new(Vec::new(), plan);
        // Ordinal 0: torn frame — a strict prefix lands, then an error.
        let err = w.write(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert_eq!(w.get_ref(), b"01234");
        // Ordinal 1: clean disconnect, nothing more lands.
        let err = w.write(b"xxxx").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(w.get_ref(), b"01234");
        // Ordinal 2: stall, then the write goes through whole.
        let n = w.write(b"done").unwrap();
        assert_eq!(n, 4);
        assert_eq!(w.get_ref(), b"01234done");
    }

    #[test]
    fn torn_write_tears_binary_frames_detectably() {
        // A binary wire frame (`u32 len | u32 crc32 | payload`) sent
        // through a torn write must leave a strict prefix whose checksum
        // can no longer validate — the peer's frame parser either waits on
        // the missing bytes or flags the damage, never decodes garbage.
        let payload = b"binary-frame-payload-bytes";
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&stage_core::persist::crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);

        let plan = plan_with(FaultSite::SockWrite, SitePolicy::flat(1.0, 1));
        let mut w = ChaosStream::new(Vec::new(), plan);
        let err = w.write(&frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);

        let escaped = w.get_ref();
        assert!(escaped.len() < frame.len(), "a strict prefix escaped");
        assert_eq!(&frame[..escaped.len()], &escaped[..]);
        // The declared length exceeds the payload bytes that escaped, so a
        // length-prefixed parser cannot mistake the tear for a whole frame.
        let declared = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert!(escaped.len() < 8 + declared);
    }

    #[test]
    fn bounded_schedule_heals() {
        let plan = plan_with(FaultSite::SockWrite, SitePolicy::flat(1.0, 3));
        let mut w = ChaosStream::new(Vec::new(), plan);
        let mut failures = 0;
        for _ in 0..10 {
            if w.write(b"abcd").is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 2, "cap of 3: torn, disconnect, then one stall");
    }
}
