//! Event-loop primitives for the serving tier: a thin safe wrapper over
//! `poll(2)` plus a self-pipe waker, std-only (no mio/tokio — the
//! workspace vendors no async runtime, and readiness polling over a few
//! file descriptors needs none).
//!
//! Each loop shard polls its connections' sockets with `POLLIN` (plus
//! `POLLOUT` while a write buffer is pending) and one waker fd that other
//! threads poke to interrupt a sleep — the accept thread after handing a
//! connection over, and `shutdown`/`join` when the drain state changes.
//!
//! `stage-serve` denies `unsafe_code` at its crate root; the one
//! `#[expect(unsafe_code, …)]` is [`poll_fds`], whose `poll` FFI call
//! carries the `// SAFETY:` argument `clippy::undocumented_unsafe_blocks`
//! requires (valid slice pointer and length, established right above it).

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// Readable readiness (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (`POLLERR`, only ever returned in `revents`).
pub const POLLERR: i16 = 0x008;
/// Peer hangup (`POLLHUP`, only ever returned in `revents`).
pub const POLLHUP: i16 = 0x010;

/// One entry of the `poll(2)` fd set, ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// A descriptor watched for the given events.
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the kernel flagged an error or hangup on this descriptor.
    pub fn failed(&self) -> bool {
        self.ready(POLLERR | POLLHUP)
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: core::ffi::c_int) -> i32;
}

/// Blocks until at least one descriptor in `fds` is ready or `timeout_ms`
/// elapses (`-1` = no timeout). Returns the number of ready descriptors
/// (0 on timeout). `EINTR` is retried internally.
#[expect(
    unsafe_code,
    reason = "the poll(2) FFI seam over an exclusively borrowed repr(C) slice"
)]
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs; the pointer and length
        // describe exactly that allocation for the duration of the call.
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A self-pipe that makes a sleeping [`poll_fds`] call return: the loop
/// polls `read_fd()` for `POLLIN`; any other thread calls [`Waker::wake`].
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    /// Builds the pair; both ends are non-blocking so neither waking nor
    /// draining can ever stall a thread.
    pub fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Self { rx, tx })
    }

    /// The descriptor the event loop should include in its poll set.
    pub fn read_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Makes the owning loop's next (or current) poll return. Safe from
    /// any thread; a full pipe means a wake is already pending, which is
    /// just as good.
    pub fn wake(&self) {
        use std::io::Write;
        let mut tx = &self.tx;
        let _ = tx.write(&[1u8]);
    }

    /// Drains pending wake bytes so the loop doesn't spin on a
    /// permanently-readable fd. Call on every poll iteration where the
    /// waker fd came back readable.
    pub fn drain(&self) {
        use std::io::Read;
        let mut rx = &self.rx;
        let mut sink = [0u8; 64];
        loop {
            match rx.read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(_) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_on_silence() {
        let w = Waker::new().unwrap();
        let mut fds = [PollFd::new(w.read_fd(), POLLIN)];
        let t0 = Instant::now();
        let n = poll_fds(&mut fds, 30).unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn wake_interrupts_poll_and_drain_resets() {
        let w = Waker::new().unwrap();
        w.wake();
        w.wake(); // coalesces; both bytes drain below
        let mut fds = [PollFd::new(w.read_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(fds.iter().any(|f| f.ready(POLLIN)));
        w.drain();
        let mut fds = [PollFd::new(w.read_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 10).unwrap(), 0, "drained fd is quiet");
    }

    #[test]
    fn wake_from_another_thread_lands() {
        let w = std::sync::Arc::new(Waker::new().unwrap());
        let w2 = std::sync::Arc::clone(&w);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
        });
        let mut fds = [PollFd::new(w.read_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 5_000).unwrap();
        assert_eq!(n, 1);
        h.join().unwrap();
    }
}
