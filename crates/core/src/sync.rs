//! Ordered lock wrappers enforcing the workspace lock hierarchy at runtime.
//!
//! The workspace declares one total order over its named locks:
//!
//! ```text
//! shard (0)  →  session (1)
//! ```
//!
//! A thread may only acquire locks in non-decreasing rank order; taking a
//! lower-ranked lock while a higher-ranked one is held is the classic
//! deadlock recipe (thread A holds session wanting shard, thread B holds
//! shard wanting session). [`OrderedMutex`] and [`OrderedRwLock`] wrap the
//! std primitives and, **in debug builds**, keep a per-thread stack of held
//! ranks and panic — naming both locks — the instant an out-of-order
//! acquisition happens, whether or not it would have deadlocked this run.
//! Release builds compile the bookkeeping out entirely; the wrappers add
//! zero overhead there.
//!
//! The one nesting the workspace has is `shard → session`: the chaos
//! plan's counters are consulted under a shard lock. The inverse — holding
//! the checkpoint gate across a call that takes shard locks — is the
//! inversion this detector exists to catch. Poisoning is deliberately
//! swallowed (`PoisonError::into_inner`): every guarded value in this
//! workspace is a predictor/bookkeeping structure whose partially-updated
//! state is still structurally valid (at worst a stale model), and a
//! panic-freedom lint guards the paths that mutate them.

use std::cell::RefCell;
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

/// A lock's place in the declared total order. Lower ranks must be
/// acquired first; equal ranks may be held together (peer shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    /// Position in the total order (lower acquires first).
    pub rank: u8,
    /// Human-readable lock name, used in violation panics and diagnostics.
    pub name: &'static str,
}

/// One instance's predictor shard.
pub const RANK_SHARD: LockRank = LockRank {
    rank: 0,
    name: "shard",
};
/// Per-process session bookkeeping (checkpoint gate, fault-plan counters).
pub const RANK_SESSION: LockRank = LockRank {
    rank: 1,
    name: "session",
};

/// Human-readable rendering of the declared order, for panic messages and
/// docs.
pub const DECLARED_ORDER: &str = "shard(0) -> session(1)";

thread_local! {
    /// Ranks of locks currently held by this thread (debug builds only).
    static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
}

/// Records an acquisition, panicking on an out-of-order one (debug only).
#[expect(
    clippy::disallowed_macros,
    reason = "this panic IS the debug-only lock-order enforcement; release builds skip the whole branch"
)]
fn track_acquire(rank: LockRank) {
    if cfg!(debug_assertions) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(worst) = held.iter().max_by_key(|r| r.rank) {
                assert!(
                    worst.rank <= rank.rank,
                    "lock order violation: acquiring \"{}\" (rank {}) while holding \"{}\" \
                     (rank {}); declared order is {DECLARED_ORDER}",
                    rank.name,
                    rank.rank,
                    worst.name,
                    worst.rank,
                );
            }
            held.push(rank);
        });
    }
}

/// Forgets one held entry of `rank` (debug only).
fn track_release(rank: LockRank) {
    if cfg!(debug_assertions) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|r| *r == rank) {
                held.remove(pos);
            }
        });
    }
}

/// Ranks currently held by this thread (debug builds; empty in release).
/// Exposed for tests and diagnostics.
pub fn held_ranks() -> Vec<LockRank> {
    HELD.with(|held| held.borrow().clone())
}

/// A [`Mutex`] that participates in the declared lock order.
pub struct OrderedMutex<T> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex at the given rank.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex, enforcing rank order in debug builds. Poisoning
    /// is swallowed (see the module docs).
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        track_acquire(self.rank);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        OrderedMutexGuard {
            inner: Some(inner),
            rank: self.rank,
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`OrderedMutex::lock`]. The `Option` is `Some` for the
/// guard's whole external lifetime; it is only vacated internally while the
/// guard is parked in a [`Condvar`] wait (the lock really is released
/// there, so the held-rank entry is dropped too).
pub struct OrderedMutexGuard<'a, T> {
    inner: Option<MutexGuard<'a, T>>,
    rank: LockRank,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    #[expect(
        clippy::unreachable,
        reason = "the Option is vacated only inside wait_timeout(), which consumes the guard"
    )]
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("guard vacated outside a condvar wait"),
        }
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    #[expect(
        clippy::unreachable,
        reason = "the Option is vacated only inside wait_timeout(), which consumes the guard"
    )]
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("guard vacated outside a condvar wait"),
        }
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            track_release(self.rank);
        }
    }
}

/// Releases `guard` into `cv.wait_timeout`, restoring the rank bookkeeping
/// when the thread wakes and re-acquires. Use exactly like
/// `(guard, _) = sync::wait_timeout(&cv, guard, dur)`.
#[expect(
    clippy::unreachable,
    reason = "the Option is vacated only inside wait_timeout(), which consumes the guard"
)]
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one condvar wait: bounded by `dur`, and never called on the event loop"
)]
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    mut guard: OrderedMutexGuard<'a, T>,
    dur: Duration,
) -> (OrderedMutexGuard<'a, T>, WaitTimeoutResult) {
    let rank = guard.rank;
    let Some(inner) = guard.inner.take() else {
        unreachable!("guard vacated outside a condvar wait");
    };
    track_release(rank);
    let (inner, timeout) = cv
        .wait_timeout(inner, dur)
        .unwrap_or_else(PoisonError::into_inner);
    track_acquire(rank);
    (
        OrderedMutexGuard {
            inner: Some(inner),
            rank,
        },
        timeout,
    )
}

/// An [`RwLock`] that participates in the declared lock order. Read and
/// write acquisitions both count against the order (a reader can deadlock a
/// writer just as well).
pub struct OrderedRwLock<T> {
    rank: LockRank,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` in an rwlock at the given rank.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared read access, enforcing rank order in debug builds.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        track_acquire(self.rank);
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        OrderedRwLockReadGuard {
            inner,
            rank: self.rank,
        }
    }

    /// Acquires exclusive write access, enforcing rank order in debug
    /// builds.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        track_acquire(self.rank);
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        OrderedRwLockWriteGuard {
            inner,
            rank: self.rank,
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`OrderedRwLock::read`].
pub struct OrderedRwLockReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    rank: LockRank,
}

impl<T> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        track_release(self.rank);
    }
}

/// Guard returned by [`OrderedRwLock::write`].
pub struct OrderedRwLockWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    rank: LockRank,
}

impl<T> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        track_release(self.rank);
    }
}

// The wrappers must be as thread-capable as the primitives they replace.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OrderedMutex<u64>>();
    assert_send_sync::<OrderedRwLock<u64>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn in_order_nesting_is_fine() {
        let shard = OrderedRwLock::new(RANK_SHARD, 7u32);
        let session = OrderedMutex::new(RANK_SESSION, Vec::<u32>::new());
        let mut s = shard.write();
        *s += 1;
        let mut q = session.lock();
        q.push(*s);
        assert_eq!(q.as_slice(), &[8]);
        drop(q);
        drop(s);
        assert!(held_ranks().is_empty(), "all held entries released");
    }

    #[test]
    fn equal_ranks_may_be_held_together() {
        let a = OrderedRwLock::new(RANK_SHARD, 1u32);
        let b = OrderedRwLock::new(RANK_SHARD, 2u32);
        let ga = a.read();
        let gb = b.read();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn sequential_reacquisition_after_release_is_fine() {
        let session = OrderedMutex::new(RANK_SESSION, 0u32);
        let shard = OrderedRwLock::new(RANK_SHARD, 0u32);
        {
            let _g = session.lock();
        }
        // The session guard is gone; going back down to shard is legal.
        let _s = shard.read();
    }

    /// The one cross-rank inversion the workspace can express: hold the
    /// session-rank checkpoint gate, then take a shard lock.
    #[cfg(debug_assertions)]
    #[test]
    fn inverted_acquisition_panics_with_both_lock_names() {
        let session = Arc::new(OrderedMutex::new(RANK_SESSION, ()));
        let shard = Arc::new(OrderedRwLock::new(RANK_SHARD, ()));
        let handle = std::thread::spawn(move || {
            let _g = session.lock();
            let _s = shard.write(); // session(1) held while acquiring shard(0): boom
        });
        let panic = handle
            .join()
            .expect_err("inverted acquisition must panic in debug builds");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".to_string());
        assert!(
            message.contains("\"shard\"") && message.contains("\"session\""),
            "panic must name both locks: {message}"
        );
        assert!(
            message.contains("lock order violation"),
            "panic names the rule: {message}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn condvar_wait_releases_the_held_rank() {
        // While a waiter is parked on the gate's condvar it holds nothing,
        // so another acquisition (even lower-ranked) on that thread after
        // the wait returns must still see correct bookkeeping.
        let gate = Arc::new(OrderedMutex::new(RANK_SESSION, false));
        let cv = Arc::new(Condvar::new());
        let (g2, cv2) = (Arc::clone(&gate), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = g2.lock();
            while !*g {
                (g, _) = wait_timeout(&cv2, g, Duration::from_secs(5));
            }
            drop(g);
            held_ranks().is_empty()
        });
        std::thread::sleep(Duration::from_millis(20));
        *gate.lock() = true;
        cv.notify_all();
        assert!(waiter.join().expect("waiter panicked"));
    }

    #[test]
    fn wait_timeout_round_trips_the_guard() {
        let gate = OrderedMutex::new(RANK_SESSION, 41u32);
        let cv = Condvar::new();
        let g = gate.lock();
        let (mut g, timeout) = wait_timeout(&cv, g, Duration::from_millis(1));
        assert!(timeout.timed_out());
        *g += 1;
        assert_eq!(*g, 42);
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = Arc::new(OrderedMutex::new(RANK_SESSION, 5u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A poisoned mutex still hands out its (last consistent) value.
        assert_eq!(*m.lock(), 5);
    }
}
