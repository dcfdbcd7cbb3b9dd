//! # stage-chaos
//!
//! Deterministic, seed-driven fault injection for the serving stack. A
//! production predictor inside Redshift must never take down admission
//! control: the paper's hierarchy (cache → local → global) is itself a
//! fallback chain, and this crate is how the reproduction proves its
//! serving layer degrades instead of dying.
//!
//! The design is a single [`FaultPlan`] — per-site schedules (injection
//! probability, injection cap) over a fixed set of [`FaultSite`]s —
//! consulted by thin hooks threaded through the stack:
//!
//! * [`io::ChaosStream`] wraps a socket half and injects torn frames,
//!   mid-message disconnects, and slow-loris stalls ([`FaultSite::SockRead`],
//!   [`FaultSite::SockWrite`]).
//! * [`FaultPlan`] implements [`stage_core::persist::PersistFaults`]:
//!   partial writes, fsync failures, and bit-flip corruption on restore
//!   ([`FaultSite::PersistWrite`], [`FaultSite::PersistFsync`],
//!   [`FaultSite::PersistRestore`]).
//! * [`FaultPlan`] implements [`stage_core::stage::ComponentFaults`]:
//!   local/global model unavailability and poisoned/slow retrains
//!   ([`FaultSite::LocalPredict`], [`FaultSite::GlobalPredict`],
//!   [`FaultSite::LocalRetrain`]).
//!
//! Every decision is a pure function of `(seed, site, per-site call
//! ordinal)` — no entropy, no clocks — so a run with the same seed and the
//! same per-site traffic injects the same faults, and the injected counters
//! ([`FaultPlan::injected`]) are an exact ledger: the test driver
//! (`tests/support`) balances them against the server's degraded-mode
//! counters and against a second plan, built from the same configuration,
//! that its in-process model consults.
//!
//! This crate is std-only and denies every panicking construct, indexing
//! included (the lint levels below): a fault injector that panics would
//! void the very property under test.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod hooks;
pub mod io;
pub mod plan;
pub mod rng;

pub use io::ChaosStream;
pub use plan::{FaultPlan, FaultPlanConfig, FaultSite, SitePolicy};

// The plan is shared by the event loops, the health thread and the test
// driver at once; prove at compile time that it can be.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FaultPlan>();
};
