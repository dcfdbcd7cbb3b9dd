//! # stage-serve
//!
//! The **online prediction service**: Stage is not an offline artefact —
//! in Redshift it runs inside the database, answering per-query latency
//! predictions for AutoWLM's admission decisions and learning from every
//! observed execution (paper §1, §5). This crate is that deployment shape
//! for the reproduction: a std-only (no async runtime) TCP server built on
//! a small `poll(2)` event loop, speaking a length-prefixed binary frame
//! codec (with newline-JSON negotiated per connection for debuggability
//! and old clients), hosting one warm [`stage_core::StagePredictor`] per
//! simulated instance.
//!
//! * [`protocol`] — the six-verb protocol types (`Predict`,
//!   `PredictBatch`, `Observe`, `Stats`, `Snapshot`, `Shutdown`) and the
//!   newline-JSON framing.
//! * [`wire`] — the binary codec: `len | crc32 | payload` frames (the
//!   artefact store's CRC reused on the wire), magic-byte handshake, and
//!   bit-exact `f64` encoding.
//! * [`evloop`] — `poll(2)` + self-pipe waker primitives for the event
//!   loops.
//! * [`registry`] — the sharded `RwLock` predictor registry with
//!   crash-safe checkpointing and atomic warm restart.
//! * [`server`] — the accept thread + per-core event-loop shards (their
//!   connection state machine in `conn.rs`, verb dispatch in `dispatch.rs`,
//!   the checkpoint and hot-swap thread in `health.rs`), including the
//!   degraded-mode response path: per-request deadlines (`TimedOut`),
//!   mid-message stall reaping, per-connection write-buffer shedding,
//!   component fallback counters, and the optional `stage-chaos` fault
//!   plan threaded through sockets, snapshot I/O, and model tiers.
//! * [`client`] — a blocking dual-codec client used by the benchmark
//!   and tests (socket timeouts and capped decorrelated-jitter retries by
//!   default).

#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::disallowed_macros))]

pub mod client;
mod conn;
mod dispatch;
pub mod evloop;
mod health;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod wire;

pub use client::{Codec, ServeClient};
pub use protocol::{BatchPrediction, Request, Response};
pub use registry::{RestoreSummary, Shard, ShardRegistry};
pub use server::{ServeConfig, Server};

// Compile-time proof that the serving types crossing thread boundaries are
// safe to share: the registry is read by event loops and the snapshot
// checkpointer at once. (`Shared`, `LoopShard`, `Sock`, and `Conn`, the
// private counterparts, carry the same assertions in `server.rs`.)
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardRegistry>();
    assert_send::<Shard>();
    assert_send_sync::<Server>();
};
