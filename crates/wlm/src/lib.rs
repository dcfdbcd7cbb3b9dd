//! # stage-wlm
//!
//! An event-driven replay simulator of Redshift's workload manager
//! (AutoWLM, paper §2.1 / §5.2). This is the instrument the paper itself
//! uses for its end-to-end evaluation: queries are replayed with their
//! *logged* exec-times, while the scheduler routes and orders them by
//! *predicted* exec-time. Better predictions → better admission/priority
//! decisions → lower end-to-end latency (wait + execution); the exec-time
//! itself is held fixed, exactly as in the paper's simulation.
//!
//! Model:
//!
//! * queries predicted shorter than `short_threshold_secs` enter a dedicated
//!   **short queue** with its own slots; the rest enter the **long queue**;
//! * within each queue, priority is shortest-predicted-job-first;
//! * each queue has a fixed number of concurrency slots; a misrouted long
//!   query blocks a short slot — head-of-line blocking, the paper's
//!   canonical failure mode;
//! * optional **SQA runtime eviction**: a query overrunning the short
//!   queue's limit is killed and restarted in the long queue (as Redshift's
//!   short-query acceleration does), so misroutes waste work instead of
//!   silently stealing short-queue capacity.
//!
//! Redshift's concurrency-scaling burst clusters are not modelled: the
//! generator provisions each instance to its workload, so the long queue
//! never needs extra slots to stay stable.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod sim;

pub use sim::{QueueKind, SimQuery, SimResult, Simulation, WlmConfig, WlmSummary};
