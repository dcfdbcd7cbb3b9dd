//! # stage-metrics
//!
//! Statistical primitives shared by the Stage predictor reproduction:
//!
//! * [`Welford`] — numerically stable running mean/variance (used by the
//!   exec-time cache, paper §4.2 "Optimization 2").
//! * [`mod@quantile`] — exact quantile helpers for reporting P50/P90 errors.
//! * [`error`] — absolute-error and Q-error accuracy summaries (Tables 1–6).
//! * [`buckets`] — the paper's exec-time bucketing (0–10 s, 10–60 s, 60–120 s,
//!   120–300 s, 300 s+) and per-bucket accuracy tables.
//! * [`prr`] — the prediction-rejection ratio scoring rule used to judge the
//!   local model's uncertainty quality (Figs. 10–11).
//! * [`histogram`] — log-scale latency histograms (Fig. 1b-style summaries).
//!
//! All statistics are deterministic and allocation-light; nothing here draws
//! randomness.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod buckets;
pub mod calibration;
pub mod error;
pub mod histogram;
pub mod prr;
pub mod quantile;
pub mod welford;

pub use buckets::{BucketReport, BucketRow, ExecTimeBucket};
pub use calibration::interval_coverage;
pub use error::{AbsErrorSummary, QErrorSummary};
pub use histogram::LogHistogram;
pub use prr::{prr_score, PrrCurves};
pub use quantile::quantile;
pub use welford::Welford;
