//! Per-shard drift sentinel: Page-Hinkley step-change detection and online
//! conformal calibration of prediction intervals (paper §5.3's step-change
//! scenario; PAPERS.md "Uncertainty Aware Query Execution Time Prediction"
//! for the calibration argument).
//!
//! Every observation the local model can score produces a log-space
//! residual `r = ln(1+actual) − μ`. Two things consume the stream:
//!
//! 1. a **Page-Hinkley-style one-sided CUSUM detector** over `|r|`: a
//!    [`stage_metrics::Welford`] baseline of the absolute residuals seen
//!    since the last retrain supplies a running mean `x̄` and spread `s`,
//!    and the statistic `S = max(0, S + min((|r| − x̄)/s, clip) − k)`
//!    accumulates only when residuals exceed the baseline by more than `k`
//!    spreads, with each sample's contribution winsorized at `clip` so a
//!    lone heavy-tail query can never fire the detector by itself. A step
//!    change inflates residuals, `S` climbs past `λ` within a handful of
//!    queries, and the detector latches: `StagePredictor::observe` reads
//!    the latch on every pool add and retrains on it, and a retrain that
//!    runs while latched clears it.
//!    Normalizing by the baseline spread makes `k`/`λ` unit-free — the
//!    same thresholds work for a tight production model and a rough
//!    freshly-trained one. The state is a pure function of the observed
//!    residual sequence — no clocks, no randomness — so replays detect on
//!    exactly the same query;
//! 2. an **online conformal calibrator**: a bounded ring of normalized
//!    scores `z = |r| / σ`. The served interval uses the empirical
//!    `target_coverage`-quantile of recent scores instead of a
//!    normal-theory constant, so if the ensemble's σ is over- or
//!    under-confident the interval width self-corrects within one window.
//!    Beside the ring the sentinel keeps a sorted copy, updated on each
//!    push by one binary-search removal and one insertion, so the quantile
//!    ([`DriftSentinel::z_multiplier`]), read per served interval and per
//!    scored observation, neither copies nor sorts. Only the ring persists;
//!    restore sorts it once.
//!
//! Intervals are additionally widened by `degraded_widen` while any
//! [`crate::stage::DegradedStats`] tier is active (a degraded answer was
//! counted within the last `degraded_hold` interval requests): a shard
//! serving off its fallback chain knows less than its σ claims.
//!
//! The whole sentinel persists as the CALIBRATION section of the
//! stage-store layout (`crate::storefmt`; a file without the section
//! restores to a cold sentinel), so a warm restart keeps its calibration
//! instead of serving uncalibrated intervals until the window refills.
//!
//! This module sits under `StagePredictor::observe`, which is on the
//! serve request path — everything here is panic-free by construction.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use serde::{Deserialize, Serialize, Value};
use stage_metrics::quantile::quantile_of_sorted;
use stage_metrics::{interval_coverage, Welford};
use stage_store::{SectionReader, SectionWriter, StoreError};

/// Tuning for the detector, the calibrator, and the widening policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// CUSUM slack `k`, in baseline-spread units: per-sample tolerance
    /// subtracted from the normalized exceedance, so ordinary noise never
    /// accumulates.
    pub cusum_k: f64,
    /// CUSUM threshold `λ`, in baseline-spread units: the detector fires
    /// when the accumulated exceedance climbs past it.
    pub cusum_lambda: f64,
    /// Winsorization cap on a single sample's normalized exceedance
    /// (before `k` is subtracted). One heavy-tail outlier query must not
    /// fire the detector on its own: with the cap at `c`, crossing `λ`
    /// needs at least `λ / (c − k)` net-elevated samples, so a detection
    /// always testifies to a *sustained* shift.
    pub cusum_clip: f64,
    /// Floor on the baseline spread (in `ln(1+secs)` space) so a
    /// near-perfect model doesn't fire on microscopic noise.
    pub min_spread: f64,
    /// Residuals the detector must see before it may fire (warm-up).
    pub min_samples: u64,
    /// Ring-buffer capacity of the conformal score window.
    pub window: u32,
    /// Nominal coverage the calibrated interval targets (e.g. `0.9`).
    pub target_coverage: f64,
    /// z-multiplier served before `min_scores` conformal scores exist
    /// (normal-theory fallback).
    pub fallback_z: f64,
    /// Conformal scores required before the empirical quantile replaces
    /// [`DriftConfig::fallback_z`].
    pub min_scores: u32,
    /// Interval-width multiplier while a degraded tier is active.
    pub degraded_widen: f64,
    /// How many interval requests a single degraded event keeps the
    /// widening active for.
    pub degraded_hold: u32,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            cusum_k: 1.0,
            cusum_lambda: 6.0,
            // λ/(clip−k) = 4: at least four net-elevated samples to fire.
            cusum_clip: 2.5,
            min_spread: 0.02,
            min_samples: 30,
            window: 256,
            target_coverage: 0.9,
            // Normal-theory two-sided 90% multiplier.
            fallback_z: 1.645,
            min_scores: 20,
            degraded_widen: 1.5,
            degraded_hold: 64,
        }
    }
}

/// σ below this is treated as "no usable uncertainty": the residual still
/// feeds the detector, but no conformal score is formed (dividing by a
/// degenerate σ would poison the quantile with infinities).
const MIN_SIGMA: f64 = 1e-9;

/// Floor for the served z-multiplier so a freak run of tiny scores can
/// never collapse intervals to a point.
const MIN_Z: f64 = 1e-3;

/// Per-shard drift + calibration state. Pure data: every transition is a
/// deterministic function of the residuals pushed in (the crate denies
/// clock and entropy reads, `clippy::disallowed_methods`), which makes
/// chaos runs replayable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSentinel {
    config: DriftConfig,
    // Detector state: Welford baseline over |residual| since the last
    // reset, plus the one-sided CUSUM statistic.
    baseline: Welford,
    cusum: f64,
    /// Latched on detection; cleared by [`DriftSentinel::reset_after_retrain`].
    triggered: bool,
    detections: u64,
    forced_retrains: u64,
    // Conformal scores z = |r|/σ.
    scores: ScoreWindow,
    // Online coverage accounting: of the intervals this sentinel would
    // have served at observe time, how many contained the truth.
    covered: u64,
    measured: u64,
    // Degraded-widening state: the last DegradedStats::total() seen, and
    // how many more interval requests stay widened.
    last_degraded_total: u64,
    degraded_hold_left: u32,
}

impl Default for DriftSentinel {
    fn default() -> Self {
        Self::new(DriftConfig::default())
    }
}

impl DriftSentinel {
    /// A cold sentinel.
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            baseline: Welford::new(),
            cusum: 0.0,
            triggered: false,
            detections: 0,
            forced_retrains: 0,
            scores: ScoreWindow::default(),
            covered: 0,
            measured: 0,
            last_degraded_total: 0,
            degraded_hold_left: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// Feeds one scored observation: the local model said `(log_mu,
    /// log_sigma)` in `ln(1+secs)` space, the query actually took
    /// `log_actual`. Updates coverage accounting (against the interval
    /// that would have been served *before* absorbing this residual), the
    /// conformal window, and the detector.
    pub fn observe_residual(&mut self, log_mu: f64, log_sigma: f64, log_actual: f64) {
        let r = log_actual - log_mu;
        if !r.is_finite() {
            return;
        }
        // Coverage first: the interval in force at prediction time did not
        // yet know this residual (split conformal accounting).
        if log_sigma.is_finite() && log_sigma >= 0.0 {
            let half = self.z_multiplier() * log_sigma;
            let triple = [(log_actual, log_mu - half, log_mu + half)];
            if let Some(c) = interval_coverage(&triple) {
                self.measured += 1;
                if c >= 1.0 {
                    self.covered += 1;
                }
            }
        }
        let cap = self.config.window;
        if log_sigma.is_finite() && log_sigma > MIN_SIGMA {
            let z = r.abs() / log_sigma;
            if z.is_finite() {
                self.scores.push(cap, z);
            }
        }
        // One-sided CUSUM over |r|, normalized by the baseline the
        // detector had *before* this sample (a shifted sample must not
        // dilute the very baseline it is judged against).
        let x = r.abs();
        if self.baseline.count() >= self.config.min_samples {
            let spread = self.baseline.std_dev().max(self.config.min_spread);
            // Winsorized: a lone outlier contributes at most `clip − k`.
            let normalized = ((x - self.baseline.mean()) / spread).min(self.config.cusum_clip);
            let exceedance = normalized - self.config.cusum_k;
            self.cusum = (self.cusum + exceedance).max(0.0);
            if !self.triggered && self.cusum > self.config.cusum_lambda {
                self.triggered = true;
                self.detections = self.detections.saturating_add(1);
            }
        }
        self.baseline.push(x);
    }

    /// The z-multiplier a calibrated interval should use right now: the
    /// empirical `target_coverage`-quantile of recent conformal scores
    /// (normal-theory fallback until the window has `min_scores`), times
    /// the degraded widening when active.
    pub fn z_multiplier(&self) -> f64 {
        let base = if self.scores.ring.len() >= self.config.min_scores as usize {
            self.scores
                .quantile(self.config.target_coverage)
                .unwrap_or(self.config.fallback_z)
        } else {
            self.config.fallback_z
        };
        let widen = if self.degraded_hold_left > 0 {
            self.config.degraded_widen
        } else {
            1.0
        };
        (base * widen).max(MIN_Z)
    }

    /// Reports the current [`crate::stage::DegradedStats::total`] before an
    /// interval is formed: a fresh degraded event re-arms the widening for
    /// `degraded_hold` interval requests; otherwise the hold decays by one.
    pub fn note_degraded_total(&mut self, total: u64) {
        if total > self.last_degraded_total {
            self.last_degraded_total = total;
            self.degraded_hold_left = self.config.degraded_hold;
        } else {
            self.degraded_hold_left = self.degraded_hold_left.saturating_sub(1);
        }
    }

    /// Whether intervals are currently widened by the degraded policy.
    pub fn degraded_active(&self) -> bool {
        self.degraded_hold_left > 0
    }

    /// Whether the detector has fired and not yet been reset by a retrain.
    pub fn drift_detected(&self) -> bool {
        self.triggered
    }

    /// Lifetime count of detector firings.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Lifetime count of retrains a latched sentinel brought forward,
    /// acknowledged via [`DriftSentinel::note_forced_retrain`].
    pub fn forced_retrains(&self) -> u64 {
        self.forced_retrains
    }

    /// Empirical coverage of the intervals served so far (`None` until the
    /// first measurable observation).
    pub fn coverage(&self) -> Option<f64> {
        if self.measured == 0 {
            None
        } else {
            Some(self.covered as f64 / self.measured as f64)
        }
    }

    /// Residuals the detector has absorbed since the last reset.
    pub fn residuals_seen(&self) -> u64 {
        self.baseline.count()
    }

    /// The current CUSUM statistic, in baseline-spread units (diagnostic:
    /// how close the detector is to firing).
    pub fn cusum_level(&self) -> f64 {
        self.cusum
    }

    /// Approximate resident size in bytes: the conformal window and its
    /// sorted copy as reserved (they grow with their scores up to `window`).
    pub fn approx_size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.scores.ring.capacity() + self.scores.sorted.capacity())
                * std::mem::size_of::<f64>()
    }

    /// Counts one forced retrain.
    pub fn note_forced_retrain(&mut self) {
        self.forced_retrains = self.forced_retrains.saturating_add(1);
    }

    /// Clears the detector after a retrain that ran while it was latched:
    /// the old residual baseline described the old model. The conformal score
    /// window is deliberately **kept** — normalized scores transfer far
    /// better than raw residuals, and holding the (wide) post-drift scores
    /// keeps intervals conservative while the new model proves itself,
    /// which is what preserves coverage through the step change.
    pub fn reset_after_retrain(&mut self) {
        self.baseline = Welford::new();
        self.cusum = 0.0;
        self.triggered = false;
    }

    /// Encodes the sentinel as a stage-store section (CALIBRATION). All
    /// floats as `to_bits` images via the section writer — the round trip
    /// is bit-exact. The signed-residual ring of earlier builds keeps its
    /// slot (written empty), so files restore across builds both ways.
    pub fn store_encode(&self, w: &mut SectionWriter) {
        w.put_f64(self.config.cusum_k);
        w.put_f64(self.config.cusum_lambda);
        w.put_f64(self.config.cusum_clip);
        w.put_f64(self.config.min_spread);
        w.put_u64(self.config.min_samples);
        w.put_u32(self.config.window);
        w.put_f64(self.config.target_coverage);
        w.put_f64(self.config.fallback_z);
        w.put_u32(self.config.min_scores);
        w.put_f64(self.config.degraded_widen);
        w.put_u32(self.config.degraded_hold);
        w.put_u64(self.baseline.count());
        w.put_f64(self.baseline.mean());
        w.put_f64(self.baseline.m2());
        w.put_f64(self.cusum);
        w.put_bool(self.triggered);
        w.put_u64(self.detections);
        w.put_u64(self.forced_retrains);
        w.put_u64(self.covered);
        w.put_u64(self.measured);
        w.put_u64(self.last_degraded_total);
        w.put_u32(self.degraded_hold_left);
        w.put_u32(0);
        w.put_u32(self.scores.next);
        w.put_f64_slice(&[]);
        w.put_f64_slice(&self.scores.ring);
    }

    /// Decodes a sentinel from its CALIBRATION section. Hostile-input
    /// hardened: ring lengths and cursor indices are validated against the
    /// declared window, and the scores must be finite, before the state is
    /// accepted: only a ring a push can leave behind restores.
    pub fn store_decode(r: &mut SectionReader) -> Result<Self, StoreError> {
        let config = DriftConfig {
            cusum_k: r.f64()?,
            cusum_lambda: r.f64()?,
            cusum_clip: r.f64()?,
            min_spread: r.f64()?,
            min_samples: r.u64()?,
            window: r.u32()?,
            target_coverage: r.f64()?,
            fallback_z: r.f64()?,
            min_scores: r.u32()?,
            degraded_widen: r.f64()?,
            degraded_hold: r.u32()?,
        };
        let baseline = Welford::from_parts(r.u64()?, r.f64()?, r.f64()?);
        let cusum = r.f64()?;
        let triggered = r.bool()?;
        let detections = r.u64()?;
        let forced_retrains = r.u64()?;
        let covered = r.u64()?;
        let measured = r.u64()?;
        let last_degraded_total = r.u64()?;
        let degraded_hold_left = r.u32()?;
        // Earlier builds' signed-residual ring: validated, then dropped.
        let residual_next = r.u32()?;
        let score_next = r.u32()?;
        let residuals = r.f64_vec()?;
        let scores = r.f64_vec()?;
        let malformed = |detail: String| StoreError::Malformed { detail };
        if residuals.len() > config.window as usize || residual_next as usize > residuals.len() {
            return Err(malformed(format!(
                "calibration residual ring of {} (cursor {residual_next}) past window {}",
                residuals.len(),
                config.window
            )));
        }
        let scores =
            ScoreWindow::from_ring(scores, score_next, config.window).map_err(malformed)?;
        Ok(Self {
            config,
            baseline,
            cusum,
            triggered,
            detections,
            forced_retrains,
            scores,
            covered,
            measured,
            last_degraded_total,
            degraded_hold_left,
        })
    }
}

/// The conformal scores, as a bounded ring and a sorted copy of it. The
/// ring is what persists; the copy is rebuilt from it on restore and kept
/// in step on each push, so a quantile is a read.
#[derive(Debug, Clone, Default, PartialEq)]
struct ScoreWindow {
    /// Scores in arrival order, growing to the window and then a ring:
    /// `next` is the slot the next push overwrites once it is full (and the
    /// length while it grows).
    ring: Vec<f64>,
    next: u32,
    /// `ring` ordered by `f64::total_cmp`.
    sorted: Vec<f64>,
}

impl ScoreWindow {
    /// Accepts a persisted ring only in a state [`ScoreWindow::push`]
    /// produces: at most `cap` finite scores, `next` equal to the length
    /// while the ring grows and below `cap` once it is full. (A full ring
    /// with `next == cap` would drop every later score.)
    fn from_ring(ring: Vec<f64>, next: u32, cap: u32) -> Result<Self, String> {
        let len = ring.len();
        if len > cap as usize {
            return Err(format!(
                "calibration score ring of {len} exceeds window {cap}"
            ));
        }
        let cursor_ok = if len == cap as usize && cap > 0 {
            next < cap
        } else {
            next as usize == len
        };
        if !cursor_ok {
            return Err(format!(
                "calibration score cursor {next} is no state a ring of {len} in window {cap} reaches"
            ));
        }
        if ring.iter().any(|z| !z.is_finite()) {
            return Err("calibration score ring holds a non-finite score".to_string());
        }
        let mut sorted = ring.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(Self { ring, next, sorted })
    }

    /// Appends into the ring — grow until `cap`, then overwrite the slot at
    /// `next` (the oldest score) and advance — and moves the sorted copy in
    /// step: the overwritten score out, `z` in.
    fn push(&mut self, cap: u32, z: f64) {
        if cap == 0 {
            return;
        }
        if self.ring.len() < cap as usize {
            self.ring.push(z);
            self.next = self.ring.len() as u32 % cap;
        } else if let Some(slot) = self.ring.get_mut(self.next as usize) {
            let old = std::mem::replace(slot, z);
            if let Ok(i) = self.sorted.binary_search_by(|y| y.total_cmp(&old)) {
                self.sorted.remove(i);
            }
            self.next = (self.next + 1) % cap;
        } else {
            return;
        }
        let at = self.sorted.partition_point(|y| y.total_cmp(&z).is_lt());
        self.sorted.insert(at, z);
    }

    /// The `q`-quantile of the window (R-7, as
    /// [`stage_metrics::quantile::quantile`] computes it), or `None` for an
    /// empty window, a `q` outside `[0, 1]` or NaN, or a non-finite score.
    fn quantile(&self, q: f64) -> Option<f64> {
        let (first, last) = (self.sorted.first()?, self.sorted.last()?);
        if !(0.0..=1.0).contains(&q) || !first.is_finite() || !last.is_finite() {
            return None;
        }
        Some(quantile_of_sorted(&self.sorted, q))
    }
}

/// The serde image is the ring and its cursor, as the store section holds
/// them; the sorted copy is rebuilt.
impl Serialize for ScoreWindow {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ring".to_string(), self.ring.to_value()),
            ("next".to_string(), self.next.to_value()),
        ])
    }
}

impl Deserialize for ScoreWindow {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = serde::expect_object(v, "ScoreWindow")?;
        let ring: Vec<f64> = serde::de_field(obj, "ring", "ScoreWindow")?;
        let next: u32 = serde::de_field(obj, "next", "ScoreWindow")?;
        // The window's capacity is the sentinel's config, not part of this
        // image: a cursor inside the ring reads as a full ring, a cursor at
        // its end as a growing one.
        let cap = if next as usize == ring.len() {
            u32::MAX
        } else {
            u32::try_from(ring.len()).map_err(|e| serde::Error::custom(e.to_string()))?
        };
        Self::from_ring(ring, next, cap).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stage_metrics::quantile::quantile;

    fn sharp() -> DriftConfig {
        DriftConfig {
            min_samples: 10,
            cusum_lambda: 4.0,
            min_scores: 5,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn steady_residuals_never_trigger() {
        let mut s = DriftSentinel::new(sharp());
        for i in 0..500 {
            // Small alternating noise around zero.
            let r = if i % 2 == 0 { 0.05 } else { -0.05 };
            s.observe_residual(1.0, 0.2, 1.0 + r);
        }
        assert!(!s.drift_detected());
        assert_eq!(s.detections(), 0);
        assert_eq!(s.residuals_seen(), 500);
    }

    #[test]
    fn step_change_triggers_and_latches() {
        let mut s = DriftSentinel::new(sharp());
        for i in 0..100 {
            let r = if i % 2 == 0 { 0.05 } else { -0.05 };
            s.observe_residual(1.0, 0.2, 1.0 + r);
        }
        assert!(!s.drift_detected());
        // The workload shifts: residuals jump to ~1.4 in log space.
        let mut fired_at = None;
        for i in 0..100 {
            s.observe_residual(1.0, 0.2, 2.4);
            if s.drift_detected() && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        let latency = fired_at.expect("detector must fire on a 4x step change");
        assert!(latency < 20, "fired after {latency} shifted queries");
        assert_eq!(
            s.detections(),
            1,
            "latched: one detection, not one per sample"
        );
        // Reset heals the latch but keeps lifetime counters.
        s.reset_after_retrain();
        assert!(!s.drift_detected());
        assert_eq!(s.detections(), 1);
    }

    #[test]
    fn single_outlier_does_not_trigger() {
        let mut s = DriftSentinel::new(sharp());
        for i in 0..60 {
            let r = if i % 2 == 0 { 0.05 } else { -0.05 };
            s.observe_residual(1.0, 0.2, 1.0 + r);
        }
        // One monstrous heavy-tail query: 20 spreads over the baseline.
        // Unwinsorized this alone would blow far past λ; clipped it adds
        // at most `clip − k` and decays away on the next quiet samples.
        s.observe_residual(1.0, 0.2, 4.0);
        assert!(
            !s.drift_detected(),
            "a lone outlier must not read as drift (cusum {})",
            s.cusum_level()
        );
        assert!(s.cusum_level() <= sharp().cusum_clip - sharp().cusum_k + 1e-12);
        for i in 0..10 {
            let r = if i % 2 == 0 { 0.05 } else { -0.05 };
            s.observe_residual(1.0, 0.2, 1.0 + r);
        }
        assert_eq!(s.cusum_level(), 0.0, "quiet traffic drains the statistic");
        assert_eq!(s.detections(), 0);
    }

    #[test]
    fn detection_is_a_pure_function_of_residuals() {
        let feed = |s: &mut DriftSentinel| {
            for i in 0..200 {
                let r = if i < 150 { 0.02 } else { 1.0 };
                s.observe_residual(0.5, 0.1, 0.5 + r);
            }
        };
        let mut a = DriftSentinel::new(sharp());
        let mut b = DriftSentinel::new(sharp());
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b, "same residual stream, bit-identical state");
        assert!(a.drift_detected());
    }

    #[test]
    fn conformal_quantile_tracks_overconfident_sigma() {
        let mut s = DriftSentinel::new(sharp());
        // Model claims σ=0.1 but residuals are ±0.3: z ≈ 3 everywhere.
        for i in 0..50 {
            let r = if i % 2 == 0 { 0.3 } else { -0.3 };
            s.observe_residual(1.0, 0.1, 1.0 + r);
        }
        let z = s.z_multiplier();
        assert!((z - 3.0).abs() < 0.2, "calibrated z ≈ 3, got {z}");
        // And the served interval half-width is z·σ ≈ 0.3 — honest again.
    }

    #[test]
    fn fallback_z_before_enough_scores() {
        let s = DriftSentinel::new(DriftConfig::default());
        assert_eq!(s.z_multiplier(), DriftConfig::default().fallback_z);
        assert_eq!(s.coverage(), None);
    }

    #[test]
    fn degenerate_sigma_feeds_detector_but_not_calibrator() {
        let mut s = DriftSentinel::new(sharp());
        for _ in 0..50 {
            s.observe_residual(1.0, 0.0, 1.3);
        }
        assert_eq!(s.residuals_seen(), 50);
        // No scores formed: quantile still the fallback.
        assert_eq!(s.z_multiplier(), sharp().fallback_z);
        // σ=0 point intervals measured honestly: all missed.
        assert_eq!(s.coverage(), Some(0.0));
    }

    #[test]
    fn degraded_widening_arms_and_decays() {
        let mut s = DriftSentinel::new(DriftConfig {
            degraded_hold: 3,
            degraded_widen: 2.0,
            ..DriftConfig::default()
        });
        let base = s.z_multiplier();
        s.note_degraded_total(1);
        assert!(s.degraded_active());
        assert!((s.z_multiplier() - base * 2.0).abs() < 1e-12);
        s.note_degraded_total(1);
        s.note_degraded_total(1);
        s.note_degraded_total(1);
        assert!(!s.degraded_active(), "hold decays without fresh events");
        assert_eq!(s.z_multiplier(), base);
        // A fresh event re-arms.
        s.note_degraded_total(2);
        assert!(s.degraded_active());
    }

    #[test]
    fn coverage_accounts_served_intervals() {
        let mut s = DriftSentinel::new(sharp());
        // Well-calibrated: σ=0.5, residuals ±0.1 — fallback z=1.645 covers.
        for i in 0..40 {
            let r = if i % 2 == 0 { 0.1 } else { -0.1 };
            s.observe_residual(1.0, 0.5, 1.0 + r);
        }
        assert_eq!(s.coverage(), Some(1.0));
        assert_eq!(s.forced_retrains(), 0);
    }

    #[test]
    fn ring_buffer_wraps() {
        let mut s = DriftSentinel::new(DriftConfig {
            window: 4,
            min_scores: 2,
            ..sharp()
        });
        for i in 0..10 {
            s.observe_residual(1.0, 0.1, 1.0 + 0.01 * (i + 1) as f64);
        }
        // The window holds only the last 4 scores: the served multiplier is
        // their quantile and nothing older's.
        let want = quantile(&[0.7, 0.8, 0.9, 1.0], s.config().target_coverage).unwrap();
        assert!((s.z_multiplier() - want).abs() < 1e-9);
    }

    #[test]
    fn store_round_trip_is_bit_exact() {
        let mut s = DriftSentinel::new(sharp());
        for i in 0..75 {
            let r = if i < 60 { 0.07 } else { 0.9 };
            s.observe_residual(1.0, 0.2, 1.0 + r);
        }
        s.note_degraded_total(3);
        s.note_forced_retrain();
        let mut w = SectionWriter::new();
        s.store_encode(&mut w);
        let bytes = w.finish();
        let mut r = SectionReader::new(&bytes);
        let back = DriftSentinel::store_decode(&mut r).expect("decode");
        r.expect_end().expect("fully consumed");
        assert_eq!(back, s);
    }

    #[test]
    fn store_decode_rejects_hostile_cursors() {
        let mut s = DriftSentinel::new(sharp());
        s.observe_residual(1.0, 0.2, 1.5);
        // Corrupt the cursor past the ring length.
        s.scores.next = 99;
        let mut w = SectionWriter::new();
        s.store_encode(&mut w);
        let bytes = w.finish();
        let mut r = SectionReader::new(&bytes);
        assert!(matches!(
            DriftSentinel::store_decode(&mut r),
            Err(StoreError::Malformed { .. })
        ));
    }

    /// A CALIBRATION section for a cold `sharp()` sentinel with window
    /// `window`, serving its quantile from one score on, whose score ring
    /// is `scores` with cursor `next`, written field by field as
    /// [`DriftSentinel::store_encode`] lays it out.
    fn calibration_section(window: u32, next: u32, scores: &[f64]) -> Vec<u8> {
        let c = DriftConfig {
            window,
            min_scores: 1,
            ..sharp()
        };
        let mut w = SectionWriter::new();
        for x in [c.cusum_k, c.cusum_lambda, c.cusum_clip, c.min_spread] {
            w.put_f64(x);
        }
        w.put_u64(c.min_samples);
        w.put_u32(c.window);
        w.put_f64(c.target_coverage);
        w.put_f64(c.fallback_z);
        w.put_u32(c.min_scores);
        w.put_f64(c.degraded_widen);
        w.put_u32(c.degraded_hold);
        w.put_u64(0);
        w.put_f64(0.0);
        w.put_f64(0.0);
        w.put_f64(0.0);
        w.put_bool(false);
        for _ in 0..5 {
            w.put_u64(0);
        }
        w.put_u32(0);
        w.put_u32(0);
        w.put_u32(next);
        w.put_f64_slice(&[]);
        w.put_f64_slice(scores);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<DriftSentinel, StoreError> {
        DriftSentinel::store_decode(&mut SectionReader::new(bytes))
    }

    /// A full ring whose cursor sits at its end is no state a push leaves
    /// behind, and from it every later score was dropped: the quantile
    /// froze. The decoder refuses it, a growing ring whose cursor is not at
    /// its end, and a non-finite score; every state a push does reach
    /// restores and keeps moving.
    #[test]
    fn store_decode_refuses_a_ring_that_would_freeze() {
        let full = [0.5, 1.0, 1.5, 2.0];
        for (next, scores) in [
            (4, &full[..]),
            (9, &full[..]),
            (0, &full[..2]),
            (3, &full[..2]),
            (2, &[0.5, f64::INFINITY][..]),
            (2, &[f64::NAN, 0.5][..]),
        ] {
            let got = decode(&calibration_section(4, next, scores));
            assert!(
                matches!(got, Err(StoreError::Malformed { .. })),
                "cursor {next} over {scores:?} decoded: {got:?}"
            );
        }
        for (next, scores) in [
            (0, &[][..]),
            (2, &full[..2]),
            (0, &full[..]),
            (3, &full[..]),
        ] {
            let mut s = decode(&calibration_section(4, next, scores)).expect("a reachable state");
            let before = s.z_multiplier();
            for _ in 0..4 {
                s.observe_residual(1.0, 0.1, 1.9);
            }
            assert!(s.z_multiplier() > before, "the quantile moved off {before}");
        }
    }

    #[test]
    fn out_of_range_coverage_serves_the_fallback() {
        for target_coverage in [-0.1, 1.5, f64::NAN] {
            let mut s = DriftSentinel::new(DriftConfig {
                target_coverage,
                ..sharp()
            });
            for i in 0..30 {
                s.observe_residual(1.0, 0.1, 1.0 + 0.01 * i as f64);
            }
            assert_eq!(s.z_multiplier(), sharp().fallback_z, "{target_coverage}");
        }
    }

    proptest! {
        /// The sorted copy answers what sorting the ring answers, to the
        /// bit, after every push — repeats, zeros and wrap-around included
        /// — and survives both encodings.
        #[test]
        fn prop_sorted_window_quantile_equals_sorting_the_ring(
            window in 1u32..9,
            coverage in 0.0f64..1.0,
            residuals in proptest::collection::vec(0u32..6, 1..40),
        ) {
            let config = DriftConfig {
                window,
                min_scores: 1,
                target_coverage: coverage,
                ..sharp()
            };
            let mut s = DriftSentinel::new(config);
            for r in residuals {
                s.observe_residual(1.0, 0.25, 1.0 + f64::from(r) * 0.125);
                let want = quantile(&s.scores.ring, coverage).unwrap().max(MIN_Z);
                prop_assert_eq!(s.z_multiplier().to_bits(), want.to_bits());
                let mut sorted = s.scores.ring.clone();
                sorted.sort_by(f64::total_cmp);
                prop_assert_eq!(&s.scores.sorted, &sorted);
            }
            let mut w = SectionWriter::new();
            s.store_encode(&mut w);
            prop_assert_eq!(&decode(&w.finish()).unwrap(), &s);
            prop_assert_eq!(&DriftSentinel::from_value(&serde::Serialize::to_value(&s)).unwrap(), &s);
        }
    }

    #[test]
    fn serde_round_trip_is_lossless() {
        use serde::Deserialize;
        let mut s = DriftSentinel::new(sharp());
        for _ in 0..30 {
            s.observe_residual(1.0, 0.2, 1.4);
        }
        let v = serde::Serialize::to_value(&s);
        let back = DriftSentinel::from_value(&v).expect("round trip");
        assert_eq!(back, s);
    }
}
