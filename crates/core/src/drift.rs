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
//!    [`TARGET_COVERAGE`]-quantile of recent scores instead of a
//!    normal-theory constant, so if the ensemble's σ is over- or
//!    under-confident the interval width self-corrects within one window.
//!    Beside the ring the sentinel keeps a sorted copy, updated on each
//!    push by one binary-search removal and one insertion, so the quantile
//!    ([`DriftSentinel::z_multiplier`]), read per served interval and per
//!    scored observation, neither copies nor sorts. Only the ring persists;
//!    restore sorts it once.
//!
//! Intervals are additionally widened by `DEGRADED_WIDEN` (1.5×) while any
//! [`crate::stage::DegradedStats`] tier is active (a degraded answer was
//! counted within the last `DEGRADED_HOLD` = 64 served intervals): a shard
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

use crate::storefmt::policy_slot;
use stage_metrics::quantile::quantile_of_sorted;
use stage_metrics::{interval_coverage, Welford};
use stage_store::{SectionReader, SectionWriter, StoreError};

// The detector's, the calibrator's and the widening policy's thresholds.
// They are constants, not configuration: every build writes them into the
// CALIBRATION section's eleven policy slots, and a file whose slots hold
// anything else is refused on restore.

/// CUSUM slack `k`, in baseline-spread units: per-sample tolerance
/// subtracted from the normalized exceedance, so ordinary noise never
/// accumulates.
const CUSUM_K: f64 = 1.0;
/// CUSUM threshold `λ`, in baseline-spread units: the detector fires when
/// the accumulated exceedance climbs past it.
const CUSUM_LAMBDA: f64 = 6.0;
/// Winsorization cap on a single sample's normalized exceedance (before
/// `k` is subtracted). One heavy-tail outlier query must not fire the
/// detector on its own: crossing `λ` needs at least `λ / (clip − k)` = 4
/// net-elevated samples, so a detection always testifies to a *sustained*
/// shift.
const CUSUM_CLIP: f64 = 2.5;
/// Floor on the baseline spread (in `ln(1+secs)` space) so a near-perfect
/// model doesn't fire on microscopic noise.
const MIN_SPREAD: f64 = 0.02;
/// Residuals the detector must see before it may fire (warm-up).
const MIN_SAMPLES: u64 = 30;
/// Ring-buffer capacity of the conformal score window.
const WINDOW: u32 = 256;
/// Nominal coverage the calibrated interval targets.
pub const TARGET_COVERAGE: f64 = 0.9;
/// z-multiplier served before [`MIN_SCORES`] conformal scores exist: the
/// normal-theory two-sided 90% multiplier.
const FALLBACK_Z: f64 = 1.645;
/// Conformal scores required before the empirical quantile replaces
/// [`FALLBACK_Z`].
const MIN_SCORES: u32 = 20;
/// Interval-width multiplier while a degraded tier is active.
const DEGRADED_WIDEN: f64 = 1.5;
/// How many served intervals a single degraded event keeps the widening
/// active for.
const DEGRADED_HOLD: u32 = 64;

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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftSentinel {
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

impl DriftSentinel {
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
        if log_sigma.is_finite() && log_sigma > MIN_SIGMA {
            let z = r.abs() / log_sigma;
            if z.is_finite() {
                self.scores.push(z);
            }
        }
        // One-sided CUSUM over |r|, normalized by the baseline the
        // detector had *before* this sample (a shifted sample must not
        // dilute the very baseline it is judged against).
        let x = r.abs();
        if self.baseline.count() >= MIN_SAMPLES {
            let spread = self.baseline.std_dev().max(MIN_SPREAD);
            // Winsorized: a lone outlier contributes at most `clip − k`.
            let normalized = ((x - self.baseline.mean()) / spread).min(CUSUM_CLIP);
            let exceedance = normalized - CUSUM_K;
            self.cusum = (self.cusum + exceedance).max(0.0);
            if !self.triggered && self.cusum > CUSUM_LAMBDA {
                self.triggered = true;
                self.detections = self.detections.saturating_add(1);
            }
        }
        self.baseline.push(x);
    }

    /// The z-multiplier a calibrated interval should use right now: the
    /// empirical [`TARGET_COVERAGE`]-quantile of recent conformal scores
    /// (normal-theory fallback until the window has `MIN_SCORES`), times
    /// the degraded widening when active.
    pub fn z_multiplier(&self) -> f64 {
        let base = if self.scores.ring.len() >= MIN_SCORES as usize {
            self.scores.quantile(TARGET_COVERAGE).unwrap_or(FALLBACK_Z)
        } else {
            FALLBACK_Z
        };
        let widen = if self.degraded_hold_left > 0 {
            DEGRADED_WIDEN
        } else {
            1.0
        };
        (base * widen).max(MIN_Z)
    }

    /// Reports the current [`crate::stage::DegradedStats::total`] before an
    /// interval is formed: a fresh degraded event re-arms the widening for
    /// `DEGRADED_HOLD` interval requests; otherwise the hold decays by one.
    pub fn note_degraded_total(&mut self, total: u64) {
        if total > self.last_degraded_total {
            self.last_degraded_total = total;
            self.degraded_hold_left = DEGRADED_HOLD;
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
    /// is bit-exact. The section opens with eleven policy slots, which hold
    /// the module's threshold constants, and the signed-residual ring of
    /// earlier builds keeps its slot (written empty), so files restore
    /// across builds both ways.
    pub fn store_encode(&self, w: &mut SectionWriter) {
        w.put_f64(CUSUM_K);
        w.put_f64(CUSUM_LAMBDA);
        w.put_f64(CUSUM_CLIP);
        w.put_f64(MIN_SPREAD);
        w.put_u64(MIN_SAMPLES);
        w.put_u32(WINDOW);
        w.put_f64(TARGET_COVERAGE);
        w.put_f64(FALLBACK_Z);
        w.put_u32(MIN_SCORES);
        w.put_f64(DEGRADED_WIDEN);
        w.put_u32(DEGRADED_HOLD);
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
    /// hardened: every policy slot must hold its constant's exact bits,
    /// ring lengths and cursor indices are validated against the window,
    /// and the scores must be finite, before the state is accepted: only a
    /// ring a push can leave behind restores.
    pub fn store_decode(r: &mut SectionReader) -> Result<Self, StoreError> {
        policy_slot("cusum_k", r.f64()?.to_bits(), CUSUM_K.to_bits())?;
        policy_slot("cusum_lambda", r.f64()?.to_bits(), CUSUM_LAMBDA.to_bits())?;
        policy_slot("cusum_clip", r.f64()?.to_bits(), CUSUM_CLIP.to_bits())?;
        policy_slot("min_spread", r.f64()?.to_bits(), MIN_SPREAD.to_bits())?;
        policy_slot("min_samples", r.u64()?, MIN_SAMPLES)?;
        policy_slot("window", r.u32()?.into(), WINDOW.into())?;
        policy_slot(
            "target_coverage",
            r.f64()?.to_bits(),
            TARGET_COVERAGE.to_bits(),
        )?;
        policy_slot("fallback_z", r.f64()?.to_bits(), FALLBACK_Z.to_bits())?;
        policy_slot("min_scores", r.u32()?.into(), MIN_SCORES.into())?;
        policy_slot(
            "degraded_widen",
            r.f64()?.to_bits(),
            DEGRADED_WIDEN.to_bits(),
        )?;
        policy_slot("degraded_hold", r.u32()?.into(), DEGRADED_HOLD.into())?;
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
        if residuals.len() > WINDOW as usize || residual_next as usize > residuals.len() {
            return Err(malformed(format!(
                "calibration residual ring of {} (cursor {residual_next}) past window {WINDOW}",
                residuals.len(),
            )));
        }
        let scores = ScoreWindow::from_ring(scores, score_next).map_err(malformed)?;
        Ok(Self {
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
    /// produces: at most [`WINDOW`] finite scores, `next` equal to the
    /// length while the ring grows and below the window once it is full.
    /// (A full ring with `next == WINDOW` would drop every later score.)
    fn from_ring(ring: Vec<f64>, next: u32) -> Result<Self, String> {
        let len = ring.len();
        if len > WINDOW as usize {
            return Err(format!(
                "calibration score ring of {len} exceeds window {WINDOW}"
            ));
        }
        let cursor_ok = if len == WINDOW as usize {
            next < WINDOW
        } else {
            next as usize == len
        };
        if !cursor_ok {
            return Err(format!(
                "calibration score cursor {next} is no state a ring of {len} in window {WINDOW} reaches"
            ));
        }
        if ring.iter().any(|z| !z.is_finite()) {
            return Err("calibration score ring holds a non-finite score".to_string());
        }
        let mut sorted = ring.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(Self { ring, next, sorted })
    }

    /// Appends into the ring — grow until [`WINDOW`], then overwrite the
    /// slot at `next` (the oldest score) and advance — and moves the sorted
    /// copy in step: the overwritten score out, `z` in.
    fn push(&mut self, z: f64) {
        if self.ring.len() < WINDOW as usize {
            self.ring.push(z);
            self.next = self.ring.len() as u32 % WINDOW;
        } else if let Some(slot) = self.ring.get_mut(self.next as usize) {
            let old = std::mem::replace(slot, z);
            if let Ok(i) = self.sorted.binary_search_by(|y| y.total_cmp(&old)) {
                self.sorted.remove(i);
            }
            self.next = (self.next + 1) % WINDOW;
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stage_metrics::quantile::quantile;

    #[test]
    fn steady_residuals_never_trigger() {
        let mut s = DriftSentinel::default();
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
        let mut s = DriftSentinel::default();
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
        let mut s = DriftSentinel::default();
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
        assert!(s.cusum_level() <= CUSUM_CLIP - CUSUM_K + 1e-12);
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
        let mut a = DriftSentinel::default();
        let mut b = DriftSentinel::default();
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b, "same residual stream, bit-identical state");
        assert!(a.drift_detected());
    }

    #[test]
    fn conformal_quantile_tracks_overconfident_sigma() {
        let mut s = DriftSentinel::default();
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
        let s = DriftSentinel::default();
        assert_eq!(s.z_multiplier(), FALLBACK_Z);
        assert_eq!(s.coverage(), None);
    }

    #[test]
    fn degenerate_sigma_feeds_detector_but_not_calibrator() {
        let mut s = DriftSentinel::default();
        for _ in 0..50 {
            s.observe_residual(1.0, 0.0, 1.3);
        }
        assert_eq!(s.residuals_seen(), 50);
        // No scores formed: quantile still the fallback.
        assert_eq!(s.z_multiplier(), FALLBACK_Z);
        // σ=0 point intervals measured honestly: all missed.
        assert_eq!(s.coverage(), Some(0.0));
    }

    #[test]
    fn degraded_widening_arms_and_decays() {
        let mut s = DriftSentinel::default();
        let base = s.z_multiplier();
        s.note_degraded_total(1);
        assert!(s.degraded_active());
        assert!((s.z_multiplier() - base * DEGRADED_WIDEN).abs() < 1e-12);
        for _ in 1..DEGRADED_HOLD {
            s.note_degraded_total(1);
        }
        assert!(s.degraded_active(), "held for DEGRADED_HOLD intervals");
        s.note_degraded_total(1);
        assert!(!s.degraded_active(), "hold decays without fresh events");
        assert_eq!(s.z_multiplier(), base);
        // A fresh event re-arms.
        s.note_degraded_total(2);
        assert!(s.degraded_active());
    }

    #[test]
    fn coverage_accounts_served_intervals() {
        let mut s = DriftSentinel::default();
        // Well-calibrated: σ=0.5, residuals ±0.1 — fallback z=1.645 covers,
        // and so does the conformal quantile that replaces it.
        for i in 0..40 {
            let r = if i % 2 == 0 { 0.1 } else { -0.1 };
            s.observe_residual(1.0, 0.5, 1.0 + r);
        }
        assert_eq!(s.coverage(), Some(1.0));
        assert_eq!(s.forced_retrains(), 0);
    }

    #[test]
    fn ring_buffer_wraps() {
        let mut s = DriftSentinel::default();
        let actual = |i: u32| 1.0 + 0.01 * f64::from(i + 1);
        let n = WINDOW + 10;
        for i in 0..n {
            s.observe_residual(1.0, 0.1, actual(i));
        }
        // The window holds only the last WINDOW scores: the served
        // multiplier is their quantile and nothing older's.
        let last: Vec<f64> = (n - WINDOW..n).map(|i| (actual(i) - 1.0) / 0.1).collect();
        let want = quantile(&last, TARGET_COVERAGE).unwrap();
        assert_eq!(s.z_multiplier().to_bits(), want.to_bits());
    }

    #[test]
    fn store_round_trip_is_bit_exact() {
        let mut s = DriftSentinel::default();
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
        let mut s = DriftSentinel::default();
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

    /// A CALIBRATION section for a cold sentinel whose score ring is
    /// `scores` with cursor `next`, written field by field as
    /// [`DriftSentinel::store_encode`] lays it out.
    fn calibration_section(next: u32, scores: &[f64]) -> Vec<u8> {
        let mut w = SectionWriter::new();
        for x in [CUSUM_K, CUSUM_LAMBDA, CUSUM_CLIP, MIN_SPREAD] {
            w.put_f64(x);
        }
        w.put_u64(MIN_SAMPLES);
        w.put_u32(WINDOW);
        w.put_f64(TARGET_COVERAGE);
        w.put_f64(FALLBACK_Z);
        w.put_u32(MIN_SCORES);
        w.put_f64(DEGRADED_WIDEN);
        w.put_u32(DEGRADED_HOLD);
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
        let full: Vec<f64> = (1..=WINDOW).map(|i| f64::from(i) / 128.0).collect();
        for (next, scores) in [
            (WINDOW, &full[..]),
            (WINDOW + 5, &full[..]),
            (0, &full[..2]),
            (3, &full[..2]),
            (2, &[0.5, f64::INFINITY][..]),
            (2, &[f64::NAN, 0.5][..]),
        ] {
            let got = decode(&calibration_section(next, scores));
            assert!(
                matches!(got, Err(StoreError::Malformed { .. })),
                "cursor {next} over {} scores decoded: {got:?}",
                scores.len()
            );
        }
        for (next, scores) in [
            (0, &[][..]),
            (2, &full[..2]),
            (0, &full[..]),
            (3, &full[..]),
        ] {
            let mut s = decode(&calibration_section(next, scores)).expect("a reachable state");
            let before = s.z_multiplier();
            for _ in 0..MIN_SCORES {
                s.observe_residual(1.0, 0.1, 1.9);
            }
            assert!(s.z_multiplier() > before, "the quantile moved off {before}");
        }
    }

    /// Each of the eleven policy slots must hold its constant's bits: a
    /// file that claims any other threshold is refused, not obeyed.
    #[test]
    fn store_decode_refuses_a_policy_other_than_the_constants() {
        let good = calibration_section(0, &[]);
        assert!(decode(&good).is_ok());
        let slot_starts = [0, 8, 16, 24, 32, 40, 44, 52, 60, 64, 72];
        for at in slot_starts {
            let mut bad = good.clone();
            bad[at] ^= 1;
            let got = decode(&bad);
            assert!(
                matches!(&got, Err(StoreError::Malformed { detail }) if detail.contains("policy slot")),
                "slot at byte {at} decoded: {got:?}"
            );
        }
    }

    #[test]
    fn out_of_range_coverage_serves_the_fallback() {
        let mut s = DriftSentinel::default();
        for i in 0..30 {
            s.observe_residual(1.0, 0.1, 1.0 + 0.01 * i as f64);
        }
        assert!(s.scores.quantile(TARGET_COVERAGE).is_some());
        // `z_multiplier` serves `FALLBACK_Z` wherever the window answers
        // `None`.
        for q in [-0.1, 1.5, f64::NAN] {
            assert_eq!(s.scores.quantile(q), None, "{q}");
        }
    }

    proptest! {
        /// The sorted copy answers what sorting the ring answers, to the
        /// bit, after every push — repeats, zeros and wrap-around of the
        /// full window included — and survives the store encoding.
        #[test]
        fn prop_sorted_window_quantile_equals_sorting_the_ring(
            coverage in 0.0f64..1.0,
            residuals in proptest::collection::vec(0u32..6, 1..600),
        ) {
            let mut s = DriftSentinel::default();
            for r in residuals {
                s.observe_residual(1.0, 0.25, 1.0 + f64::from(r) * 0.125);
                let ring = &s.scores.ring;
                prop_assert_eq!(
                    s.scores.quantile(coverage).map(f64::to_bits),
                    quantile(ring, coverage).map(f64::to_bits)
                );
                let want = if ring.len() >= MIN_SCORES as usize {
                    quantile(ring, TARGET_COVERAGE).unwrap().max(MIN_Z)
                } else {
                    FALLBACK_Z
                };
                prop_assert_eq!(s.z_multiplier().to_bits(), want.to_bits());
                let mut sorted = ring.clone();
                sorted.sort_by(f64::total_cmp);
                prop_assert_eq!(&s.scores.sorted, &sorted);
            }
            let mut w = SectionWriter::new();
            s.store_encode(&mut w);
            prop_assert_eq!(&decode(&w.finish()).unwrap(), &s);
        }
    }
}
