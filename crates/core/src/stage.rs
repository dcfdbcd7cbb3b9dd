//! The Stage predictor: cache → local → global routing (paper §4.1, Fig. 4).
//!
//! ```text
//! query plan ──► 33-dim vector ──► exec-time cache ──hit──► prediction
//!                     │ miss
//!                     ▼
//!               local model ──short OR confident──► prediction
//!                     │ long AND uncertain
//!                     ▼
//!               global model (plan tree + system features) ──► prediction
//! ```
//!
//! After execution, the observed exec-time feeds the cache, and — only on a
//! cache miss, implementing the paper's dedup-via-cache trick — the local
//! training pool. A pool add is the only thing that retrains the local
//! model — when the cadence says so, or at once when the shard's
//! [`DriftSentinel`] is latched — so everything a predictor does is a
//! function of the verbs it was sent.
//!
//! The routing hierarchy doubles as a **fallback chain**: a
//! [`ComponentFaults`] hook (production: none; chaos testing:
//! `stage-chaos`) can declare the local or global tier unavailable for a
//! given call, or a due retrain poisoned/slowed, and the predictor degrades
//! to the next-cheaper tier instead of failing — counting every degraded
//! answer in [`DegradedStats`] so operators (and the test driver's fault
//! ledger) can see exactly how often each tier was bypassed.
//!
//! This file denies indexing on top of the crate's panic, assert and
//! clock lints (its head and `lib.rs`): predictions are served on the
//! request path of `stage-serve`, where a panic poisons a shard for every
//! later request.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::cache::{CacheConfig, CacheMode, ExecTimeCache};
use crate::drift::DriftSentinel;
use crate::global::GlobalModel;
use crate::local::{LocalModel, LocalModelConfig};
use crate::pool::{PoolConfig, TrainingPool};
use crate::predictor::{
    ExecTimePredictor, Prediction, PredictionSource, SystemContext, DEFAULT_PREDICTION_SECS,
};
use crate::{from_log_space, to_log_space};
use serde::{Deserialize, Serialize};
use stage_gbdt::EnsemblePrediction;
use stage_plan::{plan_feature_vector, PhysicalPlan};
use std::collections::HashMap;
use std::sync::Arc;

/// Escalation policy from the local to the global model.
#[derive(Debug, Clone, Copy)]
pub struct RoutingConfig {
    /// Local predictions below this (seconds) are returned directly — the
    /// paper only escalates when the query "is longer than a couple of
    /// seconds", because for short queries the global model's ~100 ms
    /// inference would dominate.
    pub short_circuit_secs: f64,
    /// Local predictions with total log-space std below this are
    /// "highly confident" and returned directly.
    pub confident_log_std: f64,
    /// When `false`, repeats are added to the training pool too (the
    /// "no dedup" ablation).
    pub dedup_via_cache: bool,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        Self {
            short_circuit_secs: 5.0,
            confident_log_std: 1.0,
            dedup_via_cache: true,
        }
    }
}

/// Full Stage configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageConfig {
    /// Exec-time cache settings.
    pub cache: CacheConfig,
    /// Training-pool settings.
    pub pool: PoolConfig,
    /// Local-model settings.
    pub local: LocalModelConfig,
    /// Escalation policy.
    pub routing: RoutingConfig,
    /// Append the [`SystemContext`] features (notably the concurrency level
    /// at submission time) to the local model's input — the paper's §6.3
    /// "environment factors" future-work direction. Off by default: the
    /// published Stage uses the plan-only 33-dim vector.
    pub env_features: bool,
}

/// Most ensemble members [`StageConfig::validate`] accepts (the paper uses 10).
const MAX_ENSEMBLE_MEMBERS: usize = 1_000;
/// Most boosting rounds per member [`StageConfig::validate`] accepts (the
/// paper uses 200; a lying word past this is a retrain that never ends).
const MAX_BOOSTING_ROUNDS: usize = 100_000;

impl StageConfig {
    /// Checks every value the predictor's constructors and its fit and
    /// predict paths assume, naming the first one that fails. A config that
    /// passes cannot panic later: not in [`ExecTimeCache::new`], not in a
    /// pool add (the summed bucket caps), and not inside a verb's retrain
    /// (a member count or a round count no retrain finishes). Every other
    /// booster setting is a `stage-gbdt` constant. `stage-serve` refuses
    /// to start on a failing config, and the snapshot decoder quarantines a
    /// file whose config fails.
    pub fn validate(&self) -> Result<(), String> {
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        let (c, e) = (&self.cache, &self.local.ensemble);
        let checks = [
            (c.capacity > 0, "cache.capacity must be positive"),
            (unit(c.alpha), "cache.alpha must be in [0, 1]"),
            (
                (self.pool.bucket_capacity.iter())
                    .try_fold(0usize, |sum, &cap| sum.checked_add(cap))
                    .is_some(),
                "pool bucket capacities overflow when summed",
            ),
            (
                match c.mode {
                    CacheMode::AlphaBlend => true,
                    CacheMode::Holt {
                        level_alpha,
                        trend_beta,
                    } => unit(level_alpha) && unit(trend_beta),
                },
                "cache Holt factors must be in [0, 1]",
            ),
            (
                (1..=MAX_ENSEMBLE_MEMBERS).contains(&e.n_members),
                "ensemble n_members must be in 1..=1000",
            ),
            (
                e.n_estimators <= MAX_BOOSTING_ROUNDS,
                "ensemble n_estimators must be at most 100000",
            ),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, what)) => Err((*what).to_string()),
            None => Ok(()),
        }
    }
}

/// Counters for which stage served each prediction (paper Fig. 9 reports
/// the global model firing ~3% of the time, the cache ~60%). Its serde
/// image is part of the serving protocol's `Stats` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingStats {
    /// Served by the exec-time cache.
    pub cache: u64,
    /// Served by the local model.
    pub local: u64,
    /// Served by the global model.
    pub global: u64,
    /// Served by the cold-start default.
    pub default: u64,
}

impl RoutingStats {
    /// Total predictions.
    pub fn total(&self) -> u64 {
        self.cache + self.local + self.global + self.default
    }

    /// Fraction served by a source (0 when nothing predicted).
    pub fn fraction(&self, source: PredictionSource) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let n = match source {
            PredictionSource::Cache => self.cache,
            PredictionSource::Local => self.local,
            PredictionSource::Global => self.global,
            PredictionSource::Default => self.default,
        };
        n as f64 / total as f64
    }
}

/// How an intercepted due retrain misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainFault {
    /// The retrain is skipped entirely; the stale ensemble keeps serving
    /// and the training debt stays due.
    Poisoned,
    /// The retrain runs but is slow (the hook models the latency itself,
    /// e.g. by sleeping while the caller holds the shard lock).
    Slowed,
}

/// Component-level fault oracle consulted at each point where a model tier
/// could fail. Production passes no hook (every default answers "healthy");
/// the chaos layer implements this on its seeded fault plan. Each method is
/// consulted exactly once per would-be use of that tier, so a fault
/// injector's ledger lines up one-to-one with [`DegradedStats`].
pub trait ComponentFaults: Send + Sync {
    /// Whether the local model is unavailable for this prediction.
    fn local_unavailable(&self) -> bool {
        false
    }

    /// Whether the global model is unavailable for this escalation.
    fn global_unavailable(&self) -> bool {
        false
    }

    /// Whether (and how) a due retrain misbehaves.
    fn retrain_fault(&self) -> Option<RetrainFault> {
        None
    }
}

/// Counters for degraded-mode answers: each increment is one fault the
/// predictor absorbed by falling back a tier instead of failing the
/// request. Its serde image is part of the serving protocol's `Stats`
/// reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedStats {
    /// Predictions that wanted the global model but found it unavailable
    /// (served by the local tier or the default instead).
    pub global_failover: u64,
    /// Predict calls (one plan or a batch) that found the local model
    /// unavailable (served by the global tier or the default instead).
    pub local_failover: u64,
    /// Due retrains skipped because the training was poisoned; the stale
    /// ensemble kept serving.
    pub retrains_poisoned: u64,
    /// Due retrains that ran slowed (the shard served nothing meanwhile).
    pub retrains_slowed: u64,
}

impl DegradedStats {
    /// Total degraded events.
    pub fn total(&self) -> u64 {
        self.global_failover + self.local_failover + self.retrains_poisoned + self.retrains_slowed
    }
}

/// The full persistable state of a [`StagePredictor`] minus the global
/// model: cache, training pool, local model, routing counters, and the
/// configuration they were built under. Its one encoding is the artefact
/// store's ([`crate::storefmt`]). The global model is deliberately
/// excluded — it is fleet-trained and shipped separately (paper Fig. 9
/// deploys it as a shared service), so a snapshot stays a per-instance
/// artefact and re-attaching the global model after restore is the
/// caller's job ([`StagePredictor::set_global`]).
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Configuration the predictor was running with.
    pub config: StageConfig,
    /// Exec-time cache contents (hit/miss counters included).
    pub cache: ExecTimeCache,
    /// Training pool contents.
    pub pool: TrainingPool,
    /// Local model (trained ensemble, retrain counters, instance salt).
    pub local: LocalModel,
    /// Routing counters.
    pub stats: RoutingStats,
    /// Degraded-mode counters (how often each tier was bypassed).
    pub degraded: DegradedStats,
    /// Drift sentinel + conformal calibration state. Store files written
    /// before the sentinel existed have no CALIBRATION section and restore
    /// a cold one ([`crate::storefmt`]'s absent-section arm).
    pub calibration: DriftSentinel,
}

/// What each tier of a [`StagePredictor`] would answer for one plan right
/// now, whichever of them routing would pick
/// ([`StagePredictor::tier_answers`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierAnswers {
    /// The exec-time cache's blended answer (`None` on a miss).
    pub cache: Option<f64>,
    /// The local model's log-space answer (`None` before its first
    /// training).
    pub local: Option<EnsemblePrediction>,
    /// The global model's answer (`None` when none is attached).
    pub global: Option<f64>,
}

/// One local answer the shard walked: the plan's cache key, the exact local
/// input (the row the walk read) and what the ensemble answered. A predict
/// call's misses are a list of these until the walk fills their answers;
/// then they, and every answer an observe walks for, are memoised by key.
/// An observe of the same input on the same ensemble generation scores the
/// drift sentinel with it instead of walking again.
struct HeldAnswer {
    key: u64,
    input: Vec<f64>,
    answer: EnsemblePrediction,
}

impl AsRef<[f64]> for HeldAnswer {
    fn as_ref(&self) -> &[f64] {
        &self.input
    }
}

/// The hierarchical Stage predictor.
pub struct StagePredictor {
    config: StageConfig,
    cache: ExecTimeCache,
    pool: TrainingPool,
    local: LocalModel,
    global: Option<Arc<GlobalModel>>,
    stats: RoutingStats,
    degraded: DegradedStats,
    drift: DriftSentinel,
    faults: Option<Arc<dyn ComponentFaults>>,
    /// The local answers walked on the current ensemble, by cache key: a
    /// predict's misses and an observe's own walks. Emptied by the retrain
    /// that replaces the ensemble, or when a new key finds it holding the
    /// cache's capacity. Never persisted: a restore starts it empty.
    held: HashMap<u64, HeldAnswer>,
    /// Observes that walked the ensemble (tests count them).
    #[cfg(test)]
    observe_walks: u64,
}

impl StagePredictor {
    /// Creates a Stage predictor without a global model (cache + local
    /// only — the configuration currently deployed in production per §5.2).
    pub fn new(config: StageConfig) -> Self {
        Self {
            cache: ExecTimeCache::new(config.cache),
            pool: TrainingPool::new(config.pool),
            local: LocalModel::new(config.local),
            global: None,
            stats: RoutingStats::default(),
            degraded: DegradedStats::default(),
            drift: DriftSentinel::default(),
            faults: None,
            held: HashMap::new(),
            #[cfg(test)]
            observe_walks: 0,
            config,
        }
    }

    /// Creates a Stage predictor with a shared fleet-trained global model.
    pub fn with_global(config: StageConfig, global: Arc<GlobalModel>) -> Self {
        let mut s = Self::new(config);
        s.global = Some(global);
        s
    }

    /// Attaches (or replaces) the global model.
    pub fn set_global(&mut self, global: Arc<GlobalModel>) {
        self.global = Some(global);
    }

    /// Sets the per-instance seed salt on the local model (see
    /// [`LocalModel::set_instance_salt`]): retraining seeds then derive only
    /// from per-instance state, so shard-parallel fleet replays are
    /// bit-identical to sequential ones.
    pub fn set_instance_salt(&mut self, salt: u64) {
        self.local.set_instance_salt(salt);
    }

    /// Routing counters so far.
    pub fn stats(&self) -> RoutingStats {
        self.stats
    }

    /// The exec-time cache (read access for diagnostics).
    pub fn cache(&self) -> &ExecTimeCache {
        &self.cache
    }

    /// The local model (read access for diagnostics).
    pub fn local(&self) -> &LocalModel {
        &self.local
    }

    /// The training pool (read access for diagnostics).
    pub fn pool(&self) -> &TrainingPool {
        &self.pool
    }

    /// Exports the predictor's full mutable state (cache + pool + local
    /// model + routing counters) as one artefact. Pair with
    /// [`StagePredictor::from_snapshot`] to checkpoint/restore a warm
    /// predictor across process restarts (no cold-start, Fig. 9
    /// discussion); [`crate::storefmt::save_stage_store`] /
    /// [`crate::storefmt::load_stage_store`] put it on disk.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            config: self.config,
            cache: self.cache.clone(),
            pool: self.pool.clone(),
            local: self.local.clone(),
            stats: self.stats,
            degraded: self.degraded,
            calibration: self.drift.clone(),
        }
    }

    /// Rebuilds a predictor from a snapshot, resuming exactly where
    /// [`StagePredictor::snapshot`] left it. The global model is not part
    /// of the snapshot; attach one afterwards with
    /// [`StagePredictor::set_global`] if the deployment uses it.
    pub fn from_snapshot(snapshot: StageSnapshot) -> Self {
        Self {
            config: snapshot.config,
            cache: snapshot.cache,
            pool: snapshot.pool,
            local: snapshot.local,
            global: None,
            stats: snapshot.stats,
            degraded: snapshot.degraded,
            drift: snapshot.calibration,
            faults: None,
            held: HashMap::new(),
            #[cfg(test)]
            observe_walks: 0,
        }
    }

    /// Degraded-mode counters so far.
    pub fn degraded_stats(&self) -> DegradedStats {
        self.degraded
    }

    /// Installs a component-level fault oracle (chaos testing). Production
    /// never calls this; with no hook installed every fault check is a
    /// branch-predictable `None`.
    pub fn set_component_faults(&mut self, faults: Arc<dyn ComponentFaults>) {
        self.faults = Some(faults);
    }

    /// Consults the fault oracle for the local tier; counts the failover.
    fn fault_local_unavailable(&mut self) -> bool {
        match &self.faults {
            Some(f) if f.local_unavailable() => {
                self.degraded.local_failover += 1;
                true
            }
            _ => false,
        }
    }

    /// Consults the fault oracle for the global tier; counts the failover.
    fn fault_global_unavailable(&mut self) -> bool {
        match &self.faults {
            Some(f) if f.global_unavailable() => {
                self.degraded.global_failover += 1;
                true
            }
            _ => false,
        }
    }

    /// The drift sentinel (detector state, calibration window, coverage
    /// accounting — read access for `Stats` and reports).
    pub fn drift(&self) -> &DriftSentinel {
        &self.drift
    }

    /// The calibrated prediction interval for `p`, in seconds:
    /// [`Prediction::confidence_interval`] at `ẑ`, the conformal quantile
    /// of recent normalized residuals (not a fixed normal-theory constant),
    /// widened while any degraded tier is active. `None` when the producing
    /// stage measured no variance (cache/default answers). Every call
    /// counts as one served interval for the degraded hold, cache answers
    /// included.
    pub fn calibrated_interval(&mut self, p: &Prediction) -> Option<(f64, f64)> {
        self.drift.note_degraded_total(self.degraded.total());
        p.confidence_interval(self.drift.z_multiplier())
    }

    /// Component-wise memory breakdown `(cache, pool, local)` in bytes. The
    /// global model is excluded as in the paper's Fig. 9 (it is deployed as
    /// a shared service, not per-instance state).
    pub fn size_breakdown(&self) -> (usize, usize, usize) {
        (
            self.cache.approx_size_bytes(),
            self.pool.approx_size_bytes(),
            self.local.approx_size_bytes(),
        )
    }
}

impl StagePredictor {
    /// Extracts a plan's 33-dim vector once and hashes it for the cache:
    /// `(key, features)`. Every path below starts here, so a plan is
    /// extracted once per predict, per plan of a batch, and per observe.
    fn keyed_features(plan: &PhysicalPlan) -> (u64, Vec<f64>) {
        let features = plan_feature_vector(plan).0;
        (ExecTimeCache::key_of_features(&features), features)
    }

    /// The local model's input: the extracted plan vector, optionally
    /// extended with the system-context features (§6.3 environment factors).
    /// The shard's width is the one its ensemble trained on, else the one
    /// its pool holds (the first observation sets it): a request's `sys`
    /// of another width is zero-padded or truncated to it, as the global
    /// tier does, so a short one cannot index past a tree's row and a long
    /// one cannot mix widths in the pool.
    fn local_input(&self, mut features: Vec<f64>, sys: &SystemContext) -> Vec<f64> {
        if self.config.env_features {
            features.extend_from_slice(&sys.features);
            if let Some(width) = self.local.n_cols().or_else(|| self.pool.n_cols()) {
                features.resize(width, 0.0);
            }
        }
        features
    }

    /// Memoises one walked answer, replacing its key's older one. A new key
    /// that finds the memo holding the cache's capacity empties it first.
    fn hold(&mut self, walked: HeldAnswer) {
        if self.held.len() >= self.config.cache.capacity && !self.held.contains_key(&walked.key) {
            self.held.clear();
        }
        self.held.insert(walked.key, walked);
    }

    /// The local answer an observe scores the drift sentinel with: the
    /// memoised one for this key when its input is this one to the bit,
    /// else a fresh walk, which is memoised in turn. Debug builds walk
    /// anyway and check that the two agree to the bit.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! expands to assert!; release builds compile the check out"
    )]
    fn observed_local(&mut self, key: u64, input: &[f64]) -> Option<EnsemblePrediction> {
        let held = (self.held.get(&key))
            .filter(|h| same_bits(&h.input, input))
            .map(|h| h.answer);
        if let Some(answer) = held {
            debug_assert!(
                self.local.predict(input).map(answer_bits) == Some(answer_bits(answer)),
                "a held local answer is not the one the walk finds"
            );
            return Some(answer);
        }
        let answer = self.local.predict(input)?;
        #[cfg(test)]
        {
            self.observe_walks += 1;
        }
        self.hold(HeldAnswer {
            key,
            input: input.to_vec(),
            answer,
        });
        Some(answer)
    }

    /// What every tier would answer for `plan` now — the same key, the same
    /// local input and the same models [`ExecTimePredictor::predict`] reads,
    /// asked side by side instead of routed. Touches no counter, consults no
    /// fault oracle and changes nothing: a predictor answers and evolves the
    /// same with or without these calls in between.
    pub fn tier_answers(&self, plan: &PhysicalPlan, sys: &SystemContext) -> TierAnswers {
        let (key, features) = Self::keyed_features(plan);
        TierAnswers {
            cache: self.cache.peek(key),
            local: self.local.predict(&self.local_input(features, sys)),
            global: self.global.as_ref().map(|g| g.predict(plan, sys)),
        }
    }

    /// Routes one cache miss, given the local tier's answer (`None`: not
    /// trained yet, or failed over). A short or confident local answer is
    /// returned directly; a long *and* uncertain one escalates to the global
    /// model, unless the fault oracle fails the escalation (then the local
    /// answer stands — the fallback chain runs downhill). Without a local
    /// answer the transferable global model serves when attached and healthy
    /// (a key Stage advantage on new instances), the default otherwise. The
    /// global fault oracle is consulted only when the global tier would
    /// actually be used.
    fn route_miss(
        &mut self,
        plan: &PhysicalPlan,
        sys: &SystemContext,
        local: Option<EnsemblePrediction>,
    ) -> Prediction {
        let wants_global = local.as_ref().is_none_or(|lp| {
            let short = from_log_space(lp.mean) < self.config.routing.short_circuit_secs;
            let confident = lp.std_dev() <= self.config.routing.confident_log_std;
            !short && !confident
        });
        if wants_global && self.global.is_some() && !self.fault_global_unavailable() {
            if let Some(global) = &self.global {
                self.stats.global += 1;
                return Prediction::point(global.predict(plan, sys), PredictionSource::Global);
            }
        }
        match local {
            Some(lp) => {
                self.stats.local += 1;
                Prediction {
                    exec_secs: from_log_space(lp.mean),
                    log_variance: Some(lp.total_variance()),
                    source: PredictionSource::Local,
                }
            }
            None => {
                self.stats.default += 1;
                Prediction::point(DEFAULT_PREDICTION_SECS, PredictionSource::Default)
            }
        }
    }

    /// Predicts a whole batch of plans under one `sys` context;
    /// [`ExecTimePredictor::predict`] is a batch of one, so the two verbs
    /// share every step. Each plan is extracted and hashed once and probed
    /// in the cache; each miss is listed with its local input, every listed
    /// input goes through one [`LocalModel::predict_batch`] call, the local
    /// fault oracle consulted once per call with a miss, and the walked
    /// answers are memoised for the observes that follow; then each miss
    /// is routed in request order.
    pub fn predict_batch(
        &mut self,
        plans: &[PhysicalPlan],
        sys: &SystemContext,
    ) -> Vec<Prediction> {
        // Pass 1: extract + hash once per plan and probe the cache; a hit
        // is answered here, a miss is listed with its local input.
        let mut answers = Vec::with_capacity(plans.len());
        let mut misses = Vec::new();
        for plan in plans {
            let (key, features) = Self::keyed_features(plan);
            let hit = self.cache.lookup(key);
            if hit.is_none() {
                misses.push(HeldAnswer {
                    key,
                    input: self.local_input(features, sys),
                    answer: EnsemblePrediction::default(),
                });
            }
            self.stats.cache += u64::from(hit.is_some());
            answers.push(hit.map(|secs| Prediction::point(secs, PredictionSource::Cache)));
        }
        // Pass 2: one batched local-model call covers every miss. The fault
        // oracle is consulted once per batch that would use the local tier
        // (an all-hit batch never touches it), keeping the ledger exact.
        let local = if misses.is_empty() || self.fault_local_unavailable() {
            None
        } else {
            self.local.predict_batch(&misses)
        };
        // Memoise every walked answer; without a walk nothing is held.
        for (mut miss, &answer) in misses.into_iter().zip(local.iter().flatten()) {
            miss.answer = answer;
            self.hold(miss);
        }
        // Pass 3: route the misses in request order; they take their local
        // answers (none at all on a cold start or failover) in the order
        // pass 1 found them.
        let mut local = local.into_iter().flatten();
        answers
            .into_iter()
            .zip(plans)
            .map(|(hit, plan)| hit.unwrap_or_else(|| self.route_miss(plan, sys, local.next())))
            .collect()
    }
}

impl ExecTimePredictor for StagePredictor {
    /// A batch of one ([`StagePredictor::predict_batch`]).
    fn predict(&mut self, plan: &PhysicalPlan, sys: &SystemContext) -> Prediction {
        let answers = self.predict_batch(std::slice::from_ref(plan), sys);
        // A batch answers each of its plans, so this is never the default.
        let default = Prediction::point(DEFAULT_PREDICTION_SECS, PredictionSource::Default);
        answers.into_iter().next().unwrap_or(default)
    }

    fn observe(&mut self, plan: &PhysicalPlan, sys: &SystemContext, actual_secs: f64) {
        let (key, features) = Self::keyed_features(plan);
        let features = self.local_input(features, sys);
        // Drift sentinel: score the observation against the *current* local
        // model, before cache/pool/retrain absorb it — the residual then
        // measures what the shard would actually have mispredicted. Every
        // observation is scored (cache hits included): a step change shows
        // up on repeated queries too, and dedup must not blind the
        // detector to them. The answer the predict before it walked is
        // reused when it still holds.
        if let Some(lp) = self.observed_local(key, &features) {
            self.drift
                .observe_residual(lp.mean, lp.std_dev(), to_log_space(actual_secs));
        }
        let was_cached = self.cache.record(key, actual_secs);
        // Dedup via the cache (paper §4.3): only cache *misses* enter the
        // local training pool.
        if was_cached && self.config.routing.dedup_via_cache {
            return;
        }
        self.pool.add(features, actual_secs);
        // A latched sentinel makes this pool add's retrain due, on the same
        // path as the cadence; an observation that adds nothing to the pool
        // never refits it, latched or not.
        let drifted = self.drift.drift_detected();
        if !self.local.note_pool_add(&self.pool, drifted) {
            return;
        }
        // Retrain interception: the fault oracle is consulted only when this
        // pool add makes a retrain due, so the injection ledger lines up
        // one-to-one with retrain attempts.
        let trained = match self.faults.as_ref().and_then(|f| f.retrain_fault()) {
            // Skip the retrain; the stale ensemble keeps serving and the
            // training debt (and any latch) stays for the next add.
            Some(RetrainFault::Poisoned) => {
                self.degraded.retrains_poisoned += 1;
                false
            }
            // The hook models the latency itself (e.g. it slept before
            // returning); the retrain then proceeds normally.
            Some(RetrainFault::Slowed) => {
                self.degraded.retrains_slowed += 1;
                self.local.retrain(&self.pool)
            }
            None => self.local.retrain(&self.pool),
        };
        // A new ensemble answers anew: nothing walked on the old one holds.
        if trained {
            self.held.clear();
        }
        // A retrain ran while latched: count it and re-arm the detector (its
        // baseline described the old model; the score window stays).
        if drifted && trained {
            self.drift.note_forced_retrain();
            self.drift.reset_after_retrain();
        }
    }

    fn name(&self) -> &'static str {
        "Stage"
    }

    /// The components, the drift sentinel and the memo of local answers:
    /// every slot its table reserved and every memoised input.
    fn approx_size_bytes(&self) -> usize {
        let (c, p, l) = self.size_breakdown();
        let held = self.held.capacity() * (std::mem::size_of::<(u64, HeldAnswer)>() + 1)
            + (self.held.values())
                .map(|h| h.input.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>();
        std::mem::size_of::<Self>() + c + p + l + self.drift.approx_size_bytes() + held
    }
}

/// Whether two local inputs are equal to the bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A local answer's fields as bits, for bit-equality checks.
fn answer_bits(p: EnsemblePrediction) -> [u64; 3] {
    [p.mean, p.model_uncertainty, p.data_uncertainty].map(f64::to_bits)
}

// Thread-safety contract of the shard-parallel fleet replay engine,
// checked at compile time: every per-instance predictor moves into a worker
// thread (`Send`), and the one fleet-trained global model is shared across
// workers behind an `Arc` (`Send + Sync`). A field change that silently
// breaks one of these bounds fails the build here rather than at a distant
// `thread::scope` call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GlobalModel>();
    assert_send::<StagePredictor>();
    assert_send::<crate::autowlm::AutoWlmPredictor>();
    assert_send::<LocalModel>();
    assert_send::<ExecTimeCache>();
    assert_send::<TrainingPool>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{plan_to_tree_sample, GlobalModelConfig};
    use crate::local::LocalModelConfig;
    use stage_gbdt::EnsembleParams;
    use stage_plan::{PlanBuilder, S3Format};

    fn plan(rows: f64) -> PhysicalPlan {
        PlanBuilder::select()
            .scan("t", S3Format::Local, rows, 64.0)
            .hash_aggregate(0.01)
            .finish()
    }

    fn sys() -> SystemContext {
        SystemContext::empty(2)
    }

    fn quick_config() -> StageConfig {
        StageConfig {
            local: LocalModelConfig {
                ensemble: EnsembleParams {
                    n_members: 4,
                    n_estimators: 25,
                    seed: 5,
                },
                min_train_examples: 20,
                retrain_interval: 60,
            },
            ..StageConfig::default()
        }
    }

    /// A tiny global model fitted to `secs(rows)` on thirty plan sizes.
    fn tiny_global(sys: &SystemContext, secs: impl Fn(f64) -> f64) -> Arc<GlobalModel> {
        let samples: Vec<_> = (1..=30)
            .map(|i| plan_to_tree_sample(&plan(i as f64 * 1e4), sys, secs(i as f64 * 1e4)))
            .collect();
        let gcfg = GlobalModelConfig {
            hidden: 8,
            gcn_layers: 1,
            dropout: 0.0,
            epochs: 5,
            ..GlobalModelConfig::default()
        };
        Arc::new(GlobalModel::train(&samples, 2, &gcfg))
    }

    /// The one-FIFO pool sums its bucket caps: caps whose sum overflows are
    /// refused, caps that sum to `usize::MAX` are not.
    #[test]
    fn validate_refuses_pool_caps_that_overflow_when_summed() {
        let mut config = StageConfig::default();
        config.pool.bucket_capacity = [usize::MAX - 1, 1, 0];
        assert_eq!(config.validate(), Ok(()));
        config.pool.bucket_capacity = [usize::MAX - 1, 1, 1];
        assert!(config.validate().unwrap_err().contains("pool"));
    }

    #[test]
    fn cold_start_default_then_cache_hit() {
        let mut s = StagePredictor::new(quick_config());
        let q = plan(1e5);
        let p1 = s.predict(&q, &sys());
        assert_eq!(p1.source, PredictionSource::Default);
        s.observe(&q, &sys(), 7.0);
        let p2 = s.predict(&q, &sys());
        assert_eq!(p2.source, PredictionSource::Cache);
        assert!((p2.exec_secs - 7.0).abs() < 1e-9);
        assert_eq!(s.stats().cache, 1);
        assert_eq!(s.stats().default, 1);
    }

    #[test]
    fn cache_blends_mean_and_last() {
        let mut s = StagePredictor::new(quick_config());
        let q = plan(2e5);
        s.observe(&q, &sys(), 10.0);
        s.observe(&q, &sys(), 20.0);
        // mean 15, last 20 -> 0.8*15 + 0.2*20 = 16
        let p = s.predict(&q, &sys());
        assert!((p.exec_secs - 16.0).abs() < 1e-9);
    }

    #[test]
    fn local_model_serves_unseen_similar_queries() {
        let mut s = StagePredictor::new(quick_config());
        // Distinct plans (different sizes) so every observation misses the
        // cache and feeds the pool.
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            s.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(s.local().is_trained());
        // An unseen size: must be served by the local model, not default.
        let p = s.predict(&plan(3.33e5), &sys());
        assert_eq!(p.source, PredictionSource::Local);
        assert!(p.log_variance.is_some());
        assert!(p.exec_secs > 0.0);
    }

    #[test]
    fn dedup_keeps_repeats_out_of_pool() {
        let mut s = StagePredictor::new(quick_config());
        let q = plan(1e5);
        for _ in 0..10 {
            s.observe(&q, &sys(), 1.0);
        }
        assert_eq!(s.pool().len(), 1, "only the first observation enters");

        let mut cfg = quick_config();
        cfg.routing.dedup_via_cache = false;
        let mut s2 = StagePredictor::new(cfg);
        for _ in 0..10 {
            s2.observe(&q, &sys(), 1.0);
        }
        assert_eq!(s2.pool().len(), 10, "ablation keeps repeats");
    }

    #[test]
    fn global_serves_cold_start_when_attached() {
        let global = tiny_global(&sys(), |rows| rows / 1e5);
        let mut s = StagePredictor::with_global(quick_config(), global);
        let p = s.predict(&plan(2e5), &sys());
        assert_eq!(p.source, PredictionSource::Global);
        assert_eq!(s.stats().global, 1);
    }

    #[test]
    fn short_predictions_never_escalate() {
        // Local model trained on uniformly short queries -> predictions
        // stay below the short-circuit threshold -> no global calls even
        // though a global model is attached.
        let global = tiny_global(&sys(), |_| 0.05);
        let mut s = StagePredictor::with_global(quick_config(), global);
        for i in 1..=60 {
            s.observe(&plan(i as f64 * 1e3), &sys(), 0.05);
        }
        assert!(s.local().is_trained());
        let before_global = s.stats().global;
        for i in 61..=80 {
            let p = s.predict(&plan(i as f64 * 1e3), &sys());
            assert!(p.exec_secs < 5.0);
        }
        assert_eq!(
            s.stats().global,
            before_global,
            "short queries must not reach the global model"
        );
    }

    #[test]
    fn stats_fractions_sum_to_one() {
        let mut s = StagePredictor::new(quick_config());
        let q = plan(1e5);
        s.predict(&q, &sys());
        s.observe(&q, &sys(), 1.0);
        s.predict(&q, &sys());
        let st = s.stats();
        let sum: f64 = [
            PredictionSource::Cache,
            PredictionSource::Local,
            PredictionSource::Global,
            PredictionSource::Default,
        ]
        .iter()
        .map(|&src| st.fraction(src))
        .sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(st.total(), 2);
    }

    #[test]
    fn env_features_extend_local_input() {
        let mut cfg = quick_config();
        cfg.env_features = true;
        let mut s = StagePredictor::new(cfg);
        // System context with a varying concurrency feature.
        let mk_sys = |conc: f64| SystemContext {
            features: vec![conc, 1.0],
        };
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            s.observe(&plan(rows), &mk_sys((i % 5) as f64), rows / 1e5);
        }
        assert!(s.local().is_trained());
        let p = s.predict(&plan(3.33e5), &mk_sys(2.0));
        assert_eq!(p.source, PredictionSource::Local);
        assert!(p.exec_secs.is_finite() && p.exec_secs >= 0.0);
        // The flag must be off by default (published Stage semantics).
        assert!(!StageConfig::default().env_features);
    }

    /// A shard that trained on two sys features answers a request whose
    /// `sys` is empty or too long as if it were cut or zero-padded to two,
    /// on every verb, instead of indexing past the trees' rows.
    #[test]
    fn a_sys_of_another_width_is_padded_or_cut_to_the_trained_one() {
        let mut cfg = quick_config();
        cfg.env_features = true;
        let sys2 = |a: f64, b: f64| SystemContext {
            features: vec![a, b],
        };
        let mut warm = StagePredictor::new(cfg);
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            warm.observe(&plan(rows), &sys2((i % 5) as f64, 1.0), rows / 1e5);
        }
        assert!(warm.local().is_trained());
        let plans = [plan(3.33e5), plan(7.77e5)];
        for (skewed, same) in [
            (SystemContext { features: vec![] }, sys2(0.0, 0.0)),
            (
                SystemContext {
                    features: vec![2.0, 1.0, 9.0],
                },
                sys2(2.0, 1.0),
            ),
        ] {
            let (mut got, mut want) = (
                StagePredictor::from_snapshot(warm.snapshot()),
                StagePredictor::from_snapshot(warm.snapshot()),
            );
            assert_eq!(
                got.predict(&plans[0], &skewed),
                want.predict(&plans[0], &same)
            );
            assert_eq!(
                got.predict_batch(&plans, &skewed),
                want.predict_batch(&plans, &same)
            );
            got.observe(&plans[1], &skewed, 4.0);
            want.observe(&plans[1], &same, 4.0);
            let sections = |p: &StagePredictor| crate::storefmt::snapshot_sections(&p.snapshot());
            assert_eq!(sections(&got), sections(&want));
        }

        // A cold shard: the first observation fixes the width the pool and
        // the first ensemble use.
        let mut cold = StagePredictor::new(cfg);
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            let sys = match i % 3 {
                0 => SystemContext { features: vec![] },
                1 => sys2(1.0, 1.0),
                _ => SystemContext {
                    features: vec![1.0, 1.0, 7.0],
                },
            };
            cold.observe(&plan(rows), &sys, rows / 1e5);
        }
        assert!(cold.local().is_trained());
        assert_eq!(
            cold.local().n_cols(),
            Some(stage_plan::CACHE_FEATURE_DIM + 2)
        );
        assert_eq!(
            cold.pool().n_cols(),
            Some(stage_plan::CACHE_FEATURE_DIM + 2)
        );
    }

    /// A warm shard's snapshot whose public pool is handed a 1-column
    /// example, a width no shard of this config ever adds.
    fn warm_snapshot_with_a_narrow_pool_add() -> StageSnapshot {
        let mut warm = StagePredictor::new(quick_config());
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            warm.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(warm.local().is_trained());
        let mut snap = warm.snapshot();
        snap.pool.add(vec![1.0], 2.0);
        snap
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "feature dimension mismatch")]
    fn a_pool_add_of_another_width_asserts() {
        warm_snapshot_with_a_narrow_pool_add();
    }

    /// The release twin: the add is zero-padded to the pool's 33 columns,
    /// so the pool's section restores (one width), and the next retrain
    /// trains on them.
    #[test]
    #[cfg(not(debug_assertions))]
    fn a_pool_add_of_another_width_is_padded_in_release() {
        let mut s = StagePredictor::from_snapshot(warm_snapshot_with_a_narrow_pool_add());
        let width = stage_plan::CACHE_FEATURE_DIM;
        let data = s.pool().to_dataset().unwrap();
        assert_eq!(data.n_cols(), width);
        let mut padded = vec![0.0; width];
        padded[0] = 1.0;
        assert!((0..data.n_rows()).any(|r| data.row(r) == padded.as_slice()));
        let sections = crate::storefmt::snapshot_sections(&s.snapshot());
        let (_, pool) = (sections.iter())
            .find(|(id, _)| *id == crate::storefmt::SECTION_POOL)
            .unwrap();
        let mut r = stage_store::SectionReader::new(pool);
        assert!(TrainingPool::store_decode(&mut r).is_ok());
        let trainings = s.local().trainings();
        assert!(s.local.retrain(&s.pool));
        assert_eq!(s.local().trainings(), trainings + 1);
        assert_eq!(s.local().n_cols(), Some(width));
    }

    /// Restores two identical predictors from `warm` (same global model,
    /// identically armed fault oracle each), answers the same plans
    /// scalar-in-a-loop on one and as one batch on the other, and asserts
    /// they agree on every answer and every counter. Returns the batched one.
    fn batch_twin_agrees_with_scalar(
        warm: &StagePredictor,
        global: Option<&Arc<GlobalModel>>,
        global_down: u64,
        sys: &SystemContext,
    ) -> StagePredictor {
        let twin = || {
            let mut p = StagePredictor::from_snapshot(warm.snapshot());
            if let Some(g) = global {
                p.set_global(Arc::clone(g));
            }
            p.set_component_faults(Arc::new(ScriptedComponentFaults {
                global_down: AtomicU64::new(global_down),
                ..ScriptedComponentFaults::default()
            }));
            p
        };
        let (mut scalar, mut batched) = (twin(), twin());
        let plans: Vec<PhysicalPlan> = [1e4, 3.33e5, 2e4, 7.77e5, 1e4, 5e4]
            .iter()
            .map(|&r| plan(r))
            .collect();
        let from_scalar: Vec<Prediction> = plans.iter().map(|q| scalar.predict(q, sys)).collect();
        let from_batch = batched.predict_batch(&plans, sys);
        assert_eq!(from_batch, from_scalar);
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.cache().hits(), scalar.cache().hits());
        assert_eq!(batched.cache().misses(), scalar.cache().misses());
        assert_eq!(batched.degraded_stats(), scalar.degraded_stats());
        batched
    }

    #[test]
    fn predict_batch_matches_scalar_routing_and_counters() {
        // Warm a predictor so the batch exercises repeats (cache hits) and
        // unseen sizes (local); untrained is the cold-start case below.
        let mut warm = StagePredictor::new(quick_config());
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            warm.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(warm.local().is_trained());
        let batched = batch_twin_agrees_with_scalar(&warm, None, 0, &sys());
        // The batch hit multiple sources (otherwise this test is vacuous).
        assert!(batched.stats().cache > 0);
        assert!(batched.stats().local > 0);

        // Same again through the rest of the shared miss route: env features
        // on the local input, a global model attached, thresholds that make
        // every local answer long and uncertain (so each miss escalates) and
        // the first escalation failed by the oracle (so it stays local).
        let mut cfg = quick_config();
        cfg.env_features = true;
        cfg.routing.short_circuit_secs = 0.0;
        cfg.routing.confident_log_std = 0.0;
        let env_sys = SystemContext {
            features: vec![3.0, 1.0],
        };
        let mut warm = StagePredictor::new(cfg);
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            warm.observe(&plan(rows), &env_sys, rows / 1e5);
        }
        assert!(warm.local().is_trained());
        let global = tiny_global(&env_sys, |rows| rows / 1e5);
        let batched = batch_twin_agrees_with_scalar(&warm, Some(&global), 1, &env_sys);
        assert!(batched.stats().cache > 0);
        assert!(batched.stats().local > 0);
        assert!(batched.stats().global > 0);
        assert!(batched.degraded_stats().global_failover > 0);
    }

    #[test]
    fn predict_batch_cold_start_and_empty() {
        let mut s = StagePredictor::new(quick_config());
        assert!(s.predict_batch(&[], &sys()).is_empty());
        let plans = vec![plan(1e5), plan(2e5)];
        let preds = s.predict_batch(&plans, &sys());
        assert_eq!(preds.len(), 2);
        for p in &preds {
            assert_eq!(p.source, PredictionSource::Default);
            assert!((p.exec_secs - DEFAULT_PREDICTION_SECS).abs() < 1e-12);
        }
        assert_eq!(s.stats().default, 2);
    }

    #[test]
    fn size_breakdown_components() {
        let mut s = StagePredictor::new(quick_config());
        for i in 1..=40 {
            s.observe(&plan(i as f64 * 1e4), &sys(), 1.0);
        }
        let (c, p, l) = s.size_breakdown();
        assert!(c > 0 && p > 0 && l > 0);
        assert!(s.approx_size_bytes() >= c + p + l);
        assert_eq!(s.name(), "Stage");
    }

    use std::sync::atomic::{AtomicU64, Ordering};

    /// Budgeted fault oracle: each kind fires for its next N consults.
    #[derive(Default)]
    struct ScriptedComponentFaults {
        local_down: AtomicU64,
        global_down: AtomicU64,
        poison: AtomicU64,
        slow: AtomicU64,
    }

    impl ScriptedComponentFaults {
        fn take(budget: &AtomicU64) -> bool {
            budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
        }
    }

    impl ComponentFaults for ScriptedComponentFaults {
        fn local_unavailable(&self) -> bool {
            Self::take(&self.local_down)
        }
        fn global_unavailable(&self) -> bool {
            Self::take(&self.global_down)
        }
        fn retrain_fault(&self) -> Option<RetrainFault> {
            if Self::take(&self.poison) {
                Some(RetrainFault::Poisoned)
            } else if Self::take(&self.slow) {
                Some(RetrainFault::Slowed)
            } else {
                None
            }
        }
    }

    #[test]
    fn tier_answers_touches_no_state() {
        let global = tiny_global(&sys(), |rows| rows / 1e5);
        // Fifty plans seen three times each, every fault kind armed (a
        // consult made by `tier_answers` would move the ledger), with and
        // without `tier_answers` before and after every predict.
        let run = |peek: bool| {
            let faults = Arc::new(ScriptedComponentFaults {
                local_down: AtomicU64::new(3),
                global_down: AtomicU64::new(3),
                poison: AtomicU64::new(1),
                slow: AtomicU64::new(1),
            });
            let mut s = StagePredictor::with_global(quick_config(), Arc::clone(&global));
            s.set_component_faults(Arc::clone(&faults) as Arc<dyn ComponentFaults>);
            let mut answered = [false; 3];
            for i in 0..150 {
                let rows = (i % 50 + 1) as f64 * 1e4;
                let (q, sys) = (plan(rows), sys());
                if peek {
                    let t = s.tier_answers(&q, &sys);
                    answered[0] |= t.cache.is_some();
                    answered[1] |= t.local.is_some();
                    answered[2] |= t.global.is_some();
                }
                s.predict(&q, &sys);
                if peek {
                    s.tier_answers(&q, &sys);
                }
                s.observe(&q, &sys, rows / 1e5);
            }
            assert!(!peek || answered == [true; 3], "vacuous: {answered:?}");
            let ledger = [
                &faults.local_down,
                &faults.global_down,
                &faults.poison,
                &faults.slow,
            ]
            .map(|budget| budget.load(Ordering::SeqCst));
            (
                crate::storefmt::snapshot_sections(&s.snapshot()),
                s.stats(),
                s.degraded_stats(),
                ledger,
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn local_failover_degrades_to_default_then_heals() {
        let mut s = StagePredictor::new(quick_config());
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            s.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(s.local().is_trained());
        let faults = Arc::new(ScriptedComponentFaults {
            local_down: AtomicU64::new(1),
            ..ScriptedComponentFaults::default()
        });
        s.set_component_faults(faults);
        // Faulted call: trained local model bypassed, default answer.
        let p = s.predict(&plan(3.33e5), &sys());
        assert_eq!(p.source, PredictionSource::Default);
        assert_eq!(s.degraded_stats().local_failover, 1);
        // Budget spent: the very next call is served by the local tier.
        let p = s.predict(&plan(3.33e5), &sys());
        assert_eq!(p.source, PredictionSource::Local);
        assert_eq!(s.degraded_stats().local_failover, 1);
    }

    #[test]
    fn global_failover_degrades_to_default_then_heals() {
        let global = tiny_global(&sys(), |rows| rows / 1e5);
        let mut s = StagePredictor::with_global(quick_config(), global);
        let faults = Arc::new(ScriptedComponentFaults {
            global_down: AtomicU64::new(1),
            ..ScriptedComponentFaults::default()
        });
        s.set_component_faults(faults);
        // Cold start wants the global tier; the fault degrades it to the
        // default answer instead of an error.
        let p = s.predict(&plan(2e5), &sys());
        assert_eq!(p.source, PredictionSource::Default);
        assert_eq!(s.degraded_stats().global_failover, 1);
        assert_eq!(s.stats().global, 0);
        // Healed: same query now reaches the global model.
        let p = s.predict(&plan(2.5e5), &sys());
        assert_eq!(p.source, PredictionSource::Global);
        assert_eq!(s.degraded_stats().global_failover, 1);
    }

    #[test]
    fn batch_local_failover_counts_once_per_batch() {
        let mut s = StagePredictor::new(quick_config());
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            s.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(s.local().is_trained());
        s.set_component_faults(Arc::new(ScriptedComponentFaults {
            local_down: AtomicU64::new(1),
            ..ScriptedComponentFaults::default()
        }));
        let plans = vec![plan(3.33e5), plan(7.77e5)];
        let preds = s.predict_batch(&plans, &sys());
        for p in &preds {
            assert_eq!(p.source, PredictionSource::Default);
        }
        assert_eq!(
            s.degraded_stats().local_failover,
            1,
            "one consult per batch that would use the local tier"
        );
        // An all-hit batch must not consult the oracle at all.
        s.set_component_faults(Arc::new(ScriptedComponentFaults {
            local_down: AtomicU64::new(1),
            ..ScriptedComponentFaults::default()
        }));
        let q = plan(1e4);
        let hits = s.predict_batch(&[q.clone(), q], &sys());
        for p in &hits {
            assert_eq!(p.source, PredictionSource::Cache);
        }
        assert_eq!(s.degraded_stats().local_failover, 1);
    }

    #[test]
    fn poisoned_retrain_defers_until_fault_clears() {
        let mut s = StagePredictor::new(quick_config());
        for i in 1..=19 {
            s.observe(&plan(i as f64 * 1e4), &sys(), 1.0);
        }
        assert!(!s.local().is_trained());
        s.set_component_faults(Arc::new(ScriptedComponentFaults {
            poison: AtomicU64::new(1),
            ..ScriptedComponentFaults::default()
        }));
        // 20th distinct observation reaches min_train_examples, but the
        // retrain is poisoned: skipped, debt stays due.
        s.observe(&plan(20e4), &sys(), 1.0);
        assert!(!s.local().is_trained());
        assert_eq!(s.degraded_stats().retrains_poisoned, 1);
        // Fault budget spent: the next observation trains.
        s.observe(&plan(21e4), &sys(), 1.0);
        assert!(s.local().is_trained());
        assert_eq!(s.degraded_stats().retrains_poisoned, 1);
    }

    #[test]
    fn slowed_retrain_still_trains() {
        let mut s = StagePredictor::new(quick_config());
        for i in 1..=19 {
            s.observe(&plan(i as f64 * 1e4), &sys(), 1.0);
        }
        s.set_component_faults(Arc::new(ScriptedComponentFaults {
            slow: AtomicU64::new(1),
            ..ScriptedComponentFaults::default()
        }));
        s.observe(&plan(20e4), &sys(), 1.0);
        assert!(s.local().is_trained(), "a slowed retrain still completes");
        assert_eq!(s.degraded_stats().retrains_slowed, 1);
        assert_eq!(s.degraded_stats().total(), 1);
    }

    /// Observes query `i` of the drift tests' workload: 40 plans whose exec
    /// time tracks row count, `mult`× slower after the step change. `fresh`
    /// nudges the row count so the plan is one the shard has never seen.
    fn observe_drift_query(s: &mut StagePredictor, i: usize, fresh: bool, mult: f64) {
        let rows = (i % 40 + 1) as f64 * 1e4 + if fresh { (i + 1) as f64 } else { 0.0 };
        s.observe(&plan(rows), &sys(), mult * rows / 1e5);
    }

    /// Steady traffic on the 40 repeating plans (trained once, sentinel warm
    /// and quiet, a cadence only a latch can beat), then the 5× shift on
    /// fresh or repeated plans up to the observe on which the sentinel fires.
    fn shifted_shard(fresh: bool) -> StagePredictor {
        let mut cfg = quick_config();
        cfg.local.retrain_interval = 10_000;
        let mut s = StagePredictor::new(cfg);
        (0..120).for_each(|i| observe_drift_query(&mut s, i, false, 1.0));
        assert_eq!((s.local().trainings(), s.drift().detections()), (1, 0));
        let mut i = 0;
        while s.drift().detections() == 0 && i < 400 {
            observe_drift_query(&mut s, i, fresh, 5.0);
            i += 1;
        }
        assert_eq!(s.drift().detections(), 1, "a 5x shift must fire");
        s
    }

    #[test]
    fn drift_latch_retrains_on_the_pool_add_that_latched_it() {
        // Fresh plans: every shifted observe enters the pool, so the one
        // that latches the sentinel is also the one that retrains.
        let s = shifted_shard(true);
        assert_eq!(s.drift().forced_retrains(), 1);
        assert!(!s.drift().drift_detected(), "the retrain clears the latch");
        assert_eq!(s.local().trainings(), 2, "one detection buys one retrain");
    }

    #[test]
    fn drift_latch_on_repeated_plans_holds_until_a_pool_add() {
        let mut s = shifted_shard(false);
        // Cache hits add nothing to the pool: there is nothing new to train
        // on, so the latch is held and nothing refits, however long.
        let before = (s.local().trainings(), s.pool().len());
        (0..200).for_each(|i| observe_drift_query(&mut s, i, false, 5.0));
        assert!(s.drift().drift_detected());
        assert_eq!(
            (s.drift().detections(), s.drift().forced_retrains()),
            (1, 0)
        );
        assert_eq!((s.local().trainings(), s.pool().len()), before);
        // One fresh plan is the next pool add: the retrain is due on it.
        observe_drift_query(&mut s, 0, true, 5.0);
        assert_eq!(s.drift().forced_retrains(), 1);
        assert!(!s.drift().drift_detected());
        assert_eq!(s.local().trainings(), before.0 + 1);
    }

    #[test]
    fn poisoned_drift_retrain_stays_latched_for_the_next_pool_add() {
        let mut s = shifted_shard(false);
        s.set_component_faults(Arc::new(ScriptedComponentFaults {
            poison: AtomicU64::new(1),
            ..ScriptedComponentFaults::default()
        }));
        // Consulted, poisoned and ledgered like a scheduled retrain: skipped
        // and still due, so the pool add after it retrains.
        for (add, forced) in [(0, 0), (1, 1)] {
            observe_drift_query(&mut s, add, true, 5.0);
            assert_eq!(s.drift().forced_retrains(), forced);
            assert_eq!(s.drift().drift_detected(), forced == 0);
            assert_eq!(s.degraded_stats().retrains_poisoned, 1);
        }
    }

    #[test]
    fn calibrated_interval_brackets_and_widens_when_degraded() {
        let mut s = StagePredictor::new(quick_config());
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            s.observe(&plan(rows), &sys(), rows / 1e5);
        }
        let p = s.predict(&plan(3.33e5), &sys());
        assert_eq!(p.source, PredictionSource::Local);
        let (lo, hi) = s
            .calibrated_interval(&p)
            .expect("local answers carry variance");
        assert!(lo <= p.exec_secs && p.exec_secs <= hi, "({lo}, {hi})");
        // A cache answer has no variance, hence no interval.
        let q = plan(1e4);
        let pc = s.predict(&q, &sys());
        assert_eq!(pc.source, PredictionSource::Cache);
        assert_eq!(s.calibrated_interval(&pc), None);
        // A degraded event widens the next intervals.
        s.set_component_faults(Arc::new(ScriptedComponentFaults {
            local_down: AtomicU64::new(1),
            ..ScriptedComponentFaults::default()
        }));
        let pd = s.predict(&plan(7.77e5), &sys());
        assert_eq!(pd.source, PredictionSource::Default);
        let _ = s.calibrated_interval(&pd);
        assert!(s.drift().degraded_active());
        let (wlo, whi) = s.calibrated_interval(&p).expect("same local prediction");
        assert!(
            whi - wlo > hi - lo,
            "degraded interval ({wlo}, {whi}) must be wider than ({lo}, {hi})"
        );
    }

    #[test]
    fn snapshot_round_trips_calibration_state() {
        let mut s = StagePredictor::new(quick_config());
        for i in 1..=70 {
            let rows = i as f64 * 1e4;
            s.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(s.drift().residuals_seen() > 0);
        let restored = StagePredictor::from_snapshot(s.snapshot());
        assert_eq!(restored.drift(), s.drift());
        assert_eq!(restored.drift().coverage(), s.drift().coverage());
    }

    /// One step of [`prop_held_answers_change_nothing`]'s traces.
    #[derive(Debug, Clone)]
    enum Op {
        /// Predict then observe the plan under the same `sys`.
        Pair(usize, usize),
        /// Predict, then observe under another `sys`.
        PairNewSys(usize, usize, usize),
        Predict(usize, usize),
        /// Observe a plan that may never have been predicted.
        Observe(usize, usize),
        /// Predict a batch (duplicates included), then observe it in order.
        Batch(Vec<usize>, usize),
        /// Toggle a 30× step change in the observed times.
        Shift,
        /// Fail the local tier for the next `n` consults.
        LocalDown(u64),
        /// Snapshot and restore.
        Restore,
    }

    fn draw_op(rng: &mut rand::rngs::StdRng) -> Op {
        use rand::Rng;
        let (p, a, b) = (
            rng.gen_range(0usize..120),
            rng.gen_range(0usize..3),
            rng.gen_range(0usize..3),
        );
        match rng.gen_range(0u32..100) {
            0..=39 => Op::Pair(p, a),
            40..=49 => Op::PairNewSys(p, a, b),
            50..=59 => Op::Predict(p, a),
            60..=74 => Op::Observe(p, a),
            75..=89 => {
                let len = rng.gen_range(1..=12);
                Op::Batch(
                    (0..len)
                        .map(|_| (p + rng.gen_range(0usize..6)) % 120)
                        .collect(),
                    a,
                )
            }
            90..=92 => Op::Shift,
            93..=95 => Op::LocalDown(rng.gen_range(1..=2)),
            _ => Op::Restore,
        }
    }

    /// Runs `op` on one twin and returns the answers it gave. The twin with
    /// `drop_held` forgets its held answers before every observe, so it
    /// walks the ensemble for each one.
    fn apply(
        twin: &mut (StagePredictor, Arc<ScriptedComponentFaults>),
        op: &Op,
        mult: f64,
        drop_held: bool,
    ) -> Vec<Prediction> {
        let systems = [
            SystemContext {
                features: vec![1.0, 0.5],
            },
            SystemContext {
                features: vec![3.0, 0.5],
            },
            SystemContext { features: vec![] },
        ];
        let plan_of = |p: usize| plan((p + 1) as f64 * 1e4);
        let (s, faults) = twin;
        let observe = |s: &mut StagePredictor, p: usize, sys: usize| {
            if drop_held {
                s.held.clear();
            }
            let rows = (p + 1) as f64 * 1e4;
            s.observe(&plan(rows), &systems[sys], mult * rows / 1e5);
        };
        match *op {
            Op::Pair(p, a) => {
                let answer = s.predict(&plan_of(p), &systems[a]);
                observe(s, p, a);
                vec![answer]
            }
            Op::PairNewSys(p, a, b) => {
                let answer = s.predict(&plan_of(p), &systems[a]);
                observe(s, p, b);
                vec![answer]
            }
            Op::Predict(p, a) => vec![s.predict(&plan_of(p), &systems[a])],
            Op::Observe(p, a) => {
                observe(s, p, a);
                vec![]
            }
            Op::Batch(ref ps, a) => {
                let plans: Vec<PhysicalPlan> = ps.iter().map(|&p| plan_of(p)).collect();
                let answers = s.predict_batch(&plans, &systems[a]);
                ps.iter().for_each(|&p| observe(s, p, a));
                answers
            }
            Op::Shift => vec![],
            Op::LocalDown(n) => {
                faults.local_down.store(n, Ordering::SeqCst);
                vec![]
            }
            Op::Restore => {
                let walks = s.observe_walks;
                *s = StagePredictor::from_snapshot(s.snapshot());
                s.set_component_faults(Arc::clone(faults) as Arc<dyn ComponentFaults>);
                s.observe_walks = walks;
                vec![]
            }
        }
    }

    /// Memoising the local answers walked on the current ensemble
    /// generation changes nothing a predictor answers or keeps: over random
    /// interleavings of every verb, a twin that drops its whole memo before
    /// each observe (and so walks every time) gives the same answers, the same drift sentinel,
    /// the same pool and the same store sections — across drift-forced
    /// retrains, local fail-overs, changed `sys` contexts and restores,
    /// with the environment features on and off. `check.sh` runs it in the
    /// release build too, where the debug check on every held answer is
    /// compiled out.
    #[test]
    fn prop_held_answers_change_nothing() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let (mut reused, mut forced, mut failovers, mut restores) = (0, 0, 0, 0);
        for case in 0..12 {
            let mut cfg = quick_config();
            cfg.env_features = case % 2 == 1;
            cfg.local.retrain_interval = 40;
            let ops: Vec<Op> = (0..rng.gen_range(120..200))
                .map(|_| draw_op(&mut rng))
                .collect();
            let fresh = || {
                let faults = Arc::new(ScriptedComponentFaults::default());
                let mut p = StagePredictor::new(cfg);
                p.set_component_faults(Arc::clone(&faults) as Arc<dyn ComponentFaults>);
                (p, faults)
            };
            let (mut held, mut walked) = (fresh(), fresh());
            let mut mult = 1.0;
            for op in &ops {
                let answers = apply(&mut held, op, mult, false);
                assert_eq!(answers, apply(&mut walked, op, mult, true), "{op:?}");
                if matches!(op, Op::Shift) {
                    mult = if mult == 1.0 { 30.0 } else { 1.0 };
                }
                let (h, w) = (&held.0, &walked.0);
                assert_eq!(h.drift(), w.drift(), "{op:?}");
                assert_eq!(h.pool().len(), w.pool().len(), "{op:?}");
                assert_eq!(h.stats(), w.stats(), "{op:?}");
                assert_eq!(h.degraded_stats(), w.degraded_stats(), "{op:?}");
            }
            let (h, w) = (&held.0, &walked.0);
            let sections = |p: &StagePredictor| crate::storefmt::snapshot_sections(&p.snapshot());
            assert_eq!(sections(h), sections(w), "case {case}");
            reused += w.observe_walks - h.observe_walks;
            forced += h.drift().forced_retrains();
            failovers += h.degraded_stats().local_failover;
            restores += ops.iter().filter(|op| matches!(op, Op::Restore)).count();
        }
        assert!(
            reused > 0 && forced > 0 && failovers > 0 && restores > 0,
            "vacuous: reused {reused}, forced {forced}, failovers {failovers}, restores {restores}"
        );
    }

    /// On a trained shard a predict → observe pair walks the ensemble once
    /// (the predict's walk), and a batch of 64 followed by its 64 observes
    /// walks again only for the plans the batch answered from the cache.
    #[test]
    fn an_observe_walks_only_where_its_predict_did_not() {
        let mut cfg = quick_config();
        cfg.local.retrain_interval = 10_000;
        let mut s = StagePredictor::new(cfg);
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            s.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(s.local().is_trained());
        let q = plan(3.33e5);
        let before = s.observe_walks;
        assert_eq!(s.predict(&q, &sys()).source, PredictionSource::Local);
        s.observe(&q, &sys(), 3.33);
        assert_eq!(s.observe_walks, before);

        // Seen plans (cache hits), fresh ones, and fresh ones twice.
        let plans: Vec<PhysicalPlan> = (0..64)
            .map(|i| match i % 4 {
                0 => plan((i / 4 + 1) as f64 * 1e4),
                1 | 2 => plan(1e6 + (i / 4) as f64 * 1e3),
                _ => plan(2e6 + i as f64 * 1e3),
            })
            .collect();
        let answers = s.predict_batch(&plans, &sys());
        let hits = answers
            .iter()
            .filter(|p| p.source == PredictionSource::Cache)
            .count() as u64;
        assert_eq!(hits, 16);
        let before = s.observe_walks;
        for q in &plans {
            s.observe(q, &sys(), 1.0);
        }
        assert_eq!(s.observe_walks - before, hits);
        assert_eq!(s.local().trainings(), 1, "no retrain inside the check");
    }

    /// Repeated observes of one cached plan walk the ensemble once per
    /// ensemble generation: once, once more after a retrain, once more
    /// after a restore — and, with the environment features on, once more
    /// under another `sys`, whose input differs. A cache-hit predict
    /// between them walks nothing.
    #[test]
    fn a_cached_plan_is_walked_once_per_generation() {
        for env_features in [false, true] {
            let mut cfg = quick_config();
            cfg.env_features = env_features;
            cfg.local.retrain_interval = 30;
            let mut s = StagePredictor::new(cfg);
            let observe_fresh = |s: &mut StagePredictor, from: usize, n: usize| {
                for i in from..from + n {
                    let rows = i as f64 * 1e4;
                    s.observe(&plan(rows), &sys(), rows / 1e5);
                }
            };
            let q = plan(3.33e5);
            let other = SystemContext {
                features: vec![3.0, 0.5],
            };
            let walks = |s: &mut StagePredictor, sys: &SystemContext| {
                let before = s.observe_walks;
                for _ in 0..4 {
                    s.observe(&q, sys, 3.33);
                    assert_eq!(s.predict(&q, sys).source, PredictionSource::Cache);
                }
                s.observe_walks - before
            };
            observe_fresh(&mut s, 1, 20);
            assert_eq!(s.local().trainings(), 1);
            assert_eq!(walks(&mut s, &sys()), 1, "env {env_features}");
            assert_eq!(walks(&mut s, &sys()), 0, "env {env_features}");

            observe_fresh(&mut s, 100, 30);
            assert_eq!(s.local().trainings(), 2);
            assert_eq!(walks(&mut s, &sys()), 1, "env {env_features}: retrained");
            assert_eq!(walks(&mut s, &sys()), 0, "env {env_features}: retrained");

            s = StagePredictor::from_snapshot(s.snapshot());
            assert_eq!(walks(&mut s, &sys()), 1, "env {env_features}: restored");
            assert_eq!(walks(&mut s, &sys()), 0, "env {env_features}: restored");

            let new_sys = u64::from(env_features);
            assert_eq!(walks(&mut s, &other), new_sys, "env {env_features}: sys");
            assert_eq!(walks(&mut s, &other), 0, "env {env_features}: sys");
        }
    }

    /// A shard with no ensemble walks nothing, so it holds nothing: a
    /// hundred predict → observe pairs on a young shard leave the memo
    /// without a reserved slot.
    #[test]
    fn a_shard_with_no_ensemble_holds_nothing() {
        let mut cfg = quick_config();
        cfg.local.min_train_examples = 1_000;
        let mut s = StagePredictor::new(cfg);
        for i in 0..100 {
            let rows = (i % 37 + 1) as f64 * 1e4;
            s.predict(&plan(rows), &sys());
            s.observe(&plan(rows), &sys(), rows / 1e5);
        }
        assert!(!s.local().is_trained());
        assert_eq!(s.held.capacity(), 0);
    }

    #[test]
    fn snapshot_round_trips_degraded_counters() {
        let mut s = StagePredictor::new(quick_config());
        s.set_component_faults(Arc::new(ScriptedComponentFaults {
            local_down: AtomicU64::new(2),
            ..ScriptedComponentFaults::default()
        }));
        s.predict(&plan(1e5), &sys());
        s.predict(&plan(2e5), &sys());
        assert_eq!(s.degraded_stats().local_failover, 2);
        let restored = StagePredictor::from_snapshot(s.snapshot());
        assert_eq!(restored.degraded_stats(), s.degraded_stats());
        assert_eq!(restored.stats(), s.stats());
    }
}
