//! The exec-time cache (paper §4.2).
//!
//! Keys are the FNV-1a hash of the 33-dim plan feature vector
//! ("Optimization 1" — no element-wise vector comparison); values are a
//! Welford running mean/variance plus the most recent observation
//! ("Optimization 2" — four scalars instead of the full history). The
//! prediction blends robustness and freshness:
//!
//! ```text
//! predict = α · mean + (1 − α) · t_last        (α = 0.8)
//! ```
//!
//! Eviction removes the least-recently-*updated* entry once capacity is
//! exceeded (the paper keeps 2 000 unique queries), found in O(1)
//! amortised from an update-ordered queue rather than by a scan; a cache
//! keeps the queue from its first eviction on. Capacity is that bound and
//! nothing more: the table starts empty and grows with its entries, so a
//! young shard holding two dozen queries costs two dozen entries, not a
//! table sized for 2 000.

use serde::{Deserialize, Serialize, Value};
use stage_metrics::Welford;
use stage_plan::{plan_feature_vector, PhysicalPlan};
use std::collections::{HashMap, VecDeque};

/// How a cached query's history becomes a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CacheMode {
    /// The paper's production heuristic: `α·mean + (1−α)·last`.
    AlphaBlend,
    /// Holt's linear exponential smoothing — the "time series prediction"
    /// direction the paper names as future work (§4.2): tracks a level and
    /// a trend per entry and predicts `level + trend`, following drifting
    /// exec-times (e.g. a growing table) instead of lagging behind them.
    Holt {
        /// Level smoothing factor in `(0, 1]`.
        level_alpha: f64,
        /// Trend smoothing factor in `(0, 1]`.
        trend_beta: f64,
    },
}

/// Cache tuning knobs. Its serde image is part of [`ExecTimeCache`]'s.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Maximum number of unique queries retained (paper: 2 000): an
    /// eviction bound, not a reservation.
    pub capacity: usize,
    /// Mean-vs-last blending factor α (paper: 0.8).
    pub alpha: f64,
    /// Prediction mode (default: the paper's α-blend).
    pub mode: CacheMode,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 2_000,
            alpha: 0.8,
            mode: CacheMode::AlphaBlend,
        }
    }
}

/// One cached query: running stats + most recent exec-time + update seq,
/// plus the Holt level/trend state (unused in α-blend mode).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Entry {
    stats: Welford,
    last_secs: f64,
    last_update: u64,
    holt_level: f64,
    holt_trend: f64,
}

/// The exec-time cache. See the module docs.
///
/// A shard persists its cache as the store's CACHE section; the serde
/// image (every field but the eviction queue) stays because
/// `tests/artifacts.rs` (`persisted_cache_resumes_mid_replay`) checkpoints
/// a bare cache through it mid-replay.
#[derive(Debug, Clone)]
pub struct ExecTimeCache {
    config: CacheConfig,
    entries: HashMap<u64, Entry>,
    /// `(last_update, key)` of every entry, oldest first, among stale
    /// pairs of entries updated since: the first live pair is the eviction
    /// victim. Empty until an eviction needs it, which builds it from
    /// `entries`; every record keeps it from then on. So a cache below its
    /// capacity keeps none, and since it is derived it is neither persisted
    /// nor in the serde image: a restored cache builds it again at its
    /// next eviction.
    order: VecDeque<(u64, u64)>,
    update_seq: u64,
    hits: u64,
    misses: u64,
}

/// The serde image of an [`ExecTimeCache`]: every field but the eviction
/// queue, which a decoded cache rebuilds.
#[derive(Serialize, Deserialize)]
struct CacheImage {
    config: CacheConfig,
    entries: HashMap<u64, Entry>,
    update_seq: u64,
    hits: u64,
    misses: u64,
}

impl Serialize for ExecTimeCache {
    fn to_value(&self) -> Value {
        CacheImage {
            config: self.config,
            entries: self.entries.clone(),
            update_seq: self.update_seq,
            hits: self.hits,
            misses: self.misses,
        }
        .to_value()
    }
}

impl Deserialize for ExecTimeCache {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let image = CacheImage::from_value(v)?;
        if (image.entries.values()).any(|e| e.last_update > image.update_seq) {
            return Err(serde::Error::custom(
                "ExecTimeCache: an entry updated after the cache's last update",
            ));
        }
        Ok(Self {
            config: image.config,
            entries: image.entries,
            order: VecDeque::new(),
            update_seq: image.update_seq,
            hits: image.hits,
            misses: image.misses,
        })
    }
}

impl ExecTimeCache {
    /// Creates a cache.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `alpha ∉ [0, 1]`.
    #[expect(
        clippy::disallowed_macros,
        reason = "constructor precondition: Server::start and the snapshot decoder reject such \
                  configs first (StageConfig::validate)"
    )]
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "alpha must be in [0, 1]"
        );
        if let CacheMode::Holt {
            level_alpha,
            trend_beta,
        } = config.mode
        {
            assert!(
                (0.0..=1.0).contains(&level_alpha) && (0.0..=1.0).contains(&trend_beta),
                "Holt smoothing factors must be in [0, 1]"
            );
        }
        Self {
            config,
            entries: HashMap::new(),
            order: VecDeque::new(),
            update_seq: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Hash key of a plan (the stable hash of its 33-dim vector). Extracts
    /// the feature vector just to hash it — callers that need the features
    /// too (every `StagePredictor` path) extract once and use
    /// [`ExecTimeCache::key_of_features`] instead.
    pub fn key_of(plan: &PhysicalPlan) -> u64 {
        plan_feature_vector(plan).stable_hash()
    }

    /// Hash key of an already-extracted plan feature vector. Identical to
    /// [`ExecTimeCache::key_of`] on the same plan's features; the split lets
    /// the serve path pay feature extraction + hashing exactly once per plan
    /// per request.
    pub fn key_of_features(features: &[f64]) -> u64 {
        stage_plan::stable_hash_slice(features)
    }

    /// What a lookup of a precomputed key ([`ExecTimeCache::key_of`] /
    /// [`ExecTimeCache::key_of_features`]) would answer — the blended
    /// prediction on a hit — counting nothing. The one blend formula.
    pub fn peek(&self, key: u64) -> Option<f64> {
        let e = self.entries.get(&key)?;
        Some(match self.config.mode {
            CacheMode::AlphaBlend => {
                self.config.alpha * e.stats.mean() + (1.0 - self.config.alpha) * e.last_secs
            }
            CacheMode::Holt { .. } => (e.holt_level + e.holt_trend).max(0.0),
        })
    }

    /// [`ExecTimeCache::peek`], counted as a hit or a miss: the one lookup,
    /// which the predict path calls once per plan.
    pub fn lookup(&mut self, key: u64) -> Option<f64> {
        let hit = self.peek(key);
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Records an observed exec-time, inserting or updating the entry and
    /// evicting the least-recently-updated entry when over capacity.
    /// Returns whether `key` was cached before (no counter side effects).
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! expands to assert!; release builds compile the check out"
    )]
    pub fn record(&mut self, key: u64, actual_secs: f64) -> bool {
        self.update_seq += 1;
        let seq = self.update_seq;
        let mode = self.config.mode;
        let was_cached = match self.entries.get_mut(&key) {
            Some(e) => {
                e.stats.push(actual_secs);
                e.last_secs = actual_secs;
                e.last_update = seq;
                if let CacheMode::Holt {
                    level_alpha,
                    trend_beta,
                } = mode
                {
                    let prev_level = e.holt_level;
                    e.holt_level = level_alpha * actual_secs
                        + (1.0 - level_alpha) * (e.holt_level + e.holt_trend);
                    e.holt_trend = trend_beta * (e.holt_level - prev_level)
                        + (1.0 - trend_beta) * e.holt_trend;
                }
                true
            }
            None => {
                self.entries.insert(
                    key,
                    Entry {
                        stats: Welford::with_first(actual_secs),
                        last_secs: actual_secs,
                        last_update: seq,
                        holt_level: actual_secs,
                        holt_trend: 0.0,
                    },
                );
                false
            }
        };
        if !self.order.is_empty() {
            self.order.push_back((seq, key));
            if self.order.len() > 2 * self.entries.len() {
                self.rebuild_order();
            }
        }
        if self.entries.len() > self.config.capacity {
            self.evict_oldest();
        }
        debug_assert!(
            self.entries.len() <= self.config.capacity,
            "cache invariant violated after record: {} entries > capacity {}",
            self.entries.len(),
            self.config.capacity
        );
        was_cached
    }

    /// Number of cached unique queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime hit rate (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Approximate resident size in bytes: every slot the table has
    /// reserved, held or not — a key (8) plus four stat scalars + seq (the
    /// paper's "4 values per hash table entry" plus bookkeeping) and one
    /// control byte — and every slot of the eviction queue.
    pub fn approx_size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * (std::mem::size_of::<(u64, Entry)>() + 1)
            + self.order.capacity() * std::mem::size_of::<(u64, u64)>()
    }

    /// The configuration this cache was built with (store restore needs it
    /// to reassemble the enclosing [`crate::stage::StageConfig`]).
    pub(crate) fn store_config(&self) -> CacheConfig {
        self.config
    }

    /// Encodes the cache into an artefact-store section: config scalars,
    /// lifetime counters, then the entries as structure-of-arrays sorted by
    /// key (the sort makes encoding deterministic across `HashMap`
    /// iteration orders, so an unchanged cache produces a byte-identical
    /// section).
    pub(crate) fn store_encode(&self, w: &mut stage_store::SectionWriter) {
        w.put_u64(self.config.capacity as u64);
        w.put_f64(self.config.alpha);
        match self.config.mode {
            CacheMode::AlphaBlend => {
                w.put_u32(0);
                w.put_f64(0.0);
                w.put_f64(0.0);
            }
            CacheMode::Holt {
                level_alpha,
                trend_beta,
            } => {
                w.put_u32(1);
                w.put_f64(level_alpha);
                w.put_f64(trend_beta);
            }
        }
        w.put_u64(self.update_seq);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        let entry = |k: &u64| self.entries.get(k);
        w.put_u64_slice(&keys);
        w.put_u64_slice(
            &keys
                .iter()
                .filter_map(entry)
                .map(|e| e.stats.count())
                .collect::<Vec<_>>(),
        );
        w.put_f64_slice(
            &keys
                .iter()
                .filter_map(entry)
                .map(|e| e.stats.mean())
                .collect::<Vec<_>>(),
        );
        w.put_f64_slice(
            &keys
                .iter()
                .filter_map(entry)
                .map(|e| e.stats.m2())
                .collect::<Vec<_>>(),
        );
        w.put_f64_slice(
            &keys
                .iter()
                .filter_map(entry)
                .map(|e| e.last_secs)
                .collect::<Vec<_>>(),
        );
        w.put_u64_slice(
            &keys
                .iter()
                .filter_map(entry)
                .map(|e| e.last_update)
                .collect::<Vec<_>>(),
        );
        w.put_f64_slice(
            &keys
                .iter()
                .filter_map(entry)
                .map(|e| e.holt_level)
                .collect::<Vec<_>>(),
        );
        w.put_f64_slice(
            &keys
                .iter()
                .filter_map(entry)
                .map(|e| e.holt_trend)
                .collect::<Vec<_>>(),
        );
    }

    /// Decodes a cache from an artefact-store section. The SoA arrays must
    /// agree on length; the config values are range-checked with the rest
    /// of the snapshot's config ([`crate::StageConfig::validate`]), so the
    /// constructor's assertions never fire on hostile bytes.
    pub(crate) fn store_decode(
        r: &mut stage_store::SectionReader<'_>,
    ) -> Result<Self, stage_store::StoreError> {
        let malformed = |d: &str| stage_store::StoreError::Malformed { detail: d.into() };
        let capacity = usize::try_from(r.u64()?).map_err(|_| malformed("cache capacity"))?;
        let alpha = r.f64()?;
        let mode = match r.u32()? {
            0 => {
                let _ = (r.f64()?, r.f64()?);
                CacheMode::AlphaBlend
            }
            1 => CacheMode::Holt {
                level_alpha: r.f64()?,
                trend_beta: r.f64()?,
            },
            t => return Err(malformed(&format!("unknown cache mode tag {t}"))),
        };
        let update_seq = r.u64()?;
        let hits = r.u64()?;
        let misses = r.u64()?;
        let keys = r.u64_vec()?;
        let counts = r.u64_vec()?;
        let means = r.f64_vec()?;
        let m2s = r.f64_vec()?;
        let lasts = r.f64_vec()?;
        let last_updates = r.u64_vec()?;
        let holt_levels = r.f64_vec()?;
        let holt_trends = r.f64_vec()?;
        let n = keys.len();
        if [
            counts.len(),
            means.len(),
            m2s.len(),
            lasts.len(),
            last_updates.len(),
            holt_levels.len(),
            holt_trends.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err(malformed("cache SoA arrays disagree on length"));
        }
        if n > capacity {
            return Err(malformed("cache holds more entries than its capacity"));
        }
        // Eviction order follows the update sequence, so no entry may have
        // been updated after the cache's last update.
        if last_updates.iter().any(|&seq| seq > update_seq) {
            return Err(malformed(
                "cache entry updated after the cache's last update",
            ));
        }
        let mut entries = HashMap::with_capacity(n);
        for i in 0..n {
            let prev = entries.insert(
                keys[i],
                Entry {
                    stats: Welford::from_parts(counts[i], means[i], m2s[i]),
                    last_secs: lasts[i],
                    last_update: last_updates[i],
                    holt_level: holt_levels[i],
                    holt_trend: holt_trends[i],
                },
            );
            if prev.is_some() {
                return Err(malformed("duplicate cache key"));
            }
        }
        Ok(Self {
            config: CacheConfig {
                capacity,
                alpha,
                mode,
            },
            entries,
            order: VecDeque::new(),
            update_seq,
            hits,
            misses,
        })
    }

    /// Evicts the entry with the smallest `last_update`: the first pair of
    /// `order` that is still an entry's own, skipping (and dropping) the
    /// stale ones before it. Debug builds check the victim against a scan
    /// for the minimum, the rule this replaces.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! expands to assert!; release builds compile the check out"
    )]
    fn evict_oldest(&mut self) {
        if self.order.is_empty() {
            self.rebuild_order();
        }
        let mut victim = None;
        while let Some((seq, key)) = self.order.pop_front() {
            if self.entries.get(&key).is_some_and(|e| e.last_update == seq) {
                victim = self.entries.remove(&key).map(|e| e.last_update);
                break;
            }
        }
        debug_assert!(
            victim.is_some_and(|v| self.entries.values().all(|e| e.last_update >= v)),
            "the evicted entry is not the least recently updated"
        );
    }

    /// Rebuilds `order` from the entries alone: one live pair each, oldest
    /// first. Runs at the first eviction (the first since a restore, too)
    /// and whenever stale pairs pass half of the queue, so it holds at most
    /// twice the entries.
    fn rebuild_order(&mut self) {
        self.order.clear();
        (self.order).extend(self.entries.iter().map(|(&key, e)| (e.last_update, key)));
        self.order.make_contiguous().sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cache(capacity: usize, alpha: f64) -> ExecTimeCache {
        ExecTimeCache::new(CacheConfig {
            capacity,
            alpha,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(10, 0.8);
        assert_eq!(c.lookup(1), None);
        c.record(1, 5.0);
        assert_eq!(c.lookup(1), Some(5.0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn alpha_blend_matches_paper_formula() {
        let mut c = cache(10, 0.8);
        c.record(1, 10.0);
        c.record(1, 20.0);
        c.record(1, 60.0);
        // mean = 30, last = 60 -> 0.8*30 + 0.2*60 = 36
        assert!((c.lookup(1).unwrap() - 36.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_is_pure_freshness() {
        let mut c = cache(10, 0.0);
        c.record(1, 10.0);
        c.record(1, 50.0);
        assert_eq!(c.lookup(1), Some(50.0));
    }

    #[test]
    fn alpha_one_is_pure_mean() {
        let mut c = cache(10, 1.0);
        c.record(1, 10.0);
        c.record(1, 50.0);
        assert_eq!(c.lookup(1), Some(30.0));
    }

    #[test]
    fn eviction_removes_least_recently_updated() {
        let mut c = cache(2, 0.8);
        c.record(1, 1.0);
        c.record(2, 2.0);
        c.record(1, 1.5); // refresh key 1; key 2 is now oldest
        c.record(3, 3.0); // evicts key 2
        assert!(c.peek(1).is_some());
        assert!(c.peek(2).is_none());
        assert!(c.peek(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = cache(5, 0.8);
        for k in 0..100u64 {
            c.record(k, k as f64);
            assert!(c.len() <= 5);
        }
        // The five most recent survive.
        for k in 95..100 {
            assert!(c.peek(k).is_some());
        }
    }

    #[test]
    fn key_of_is_stable_for_identical_plans() {
        use stage_plan::{PlanBuilder, S3Format};
        let build = || {
            PlanBuilder::select()
                .scan("t", S3Format::Local, 1e5, 64.0)
                .hash_aggregate(0.01)
                .finish()
        };
        assert_eq!(
            ExecTimeCache::key_of(&build()),
            ExecTimeCache::key_of(&build())
        );
    }

    #[test]
    fn key_of_features_matches_key_of() {
        use stage_plan::{plan_feature_vector, PlanBuilder, S3Format};
        let plan = PlanBuilder::select()
            .scan("t", S3Format::Local, 1e5, 64.0)
            .hash_aggregate(0.01)
            .finish();
        let features = plan_feature_vector(&plan).0;
        assert_eq!(
            ExecTimeCache::key_of(&plan),
            ExecTimeCache::key_of_features(&features)
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        cache(0, 0.8);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        cache(10, 1.5);
    }

    /// The size follows the table, and the table follows the entries: an
    /// empty cache reserves no slot whatever its capacity, and a filled one
    /// counts every slot it reserved (and, once it evicts, its queue's).
    #[test]
    fn size_accounting_tracks_the_reservation() {
        let mut c = cache(100_000, 0.8);
        let empty = c.approx_size_bytes();
        assert_eq!(empty, std::mem::size_of::<ExecTimeCache>());
        for k in 0..50u64 {
            c.record(k, 1.0);
        }
        let slot = std::mem::size_of::<(u64, Entry)>() + 1;
        assert!(c.entries.capacity() >= 50);
        assert_eq!(c.approx_size_bytes(), empty + c.entries.capacity() * slot);
        assert!(c.approx_size_bytes() < empty + 128 * slot);
        // A cache that has evicted keeps its eviction queue, and counts it.
        let mut full = cache(8, 0.8);
        for k in 0..20u64 {
            full.record(k, 1.0);
        }
        assert!(!full.order.is_empty());
        let queued = full.order.capacity() * std::mem::size_of::<(u64, u64)>();
        let table = full.entries.capacity() * slot;
        assert_eq!(full.approx_size_bytes(), empty + table + queued);
    }

    fn encoded(c: &ExecTimeCache) -> Vec<u8> {
        let mut w = stage_store::SectionWriter::new();
        c.store_encode(&mut w);
        w.finish()
    }

    /// Two caches holding the same entries behind tables of different
    /// growth histories — one grown record by record, one decoded into a
    /// table sized to its entry count, each with its own hash seed — evict
    /// the same key (the minimum `last_update`, never an iteration-order
    /// accident) and encode to the same bytes, step after step.
    #[test]
    fn eviction_and_encoding_ignore_the_tables_growth_history() {
        let mut grown = cache(64, 0.8);
        for k in 0..200u64 {
            grown.record(k % 97, 1.0 + k as f64);
        }
        let bytes = encoded(&grown);
        let mut r = stage_store::SectionReader::new(&bytes);
        let mut decoded = ExecTimeCache::store_decode(&mut r).unwrap();
        for k in 0..300u64 {
            let key = (k * 31) % 151;
            let oldest = |c: &ExecTimeCache| {
                let (&key, _) = c.entries.iter().min_by_key(|(_, e)| e.last_update)?;
                Some(key)
            };
            assert_eq!(oldest(&grown), oldest(&decoded), "step {k}");
            grown.record(key, k as f64);
            decoded.record(key, k as f64);
            assert_eq!(encoded(&grown), encoded(&decoded), "step {k}");
        }
        assert_eq!(grown.len(), 64);
    }

    /// The queue's order is the update order, so both decoders refuse an
    /// entry stamped after the cache's last update.
    #[test]
    fn decoders_refuse_an_entry_updated_after_the_last_update() {
        let mut c = cache(8, 0.8);
        for k in 0..4u64 {
            c.record(k, 1.0);
        }
        c.update_seq = 3;
        let bytes = encoded(&c);
        let mut r = stage_store::SectionReader::new(&bytes);
        assert!(ExecTimeCache::store_decode(&mut r).is_err());
        assert!(ExecTimeCache::from_value(&c.to_value()).is_err());
        c.update_seq = 4;
        assert!(ExecTimeCache::from_value(&c.to_value()).is_ok());
    }

    #[test]
    fn holt_mode_tracks_a_trend() {
        let mut c = ExecTimeCache::new(CacheConfig {
            capacity: 10,
            alpha: 0.8,
            mode: CacheMode::Holt {
                level_alpha: 0.8,
                trend_beta: 0.5,
            },
        });
        // Linearly growing exec-times: Holt should predict ahead of the
        // last observation, the α-blend lags behind it.
        for i in 0..20 {
            c.record(1, 10.0 + i as f64);
        }
        let holt = c.lookup(1).unwrap();
        assert!(holt > 29.0, "Holt should extrapolate the trend: {holt}");

        let mut blend = ExecTimeCache::new(CacheConfig::default());
        for i in 0..20 {
            blend.record(1, 10.0 + i as f64);
        }
        let b = blend.lookup(1).unwrap();
        assert!(b < 25.0, "α-blend lags on trends: {b}");
        assert!(holt > b);
    }

    #[test]
    fn holt_mode_never_negative() {
        let mut c = ExecTimeCache::new(CacheConfig {
            capacity: 10,
            alpha: 0.8,
            mode: CacheMode::Holt {
                level_alpha: 0.9,
                trend_beta: 0.9,
            },
        });
        // Sharply falling series could extrapolate below zero.
        for v in [100.0, 10.0, 1.0, 0.1] {
            c.record(1, v);
        }
        assert!(c.lookup(1).unwrap() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "Holt smoothing")]
    fn holt_rejects_bad_factors() {
        ExecTimeCache::new(CacheConfig {
            capacity: 10,
            alpha: 0.8,
            mode: CacheMode::Holt {
                level_alpha: 1.5,
                trend_beta: 0.5,
            },
        });
    }

    proptest! {
        // Model-based check against a reference implementation of the
        // paper's eviction rule, under arbitrary lookup/record
        // interleavings:
        //   * the cache never exceeds its capacity,
        //   * exactly the least-recently-updated entry is evicted (the
        //     surviving key set equals the reference model's at every step),
        //   * hits + misses equals the number of lookup calls.
        #[test]
        fn prop_capacity_lru_eviction_and_counters(
            ops in proptest::collection::vec(
                (0u64..12, 0.01f64..50.0, proptest::bool::ANY),
                1..400,
            )
        ) {
            const CAP: usize = 4;
            let mut c = cache(CAP, 0.8);
            // Reference model: key -> last-update sequence number. Seqs are
            // unique, so "least recently updated" is unambiguous.
            let mut reference: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            let mut seq = 0u64;
            let mut lookups = 0u64;
            for &(k, v, is_lookup) in &ops {
                if is_lookup {
                    let hit = c.lookup(k).is_some();
                    lookups += 1;
                    prop_assert_eq!(hit, reference.contains_key(&k));
                } else {
                    c.record(k, v);
                    seq += 1;
                    if !reference.contains_key(&k) && reference.len() == CAP {
                        let oldest =
                            *reference.iter().min_by_key(|&(_, &s)| s).unwrap().0;
                        reference.remove(&oldest);
                    }
                    reference.insert(k, seq);
                }
                prop_assert!(c.len() <= CAP);
                prop_assert_eq!(c.len(), reference.len());
            }
            for k in reference.keys() {
                prop_assert!(c.peek(*k).is_some());
            }
            prop_assert_eq!(c.hits() + c.misses(), lookups);
        }

        // Debug-mode hammer for the in-structure `debug_assert!` invariants
        // (len ≤ capacity after every op) under the Holt cache mode, whose
        // update path differs from the α-blend one the other properties
        // cover.
        #[test]
        fn prop_holt_mode_keeps_capacity_and_nonnegative_predictions(
            ops in proptest::collection::vec((0u64..16, 0.01f64..100.0), 1..300)
        ) {
            let mut c = ExecTimeCache::new(CacheConfig {
                capacity: 4,
                alpha: 0.8,
                mode: CacheMode::Holt { level_alpha: 0.7, trend_beta: 0.3 },
            });
            for &(k, v) in &ops {
                c.record(k, v);
                prop_assert!(c.len() <= 4);
                if let Some(p) = c.lookup(k) {
                    prop_assert!(p >= 0.0, "Holt prediction went negative: {p}");
                }
            }
        }

        // The eviction queue evicts the entry the scan for the minimum
        // `last_update` picks, and nothing else, over random records with
        // restores from the store image (which drop the queue, so the next
        // eviction rebuilds it) in between.
        #[test]
        fn prop_the_queue_evicts_what_the_scan_evicts(
            ops in proptest::collection::vec((0u64..24, 0u32..16), 1..400)
        ) {
            const CAP: usize = 6;
            let mut c = cache(CAP, 0.8);
            for &(key, roll) in &ops {
                if roll == 0 {
                    let bytes = encoded(&c);
                    let mut r = stage_store::SectionReader::new(&bytes);
                    c = ExecTimeCache::store_decode(&mut r).unwrap();
                    prop_assert!(c.order.is_empty());
                    continue;
                }
                let scan = (c.peek(key).is_none() && c.len() == CAP)
                    .then(|| c.entries.iter().min_by_key(|(_, e)| e.last_update))
                    .flatten()
                    .map(|(&k, _)| k);
                let mut expected: Vec<u64> = c.entries.keys().copied().collect();
                expected.retain(|&k| Some(k) != scan && k != key);
                expected.push(key);
                expected.sort_unstable();
                c.record(key, 1.0 + roll as f64);
                let mut kept: Vec<u64> = c.entries.keys().copied().collect();
                kept.sort_unstable();
                prop_assert_eq!(kept, expected);
                prop_assert!(c.order.len() <= 2 * c.len());
            }
        }

        #[test]
        fn prop_len_bounded_and_prediction_in_range(
            ops in proptest::collection::vec((0u64..20, 0.01f64..100.0), 1..300)
        ) {
            let mut c = cache(8, 0.8);
            for &(k, v) in &ops {
                c.record(k, v);
                prop_assert!(c.len() <= 8);
            }
            let lo = ops.iter().map(|o| o.1).fold(f64::INFINITY, f64::min);
            let hi = ops.iter().map(|o| o.1).fold(0.0f64, f64::max);
            for k in 0..20u64 {
                if let Some(p) = c.lookup(k) {
                    prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
                }
            }
        }
    }
}
