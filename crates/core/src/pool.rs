//! The local model's training pool (paper §4.3, "Local model training
//! optimization").
//!
//! Naively keeping every executed query would (1) grow unboundedly,
//! (2) fill with repeats the cache already handles, and (3) drown long
//! queries under the short-query flood. The pool therefore:
//!
//! * **bounds** total size by capping each duration bucket and evicting the
//!   oldest entries first;
//! * **deduplicates** — the caller (see `StagePredictor::observe`) only adds
//!   queries that *missed* the exec-time cache;
//! * **stratifies by duration** — separate caps for the 0–10 s, 10–60 s,
//!   and 60 s+ buckets keep long queries represented.
//!
//! Both dedup and bucketing are individually switchable for the paper's
//! ablations.

use stage_gbdt::Dataset;
use std::collections::VecDeque;

/// Bucket edges in seconds (paper's example: 0–10 s, 10–60 s, 60 s+).
pub const BUCKET_EDGES_SECS: [f64; 2] = [10.0, 60.0];

/// Number of duration buckets.
pub const N_BUCKETS: usize = BUCKET_EDGES_SECS.len() + 1;

/// Pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Per-bucket capacity when bucketing is enabled.
    pub bucket_capacity: [usize; N_BUCKETS],
    /// When `false`, all entries share one FIFO of total capacity
    /// `bucket_capacity.sum()` (the "no bucketing" ablation).
    pub bucketing: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            bucket_capacity: [1_200, 500, 300],
            bucketing: true,
        }
    }
}

/// One training example: the 33-dim feature vector and the target in
/// `ln(1+secs)` space.
#[derive(Debug, Clone)]
struct Example {
    features: Vec<f64>,
    log_target: f64,
}

/// The bounded, stratified training pool.
#[derive(Debug, Clone)]
pub struct TrainingPool {
    config: PoolConfig,
    buckets: [VecDeque<Example>; N_BUCKETS],
    total_added: u64,
}

impl TrainingPool {
    /// Creates an empty pool.
    pub fn new(config: PoolConfig) -> Self {
        Self {
            config,
            buckets: Default::default(),
            total_added: 0,
        }
    }

    /// Bucket index of an exec-time.
    fn bucket_of(secs: f64) -> usize {
        BUCKET_EDGES_SECS
            .iter()
            .position(|&edge| secs < edge)
            .unwrap_or(N_BUCKETS - 1)
    }

    /// Adds one executed query. `actual_secs` selects the duration bucket;
    /// the stored target is `ln(1+actual_secs)`. The first example sets the
    /// pool's width, and every later one is held to it as
    /// [`Dataset::push`] holds a row: debug builds assert, release builds
    /// zero-pad or cut, so the next retrain never sees mixed widths.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! expands to assert!; release builds compile the check out"
    )]
    pub fn add(&mut self, mut features: Vec<f64>, actual_secs: f64) {
        if let Some(width) = self.n_cols() {
            debug_assert_eq!(features.len(), width, "feature dimension mismatch");
            features.resize(width, 0.0);
        }
        self.total_added += 1;
        let example = Example {
            features,
            log_target: actual_secs.max(0.0).ln_1p(),
        };
        if self.config.bucketing {
            let b = Self::bucket_of(actual_secs);
            let cap = self.config.bucket_capacity[b].max(1);
            let bucket = &mut self.buckets[b];
            bucket.push_back(example);
            while bucket.len() > cap {
                bucket.pop_front();
            }
        } else {
            let cap: usize = self.config.bucket_capacity.iter().sum::<usize>().max(1);
            let bucket = &mut self.buckets[0];
            bucket.push_back(example);
            while bucket.len() > cap {
                bucket.pop_front();
            }
        }
        self.debug_check_caps();
    }

    /// Debug-build invariant: no bucket ever exceeds its cap (per-bucket
    /// caps when bucketing, the summed cap as one FIFO otherwise).
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! expands to assert!; release builds compile the check out"
    )]
    fn debug_check_caps(&self) {
        if cfg!(debug_assertions) {
            if self.config.bucketing {
                for (b, bucket) in self.buckets.iter().enumerate() {
                    debug_assert!(
                        bucket.len() <= self.config.bucket_capacity[b].max(1),
                        "pool invariant violated: bucket {b} holds {} > cap {}",
                        bucket.len(),
                        self.config.bucket_capacity[b].max(1)
                    );
                }
            } else {
                let cap: usize = self.config.bucket_capacity.iter().sum::<usize>().max(1);
                debug_assert!(
                    self.len() <= cap,
                    "pool invariant violated: {} entries > summed cap {cap}",
                    self.len()
                );
            }
        }
    }

    /// Number of examples currently held.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(VecDeque::len).sum()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime number of `add` calls (including evicted examples).
    pub fn total_added(&self) -> u64 {
        self.total_added
    }

    /// The feature width of the pool's first example, which
    /// [`TrainingPool::to_dataset`] trains on; `None` when empty.
    pub(crate) fn n_cols(&self) -> Option<usize> {
        let first = self.buckets.iter().flatten().next()?;
        Some(first.features.len())
    }

    /// Materializes the pool as a training dataset (targets in log space).
    /// Returns `None` when empty.
    pub fn to_dataset(&self) -> Option<Dataset> {
        let mut ds = Dataset::new(self.n_cols()?);
        for ex in self.buckets.iter().flatten() {
            ds.push(&ex.features, ex.log_target);
        }
        Some(ds)
    }

    /// Encodes the pool into an artefact-store section: config, lifetime
    /// counter, then each bucket's FIFO in order (front to back), so the
    /// restored pool evicts in exactly the same sequence.
    pub(crate) fn store_encode(&self, w: &mut stage_store::SectionWriter) {
        for cap in self.config.bucket_capacity {
            w.put_u64(cap as u64);
        }
        w.put_bool(self.config.bucketing);
        w.put_u64(self.total_added);
        w.put_u64(self.buckets.len() as u64);
        for bucket in &self.buckets {
            w.put_u64(bucket.len() as u64);
            for ex in bucket {
                w.put_f64_slice(&ex.features);
                w.put_f64(ex.log_target);
            }
        }
    }

    /// Decodes a pool from an artefact-store section; structural problems
    /// (wrong bucket count, over-cap buckets, examples of different
    /// widths) are typed errors. Every example a shard adds has its one
    /// input width, so a mixed pool is damage: restored, its next retrain
    /// would train on rows of the first example's width.
    pub(crate) fn store_decode(
        r: &mut stage_store::SectionReader<'_>,
    ) -> Result<Self, stage_store::StoreError> {
        let malformed = |d: String| stage_store::StoreError::Malformed { detail: d };
        let mut bucket_capacity = [0usize; N_BUCKETS];
        for cap in &mut bucket_capacity {
            *cap = usize::try_from(r.u64()?)
                .map_err(|_| malformed("pool bucket cap overflows".into()))?;
        }
        let bucketing = r.bool()?;
        let total_added = r.u64()?;
        let n_buckets = r.u64()?;
        if n_buckets != N_BUCKETS as u64 {
            return Err(malformed(format!(
                "pool has {n_buckets} buckets, expected {N_BUCKETS}"
            )));
        }
        let config = PoolConfig {
            bucket_capacity,
            bucketing,
        };
        // Saturating: caps whose sum overflows decode, and the snapshot's
        // `StageConfig::validate` refuses them.
        let summed_cap = (bucket_capacity.iter())
            .fold(0usize, |sum, &cap| sum.saturating_add(cap))
            .max(1);
        let mut buckets: [VecDeque<Example>; N_BUCKETS] = Default::default();
        let mut width = None;
        for (b, (&bucket_cap, bucket)) in bucket_capacity.iter().zip(&mut buckets).enumerate() {
            let len = usize::try_from(r.u64()?)
                .map_err(|_| malformed("pool bucket length overflows".into()))?;
            let cap = if bucketing {
                bucket_cap.max(1)
            } else {
                summed_cap
            };
            if len > cap {
                return Err(malformed(format!(
                    "pool bucket {b} holds {len} > cap {cap}"
                )));
            }
            // Each example is at least 16 encoded bytes (feature count +
            // target); a hostile length over that bound must not allocate.
            if len.saturating_mul(16) > r.remaining() {
                return Err(malformed(format!(
                    "pool bucket {b} length {len} overruns section"
                )));
            }
            bucket.reserve_exact(len);
            for _ in 0..len {
                let features = r.f64_vec()?;
                if *width.get_or_insert(features.len()) != features.len() {
                    return Err(malformed("pool examples differ in width".into()));
                }
                let log_target = r.f64()?;
                bucket.push_back(Example {
                    features,
                    log_target,
                });
            }
        }
        let pool = Self {
            config,
            buckets,
            total_added,
        };
        pool.debug_check_caps();
        Ok(pool)
    }

    /// Approximate resident size in bytes: what the bucket FIFOs and the
    /// examples' feature vectors have reserved, not only what they hold.
    pub fn approx_size_bytes(&self) -> usize {
        let fifos = (self.buckets.iter())
            .map(|b| b.capacity() * std::mem::size_of::<Example>())
            .sum::<usize>();
        let features = (self.buckets.iter().flatten())
            .map(|e| e.features.capacity() * std::mem::size_of::<f64>())
            .sum::<usize>();
        std::mem::size_of::<Self>() + fifos + features
    }

    /// The configuration this pool was built with (store restore needs it
    /// to reassemble the enclosing [`crate::stage::StageConfig`]).
    pub(crate) fn store_config(&self) -> PoolConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Examples per bucket (all in slot 0 when bucketing is off).
    fn bucket_lens(p: &TrainingPool) -> [usize; N_BUCKETS] {
        p.buckets.each_ref().map(|b| b.len())
    }

    fn feat(x: f64) -> Vec<f64> {
        vec![x, x * 2.0]
    }

    #[test]
    fn bucket_assignment() {
        assert_eq!(TrainingPool::bucket_of(0.5), 0);
        assert_eq!(TrainingPool::bucket_of(9.99), 0);
        assert_eq!(TrainingPool::bucket_of(10.0), 1);
        assert_eq!(TrainingPool::bucket_of(59.9), 1);
        assert_eq!(TrainingPool::bucket_of(60.0), 2);
        assert_eq!(TrainingPool::bucket_of(1e6), 2);
    }

    #[test]
    fn per_bucket_caps_enforced() {
        let cfg = PoolConfig {
            bucket_capacity: [3, 2, 1],
            bucketing: true,
        };
        let mut p = TrainingPool::new(cfg);
        for i in 0..10 {
            p.add(feat(i as f64), 1.0); // bucket 0
            p.add(feat(i as f64), 30.0); // bucket 1
            p.add(feat(i as f64), 300.0); // bucket 2
        }
        assert_eq!(bucket_lens(&p), [3, 2, 1]);
        assert_eq!(p.len(), 6);
        assert_eq!(p.total_added(), 30);
    }

    #[test]
    fn long_queries_survive_short_flood() {
        // The whole point of bucketing: one long query among thousands of
        // short ones must stay in the pool.
        let mut p = TrainingPool::new(PoolConfig::default());
        p.add(feat(1.0), 500.0);
        for i in 0..5_000 {
            p.add(feat(i as f64), 0.05);
        }
        assert_eq!(bucket_lens(&p)[2], 1, "long query was evicted");
    }

    #[test]
    fn no_bucketing_ablation_floods_out_long_queries() {
        let cfg = PoolConfig {
            bucket_capacity: [100, 0, 0],
            bucketing: false,
        };
        let mut p = TrainingPool::new(cfg);
        p.add(feat(1.0), 500.0);
        for i in 0..200 {
            p.add(feat(i as f64), 0.05);
        }
        // FIFO of 100: the long query is gone.
        let ds = p.to_dataset().unwrap();
        let long_target = 500.0f64.ln_1p();
        assert!(ds.targets().iter().all(|&t| (t - long_target).abs() > 1e-9));
        assert_eq!(p.len(), 100);
    }

    #[test]
    fn fifo_evicts_oldest() {
        let cfg = PoolConfig {
            bucket_capacity: [2, 1, 1],
            bucketing: true,
        };
        let mut p = TrainingPool::new(cfg);
        p.add(feat(1.0), 1.0);
        p.add(feat(2.0), 1.0);
        p.add(feat(3.0), 1.0); // evicts feat(1.0)
        let ds = p.to_dataset().unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.row(0)[0], 2.0);
        assert_eq!(ds.row(1)[0], 3.0);
    }

    #[test]
    fn dataset_targets_in_log_space() {
        let mut p = TrainingPool::new(PoolConfig::default());
        p.add(feat(1.0), 9.0);
        let ds = p.to_dataset().unwrap();
        assert!((ds.target(0) - 9.0f64.ln_1p()).abs() < 1e-12);
    }

    #[test]
    fn empty_pool_has_no_dataset() {
        let p = TrainingPool::new(PoolConfig::default());
        assert!(p.to_dataset().is_none());
        assert!(p.is_empty());
        assert!(p.approx_size_bytes() > 0);
    }

    #[test]
    fn negative_times_clamped() {
        let mut p = TrainingPool::new(PoolConfig::default());
        p.add(feat(1.0), -5.0);
        let ds = p.to_dataset().unwrap();
        assert_eq!(ds.target(0), 0.0);
    }

    /// A section whose examples differ in width is refused, in one bucket
    /// or across two; one width restores.
    #[test]
    fn a_mixed_width_section_is_refused() {
        let decode = |p: &TrainingPool| {
            let mut w = stage_store::SectionWriter::new();
            p.store_encode(&mut w);
            let bytes = w.finish();
            TrainingPool::store_decode(&mut stage_store::SectionReader::new(&bytes))
        };
        let mut p = TrainingPool::new(PoolConfig::default());
        p.add(feat(1.0), 1.0);
        p.add(feat(2.0), 30.0);
        assert!(decode(&p).is_ok());
        for b in [0, 1] {
            // `add` holds every example to the pool's width, so only
            // damaged bytes can mix them: plant a narrow example directly.
            let mut mixed = p.clone();
            mixed.buckets[b].push_back(Example {
                features: vec![3.0],
                log_target: 1.0,
            });
            let err = decode(&mixed).unwrap_err();
            assert!(
                matches!(&err, stage_store::StoreError::Malformed { detail } if detail.contains("width")),
                "{err:?}"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Debug-mode hammer for `debug_check_caps`: arbitrary duration
            // mixes (spanning all three buckets) against tiny caps, in both
            // bucketing modes. Every `add` re-checks the invariant
            // internally; the external assertions pin the same bounds.
            #[test]
            fn prop_bucket_caps_hold_under_arbitrary_mixes(
                secs in proptest::collection::vec(0.0f64..300.0, 1..250),
                bucketing in proptest::bool::ANY,
            ) {
                let cfg = PoolConfig {
                    bucket_capacity: [5, 3, 2],
                    bucketing,
                };
                let mut p = TrainingPool::new(cfg);
                for (i, &s) in secs.iter().enumerate() {
                    p.add(vec![i as f64, s], s);
                    if bucketing {
                        let lens = bucket_lens(&p);
                        prop_assert!(lens[0] <= 5 && lens[1] <= 3 && lens[2] <= 2);
                    } else {
                        prop_assert!(p.len() <= 10);
                    }
                }
                prop_assert_eq!(p.total_added(), secs.len() as u64);
            }

            // FIFO-within-bucket: after overflow, the survivors are exactly
            // the most recent `cap` additions to that bucket.
            #[test]
            fn prop_eviction_keeps_newest_per_bucket(
                n in 1usize..60,
            ) {
                let cfg = PoolConfig {
                    bucket_capacity: [4, 1, 1],
                    bucketing: true,
                };
                let mut p = TrainingPool::new(cfg);
                for i in 0..n {
                    p.add(vec![i as f64], 1.0); // all land in bucket 0
                }
                let ds = p.to_dataset().expect("non-empty pool");
                let survivors: Vec<f64> = (0..ds.n_rows()).map(|r| ds.row(r)[0]).collect();
                let expected: Vec<f64> =
                    (n.saturating_sub(4)..n).map(|i| i as f64).collect();
                prop_assert_eq!(survivors, expected);
            }
        }
    }
}
