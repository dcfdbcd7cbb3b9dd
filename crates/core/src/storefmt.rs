//! Snapshot persistence: the one artefact format the system reads or
//! writes.
//!
//! This module lays a [`crate::stage::StageSnapshot`] out in the
//! `stage-store v1` sectioned binary format (`stage-store` crate): one
//! section per predictor component, each independently CRC'd, 8-aligned,
//! little-endian, floats as `to_bits` images. A shard restores by mapping
//! the file and decoding in place, and answers **bit-identically** to a
//! serde round trip of the same snapshot (the reference
//! `tests/store_identity.rs` compares against).
//!
//! Checkpoints come in two flavours:
//! - [`save_stage_store`] — full rewrite through [`crate::persist`]'s
//!   crash-safe temp-file + rename path, with its [`PersistFaults`]
//!   injection points;
//! - [`save_stage_store_dirty`] — section-granular in-place update via
//!   [`stage_store::StoreUpdater`]: unchanged sections are not rewritten,
//!   a byte-identical snapshot writes nothing at all
//!   ([`StoreCheckpoint::Clean`]), and any misfit falls back to a full
//!   rewrite.
//!
//! Restore failures follow `persist`'s quarantine discipline: any damage
//! (bad magic, version skew, truncation, checksum mismatch, malformed
//! section) renames the file to `*.quarantine` and returns a typed
//! [`RestoreError`]. A missing file stays a benign [`RestoreError::Io`]
//! cold start.
//!
//! The module also persists the fleet-shared global model as a one-section
//! store file stamped with a caller-chosen generation
//! ([`save_global_store`]); servers poll [`store_generation`] (a 64-byte
//! header read) to detect hot-swapped artefacts without re-parsing.

use crate::cache::ExecTimeCache;
use crate::drift::DriftSentinel;
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::persist::{self, PersistFaults, RestoreError};
use crate::pool::TrainingPool;
use crate::stage::{DegradedStats, RoutingConfig, RoutingStats, StageConfig, StageSnapshot};
use serde::{Deserialize, Serialize};
use stage_store::{
    build_file, MappedStore, SectionReader, SectionWriter, StoreError, StoreUpdater, StoreView,
    UpdateOutcome, STORE_VERSION,
};
use std::io::{self, Write};
use std::path::Path;

/// Section id: routing policy + feature flags (the `StageConfig` fields not
/// owned by a component section).
pub const SECTION_CONFIG: u32 = 1;
/// Section id: exec-time cache entries (SoA, sorted by key).
pub const SECTION_CACHE: u32 = 2;
/// Section id: training-pool buckets.
pub const SECTION_POOL: u32 = 3;
/// Section id: local model (ensemble members as flat tree arrays).
pub const SECTION_LOCAL: u32 = 4;
/// Section id: routing + degraded counters.
pub const SECTION_STATS: u32 = 5;
/// Section id: drift sentinel + conformal calibration state. Absent in
/// files written before the sentinel existed — restore then cold-starts
/// the calibration.
pub const SECTION_CALIBRATION: u32 = 6;
/// Section id: the fleet-shared global model (a versioned, kind-tagged JSON
/// envelope; lives in its own single-section file, not in snapshot files).
pub const SECTION_GLOBAL: u32 = 16;

/// What a section-granular checkpoint actually wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreCheckpoint {
    /// Every section byte-matched the existing file; nothing was written.
    Clean,
    /// Only the changed sections were rewritten in place.
    Sections {
        /// How many of the file's sections were dirty.
        dirty: usize,
    },
    /// The whole file was (re)written: first checkpoint, a section outgrew
    /// its reserved capacity, or the existing file was unusable.
    Full,
}

fn store_to_restore(e: StoreError) -> RestoreError {
    let clamp = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
    match e {
        StoreError::Io(e) => RestoreError::Io(e),
        StoreError::BadMagic => RestoreError::MissingHeader,
        StoreError::UnsupportedVersion { found } => RestoreError::UnsupportedVersion {
            found,
            supported: STORE_VERSION,
        },
        StoreError::Truncated { expected, actual } => RestoreError::Truncated {
            expected: clamp(expected),
            actual: clamp(actual),
        },
        StoreError::ChecksumMismatch {
            expected, actual, ..
        } => RestoreError::ChecksumMismatch { expected, actual },
        StoreError::Malformed { detail } => RestoreError::Malformed { detail },
    }
}

fn missing_section(id: u32) -> StoreError {
    StoreError::Malformed {
        detail: format!("store file has no section {id}"),
    }
}

/// Encodes a snapshot as the store's section list, in table order. The
/// encoding is deterministic (cache entries sorted by key), so an
/// unchanged snapshot produces byte-identical sections and
/// [`save_stage_store_dirty`] recognises it as [`StoreCheckpoint::Clean`].
pub fn snapshot_sections(snap: &StageSnapshot) -> Vec<(u32, Vec<u8>)> {
    let mut config = SectionWriter::new();
    config.put_f64(snap.config.routing.short_circuit_secs);
    config.put_f64(snap.config.routing.confident_log_std);
    config.put_bool(snap.config.routing.dedup_via_cache);
    config.put_bool(snap.config.env_features);

    let mut cache = SectionWriter::new();
    snap.cache.store_encode(&mut cache);
    let mut pool = SectionWriter::new();
    snap.pool.store_encode(&mut pool);
    let mut local = SectionWriter::new();
    snap.local.store_encode(&mut local);

    let mut stats = SectionWriter::new();
    stats.put_u64(snap.stats.cache);
    stats.put_u64(snap.stats.local);
    stats.put_u64(snap.stats.global);
    stats.put_u64(snap.stats.default);
    stats.put_u64(snap.degraded.global_failover);
    stats.put_u64(snap.degraded.local_failover);
    stats.put_u64(snap.degraded.retrains_poisoned);
    stats.put_u64(snap.degraded.retrains_slowed);

    let mut calibration = SectionWriter::new();
    snap.calibration.store_encode(&mut calibration);

    vec![
        (SECTION_CONFIG, config.finish()),
        (SECTION_CACHE, cache.finish()),
        (SECTION_POOL, pool.finish()),
        (SECTION_LOCAL, local.finish()),
        (SECTION_STATS, stats.finish()),
        (SECTION_CALIBRATION, calibration.finish()),
    ]
}

fn decode_snapshot<'a>(
    section: impl Fn(u32) -> Option<&'a [u8]>,
) -> Result<StageSnapshot, StoreError> {
    let need = |id: u32| section(id).ok_or_else(|| missing_section(id));

    let mut r = SectionReader::new(need(SECTION_CONFIG)?);
    let routing = RoutingConfig {
        short_circuit_secs: r.f64()?,
        confident_log_std: r.f64()?,
        dedup_via_cache: r.bool()?,
    };
    let env_features = r.bool()?;
    r.expect_end()?;

    let mut r = SectionReader::new(need(SECTION_CACHE)?);
    let cache = ExecTimeCache::store_decode(&mut r)?;
    r.expect_end()?;

    let mut r = SectionReader::new(need(SECTION_POOL)?);
    let pool = TrainingPool::store_decode(&mut r)?;
    r.expect_end()?;

    let mut r = SectionReader::new(need(SECTION_LOCAL)?);
    let local = LocalModel::store_decode(&mut r)?;
    r.expect_end()?;

    let mut r = SectionReader::new(need(SECTION_STATS)?);
    let stats = RoutingStats {
        cache: r.u64()?,
        local: r.u64()?,
        global: r.u64()?,
        default: r.u64()?,
    };
    let degraded = DegradedStats {
        global_failover: r.u64()?,
        local_failover: r.u64()?,
        retrains_poisoned: r.u64()?,
        retrains_slowed: r.u64()?,
    };
    r.expect_end()?;

    // CALIBRATION is optional: pre-drift files simply lack the section and
    // restore a cold sentinel. When present, any damage is a hard decode
    // error (quarantine), not a silent cold start.
    let calibration = match section(SECTION_CALIBRATION) {
        Some(bytes) => {
            let mut r = SectionReader::new(bytes);
            let c = DriftSentinel::store_decode(&mut r)?;
            r.expect_end()?;
            c
        }
        None => DriftSentinel::default(),
    };

    let config = StageConfig {
        cache: cache.store_config(),
        pool: pool.store_config(),
        local: local.store_config(),
        routing,
        env_features,
    };
    Ok(StageSnapshot {
        config,
        cache,
        pool,
        local,
        stats,
        degraded,
        calibration,
    })
}

/// The next generation stamp for a rewrite of `path`: one past the current
/// file's, or zero for a fresh file.
fn next_generation(path: &Path) -> u64 {
    stage_store::read_generation(path)
        .map(|g| g.wrapping_add(1))
        .unwrap_or(0)
}

/// Writes a snapshot to `path` in store format, crash-safely (temp file +
/// fsync + atomic rename). The optional fault hook sees the fully built
/// file image, so injected truncation or bit damage lands on disk with
/// mismatching section CRCs — which restore must catch.
pub fn save_stage_store(
    snap: &StageSnapshot,
    path: &Path,
    faults: Option<&dyn PersistFaults>,
) -> io::Result<()> {
    let mut bytes = build_file(&snapshot_sections(snap), next_generation(path));
    if let Some(f) = faults {
        f.before_write(path, &mut bytes)?;
    }
    persist::atomic_write(path, |out| out.write_all(&bytes), faults)
}

/// Section-granular checkpoint: rewrites only the sections whose bytes
/// changed since the file was written (in place, two-phase, torn updates
/// always detectable), writes nothing when the snapshot is byte-identical,
/// and falls back to a full [`save_stage_store`]-style rewrite when the
/// file is missing, damaged, or a section outgrew its reserved capacity.
pub fn save_stage_store_dirty(snap: &StageSnapshot, path: &Path) -> io::Result<StoreCheckpoint> {
    let sections = snapshot_sections(snap);
    if path.exists() {
        if let Ok(mut updater) = StoreUpdater::open(path) {
            match updater.try_update(&sections) {
                Ok(UpdateOutcome::Clean) => return Ok(StoreCheckpoint::Clean),
                Ok(UpdateOutcome::Updated { dirty }) => {
                    return Ok(StoreCheckpoint::Sections { dirty })
                }
                // A misfit or an unusable file: fall through to the full
                // rewrite below.
                Ok(UpdateOutcome::NeedsRewrite) | Err(_) => {}
            }
        }
    }
    let bytes = build_file(&sections, next_generation(path));
    persist::atomic_write(path, |out| out.write_all(&bytes), None)?;
    Ok(StoreCheckpoint::Full)
}

fn load_snapshot_inner(
    path: &Path,
    faults: Option<&dyn PersistFaults>,
) -> Result<StageSnapshot, RestoreError> {
    match faults {
        // The chaos path reads into a heap buffer so the injected read-side
        // damage mutates a copy, then decodes from the buffer.
        Some(f) => {
            let mut bytes = std::fs::read(path)?;
            f.after_read(path, &mut bytes);
            let view = StoreView::parse(&bytes).map_err(store_to_restore)?;
            decode_snapshot(|id| view.section(id)).map_err(store_to_restore)
        }
        // The production path maps the file and decodes in place.
        None => {
            let store = MappedStore::open(path).map_err(store_to_restore)?;
            decode_snapshot(|id| store.section(id)).map_err(store_to_restore)
        }
    }
}

/// Restores a snapshot from a store file. Missing files are a benign
/// [`RestoreError::Io`] cold start; any damage quarantines the file
/// (renamed to `*.quarantine`) before the typed error returns, so a warm
/// restart comes up cold on that shard instead of crashing — and the
/// damaged bytes are preserved for forensics rather than re-tripping every
/// restart.
pub fn load_stage_store(
    path: &Path,
    faults: Option<&dyn PersistFaults>,
) -> Result<StageSnapshot, RestoreError> {
    let result = load_snapshot_inner(path, faults);
    if matches!(&result, Err(e) if !matches!(e, RestoreError::Io(_))) {
        let _ = persist::quarantine(path);
    }
    result
}

/// Payload version of [`SECTION_GLOBAL`]; bump on breaking model-layout
/// changes so stale artefacts fail loudly instead of predicting garbage.
const GLOBAL_PAYLOAD_VERSION: u32 = 2;
/// Payload kind tag of [`SECTION_GLOBAL`].
const GLOBAL_PAYLOAD_KIND: &str = "stage-global-model";

/// The [`SECTION_GLOBAL`] payload: the model's serde image behind a version
/// and kind tag.
#[derive(Serialize, Deserialize)]
struct GlobalEnvelope<T> {
    version: u32,
    kind: String,
    payload: T,
}

fn encode_global(model: &GlobalModel) -> io::Result<Vec<u8>> {
    let env = GlobalEnvelope {
        version: GLOBAL_PAYLOAD_VERSION,
        kind: GLOBAL_PAYLOAD_KIND.to_string(),
        payload: model,
    };
    serde_json::to_string(&env)
        .map(String::into_bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn decode_global(bytes: &[u8]) -> Result<GlobalModel, RestoreError> {
    let malformed = |detail: String| RestoreError::Malformed { detail };
    let env: GlobalEnvelope<GlobalModel> =
        serde_json::from_reader(bytes).map_err(|e| malformed(e.to_string()))?;
    if env.version != GLOBAL_PAYLOAD_VERSION {
        return Err(malformed(format!(
            "artefact version {} != supported {GLOBAL_PAYLOAD_VERSION}",
            env.version
        )));
    }
    if env.kind != GLOBAL_PAYLOAD_KIND {
        return Err(malformed(format!(
            "artefact kind {:?} != expected {GLOBAL_PAYLOAD_KIND:?}",
            env.kind
        )));
    }
    Ok(env.payload)
}

/// Writes the fleet-shared global model as a one-section store file: its
/// JSON envelope under [`SECTION_GLOBAL`], header stamped with the caller's
/// `generation` (the registry-entry number servers poll to detect a
/// hot-swapped artefact).
pub fn save_global_store(
    model: &GlobalModel,
    path: &Path,
    generation: u64,
    faults: Option<&dyn PersistFaults>,
) -> io::Result<()> {
    let payload = encode_global(model)?;
    let mut w = SectionWriter::new();
    w.put_bytes(&payload);
    let mut bytes = build_file(&[(SECTION_GLOBAL, w.finish())], generation);
    if let Some(f) = faults {
        f.before_write(path, &mut bytes)?;
    }
    persist::atomic_write(path, |out| out.write_all(&bytes), faults)
}

fn load_global_inner(
    path: &Path,
    faults: Option<&dyn PersistFaults>,
) -> Result<(GlobalModel, u64), RestoreError> {
    let decode = |view_section: Option<&[u8]>, generation: u64| {
        let bytes =
            view_section.ok_or_else(|| store_to_restore(missing_section(SECTION_GLOBAL)))?;
        let mut r = SectionReader::new(bytes);
        let payload = r.bytes().map_err(store_to_restore)?;
        r.expect_end().map_err(store_to_restore)?;
        Ok((decode_global(payload)?, generation))
    };
    match faults {
        Some(f) => {
            let mut bytes = std::fs::read(path)?;
            f.after_read(path, &mut bytes);
            let view = StoreView::parse(&bytes).map_err(store_to_restore)?;
            decode(view.section(SECTION_GLOBAL), view.generation())
        }
        None => {
            let store = MappedStore::open(path).map_err(store_to_restore)?;
            decode(store.section(SECTION_GLOBAL), store.generation())
        }
    }
}

/// Loads a global model (and its generation stamp) from a store file
/// written by [`save_global_store`]. Same quarantine semantics as
/// [`load_stage_store`].
pub fn load_global_store(
    path: &Path,
    faults: Option<&dyn PersistFaults>,
) -> Result<(GlobalModel, u64), RestoreError> {
    let result = load_global_inner(path, faults);
    if matches!(&result, Err(e) if !matches!(e, RestoreError::Io(_))) {
        let _ = persist::quarantine(path);
    }
    result
}

/// The generation stamp of a store file, read from its 64-byte header
/// without touching the payload — the cheap poll servers use to notice a
/// hot-swapped global model.
pub fn store_generation(path: &Path) -> Result<u64, RestoreError> {
    stage_store::read_generation(path).map_err(store_to_restore)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{plan_to_tree_sample, GlobalModelConfig};
    use crate::predictor::SystemContext;
    use stage_plan::{PlanBuilder, S3Format};

    /// The global payload's version and kind tags are checked on restore:
    /// a stale or foreign payload behind valid section CRCs is a typed
    /// `Malformed`, never a model that predicts garbage.
    #[test]
    fn global_payload_of_wrong_version_or_kind_is_malformed() {
        let sys = SystemContext::empty(2);
        let samples: Vec<_> = (1..=25)
            .map(|i| {
                let plan = PlanBuilder::select()
                    .scan("t", S3Format::Local, i as f64 * 1e4, 64.0)
                    .hash_aggregate(0.01)
                    .finish();
                plan_to_tree_sample(&plan, &sys, i as f64 * 0.2)
            })
            .collect();
        let cfg = GlobalModelConfig {
            hidden: 8,
            gcn_layers: 1,
            epochs: 3,
            ..GlobalModelConfig::default()
        };
        let model = GlobalModel::train(&samples, 2, &cfg);
        let text = String::from_utf8(encode_global(&model).unwrap()).unwrap();
        assert!(decode_global(text.as_bytes()).is_ok());

        let version = format!("\"version\":{GLOBAL_PAYLOAD_VERSION}");
        let kind = format!("\"kind\":\"{GLOBAL_PAYLOAD_KIND}\"");
        assert!(text.contains(&version) && text.contains(&kind));
        for damaged in [
            text.replacen(&version, "\"version\":999", 1),
            text.replacen(&kind, "\"kind\":\"stage-local-model\"", 1),
        ] {
            let err = decode_global(damaged.as_bytes()).unwrap_err();
            assert!(matches!(err, RestoreError::Malformed { .. }), "{err}");
        }
    }
}
