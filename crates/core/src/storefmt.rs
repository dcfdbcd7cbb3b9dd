//! Snapshot persistence: the one artefact format the system reads or
//! writes.
//!
//! This module lays a [`crate::stage::StageSnapshot`] out in the
//! `stage-store v1` sectioned binary format (`stage-store` crate): one
//! section per predictor component, each independently CRC'd, 8-aligned,
//! little-endian, floats as `to_bits` images. A shard restores by reading
//! the file, validating every byte of it and decoding the sections, and
//! answers **bit-identically** to a serde round trip of the same snapshot
//! (the reference `tests/store_identity.rs` compares against).
//!
//! There is one way to write an artefact and one way to read it, with or
//! without a [`PersistFaults`] hook installed: [`save_stage_store`] builds
//! the whole image and hands it to [`crate::persist`]'s crash-safe
//! temp-file + fsync + rename, so a kill at any instant leaves the old
//! artefact or the new one; [`load_stage_store`] reads the whole file
//! (refusing one over 1 GiB before it reads a byte) and parses it.
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

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::cache::ExecTimeCache;
use crate::drift::DriftSentinel;
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::persist::{self, PersistFaults, RestoreError};
use crate::pool::TrainingPool;
use crate::stage::{DegradedStats, RoutingConfig, RoutingStats, StageConfig, StageSnapshot};
use serde::{Deserialize, Serialize};
use stage_store::{build_file, SectionReader, SectionWriter, StoreView};
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

/// Largest file restore will read into memory. The read allocates
/// whatever length the directory entry claims, so the claim is bounded
/// first; the largest artefact any workload writes is ≈ 2.5 MB.
const MAX_STORE_BYTES: u64 = 1 << 30;

fn missing_section(id: u32) -> RestoreError {
    RestoreError::Malformed {
        detail: format!("store file has no section {id}"),
    }
}

/// Encodes a snapshot as the store's section list, in table order. The
/// encoding is deterministic (cache entries sorted by key), so an
/// unchanged snapshot produces byte-identical sections.
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

fn decode_snapshot(view: &StoreView<'_>) -> Result<StageSnapshot, RestoreError> {
    let need = |id: u32| view.section(id).ok_or_else(|| missing_section(id));

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
    let calibration = match view.section(SECTION_CALIBRATION) {
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
    config
        .validate()
        .map_err(|detail| RestoreError::Malformed { detail })?;
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

/// Reads a whole store file, refusing one larger than
/// [`MAX_STORE_BYTES`] before reading a byte of it. An installed fault
/// hook sees (and may damage) the bytes exactly where disk rot would.
fn read_image(path: &Path, faults: Option<&dyn PersistFaults>) -> Result<Vec<u8>, RestoreError> {
    let len = std::fs::metadata(path)?.len();
    if len > MAX_STORE_BYTES {
        return Err(RestoreError::Malformed {
            detail: format!("store file of {len} bytes exceeds the {MAX_STORE_BYTES}-byte bound"),
        });
    }
    let mut bytes = std::fs::read(path)?;
    if let Some(f) = faults {
        f.after_read(path, &mut bytes);
    }
    Ok(bytes)
}

/// Reads, validates and decodes a store file. Anything but an I/O error
/// means the file exists and cannot be trusted: it is quarantined before
/// the typed error returns.
fn load_store<T>(
    path: &Path,
    faults: Option<&dyn PersistFaults>,
    decode: impl FnOnce(&StoreView<'_>) -> Result<T, RestoreError>,
) -> Result<T, RestoreError> {
    let result = read_image(path, faults).and_then(|bytes| decode(&StoreView::parse(&bytes)?));
    if matches!(&result, Err(e) if !matches!(e, RestoreError::Io(_))) {
        let _ = persist::quarantine(path);
    }
    result
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
    load_store(path, faults, decode_snapshot)
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
    // The payload's structure is a claim too: a parameter id, a shape or
    // a width that lies would panic or size a buffer at the first Predict.
    env.payload
        .validate()
        .map_err(|e| malformed(format!("global model: {e}")))?;
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

/// Loads a global model (and its generation stamp) from a store file
/// written by [`save_global_store`]. Same quarantine semantics as
/// [`load_stage_store`].
pub fn load_global_store(
    path: &Path,
    faults: Option<&dyn PersistFaults>,
) -> Result<(GlobalModel, u64), RestoreError> {
    load_store(path, faults, |view| {
        let section = view
            .section(SECTION_GLOBAL)
            .ok_or_else(|| missing_section(SECTION_GLOBAL))?;
        let mut r = SectionReader::new(section);
        let payload = r.bytes()?;
        r.expect_end()?;
        Ok((decode_global(payload)?, view.generation()))
    })
}

/// The generation stamp of a store file, read from its 64-byte header
/// without touching the payload — the cheap poll servers use to notice a
/// hot-swapped global model.
pub fn store_generation(path: &Path) -> Result<u64, RestoreError> {
    stage_store::read_generation(path)
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
