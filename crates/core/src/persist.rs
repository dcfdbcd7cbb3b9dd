//! Artefact persistence: the I/O discipline under every checkpoint.
//!
//! Redshift trains the global model offline on a fleet sweep and ships the
//! trained artefact to instances (eventually as a shared service, Fig. 9
//! discussion); local models are checkpointed so instance restarts don't
//! cold-start. Every artefact is a `stage-store` file laid out by
//! [`crate::storefmt`]; this module holds what that path needs from the
//! filesystem and nothing about the format itself:
//!
//! - `write_image` — the one write: temp file + fsync + `rename`, so a kill
//!   at any instant leaves the old artefact or the new one, never a hybrid;
//! - `read_image` — the one read: a size bound checked before a byte is
//!   read, then the decode; a file that fails to decode is renamed to
//!   `<name>.quarantine` so the next restore doesn't trip over it again
//!   and the bytes survive for forensics;
//! - [`RestoreError`] — the typed reasons a restore can fail (the store
//!   format's own error, re-exported), so disk rot, truncation, and stale
//!   formats fail loudly instead of predicting garbage;
//! - [`PersistFaults`] — the hook through which the chaos layer injects
//!   partial writes, fsync failures, and read-side bit flips without this
//!   module knowing anything about fault schedules. Both of its call sites
//!   are the two functions above.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hooks through which I/O faults are injected into the file persistence
/// path (the chaos layer implements this; production passes `None`). Every
/// method defaults to a no-op.
pub trait PersistFaults: Send + Sync {
    /// Called with the complete file image before it is written; may mutate
    /// it (truncation = a partial write that still renamed into place) or
    /// fail the write outright.
    fn before_write(&self, path: &Path, bytes: &mut Vec<u8>) -> io::Result<()> {
        let _ = (path, bytes);
        Ok(())
    }

    /// The outcome of the fsync barrier (an `Err` models a failed fsync:
    /// the write aborts before the atomic rename).
    fn on_fsync(&self, path: &Path) -> io::Result<()> {
        let _ = path;
        Ok(())
    }

    /// Called with the raw bytes just read on restore; may mutate them
    /// (bit rot between checkpoint and restart).
    fn after_read(&self, path: &Path, bytes: &mut Vec<u8>) {
        let _ = (path, bytes);
    }
}

/// Why a file restore failed: the store format's own error type, under
/// the name the serving layer uses. Everything except
/// [`RestoreError::Io`] means the file existed but its contents cannot be
/// trusted; those files are renamed to `*.quarantine` before the error is
/// returned, and its `Display` names the damaged section.
pub use stage_store::StoreError as RestoreError;

/// CRC32 (IEEE 802.3 polynomial, the zlib/PNG variant). The implementation
/// lives in `stage-store` (slice-by-8, shared with the artefact store's
/// section checksums, known vectors pinned there); the wire protocol keeps
/// importing it through this path.
pub use stage_store::crc32;

/// Monotonic counter distinguishing temp files written by one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The temporary path a crash-safe write of `path` stages into: same
/// directory (so the final `rename` cannot cross filesystems), name
/// extended with process id and a per-process sequence number (so
/// concurrent checkpointers never collide).
fn tmp_sibling(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{}.tmp", std::process::id(), seq));
    path.with_file_name(name)
}

/// Largest file restore will read into memory. The read allocates
/// whatever length the directory entry claims, so the claim is bounded
/// first; the largest artefact any workload writes is ≈ 2.5 MB.
const MAX_STORE_BYTES: u64 = 1 << 30;

/// Crash-safe write of a whole file image: writes a temp file in the target
/// directory, fsyncs, then atomically `rename`s into place. A kill at any
/// instant leaves either the old artefact or the new one at `path` — never
/// a truncated hybrid (the failure mode of writing in place). The fault
/// hook sees the finished image first, so injected truncation or bit
/// damage lands on disk behind mismatching section CRCs; an injected
/// fsync failure aborts before the rename, exactly like a real one.
pub(crate) fn write_image(
    path: &Path,
    mut bytes: Vec<u8>,
    faults: Option<&dyn PersistFaults>,
) -> io::Result<()> {
    if let Some(f) = faults {
        f.before_write(path, &mut bytes)?;
    }
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut out = std::fs::File::create(&tmp)?;
        out.write_all(&bytes)?;
        if let Some(f) = faults {
            f.on_fsync(path)?;
        }
        out.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original artefact at `path` is intact.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads a whole file, refusing one over [`MAX_STORE_BYTES`] before
/// reading a byte of it, and decodes it. The fault hook sees (and may
/// damage) the bytes exactly where disk rot would. Anything but an I/O
/// error means the file exists and cannot be trusted: it is renamed to
/// `<name>.quarantine` (best effort) before the typed error returns.
pub(crate) fn read_image<T>(
    path: &Path,
    faults: Option<&dyn PersistFaults>,
    decode: impl FnOnce(&[u8]) -> Result<T, RestoreError>,
) -> Result<T, RestoreError> {
    let read = || {
        let len = std::fs::metadata(path)?.len();
        if len > MAX_STORE_BYTES {
            return Err(RestoreError::Malformed {
                detail: format!(
                    "store file of {len} bytes exceeds the {MAX_STORE_BYTES}-byte bound"
                ),
            });
        }
        let mut bytes = std::fs::read(path)?;
        if let Some(f) = faults {
            f.after_read(path, &mut bytes);
        }
        Ok(bytes)
    };
    let result = read().and_then(|bytes| decode(&bytes));
    if matches!(&result, Err(e) if !matches!(e, RestoreError::Io(_))) {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".quarantine");
        let _ = std::fs::rename(path, path.with_file_name(name));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{ExecTimePredictor, SystemContext};
    use crate::stage::{StageConfig, StagePredictor, StageSnapshot};
    use crate::storefmt::{load_stage_store, save_stage_store, snapshot_sections};
    use stage_plan::{PlanBuilder, S3Format};

    /// A snapshot whose cache holds exactly `n` entries — the marker the
    /// tests below use to tell one artefact generation from another.
    fn snapshot_with(n: usize) -> StageSnapshot {
        let mut s = StagePredictor::new(StageConfig::default());
        let sys = SystemContext::empty(2);
        for i in 1..=n {
            let q = PlanBuilder::select()
                .scan("t", S3Format::Local, i as f64 * 1e4, 64.0)
                .hash_aggregate(0.01)
                .finish();
            s.observe(&q, &sys, i as f64 * 0.5);
        }
        s.snapshot()
    }

    fn cached(path: &Path) -> usize {
        load_stage_store(path, None).unwrap().cache.len()
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stage-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quarantine_path(path: &Path) -> PathBuf {
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(".quarantine");
        path.with_file_name(name)
    }

    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().ends_with(".tmp"))
            .collect()
    }

    #[test]
    fn save_file_is_atomic_under_simulated_crash() {
        let dir = fresh_dir("atomic");
        let path = dir.join("snapshot.store");

        // A valid artefact exists.
        save_stage_store(&snapshot_with(1), &path, None).unwrap();

        // A checkpoint killed mid-write leaves only a partial *temp* file
        // (this is exactly the on-disk state after a kill -9: `rename`
        // never ran). The artefact itself must stay loadable.
        let tmp = tmp_sibling(&path);
        std::fs::write(&tmp, &stage_store::MAGIC[..5]).unwrap();
        assert_eq!(cached(&path), 1);

        // A completed save over the existing artefact replaces it whole.
        save_stage_store(&snapshot_with(2), &path, None).unwrap();
        assert_eq!(cached(&path), 2);

        // Successful saves leave no temp droppings behind.
        assert_eq!(tmp_files(&dir), vec![tmp], "stray temp files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scripted fault hook for exercising the injection points directly.
    #[derive(Default)]
    struct ScriptedFaults {
        truncate_to: Option<usize>,
        fail_write: bool,
        fail_fsync: bool,
        flip_read_bit_at: Option<usize>,
    }

    impl PersistFaults for ScriptedFaults {
        fn before_write(&self, _path: &Path, bytes: &mut Vec<u8>) -> io::Result<()> {
            if self.fail_write {
                return Err(io::Error::other("scripted write failure"));
            }
            if let Some(n) = self.truncate_to {
                bytes.truncate(n);
            }
            Ok(())
        }

        fn on_fsync(&self, _path: &Path) -> io::Result<()> {
            if self.fail_fsync {
                return Err(io::Error::other("scripted fsync failure"));
            }
            Ok(())
        }

        fn after_read(&self, _path: &Path, bytes: &mut Vec<u8>) {
            if let Some(byte) = self.flip_read_bit_at.and_then(|at| bytes.get_mut(at)) {
                *byte ^= 0x01;
            }
        }
    }

    #[test]
    fn injected_partial_write_is_caught_on_restore() {
        let dir = fresh_dir("hook-partial");
        let path = dir.join("snapshot.store");
        let faults = ScriptedFaults {
            truncate_to: Some(200),
            ..ScriptedFaults::default()
        };
        // The save "succeeds" (the bytes hit disk and renamed into place)
        // but the image is short — restore must refuse it.
        save_stage_store(&snapshot_with(1), &path, Some(&faults)).unwrap();
        let err = load_stage_store(&path, None).unwrap_err();
        assert!(matches!(err, RestoreError::Truncated { .. }), "{err}");
        assert!(!path.exists(), "damaged file must be moved aside");
        assert!(quarantine_path(&path).exists(), "quarantine file missing");
        // The quarantined slot is now a benign cold start.
        assert!(load_stage_store(&path, None).unwrap_err().is_not_found());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_and_fsync_failures_preserve_old_artefact() {
        let dir = fresh_dir("hook-fsync");
        let path = dir.join("snapshot.store");
        save_stage_store(&snapshot_with(1), &path, None).unwrap();
        for faults in [
            ScriptedFaults {
                fail_write: true,
                ..ScriptedFaults::default()
            },
            ScriptedFaults {
                fail_fsync: true,
                ..ScriptedFaults::default()
            },
        ] {
            assert!(save_stage_store(&snapshot_with(2), &path, Some(&faults)).is_err());
            // The original artefact is intact and loadable.
            assert_eq!(cached(&path), 1);
            assert!(tmp_files(&dir).is_empty(), "temp file left behind");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_bit_flip_is_checksum_mismatch() {
        let dir = fresh_dir("hook-read");
        let path = dir.join("snapshot.store");
        let snap = snapshot_with(1);
        save_stage_store(&snap, &path, None).unwrap();
        // First payload byte of the first section: past the header and the
        // section table, so only that section's CRC can object.
        let first_payload_byte =
            stage_store::HEADER_LEN + snapshot_sections(&snap).len() * stage_store::ENTRY_LEN;
        let faults = ScriptedFaults {
            flip_read_bit_at: Some(first_payload_byte),
            ..ScriptedFaults::default()
        };
        let err = load_stage_store(&path, Some(&faults)).unwrap_err();
        // The error, and so the operator's quarantine message, names the
        // damaged section.
        let section = Some(crate::storefmt::SECTION_CONFIG);
        assert!(
            matches!(err, RestoreError::ChecksumMismatch { section: s, .. } if s == section),
            "{err}"
        );
        assert!(err.to_string().starts_with("section 1 checksum"), "{err}");
        assert!(quarantine_path(&path).exists(), "quarantine file missing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
