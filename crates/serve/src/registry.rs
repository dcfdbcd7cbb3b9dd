//! The shard registry: one warm [`StagePredictor`] per simulated instance,
//! each behind its own shard lock so instances never contend with each
//! other — the serving-layer analogue of the shard-parallel replay engine's
//! "an instance owns its predictors" invariant.
//!
//! The shard *table* is fixed by [`ShardRegistry::new`] and never changes
//! afterwards (the set of instances a process serves is decided when it
//! starts), so it is shared without a lock: nothing can mutate it through
//! `&self`. Each shard sits behind its own `RwLock`, the only lock a
//! Predict / PredictBatch / Observe takes. Shards are peers: no code path
//! holds two of them at once, so there is no lock order to keep.
//! Nothing else touches a shard's model (no background pass retrains), so
//! an in-process [`StagePredictor`] fed the same verbs answers bit for bit
//! what the served shard answers.

use stage_core::global::GlobalModel;
use stage_core::persist::{PersistFaults, RestoreError};
use stage_core::storefmt;
use stage_core::{
    ComponentFaults, ExecTimePredictor, Prediction, StageConfig, StagePredictor, SystemContext,
};
use stage_plan::PhysicalPlan;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One instance's serving state: the predictor plus ingestion counters the
/// bare predictor doesn't track.
pub struct Shard {
    predictor: StagePredictor,
    observes: u64,
    predict_batches: u64,
    timed_out: u64,
    /// Content revision: bumped by every verb that mutates snapshot state
    /// (predictions advance routing counters and cache statistics, so they
    /// count too). The checkpointer compares it against
    /// `last_saved_revision` to skip shards whose artefact is already
    /// current without even encoding a snapshot.
    revision: u64,
    /// The revision the newest on-disk artefact was taken at; `None` until
    /// the first checkpoint of this process.
    last_saved_revision: Option<u64>,
    /// Checkpoint passes that skipped this shard because its revision had
    /// not moved since the last one.
    snapshots_skipped: u64,
}

impl Shard {
    fn new(predictor: StagePredictor) -> Self {
        Self {
            predictor,
            observes: 0,
            predict_batches: 0,
            timed_out: 0,
            revision: 0,
            last_saved_revision: None,
            snapshots_skipped: 0,
        }
    }

    /// Serves one prediction.
    pub fn predict(&mut self, plan: &PhysicalPlan, sys: &SystemContext) -> Prediction {
        self.revision += 1;
        self.predictor.predict(plan, sys)
    }

    /// Serves a whole batch of predictions in submission order under the
    /// one shard-lock acquisition the caller already holds. Routing
    /// counters advance per prediction exactly as one `predict` per plan
    /// would; only the batch counter is new.
    pub fn predict_batch(
        &mut self,
        plans: &[PhysicalPlan],
        sys: &SystemContext,
    ) -> Vec<Prediction> {
        self.predict_batches += 1;
        self.revision += 1;
        self.predictor.predict_batch(plans, sys)
    }

    /// `PredictBatch` requests served since start.
    pub fn predict_batches(&self) -> u64 {
        self.predict_batches
    }

    /// Ingests one observed exec-time (cache + pool + retrain by cadence or
    /// drift latch, exactly as offline replay does).
    pub fn observe(&mut self, plan: &PhysicalPlan, sys: &SystemContext, actual_secs: f64) {
        self.predictor.observe(plan, sys, actual_secs);
        self.observes += 1;
        self.revision += 1;
    }

    /// Observations ingested since start (snapshot restores do not reset
    /// routing counters but do reset this per-process counter).
    pub fn observes(&self) -> u64 {
        self.observes
    }

    /// Records a request that expired before dispatch. Living on the shard
    /// (rather than in a parallel server-side array) means the counter's
    /// index space *is* the registry's — an instance id that passes
    /// admission can never silently drop its count.
    pub fn note_timed_out(&mut self) {
        self.timed_out += 1;
    }

    /// Requests that timed out before this shard could serve them.
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// The wrapped predictor (read access for stats/snapshots).
    pub fn predictor(&self) -> &StagePredictor {
        &self.predictor
    }

    /// Calibrated prediction interval for `p` (conformal width from the
    /// shard's drift sentinel, widened while degraded tiers are active).
    pub fn calibrated_interval(&mut self, p: &Prediction) -> Option<(f64, f64)> {
        self.predictor.calibrated_interval(p)
    }

    /// Checkpoint passes that skipped this shard because its artefact was
    /// already current.
    pub fn snapshots_skipped(&self) -> u64 {
        self.snapshots_skipped
    }
}

/// What [`ShardRegistry::save_snapshots`] actually wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveSummary {
    /// Shards whose artefact was atomically replaced by a new one.
    pub written: u32,
    /// Clean shards skipped: their revision matched the last checkpoint.
    pub skipped: u32,
}

impl SaveSummary {
    /// Shards covered by the checkpoint (written or verified current).
    pub fn instances(&self) -> u32 {
        self.written + self.skipped
    }
}

/// What [`ShardRegistry::load_snapshots`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Shards warm-started from a valid artefact.
    pub restored: u32,
    /// Artefacts that failed validation (bad magic, checksum, version, or
    /// section contents) and were renamed to `*.quarantine`; their shards
    /// start cold.
    pub quarantined: u32,
}

/// A shard's read guard; with `write`, the one place poison is absorbed.
/// A verb that panicked mid-update leaves a structurally valid predictor
/// (at worst a stale model), so its shard keeps serving rather than
/// failing every later verb.
fn read(shard: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

/// A shard's write guard, poison absorbed as in `read`.
fn write(shard: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// All shards of one server process, indexed by instance id.
pub struct ShardRegistry {
    /// Fixed at construction: a boxed slice, which no `&self` path mutates.
    shards: Box<[RwLock<Shard>]>,
    /// Snapshot I/O fault hook (chaos testing; `None` in production).
    persist_faults: Option<Arc<dyn PersistFaults>>,
}

impl ShardRegistry {
    /// Creates `n_instances` cold predictors with per-instance seed salts
    /// (instance id, matching the replay engine's convention).
    pub fn new(n_instances: u32, config: StageConfig) -> Self {
        let shards = (0..n_instances)
            .map(|id| {
                let mut p = StagePredictor::new(config);
                p.set_instance_salt(u64::from(id));
                RwLock::new(Shard::new(p))
            })
            .collect();
        Self {
            shards,
            persist_faults: None,
        }
    }

    /// Installs a component-level fault oracle on every shard's predictor
    /// (chaos testing; production never calls this).
    pub fn set_component_faults(&self, faults: Arc<dyn ComponentFaults>) {
        for shard in &self.shards {
            write(shard)
                .predictor
                .set_component_faults(Arc::clone(&faults));
        }
    }

    /// Installs a snapshot I/O fault hook used by every later
    /// [`ShardRegistry::save_snapshots`]/[`ShardRegistry::load_snapshots`]
    /// (chaos testing; production never calls this).
    pub fn set_persist_faults(&mut self, faults: Arc<dyn PersistFaults>) {
        self.persist_faults = Some(faults);
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the registry has no shards.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether instance `id` is hosted here.
    pub fn contains(&self, id: u32) -> bool {
        (id as usize) < self.len()
    }

    /// Runs `f` under instance `id`'s shard read lock, or returns `None`
    /// for an unknown id.
    pub fn with_shard_read<R>(&self, id: u32, f: impl FnOnce(&Shard) -> R) -> Option<R> {
        let shard = self.shards.get(id as usize)?;
        let result = f(&read(shard));
        Some(result)
    }

    /// Runs `f` under instance `id`'s shard write lock, or returns `None`
    /// for an unknown id.
    pub fn with_shard_write<R>(&self, id: u32, f: impl FnOnce(&mut Shard) -> R) -> Option<R> {
        let shard = self.shards.get(id as usize)?;
        let result = f(&mut write(shard));
        Some(result)
    }

    /// Snapshot path of instance `id` under `dir` (a `stage-store`
    /// artefact).
    pub fn snapshot_path(dir: &Path, id: u32) -> PathBuf {
        dir.join(format!("instance_{id}.store"))
    }

    /// Checkpoints every shard to `dir` (one crash-safe store artefact per
    /// instance). Shards whose content revision hasn't moved since their
    /// last checkpoint are skipped without even encoding a snapshot; the
    /// rest are written whole to a temp file and renamed into place, so a
    /// kill at any instant leaves the previous artefact or the new one.
    /// Snapshot encoding runs under the shard read lock; file I/O runs
    /// with no shard lock held, so serving continues.
    pub fn save_snapshots(&self, dir: &Path) -> io::Result<SaveSummary> {
        std::fs::create_dir_all(dir)?;
        let mut summary = SaveSummary::default();
        for (id, shard) in self.shards.iter().enumerate() {
            let path = Self::snapshot_path(dir, id as u32);
            let (revision, snapshot) = {
                let guard = read(shard);
                // The skip trusts that the last write reached disk intact: an
                // artefact torn on its way there is found at the next start
                // (quarantined, cold shard) or replaced once the shard moves.
                if guard.last_saved_revision == Some(guard.revision) && path.exists() {
                    drop(guard);
                    write(shard).snapshots_skipped += 1;
                    summary.skipped += 1;
                    continue;
                }
                (guard.revision, guard.predictor.snapshot())
            };
            storefmt::save_stage_store(&snapshot, &path, self.persist_faults.as_deref())?;
            write(shard).last_saved_revision = Some(revision);
            summary.written += 1;
        }
        Ok(summary)
    }

    /// Warm-starts shards from artefacts in `dir` (atomic load-on-start):
    /// each instance with a valid snapshot resumes exactly where the last
    /// checkpoint left it.
    /// Missing artefacts leave the cold predictor in place; damaged ones
    /// (bad magic, checksum mismatch, unsupported version, malformed
    /// section) are quarantined — renamed to `*.quarantine` for the
    /// operator — and their shards start cold too.
    /// A restart therefore always comes up serving, never half-restored
    /// and never crash-looping on a rotten file.
    pub fn load_snapshots(&self, dir: &Path) -> RestoreSummary {
        let mut summary = RestoreSummary::default();
        for (id, shard) in self.shards.iter().enumerate() {
            let id = id as u32;
            let faults = self.persist_faults.as_deref();
            match storefmt::load_stage_store(&Self::snapshot_path(dir, id), faults) {
                Ok(snapshot) => {
                    write(shard).predictor = StagePredictor::from_snapshot(snapshot);
                    summary.restored += 1;
                }
                Err(e) if e.is_not_found() => {}
                Err(e) => {
                    summary.quarantined += 1;
                    eprintln!(
                        "stage-serve: quarantined snapshot for instance {id} ({e}); starting cold"
                    );
                }
            }
        }
        summary
    }

    /// Installs `model` as the shared global (fleet-trained) model of every
    /// shard. One `Arc` backs all shards — the registry-entry mechanism for
    /// fleet-wide model hot-swap: the artefact is parsed once and shared
    /// by every instance's routing, not copied per shard.
    pub fn set_global(&self, model: Arc<GlobalModel>) {
        for shard in &self.shards {
            write(shard).predictor.set_global(Arc::clone(&model));
        }
    }

    /// Loads the shared global model from a store file written by
    /// [`stage_core::storefmt::save_global_store`] and installs it on every
    /// shard; returns the artefact's generation stamp (what the
    /// hot-swap poll compares against). Damage quarantines the file.
    pub fn load_global_store(&self, path: &Path) -> Result<u64, RestoreError> {
        let (model, generation) =
            storefmt::load_global_store(path, self.persist_faults.as_deref())?;
        self.set_global(Arc::new(model));
        Ok(generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stage_core::PredictionSource;
    use stage_plan::{PlanBuilder, S3Format};
    use std::sync::mpsc;
    use std::time::Duration;

    fn plan(rows: f64) -> PhysicalPlan {
        PlanBuilder::select()
            .scan("t", S3Format::Local, rows, 64.0)
            .hash_aggregate(0.01)
            .finish()
    }

    #[test]
    fn shards_are_independent() {
        let reg = ShardRegistry::new(2, StageConfig::default());
        let sys = SystemContext::empty(2);
        reg.with_shard_write(0, |s0| {
            s0.observe(&plan(1e4), &sys, 2.0);
            assert_eq!(s0.observes(), 1);
        })
        .unwrap();
        let p = reg
            .with_shard_write(1, |s1| {
                assert_eq!(s1.observes(), 0);
                s1.predict(&plan(1e4), &sys)
            })
            .unwrap();
        assert_eq!(p.source, PredictionSource::Default);
        assert!(reg.with_shard_read(2, |_| ()).is_none());
        assert!(!reg.contains(2));
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());

        // Reaching a shard takes no lock but the shard's own: while another
        // thread holds shard 0's write lock, shard 1 serves both verbs. A
        // wrong lock times out, and dropping `release` frees shard 0.
        let (held_tx, held_rx) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let reg = &reg;
        std::thread::scope(|s| {
            s.spawn(move || {
                reg.with_shard_write(0, |_| {
                    held_tx.send(()).unwrap();
                    let _ = released.recv();
                })
            });
            held_rx.recv().unwrap();
            s.spawn(move || {
                let wrote = reg.with_shard_write(1, |s| s.observes());
                done_tx.send((wrote, reg.with_shard_read(1, |s| s.observes())))
            });
            let got = done_rx.recv_timeout(Duration::from_secs(10));
            drop(release);
            assert_eq!(got, Ok((Some(0), Some(0))), "shard 1 waited on shard 0");
        });
    }

    /// A verb that panics under its shard's write lock poisons that lock;
    /// the poison is absorbed, so the shard still predicts, observes and
    /// checkpoints afterwards.
    #[test]
    fn a_panicked_verb_leaves_its_shard_serving() {
        let dir = std::env::temp_dir().join("stage-serve-registry-poison-test");
        let sys = SystemContext::empty(2);
        let reg = ShardRegistry::new(1, StageConfig::default());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.with_shard_write(0, |s| {
                s.observe(&plan(5e4), &sys, 3.5);
                panic!("a verb panicked mid-update");
            })
        }));
        assert!(panicked.is_err() && reg.shards[0].is_poisoned());
        let p = reg.with_shard_write(0, |s| s.predict(&plan(5e4), &sys));
        assert_eq!(p.map(|p| p.source), Some(PredictionSource::Cache));
        reg.with_shard_write(0, |s| s.observe(&plan(6e4), &sys, 1.0));
        assert_eq!(reg.with_shard_read(0, |s| s.observes()), Some(2));
        assert_eq!(reg.save_snapshots(&dir).unwrap().written, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_round_trip_restores_warm_shards() {
        let dir = std::env::temp_dir().join("stage-serve-registry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let sys = SystemContext::empty(2);
        let reg = ShardRegistry::new(2, StageConfig::default());
        reg.with_shard_write(0, |s| s.observe(&plan(5e4), &sys, 3.5))
            .unwrap();
        assert_eq!(
            reg.save_snapshots(&dir).unwrap(),
            SaveSummary {
                written: 2,
                skipped: 0
            }
        );

        let fresh = ShardRegistry::new(2, StageConfig::default());
        assert_eq!(
            fresh.load_snapshots(&dir),
            RestoreSummary {
                restored: 2,
                quarantined: 0
            }
        );
        let p = fresh
            .with_shard_write(0, |s| s.predict(&plan(5e4), &sys))
            .unwrap();
        assert_eq!(p.source, PredictionSource::Cache);
        assert!((p.exec_secs - 3.5).abs() < 1e-9);

        // A corrupt artefact is quarantined, not fatal: its shard starts
        // cold and the rotten file is set aside for the operator.
        let path1 = ShardRegistry::snapshot_path(&dir, 1);
        std::fs::write(&path1, b"garbage").unwrap();
        let partial = ShardRegistry::new(2, StageConfig::default());
        assert_eq!(
            partial.load_snapshots(&dir),
            RestoreSummary {
                restored: 1,
                quarantined: 1
            }
        );
        assert!(!path1.exists(), "the damaged artefact must be moved aside");
        assert!(path1.with_extension("store.quarantine").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shards_are_skipped_and_counted() {
        let dir = std::env::temp_dir().join("stage-serve-registry-skip-test");
        let _ = std::fs::remove_dir_all(&dir);
        let sys = SystemContext::empty(2);
        let reg = ShardRegistry::new(2, StageConfig::default());
        reg.with_shard_write(0, |s| s.observe(&plan(1e4), &sys, 1.0))
            .unwrap();
        // First pass writes both shards (nothing on disk yet).
        assert_eq!(
            reg.save_snapshots(&dir).unwrap(),
            SaveSummary {
                written: 2,
                skipped: 0
            }
        );
        // Nothing changed: both shards skip, and each shard counts it.
        assert_eq!(
            reg.save_snapshots(&dir).unwrap(),
            SaveSummary {
                written: 0,
                skipped: 2
            }
        );
        assert_eq!(
            reg.with_shard_read(0, |s| s.snapshots_skipped()).unwrap(),
            1
        );
        // Touch shard 1 only: one write, one skip.
        reg.with_shard_write(1, |s| s.observe(&plan(2e4), &sys, 2.0))
            .unwrap();
        assert_eq!(
            reg.save_snapshots(&dir).unwrap(),
            SaveSummary {
                written: 1,
                skipped: 1
            }
        );
        assert_eq!(
            reg.with_shard_read(0, |s| s.snapshots_skipped()).unwrap(),
            2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint replaces the artefact and never writes into it: a hard
    /// link to the previous artefact keeps the previous bytes and restores
    /// the previous state, while the live path restores the new one.
    #[test]
    fn checkpoints_never_write_into_the_live_artefact() {
        let dir = std::env::temp_dir().join("stage-serve-registry-atomic-test");
        let _ = std::fs::remove_dir_all(&dir);
        let sys = SystemContext::empty(2);
        let reg = ShardRegistry::new(1, StageConfig::default());
        let observe_then_predict = |secs: f64| {
            reg.with_shard_write(0, |s| {
                s.observe(&plan(5e4), &sys, secs);
                s.predict(&plan(5e4), &sys)
            })
            .unwrap()
        };
        let restored_answer = |path: &Path| {
            let snapshot = storefmt::load_stage_store(path, None).unwrap();
            StagePredictor::from_snapshot(snapshot).predict(&plan(5e4), &sys)
        };

        let first = observe_then_predict(2.0);
        reg.save_snapshots(&dir).unwrap();
        let live = ShardRegistry::snapshot_path(&dir, 0);
        let aside = dir.join("first-checkpoint.store");
        std::fs::hard_link(&live, &aside).unwrap();
        let first_bytes = std::fs::read(&aside).unwrap();

        // The same plan again: no section changes length, so nothing about
        // the second image's layout would stop it being written in place.
        let second = observe_then_predict(4.0);
        assert_ne!(first.exec_secs.to_bits(), second.exec_secs.to_bits());
        assert_eq!(
            reg.save_snapshots(&dir).unwrap(),
            SaveSummary {
                written: 1,
                skipped: 0
            }
        );

        assert!(
            std::fs::read(&aside).unwrap() == first_bytes,
            "the second checkpoint wrote into the first checkpoint's file"
        );
        let (old, new) = (restored_answer(&aside), restored_answer(&live));
        assert_eq!(old.source, PredictionSource::Cache);
        assert_eq!(old.exec_secs.to_bits(), first.exec_secs.to_bits());
        assert_eq!(new.source, PredictionSource::Cache);
        assert_eq!(new.exec_secs.to_bits(), second.exec_secs.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_snapshots_are_ignored_and_cold_start() {
        let dir = std::env::temp_dir().join("stage-serve-registry-json-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sys = SystemContext::empty(2);
        // A directory left by a pre-store-format server: only the old
        // `.json` name, no store file. It is neither restored nor touched.
        let json = dir.join("instance_0.json");
        std::fs::write(&json, b"stage-artefact v2 crc32=00000000 len=2\n{}").unwrap();

        let reg = ShardRegistry::new(1, StageConfig::default());
        assert_eq!(reg.load_snapshots(&dir), RestoreSummary::default());
        assert!(json.exists(), "the .json file must be left in place");
        assert!(!dir.join("instance_0.json.quarantine").exists());
        let got = reg
            .with_shard_write(0, |s| s.predict(&plan(7e4), &sys))
            .unwrap();
        assert_eq!(got.source, PredictionSource::Default);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
