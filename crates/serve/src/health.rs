//! The background health loop (`serve-health`) drives both periodic duties:
//! the global-model generation poll (when an artefact path is configured)
//! and checkpoints (when a cadence is configured), never a shard's model.

use crate::server::Shared;
use std::path::PathBuf;
use std::sync::{atomic::Ordering, mpsc::Receiver};
use std::time::Duration;

impl Shared {
    /// Checks the global-model artefact for a generation bump and
    /// hot-swaps it onto every shard when one landed. Cheap when nothing
    /// changed: a 64-byte header read, no mapping, no lock. Damage is
    /// logged and the previous model keeps serving — a half-written
    /// artefact must never take down a running fleet.
    pub(crate) fn poll_global_model(&self) {
        let Some(path) = &self.global_model_path else {
            return;
        };
        let installed = self.global_generation.load(Ordering::SeqCst);
        match stage_core::store_generation(path) {
            Ok(gen) if installed == u64::MAX || gen > installed => {
                match self.registry.load_global_store(path) {
                    Ok(loaded) => {
                        self.global_generation.store(loaded, Ordering::SeqCst);
                        eprintln!(
                            "stage-serve: installed global model generation {loaded} from {}",
                            path.display()
                        );
                    }
                    Err(e) => eprintln!(
                        "stage-serve: global model reload failed ({e}); keeping generation {}",
                        installed
                    ),
                }
            }
            Ok(_) => {}
            Err(e) if e.is_not_found() => {}
            Err(e) => eprintln!(
                "stage-serve: global model header unreadable ({e}); keeping generation {}",
                installed
            ),
        }
    }
}

/// Runs the health loop until shutdown; a send on `woken` cuts a tick short.
pub(crate) fn run_health(
    shared: &Shared,
    woken: &Receiver<()>,
    snapshot_cadence: Option<(PathBuf, Duration)>,
) {
    // The generation poll is a 64-byte header read; a sub-second cadence
    // keeps hot-swap latency low without measurable cost. A configured
    // snapshot cadence paces the whole loop.
    let tick = snapshot_cadence
        .as_ref()
        .map_or(Duration::from_millis(200), |(_, every)| *every);
    // Bounded exponential backoff on checkpoint failures: a sick snapshot
    // directory (full disk, yanked mount) must not burn a full encode of
    // every shard each tick. Skips double per consecutive failure, capped
    // at 32 ticks; any success re-arms the full cadence.
    let mut consecutive_failures = 0u32;
    let mut skip_ticks = 0u64;
    loop {
        #[expect(
            clippy::disallowed_methods,
            reason = "the health thread's tick, bounded by `tick`; it serves no connection"
        )]
        let _ = woken.recv_timeout(tick);
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The final checkpoint runs in `join` after the drain completes.
            return;
        }
        shared.poll_global_model();
        if let Some((dir, _)) = &snapshot_cadence {
            if skip_ticks > 0 {
                skip_ticks -= 1;
                continue;
            }
            match shared.registry.save_snapshots(dir) {
                Ok(_) => consecutive_failures = 0,
                Err(e) => {
                    shared.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                    consecutive_failures = consecutive_failures.saturating_add(1);
                    skip_ticks = (1u64 << consecutive_failures.min(5)) - 1;
                    eprintln!(
                        "stage-serve: background checkpoint failed ({e}); \
                         retrying in {} ticks",
                        skip_ticks + 1
                    );
                }
            }
        }
    }
}
