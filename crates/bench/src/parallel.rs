//! Shard-parallel fleet replay.
//!
//! Every fleet experiment is embarrassingly parallel across instances: each
//! evaluation instance owns its predictors and its event log, and only the
//! trained [`stage_core::GlobalModel`] is shared (immutably, behind an
//! `Arc`). [`ParallelFleetReplay`] exploits that shape with a scoped
//! `std::thread` worker pool over a `Mutex<VecDeque<_>>` work queue — no
//! external dependencies, no unsafe code.
//!
//! **Determinism.** Workers pull shard *indices* and write results into an
//! index-tagged slot, so output order equals input order and each shard's
//! computation is a pure function of its own index — the result is
//! record-for-record identical to the sequential loop regardless of thread
//! count or scheduling. A replay test asserts equality across
//! `parallelism ∈ {1, 4}`.
//!
//! **Sizing.** Thread count resolves as: the configured knob if positive,
//! else `std::thread::available_parallelism()`.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::thread;

/// Resolves an effective worker count from a configuration knob
/// (0 = autodetect). Autodetect falls back to 1 if the platform cannot
/// report its parallelism.
pub fn resolve_parallelism(knob: usize) -> usize {
    if knob > 0 {
        return knob;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shard-parallel executor for per-instance fleet work.
#[derive(Debug, Clone, Copy)]
pub struct ParallelFleetReplay {
    parallelism: usize,
}

impl Default for ParallelFleetReplay {
    fn default() -> Self {
        Self::new(0)
    }
}

impl ParallelFleetReplay {
    /// Creates an engine with the given parallelism knob (0 = autodetect;
    /// see [`resolve_parallelism`]).
    pub fn new(parallelism: usize) -> Self {
        Self { parallelism }
    }

    /// The worker count a run would use right now.
    pub fn threads(&self) -> usize {
        resolve_parallelism(self.parallelism)
    }

    /// Maps `job` over shard indices `0..n` and returns the results in
    /// index order. `job` must derive everything from its index (generate
    /// the workload, own the predictors); shared state it captures must be
    /// `Sync` — in practice the experiment context and an `Arc<GlobalModel>`.
    ///
    /// A panic in any worker propagates to the caller once the scope joins.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.threads().min(n.max(1));
        if threads <= 1 || n <= 1 {
            return (0..n).map(job).collect();
        }
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    loop {
                        // Narrow critical section: take an index, drop the
                        // lock before doing the (expensive) shard work.
                        let next = queue.lock().expect("queue lock").pop_front();
                        let Some(idx) = next else { break };
                        let out = job(idx);
                        *slots[idx].lock().expect("slot lock") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("worker filled every slot")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_index_ordered() {
        for parallelism in [1, 2, 4, 7] {
            let engine = ParallelFleetReplay::new(parallelism);
            let out = engine.run(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let engine = ParallelFleetReplay::new(4);
        let out = engine.run(100, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_and_single_shard_edge_cases() {
        let engine = ParallelFleetReplay::new(8);
        assert_eq!(engine.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(engine.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn knob_resolution_prefers_knob_then_autodetect() {
        assert_eq!(resolve_parallelism(3), 3);
        assert!(resolve_parallelism(0) >= 1);
    }

    #[test]
    fn replay_records_identical_across_parallelism() {
        use crate::replay::replay;
        use stage_core::{StageConfig, StagePredictor};
        use stage_gbdt::EnsembleParams;
        use stage_workload::{FleetConfig, InstanceWorkload};

        let fleet = FleetConfig {
            n_instances: 4,
            max_events_per_instance: 250,
            ..FleetConfig::tiny()
        };
        // Small but real models, retraining often enough that the seeded
        // ensemble path is exercised several times per instance.
        let mut config = StageConfig::default();
        config.local.ensemble = EnsembleParams {
            n_members: 3,
            n_estimators: 10,
            seed: 11,
        };
        config.local.min_train_examples = 15;
        config.local.retrain_interval = 40;

        let run = |parallelism: usize| {
            ParallelFleetReplay::new(parallelism).run(fleet.n_instances, |shard| {
                let id = shard as u32;
                let w = InstanceWorkload::generate(&fleet, id);
                let mut p = StagePredictor::new(config);
                p.set_instance_salt(u64::from(id));
                let records = replay(&w, &mut p);
                (records, p.local().trainings())
            })
        };
        let sequential = run(1);
        let parallel = run(4);
        // Guard against a vacuous pass: the seeded retraining path must
        // actually fire.
        assert!(
            sequential.iter().any(|(_, trainings)| *trainings > 0),
            "no local model ever trained; test exercises nothing"
        );
        assert_eq!(
            sequential, parallel,
            "replay records must be bit-identical at any thread count"
        );
    }

    #[test]
    fn parallel_equals_sequential_on_stateful_work() {
        // Each shard runs a self-contained stateful computation; parallel
        // scheduling must not leak state across shards.
        let compute = |i: usize| {
            let mut acc = 0u64;
            let mut x = i as u64 + 1;
            for _ in 0..1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc = acc.wrapping_add(x);
            }
            acc
        };
        let sequential: Vec<u64> = (0..16).map(compute).collect();
        for parallelism in [2, 4, 16] {
            let engine = ParallelFleetReplay::new(parallelism);
            assert_eq!(engine.run(16, compute), sequential);
        }
    }
}
