//! Experiment configuration and shared state (fleet + trained global model).

use crate::parallel::ParallelFleetReplay;
use crate::replay::training_samples;
use serde::Serialize;
use stage_core::{
    AutoWlmConfig, AutoWlmPredictor, GlobalModel, GlobalModelConfig, StageConfig, StagePredictor,
};
use stage_gbdt::EnsembleParams;
use stage_wlm::WlmConfig;
use stage_workload::instance::INSTANCE_FEATURE_DIM;
use stage_workload::{FleetConfig, InstanceWorkload};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Full harness configuration: evaluation fleet, training fleet, model
/// hyper-parameters, and the WLM simulator settings.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Fleet the predictors are evaluated on.
    pub eval_fleet: FleetConfig,
    /// Number of *disjoint* instances used to train the global model
    /// (paper §5.1: "randomly sample 100 training instances … these do not
    /// overlap with the evaluation instances").
    pub n_train_instances: usize,
    /// Seed offset separating the training fleet from the evaluation fleet.
    pub train_seed_offset: u64,
    /// Max GCN training samples taken per training instance.
    pub samples_per_train_instance: usize,
    /// Global-model architecture/training settings.
    pub global: GlobalModelConfig,
    /// Stage predictor settings (cache, pool, local model, routing).
    pub stage: StageConfig,
    /// AutoWLM baseline settings.
    pub autowlm: AutoWlmConfig,
    /// Workload-manager simulator settings (Fig. 6/7).
    pub wlm: WlmConfig,
    /// Worker threads for shard-parallel fleet replay (0 = all available
    /// cores).
    pub parallelism: usize,
    /// Directory for JSON artefacts.
    pub out_dir: PathBuf,
}

impl HarnessConfig {
    /// CI-scale configuration: small fleet, small models; every experiment
    /// finishes in seconds to a couple of minutes.
    pub fn quick() -> Self {
        let local_ensemble = EnsembleParams {
            n_members: 5,
            n_estimators: 40,
            seed: 42,
        };
        let mut stage = StageConfig::default();
        stage.local.ensemble = local_ensemble;
        stage.local.min_train_examples = 30;
        stage.local.retrain_interval = 250;
        Self {
            eval_fleet: FleetConfig {
                n_instances: 6,
                duration_days: 1.5,
                max_events_per_instance: 6_000,
                ..FleetConfig::default()
            },
            n_train_instances: 12,
            train_seed_offset: TRAIN_SEED_OFFSET,
            samples_per_train_instance: 200,
            global: GlobalModelConfig {
                hidden: 48,
                gcn_layers: 3,
                epochs: 20,
                ..GlobalModelConfig::default()
            },
            stage,
            autowlm: AutoWlmConfig {
                n_estimators: 40,
                retrain_interval: 250,
                ..AutoWlmConfig::default()
            },
            // Redshift-flavoured defaults: a small SQA queue with runtime
            // eviction and a fixed long queue. Instances are provisioned to
            // their workloads by the generator, so the long queue needs no
            // burst slots to stay stable.
            wlm: WlmConfig {
                short_slots: 2,
                long_slots: 4,
                sqa_max_runtime_secs: Some(5.0),
                ..WlmConfig::default()
            },
            parallelism: 0,
            out_dir: PathBuf::from("results"),
        }
    }

    /// Paper-scale (for this substrate) configuration: larger fleet, larger
    /// models. Minutes to tens of minutes per experiment.
    pub fn full() -> Self {
        let mut cfg = Self::quick();
        cfg.eval_fleet.n_instances = 30;
        cfg.eval_fleet.duration_days = 3.0;
        cfg.eval_fleet.max_events_per_instance = 10_000;
        cfg.n_train_instances = 25;
        cfg.samples_per_train_instance = 250;
        cfg.global = GlobalModelConfig {
            hidden: 64,
            gcn_layers: 3,
            epochs: 20,
            ..GlobalModelConfig::default()
        };
        cfg.stage.local.ensemble.n_estimators = 60;
        cfg.stage.local.ensemble.n_members = 10;
        cfg.autowlm.n_estimators = 60;
        cfg
    }
}

/// Arbitrary seed offset separating the training fleet's RNG stream from
/// the evaluation fleet's.
pub const TRAIN_SEED_OFFSET: u64 = 0x7_4A11;

/// Shared experiment state. The global model is trained lazily, once, and
/// reused by every experiment that needs it.
pub struct ExperimentContext {
    /// Configuration in use.
    pub config: HarnessConfig,
    global: OnceLock<Arc<GlobalModel>>,
}

impl ExperimentContext {
    /// Creates a context.
    pub fn new(config: HarnessConfig) -> Self {
        Self {
            config,
            global: OnceLock::new(),
        }
    }

    /// Number of evaluation instances.
    pub fn n_eval(&self) -> usize {
        self.config.eval_fleet.n_instances
    }

    /// Generates (streams) evaluation instance `id`.
    pub fn eval_instance(&self, id: u32) -> InstanceWorkload {
        InstanceWorkload::generate(&self.config.eval_fleet, id)
    }

    /// Generates training instance `id` (disjoint fleet).
    pub fn train_instance(&self, id: u32) -> InstanceWorkload {
        let cfg = FleetConfig {
            seed: self
                .config
                .eval_fleet
                .seed
                .wrapping_add(self.config.train_seed_offset),
            n_instances: self.config.n_train_instances,
            ..self.config.eval_fleet.clone()
        };
        InstanceWorkload::generate(&cfg, id)
    }

    /// The shard-parallel replay engine sized by this context's
    /// `parallelism` knob.
    pub fn replayer(&self) -> ParallelFleetReplay {
        ParallelFleetReplay::new(self.config.parallelism)
    }

    /// The fleet-trained global model (trained on first use). Training
    /// samples are collected shard-parallel across training instances and
    /// concatenated in id order, so the model is identical at any thread
    /// count.
    pub fn global_model(&self) -> Arc<GlobalModel> {
        self.global
            .get_or_init(|| {
                let per_instance = self.replayer().run(self.config.n_train_instances, |id| {
                    let w = self.train_instance(id as u32);
                    training_samples(&w, self.config.samples_per_train_instance)
                });
                let samples: Vec<_> = per_instance.into_iter().flatten().collect();
                Arc::new(GlobalModel::train(
                    &samples,
                    INSTANCE_FEATURE_DIM,
                    &self.config.global,
                ))
            })
            .clone()
    }

    /// A fresh Stage predictor with the shared global model attached.
    pub fn stage_predictor(&self) -> StagePredictor {
        StagePredictor::with_global(self.config.stage, self.global_model())
    }

    /// A fresh Stage predictor without the global model (the production
    /// deployment state per §5.2).
    pub fn stage_predictor_no_global(&self) -> StagePredictor {
        StagePredictor::new(self.config.stage)
    }

    /// A fresh AutoWLM baseline predictor.
    pub fn autowlm_predictor(&self) -> AutoWlmPredictor {
        AutoWlmPredictor::new(self.config.autowlm)
    }

    /// [`Self::stage_predictor`] with the instance-id seed salt set, so
    /// retraining seeds depend only on per-instance state and a fleet
    /// replay is bit-identical at any thread count.
    pub fn stage_predictor_for(&self, id: u32) -> StagePredictor {
        let mut p = self.stage_predictor();
        p.set_instance_salt(u64::from(id));
        p
    }

    /// [`Self::stage_predictor_no_global`] with the instance-id seed salt.
    pub fn stage_predictor_no_global_for(&self, id: u32) -> StagePredictor {
        let mut p = self.stage_predictor_no_global();
        p.set_instance_salt(u64::from(id));
        p
    }

    /// [`Self::autowlm_predictor`] with the instance-id seed salt.
    pub fn autowlm_predictor_for(&self, id: u32) -> AutoWlmPredictor {
        let mut p = self.autowlm_predictor();
        p.set_instance_salt(u64::from(id));
        p
    }

    /// Writes a JSON artefact into the output directory, returning the path.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.config.out_dir)?;
        let path = self.config.out_dir.join(format!("{name}.json"));
        let file = std::fs::File::create(&path)?;
        serde_json::to_writer_pretty(file, value).map_err(std::io::Error::other)?;
        Ok(path)
    }

    /// Output directory.
    pub fn out_dir(&self) -> &Path {
        &self.config.out_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_context() -> ExperimentContext {
        let mut cfg = HarnessConfig::quick();
        cfg.eval_fleet = FleetConfig::tiny();
        cfg.n_train_instances = 2;
        cfg.samples_per_train_instance = 40;
        cfg.global.epochs = 2;
        cfg.global.hidden = 8;
        cfg.global.gcn_layers = 1;
        cfg.out_dir = std::env::temp_dir().join("stage-bench-test");
        ExperimentContext::new(cfg)
    }

    #[test]
    fn eval_and_train_fleets_are_disjoint() {
        let ctx = tiny_context();
        let e = ctx.eval_instance(0);
        let t = ctx.train_instance(0);
        // Different seeds -> different workloads with overwhelming odds.
        assert!(
            e.events.len() != t.events.len()
                || e.spec.node_type != t.spec.node_type
                || e.spec.n_nodes != t.spec.n_nodes
        );
    }

    #[test]
    fn global_model_trains_once_and_is_shared() {
        let ctx = tiny_context();
        let a = ctx.global_model();
        let b = ctx.global_model();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.n_parameters() > 0);
    }

    #[test]
    fn predictors_construct() {
        let ctx = tiny_context();
        let s = ctx.stage_predictor_no_global();
        assert_eq!(s.stats().total(), 0);
        let a = ctx.autowlm_predictor();
        assert!(!a.is_trained());
    }

    #[test]
    fn write_json_round_trip() {
        let ctx = tiny_context();
        let path = ctx
            .write_json("unit-test-artefact", &serde_json::json!({"x": 1}))
            .unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"x\": 1"));
    }
}
