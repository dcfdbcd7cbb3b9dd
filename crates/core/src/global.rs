//! The transferable global model (paper §4.4): a plan-GCN trained across
//! many instances, wrapped for use inside Stage.
//!
//! This module owns the conversion from `stage_plan::PhysicalPlan` +
//! [`SystemContext`] into the `stage_nn` [`TreeSample`] representation:
//! per-node features via [`stage_plan::node_features`], and a system vector
//! = caller-supplied instance features ⊕ plan-summary features. Training is
//! offline (the paper uses a GPU fleet sweep); prediction is pure.

use crate::predictor::SystemContext;
use crate::{from_log_space, to_log_space};
use serde::{Deserialize, Serialize};
use stage_nn::{GcnConfig, PlanGcn, TreeSample};
use stage_plan::features::{plan_summary_features, PLAN_SUMMARY_DIM};
use stage_plan::{node_features, PhysicalPlan, PlanNode, NODE_FEATURE_DIM};

/// Number of plan-summary dims appended to the caller's system features.
pub const GLOBAL_SYS_DIM_BASE: usize = PLAN_SUMMARY_DIM;

/// Global-model configuration (architecture + training schedule).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalModelConfig {
    /// Hidden width (paper: 512; CPU default 64).
    pub hidden: usize,
    /// Message-passing rounds (paper: 8; CPU default 3).
    pub gcn_layers: usize,
    /// Dropout (paper: 0.2).
    pub dropout: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for GlobalModelConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            gcn_layers: 3,
            dropout: 0.2,
            lr: 1e-3,
            epochs: 25,
            batch_size: 32,
            seed: 42,
        }
    }
}

/// Converts a plan + system context + actual exec-time into a GCN training
/// sample. Node order is pre-order; children lists mirror the plan tree.
/// The target is `ln(1+secs)`.
pub fn plan_to_tree_sample(
    plan: &PhysicalPlan,
    sys: &SystemContext,
    actual_secs: f64,
) -> TreeSample {
    let mut node_feats: Vec<Vec<f64>> = Vec::with_capacity(plan.node_count());
    let mut children: Vec<Vec<usize>> = Vec::with_capacity(plan.node_count());

    fn walk(
        node: &PlanNode,
        node_feats: &mut Vec<Vec<f64>>,
        children: &mut Vec<Vec<usize>>,
    ) -> usize {
        let my_idx = node_feats.len();
        node_feats.push(node_features(node));
        children.push(Vec::with_capacity(node.children.len()));
        for child in &node.children {
            let c_idx = walk(child, node_feats, children);
            children[my_idx].push(c_idx);
        }
        my_idx
    }
    walk(&plan.root, &mut node_feats, &mut children);

    let mut sys_feats = sys.features.clone();
    sys_feats.extend_from_slice(&plan_summary_features(plan));

    TreeSample {
        node_feats,
        children,
        root: 0,
        sys_feats,
        target: to_log_space(actual_secs),
    }
}

/// The trained global model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalModel {
    gcn: PlanGcn,
    sys_dim: usize,
    /// Post-hoc linear calibration `y ≈ a·ŷ + b` in log space, fitted on a
    /// held-out slice of the training samples. Corrects systematic
    /// scale/offset bias without touching the learned structure.
    calibration: (f64, f64),
    /// Log-space target range seen in training; predictions are clamped to
    /// it (the model has no business extrapolating beyond observed labels).
    target_range: (f64, f64),
    /// Mean epoch losses recorded during training (diagnostics).
    pub training_losses: Vec<f64>,
}

impl GlobalModel {
    /// Trains on pre-converted samples. `instance_feature_dim` is the width
    /// of the [`SystemContext`] features the model will be queried with.
    ///
    /// # Panics
    /// Panics if `samples` is empty or widths disagree with the config.
    #[expect(
        clippy::disallowed_macros,
        reason = "training-time precondition: the global model is trained offline, never inside a verb"
    )]
    pub fn train(
        samples: &[TreeSample],
        instance_feature_dim: usize,
        config: &GlobalModelConfig,
    ) -> Self {
        assert!(!samples.is_empty(), "global model needs training samples");
        let sys_dim = instance_feature_dim + GLOBAL_SYS_DIM_BASE;
        let gcn_config = GcnConfig {
            node_feat_dim: NODE_FEATURE_DIM,
            sys_feat_dim: sys_dim,
            hidden: config.hidden,
            gcn_layers: config.gcn_layers,
            dropout: config.dropout,
            lr: config.lr,
            epochs: config.epochs,
            batch_size: config.batch_size,
            seed: config.seed,
        };
        // Hold out every 10th sample for calibration.
        let (fit_set, holdout): (Vec<_>, Vec<_>) =
            samples.iter().enumerate().partition(|(i, _)| i % 10 != 9);
        let fit_samples: Vec<&TreeSample> = fit_set.into_iter().map(|(_, s)| s).collect();
        let holdout: Vec<&TreeSample> = holdout.into_iter().map(|(_, s)| s).collect();

        let mut gcn = PlanGcn::new(gcn_config);
        let report = gcn.fit(&fit_samples);

        let lo = samples
            .iter()
            .map(|s| s.target)
            .fold(f64::INFINITY, f64::min);
        let hi = samples
            .iter()
            .map(|s| s.target)
            .fold(f64::NEG_INFINITY, f64::max);

        // Least-squares y = a·ŷ + b on the holdout (fallback: identity).
        let calibration = if holdout.len() >= 10 {
            let preds: Vec<f64> = holdout.iter().map(|s| gcn.predict(s)).collect();
            let ys: Vec<f64> = holdout.iter().map(|s| s.target).collect();
            let n = preds.len() as f64;
            let mx = preds.iter().sum::<f64>() / n;
            let my = ys.iter().sum::<f64>() / n;
            let mut cov = 0.0;
            let mut var = 0.0;
            for (p, y) in preds.iter().zip(&ys) {
                cov += (p - mx) * (y - my);
                var += (p - mx).powi(2);
            }
            if var > 1e-9 {
                let a = cov / var;
                let b = my - a * mx;
                // Accept only a sane positive slope that actually improves
                // the holdout's absolute error; otherwise identity.
                let mae = |slope: f64, icept: f64| -> f64 {
                    preds
                        .iter()
                        .zip(&ys)
                        .map(|(p, y)| (slope * p + icept - y).abs())
                        .sum::<f64>()
                        / n
                };
                if (0.2..=3.0).contains(&a) && mae(a, b) < mae(1.0, 0.0) {
                    (a, b)
                } else {
                    (1.0, 0.0)
                }
            } else {
                (1.0, 0.0)
            }
        } else {
            (1.0, 0.0)
        };

        Self {
            gcn,
            sys_dim,
            calibration,
            target_range: (lo.min(hi), hi.max(lo)),
            training_losses: report.epoch_losses,
        }
    }

    /// Checks a deserialized model before it answers anything: the GCN's
    /// structure ([`PlanGcn::validate`]), a system width equal to the
    /// GCN's (`predict_log` sizes a buffer by it), a finite calibration,
    /// and a finite clamp range with `lo <= hi` (`f64::clamp` panics
    /// otherwise).
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.gcn.validate()?;
        let gcn_sys_dim = self.gcn.config().sys_feat_dim;
        if self.sys_dim != gcn_sys_dim {
            return Err(format!(
                "system width {} where the GCN reads {gcn_sys_dim}",
                self.sys_dim
            ));
        }
        let (a, b) = self.calibration;
        if !(a.is_finite() && b.is_finite()) {
            return Err(format!("calibration ({a}, {b}) is not finite"));
        }
        let (lo, hi) = self.target_range;
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(format!(
                "target range [{lo}, {hi}] is not a finite lo <= hi"
            ));
        }
        Ok(())
    }

    /// The fitted calibration `(slope, intercept)` in log space.
    pub fn calibration(&self) -> (f64, f64) {
        self.calibration
    }

    /// Predicts exec-time in seconds for a plan under a system context
    /// (calibrated and clamped to the training label range). A context
    /// width differing from training asserts in debug builds and is
    /// padded/truncated in release.
    pub fn predict(&self, plan: &PhysicalPlan, sys: &SystemContext) -> f64 {
        from_log_space(self.predict_log(plan, sys))
    }

    /// Calibrated log-space prediction.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! expands to assert!; release builds compile the check out"
    )]
    pub fn predict_log(&self, plan: &PhysicalPlan, sys: &SystemContext) -> f64 {
        let mut sample = plan_to_tree_sample(plan, sys, 0.0);
        // Width skew between the context and the trained model is a
        // deployment bug: debug builds assert, release builds pad/truncate
        // to the trained width and keep serving.
        debug_assert_eq!(
            sample.sys_feats.len(),
            self.sys_dim,
            "system-feature width mismatch"
        );
        sample.sys_feats.resize(self.sys_dim, 0.0);
        let (a, b) = self.calibration;
        let raw = self.gcn.predict(&sample);
        (a * raw + b).clamp(self.target_range.0, self.target_range.1)
    }

    /// Uncalibrated log-space prediction (for calibration analyses).
    pub fn predict_log_raw(&self, plan: &PhysicalPlan, sys: &SystemContext) -> f64 {
        let sample = plan_to_tree_sample(plan, sys, 0.0);
        self.gcn.predict(&sample)
    }

    /// Total scalar parameters.
    pub fn n_parameters(&self) -> usize {
        self.gcn.n_parameters()
    }

    /// Approximate resident size in bytes.
    pub fn approx_size_bytes(&self) -> usize {
        self.gcn.approx_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stage_plan::{PlanBuilder, S3Format};

    fn plan(rows: f64, joins: usize) -> PhysicalPlan {
        let mut b = PlanBuilder::select().scan("t0", S3Format::Local, rows, 64.0);
        for j in 0..joins {
            b = b
                .scan("tj", S3Format::Local, rows / (j + 2) as f64, 48.0)
                .hash_join(0.1);
        }
        b.hash_aggregate(0.05).finish()
    }

    fn sys(speed: f64) -> SystemContext {
        SystemContext {
            features: vec![speed, 1.0],
        }
    }

    fn quick_config() -> GlobalModelConfig {
        GlobalModelConfig {
            hidden: 16,
            gcn_layers: 2,
            dropout: 0.0,
            epochs: 40,
            lr: 5e-3,
            batch_size: 16,
            seed: 3,
        }
    }

    #[test]
    fn conversion_preserves_structure() {
        let p = plan(1e5, 2);
        let s = plan_to_tree_sample(&p, &sys(1.0), 12.0);
        assert_eq!(s.node_feats.len(), p.node_count());
        assert_eq!(s.root, 0);
        assert!(s.validate().is_ok());
        assert_eq!(s.sys_feats.len(), 2 + GLOBAL_SYS_DIM_BASE);
        assert!((s.target - 12.0f64.ln_1p()).abs() < 1e-12);
        // Children counts must match the plan tree.
        let total_children: usize = s.children.iter().map(Vec::len).sum();
        assert_eq!(total_children, p.node_count() - 1);
    }

    #[test]
    fn node_feature_width_constant() {
        let p = plan(1e4, 1);
        let s = plan_to_tree_sample(&p, &sys(1.0), 1.0);
        assert!(s.node_feats.iter().all(|f| f.len() == NODE_FEATURE_DIM));
    }

    #[test]
    fn learns_size_ordering_across_instances() {
        // Targets scale with scan size and inversely with a "speed" system
        // feature — the transferable signal a zero-shot model must learn.
        let mut samples = Vec::new();
        for i in 1..=60 {
            let rows = i as f64 * 1e4;
            for &speed in &[1.0, 4.0] {
                let p = plan(rows, 1);
                let secs = rows / 2e4 / speed;
                samples.push(plan_to_tree_sample(&p, &sys(speed), secs));
            }
        }
        let model = GlobalModel::train(&samples, 2, &quick_config());
        assert!(model.training_losses.len() == 40);
        let first = model.training_losses[0];
        let last = *model.training_losses.last().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");

        let small = model.predict(&plan(2e4, 1), &sys(1.0));
        let large = model.predict(&plan(5e5, 1), &sys(1.0));
        assert!(large > small, "small={small} large={large}");
        let fast = model.predict(&plan(4e5, 1), &sys(4.0));
        let slow = model.predict(&plan(4e5, 1), &sys(1.0));
        assert!(slow > fast, "fast={fast} slow={slow}");
    }

    #[test]
    fn predictions_clamped_to_training_range() {
        // Trained only on sub-second targets: even an enormous unseen plan
        // must not predict beyond the observed label range.
        let samples: Vec<TreeSample> = (1..=40)
            .map(|i| plan_to_tree_sample(&plan(i as f64 * 1e3, 0), &sys(1.0), 0.5))
            .collect();
        let model = GlobalModel::train(&samples, 2, &quick_config());
        let monster = plan(1e12, 2);
        let p = model.predict(&monster, &sys(1.0));
        assert!(p <= 0.5 + 1e-6, "clamp failed: {p}");
        let (a, _b) = model.calibration();
        assert!(a > 0.0);
    }

    #[test]
    fn predictions_nonnegative_seconds() {
        let samples: Vec<TreeSample> = (1..=30)
            .map(|i| plan_to_tree_sample(&plan(i as f64 * 1e3, 0), &sys(1.0), 0.001))
            .collect();
        let model = GlobalModel::train(&samples, 2, &quick_config());
        assert!(model.predict(&plan(5e3, 0), &sys(1.0)) >= 0.0);
    }

    /// The width check is a `debug_assert`, so this holds in debug builds
    /// only; `cargo test --release` runs the twin below instead.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "width mismatch")]
    fn wrong_sys_width_rejected() {
        let samples = vec![plan_to_tree_sample(&plan(1e4, 0), &sys(1.0), 1.0)];
        let model = GlobalModel::train(&samples, 2, &quick_config());
        model.predict(&plan(1e4, 0), &SystemContext::empty(5));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn wrong_sys_width_padded_or_truncated_in_release() {
        let samples: Vec<_> = (1..=20)
            .map(|i| plan_to_tree_sample(&plan(i as f64 * 1e3, 0), &sys(1.0), i as f64 * 0.5))
            .collect();
        let model = GlobalModel::train(&samples, 2, &quick_config());
        for features in [vec![1.0, 1.0, 9.0, 9.0, 9.0], vec![1.0]] {
            let skewed = SystemContext { features };
            let got = model.predict_log(&plan(1e4, 0), &skewed);
            assert!(got.is_finite());
            // The same context resized to the trained width by hand.
            let mut sample = plan_to_tree_sample(&plan(1e4, 0), &skewed, 0.0);
            assert_ne!(sample.sys_feats.len(), model.sys_dim);
            sample.sys_feats.resize(model.sys_dim, 0.0);
            let (a, b) = model.calibration;
            let (lo, hi) = model.target_range;
            let want = (a * model.gcn.predict(&sample) + b).clamp(lo, hi);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// FNV-1a over the `to_bits` image of every number in a value tree, in
    /// tree order (`-0.0` and `0.0` differ here, unlike the cache key).
    fn bits_digest(v: &serde_json::Value, h: &mut u64) {
        use serde_json::Value;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match v {
            Value::Float(x) => eat(x.to_bits()),
            Value::Int(i) => eat(*i as u64),
            Value::UInt(u) => eat(*u),
            Value::Array(items) => items.iter().for_each(|i| bits_digest(i, h)),
            Value::Object(fields) => fields.iter().for_each(|(_, f)| bits_digest(f, h)),
            _ => {}
        }
    }

    fn digest(v: &serde_json::Value) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        bits_digest(v, &mut h);
        h
    }

    /// Every weight and bias [`GlobalModel::train`] produces, pinned to the
    /// bit: the trainer may change how it holds parameters and gradients,
    /// never the arithmetic. Dropout is on so the mask draws
    /// are pinned too. The digest covers the parameter values; the last
    /// step's gradients, the epoch losses and three raw predictions are
    /// pinned beside them.
    #[test]
    fn trained_weights_are_pinned_to_the_bit() {
        let samples: Vec<TreeSample> = (1..=120)
            .map(|i| {
                let (rows, speed) = (i as f64 * 7e3, [1.0, 2.5, 4.0][i % 3]);
                let p = plan(rows, i % 4);
                plan_to_tree_sample(&p, &sys(speed), rows / 3e4 / speed)
            })
            .collect();
        let config = GlobalModelConfig {
            hidden: 12,
            gcn_layers: 3,
            dropout: 0.2,
            epochs: 3,
            lr: 5e-3,
            batch_size: 8,
            seed: 17,
        };
        let model = GlobalModel::train(&samples, 2, &config);
        let tree = serde_json::to_value(&model);
        let store = &tree["gcn"]["store"];
        let raw: Vec<u64> = [plan(2e4, 0), plan(3e5, 2), plan(9e5, 3)]
            .iter()
            .map(|p| model.predict_log_raw(p, &sys(2.5)).to_bits())
            .collect();
        assert_eq!(
            digest(&store["values"]),
            0x0204_824c_d0f1_1e68,
            "parameter values"
        );
        assert_eq!(
            digest(&store["grads"]),
            0x342d_7cd6_6f9c_44e8,
            "last step's gradients"
        );
        assert_eq!(
            digest(&tree["training_losses"]),
            0x1c3e_36d3_f786_88dd,
            "epoch losses"
        );
        assert_eq!(
            raw,
            [
                0x3fe2_d608_a662_877a,
                0x4001_d749_4eab_130f,
                0x4006_6d9f_545c_6eab
            ],
            "raw predictions"
        );
    }

    /// The same pin at the benchmark's shape: hidden 48, three rounds,
    /// dropout 0.2, batches of 32 and the default learning rate, two epochs
    /// over a fixed fleet of 200 plans of 3 to 19 nodes (joins, and a
    /// three-way union for fan-out) on three instances, so each epoch runs
    /// five full batches and an odd one of 20.
    #[test]
    fn trained_weights_at_the_benchmark_shape_are_pinned_to_the_bit() {
        let samples: Vec<TreeSample> = (1..=200)
            .map(|i| {
                let (rows, speed) = (i as f64 * 4e3, [1.0, 2.5, 4.0][i % 3]);
                let p = if i % 7 == 0 {
                    PlanBuilder::select()
                        .scan("u0", S3Format::Local, rows, 32.0)
                        .scan("u1", S3Format::Parquet, rows / 2.0, 40.0)
                        .scan("u2", S3Format::Local, rows / 3.0, 24.0)
                        .append_all()
                        .hash_aggregate(0.1)
                        .finish()
                } else {
                    plan(rows, i % 5)
                };
                plan_to_tree_sample(&p, &sys(speed), rows / 2e4 / speed)
            })
            .collect();
        let config = GlobalModelConfig {
            hidden: 48,
            gcn_layers: 3,
            dropout: 0.2,
            epochs: 2,
            batch_size: 32,
            ..GlobalModelConfig::default()
        };
        let model = GlobalModel::train(&samples, 2, &config);
        let tree = serde_json::to_value(&model);
        let store = &tree["gcn"]["store"];
        let raw: Vec<u64> = [plan(2e4, 0), plan(3e5, 2), plan(9e5, 4)]
            .iter()
            .map(|p| model.predict_log_raw(p, &sys(2.5)).to_bits())
            .collect();
        assert_eq!(
            digest(&store["values"]),
            0x4621_3b28_4b3d_9cc4,
            "parameter values"
        );
        assert_eq!(
            digest(&store["grads"]),
            0xa930_4997_02a8_844a,
            "last step's gradients"
        );
        assert_eq!(
            digest(&tree["training_losses"]),
            0xb5c2_5743_feb4_8435,
            "epoch losses"
        );
        assert_eq!(
            raw,
            [
                0x4000_4976_b039_3991,
                0x4000_fbc6_7cd1_da6f,
                0x3fd3_0c1c_5b8c_6546
            ],
            "raw predictions"
        );
    }

    #[test]
    #[should_panic(expected = "training samples")]
    fn empty_training_rejected() {
        GlobalModel::train(&[], 2, &quick_config());
    }
}
