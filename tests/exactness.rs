//! Exactness goldens: what the local model computes, pinned to the bit.
//!
//! A Bayesian ensemble trained on a fixed fleet pool is digested whole —
//! every tree's `to_flat_parts` arrays and its prediction on every pool
//! row — and so are the bytes of a trained predictor's `.store` file. A
//! change to how trees are laid out or walked, or to how the calibration
//! window is kept, must leave both digests where they are: the serving
//! layer routes on exact thresholds, and a warm restart reads the files
//! earlier builds wrote. The single-head boosters on the same pool (the
//! squared-error `Gbm` and the pinball-loss quantile models) are digested
//! the same way, so a change to the boosting loop they share with the
//! ensemble's members cannot move any model's bits unnoticed.

use stage::core::storefmt::save_stage_store;
use stage::core::{ExecTimePredictor, PoolConfig, StageConfig, StagePredictor, SystemContext};
use stage::gbdt::{BayesianEnsemble, Dataset, EnsembleParams, Gbm, GbmParams, Tree};
use stage::plan::{plan_feature_vector, PhysicalPlan};
use stage::workload::generator::{FleetConfig, InstanceWorkload};

/// FNV-1a over 64-bit words, little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// The first `n` queries of each of a four-instance fleet's logs: plan,
/// system context and exec-time.
fn fleet(n: usize) -> Vec<(PhysicalPlan, SystemContext, f64)> {
    let cfg = FleetConfig {
        n_instances: 4,
        duration_days: 1.0,
        max_events_per_instance: n,
        seed: 32,
        ..FleetConfig::default()
    };
    (0..4)
        .flat_map(|id| {
            let w = InstanceWorkload::generate(&cfg, id);
            let spec = w.spec;
            w.events
                .into_iter()
                .take(n)
                .map(|e| {
                    let sys = SystemContext {
                        features: spec.system_features(e.concurrency),
                    };
                    (e.plan, sys, e.true_exec_secs)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The fleet's queries as the local model's training pool sees them.
fn fleet_pool() -> Dataset {
    let mut pool = stage::core::TrainingPool::new(PoolConfig::default());
    for (plan, _, secs) in fleet(300) {
        pool.add(plan_feature_vector(&plan).0, secs);
    }
    pool.to_dataset().expect("a non-empty pool")
}

#[test]
fn a_trained_ensemble_is_pinned_to_the_bit() {
    let data = fleet_pool();
    let ens = BayesianEnsemble::fit(&data, &EnsembleParams::default()).expect("trains");
    let mut h = Fnv::new();
    let mut n_trees = 0;
    for m in ens.members() {
        let (base_mu, base_log_var, lr, (lo, hi), n_cols) = m.scalar_parts();
        [base_mu, base_log_var, lr, lo, hi]
            .into_iter()
            .for_each(|x| h.f64(x));
        h.word(n_cols as u64);
        for tree in m.mu_trees().iter().chain(m.var_trees()) {
            let (feature, threshold, left, right, gain) = tree.to_flat_parts();
            h.word(feature.len() as u64);
            feature.iter().for_each(|&f| h.word(u64::from(f)));
            threshold.iter().for_each(|&t| h.f64(t));
            left.iter().for_each(|&l| h.word(u64::from(l)));
            right.iter().for_each(|&r| h.word(u64::from(r)));
            gain.iter().for_each(|&g| h.f64(g));
            n_trees += 1;
        }
    }
    let rows: Vec<&[f64]> = (0..data.n_rows()).map(|i| data.row(i)).collect();
    let batch = ens.predict_batch(&rows);
    for (row, b) in rows.iter().zip(&batch) {
        let p = ens.predict(row);
        assert_eq!(p, *b, "batch and scalar answers differ");
        h.f64(p.mean);
        h.f64(p.model_uncertainty);
        h.f64(p.data_uncertainty);
    }
    eprintln!("{} rows, {n_trees} trees, digest {:#018x}", rows.len(), h.0);
    assert_eq!((rows.len(), n_trees), (1_200, 606));
    assert_eq!(h.0, 0xd8ae_f01d_c1ca_5016, "ensemble digest");
}

#[test]
fn a_trained_store_file_is_pinned_to_the_byte() {
    let mut s = StagePredictor::new(StageConfig::default());
    s.set_instance_salt(32);
    for (plan, sys, secs) in fleet(120) {
        s.predict(&plan, &sys);
        s.observe(&plan, &sys, secs);
    }
    assert!(s.local().trainings() >= 2, "the local model retrained");
    let dir = std::env::temp_dir().join(format!("stage-exactness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trained.store");
    save_stage_store(&s.snapshot(), &path, None).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_dir_all(&dir);
    let mut h = Fnv::new();
    h.bytes(&bytes);
    eprintln!("{} bytes, digest {:#018x}", bytes.len(), h.0);
    assert_eq!(
        (bytes.len(), h.0),
        (742_600, 0x4d24_1719_fb9b_480c),
        "store file length and digest"
    );
}

/// Every tree of a single-head booster, read back out of its serde form
/// (the trees are private), as `to_flat_parts` words.
fn hash_trees(h: &mut Fnv, model: &serde_json::Value) -> usize {
    let trees: Vec<Tree> = serde_json::from_value(&model["trees"]).expect("trees");
    for tree in &trees {
        let (feature, threshold, left, right, gain) = tree.to_flat_parts();
        h.word(feature.len() as u64);
        feature.iter().for_each(|&f| h.word(u64::from(f)));
        threshold.iter().for_each(|&t| h.f64(t));
        left.iter().for_each(|&l| h.word(u64::from(l)));
        right.iter().for_each(|&r| h.word(u64::from(r)));
        gain.iter().for_each(|&g| h.f64(g));
    }
    trees.len()
}

#[test]
fn trained_boosters_are_pinned_to_the_bit() {
    let data = fleet_pool();
    let mut rows: Vec<Vec<f64>> = (0..data.n_rows()).map(|i| data.row(i).to_vec()).collect();
    rows.push(vec![f64::NAN; data.n_cols()]);
    let mut h = Fnv::new();
    let mut n_trees = Vec::new();
    for subsample in [1.0, 0.8] {
        let params = GbmParams {
            subsample,
            ..GbmParams::default()
        };
        let gbm = Gbm::fit(&data, &params).expect("trains");
        h.f64(gbm.base_score());
        n_trees.push(hash_trees(&mut h, &serde_json::to_value(&gbm)));
        rows.iter().for_each(|r| h.f64(gbm.predict(r)));
    }
    let quantile = GbmParams {
        n_estimators: 300,
        learning_rate: 0.2,
        subsample: 0.9,
        early_stopping_rounds: 25,
        ..GbmParams::default()
    };
    for q in [0.1, 0.5, 0.9] {
        let model = Gbm::fit_quantile(&data, q, &quantile).expect("trains");
        n_trees.push(hash_trees(&mut h, &serde_json::to_value(&model)));
        rows.iter().for_each(|r| h.f64(model.predict(r)));
    }
    eprintln!("trees {n_trees:?}, digest {:#018x}", h.0);
    assert_eq!(n_trees, [75, 90, 54, 92, 117]);
    assert_eq!(h.0, 0x26cd_9216_3c39_3e47, "booster digest");
}

/// The answer bits of an ensemble prediction.
fn answer_bits(p: &stage::gbdt::EnsemblePrediction) -> [u64; 3] {
    [p.mean, p.model_uncertainty, p.data_uncertainty].map(f64::to_bits)
}

/// A decoded ensemble walks its trees on a cut table rebuilt from their
/// stored thresholds, a trained one on the quantile cuts of its pool: on every pool
/// row (and an all-NaN row) the two answer bit for bit alike, scalar and
/// batch, and the decoded one exports the trees it was built from.
#[test]
fn a_decoded_ensemble_answers_as_the_trained_one() {
    let data = fleet_pool();
    let ens = BayesianEnsemble::fit(&data, &EnsembleParams::default()).expect("trains");
    let parts = |e: &BayesianEnsemble| -> Vec<_> {
        e.members()
            .iter()
            .map(|m| {
                let (base_mu, base_log_var, ..) = m.scalar_parts();
                let mu: Vec<Tree> = m.mu_trees().into_iter().collect();
                let var: Vec<Tree> = m.var_trees().into_iter().collect();
                (base_mu, base_log_var, mu, var)
            })
            .collect()
    };
    let decoded = BayesianEnsemble::from_parts(data.n_cols(), parts(&ens)).expect("lays out");
    let words = |e: &BayesianEnsemble| {
        let mut h = Fnv::new();
        for (base_mu, base_log_var, mu, var) in parts(e) {
            h.f64(base_mu);
            h.f64(base_log_var);
            for tree in mu.iter().chain(&var) {
                let (feature, threshold, left, right, gain) = tree.to_flat_parts();
                feature.iter().for_each(|&f| h.word(u64::from(f)));
                threshold.iter().for_each(|&t| h.f64(t));
                left.iter().for_each(|&l| h.word(u64::from(l)));
                right.iter().for_each(|&r| h.word(u64::from(r)));
                gain.iter().for_each(|&g| h.f64(g));
            }
        }
        h.0
    };
    assert_eq!(words(&decoded), words(&ens), "exported trees");
    let mut rows: Vec<Vec<f64>> = (0..data.n_rows()).map(|i| data.row(i).to_vec()).collect();
    rows.push(vec![f64::NAN; data.n_cols()]);
    let batch = decoded.predict_batch(&rows);
    for (row, b) in rows.iter().zip(&batch) {
        let want = answer_bits(&ens.predict(row));
        assert_eq!(answer_bits(&decoded.predict(row)), want, "scalar");
        assert_eq!(answer_bits(b), want, "batch");
    }
}
