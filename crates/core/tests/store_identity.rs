//! The artefact-store persistence path is checked against the predictor it
//! was saved from: a snapshot written as a store file and read back must
//! answer every prediction **bit-identically** to the original, before and
//! after further learning, and re-encode to the same section bytes — the
//! serving layer routes on exact thresholds, so even 1-ulp drift would
//! route requests differently after a warm restart. The hostile-input half
//! of this file proves restore never panics and never silently half-loads:
//! truncation at every section boundary, single-bit flips across the whole
//! file, wrong magic/version, a file past the size bound, a calibration or
//! local-model slot that differs from its constant and a pool of another
//! width than its own examples or its ensemble all surface as typed
//! [`RestoreError`]s and quarantine the file.

use proptest::prelude::*;
use stage_core::persist::{PersistFaults, RestoreError};
use stage_core::predictor::{ExecTimePredictor, SystemContext};
use stage_core::stage::{StageConfig, StagePredictor, StageSnapshot};
use stage_core::storefmt::{load_stage_store, save_stage_store, snapshot_sections};
use stage_core::{CacheConfig, LocalModelConfig, PoolConfig};
use stage_gbdt::EnsembleParams;
use stage_plan::{PlanBuilder, S3Format};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn plan(rows: f64) -> stage_plan::PhysicalPlan {
    PlanBuilder::select()
        .scan("t", S3Format::Local, rows, 64.0)
        .hash_aggregate(0.01)
        .finish()
}

/// A config small enough that retraining inside a property test is cheap
/// but real: a trained 2-member ensemble, a populated cache and pool.
fn small_config(seed: u64) -> StageConfig {
    StageConfig {
        cache: CacheConfig::default(),
        pool: PoolConfig::default(),
        local: LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: 2,
                n_estimators: 8,
                seed,
            },
            min_train_examples: 20,
            retrain_interval: 25,
        },
        ..StageConfig::default()
    }
}

/// Drives a predictor through enough traffic to populate all three tiers,
/// returning it with a trained ensemble, warm cache, and non-empty pool.
fn warm_predictor(seed: u64, n_obs: usize) -> StagePredictor {
    let mut s = StagePredictor::new(small_config(seed));
    s.set_instance_salt(seed ^ 0x5741_524d);
    let sys = SystemContext::empty(2);
    for i in 1..=n_obs {
        // Mostly unique plans (so the de-duplicated pool actually grows
        // past `min_train_examples` and the ensemble trains), with every
        // fourth a repeat to exercise warm cache entries.
        let rows = if i % 4 == 0 { 5e4 } else { i as f64 * 1e4 };
        let q = plan(rows);
        s.predict(&q, &sys);
        s.observe(&q, &sys, (i % 7) as f64 * 0.35 + 0.05);
    }
    s
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stage-storefmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap().to_os_string();
    name.push(".quarantine");
    path.with_file_name(name)
}

/// Runs the same probe sequence on both predictors and asserts every
/// prediction matches bit-for-bit (exec time, variance, source).
fn assert_bit_identical(a: &mut StagePredictor, b: &mut StagePredictor, tag: &str) {
    let sys = SystemContext::empty(2);
    for i in 1..=24 {
        let q = plan((i % 17 + 1) as f64 * 7.3e3);
        let pa = a.predict(&q, &sys);
        let pb = b.predict(&q, &sys);
        assert_eq!(
            pa.exec_secs.to_bits(),
            pb.exec_secs.to_bits(),
            "{tag}: probe {i} exec_secs diverged"
        );
        assert_eq!(
            pa.log_variance.map(f64::to_bits),
            pb.log_variance.map(f64::to_bits),
            "{tag}: probe {i} variance diverged"
        );
        assert_eq!(pa.source, pb.source, "{tag}: probe {i} source diverged");
    }
    assert_eq!(a.stats(), b.stats(), "{tag}: routing counters diverged");
}

/// A fault hook that injects nothing and counts the images restore hands
/// it: installing a hook must not change what is read, and a refused file
/// must never get as far as being read.
#[derive(Default)]
struct CountReads(AtomicUsize);

impl PersistFaults for CountReads {
    fn after_read(&self, _path: &Path, _bytes: &mut Vec<u8>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Saves and restores `snap`, once with no fault hook and once with a
/// no-op one installed; the two restores must agree bit for bit.
fn store_round_trip(snap: &StageSnapshot, dir: &Path) -> StageSnapshot {
    let path = dir.join("snapshot.store");
    save_stage_store(snap, &path, None).unwrap();
    let plain = load_stage_store(&path, None).unwrap();
    let hook = CountReads::default();
    let hooked = load_stage_store(&path, Some(&hook)).unwrap();
    assert_eq!(hook.0.load(Ordering::Relaxed), 1);
    assert!(
        snapshot_sections(&plain) == snapshot_sections(&hooked),
        "restore differs with a no-op fault hook installed"
    );
    plain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// store-file restore == the original, bit for bit, across randomly
    /// seeded trained predictors: every probe answer, the re-encoded
    /// sections, and both again after further learning.
    #[test]
    fn store_restore_answers_as_the_original(seed in 0u64..500, n_obs in 25usize..60) {
        let dir = fresh_dir(&format!("prop-{seed}-{n_obs}"));
        let snap = warm_predictor(seed, n_obs).snapshot();
        // The scenario must exercise a real trained ensemble, not just the
        // cache tier.
        prop_assert!(snap.local.is_trained(), "warm-up never trained the ensemble");

        let mut via_store = StagePredictor::from_snapshot(store_round_trip(&snap, &dir));
        let mut original = StagePredictor::from_snapshot(snap.clone());
        let sections = |p: &StagePredictor| snapshot_sections(&p.snapshot());
        prop_assert!(
            sections(&via_store) == sections(&original),
            "restore re-encodes to other bytes"
        );
        assert_bit_identical(&mut original, &mut via_store, "store vs original");
        // The drift sentinel / conformal calibrator (CALIBRATION section)
        // must survive bit-exactly: its Welford baseline and score ring
        // drive interval widths after a warm restart.
        prop_assert!(
            via_store.drift() == &snap.calibration,
            "calibration state diverged across restore"
        );

        // The restored predictor keeps learning as the original does (same
        // retrain cadence, same seeds) — restore is not a frozen copy.
        let sys = SystemContext::empty(2);
        for i in 1..=30 {
            let q = plan((i % 9 + 1) as f64 * 2.1e4);
            original.observe(&q, &sys, i as f64 * 0.2);
            via_store.observe(&q, &sys, i as f64 * 0.2);
        }
        assert_bit_identical(&mut original, &mut via_store, "post-restore learning");
        prop_assert!(
            sections(&via_store) == sections(&original),
            "post-restore learning re-encodes to other bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Truncating the file at (and one byte before) every section boundary is
/// a typed error — never a panic, never an `Ok` with missing state — and
/// quarantines the file.
#[test]
fn truncation_at_every_section_boundary_is_typed_and_quarantined() {
    let dir = fresh_dir("truncate");
    let path = dir.join("snapshot.store");
    let snap = warm_predictor(3, 40).snapshot();
    save_stage_store(&snap, &path, None).unwrap();
    let full = std::fs::read(&path).unwrap();

    // Boundaries: mid-header, end of header, each table entry, each
    // section's start/end, and one byte short of the full file.
    let sections = snapshot_sections(&snap);
    let mut cuts = vec![0, 7, 35, stage_store::HEADER_LEN];
    for i in 0..=sections.len() {
        cuts.push(stage_store::HEADER_LEN + i * stage_store::ENTRY_LEN);
    }
    let view = stage_store::StoreView::parse(&full).unwrap();
    for id in view.section_ids() {
        let sec = view.section(id).unwrap();
        let offset = sec.as_ptr() as usize - full.as_ptr() as usize;
        cuts.extend([offset, offset + sec.len(), offset + sec.len() - 1]);
    }
    cuts.push(full.len() - 1);
    cuts.retain(|&c| c < full.len());
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = load_stage_store(&path, None).unwrap_err();
        assert!(
            !matches!(err, RestoreError::Io(_)),
            "cut at {cut}: expected damage, got io error {err}"
        );
        assert!(!path.exists(), "cut at {cut}: damaged file left in place");
        let q = quarantine_path(&path);
        assert!(q.exists(), "cut at {cut}: no quarantine file");
        let _ = std::fs::remove_file(&q);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-bit flips across the file (sampled stride) are always caught by
/// a CRC (or structural check) — restore never returns `Ok` on a damaged
/// image and never panics.
#[test]
fn bit_flips_never_restore_silently() {
    let dir = fresh_dir("bitflip");
    let path = dir.join("snapshot.store");
    let snap = warm_predictor(4, 35).snapshot();
    save_stage_store(&snap, &path, None).unwrap();
    let full = std::fs::read(&path).unwrap();

    let stride = (full.len() / 97).max(1);
    for byte in (0..full.len()).step_by(stride) {
        let mut damaged = full.clone();
        damaged[byte] ^= 1 << (byte % 8);
        std::fs::write(&path, &damaged).unwrap();
        let err = load_stage_store(&path, None).unwrap_err();
        assert!(
            !matches!(err, RestoreError::Io(_)),
            "flip at {byte}: expected damage, got io error {err}"
        );
        let _ = std::fs::remove_file(quarantine_path(&path));
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wrong magic and an unsupported version (with a *valid* header CRC, so
/// only the version check can object) are their own typed errors.
#[test]
fn wrong_magic_and_version_are_typed() {
    let dir = fresh_dir("magic");
    let path = dir.join("snapshot.store");
    let snap = warm_predictor(5, 30).snapshot();

    save_stage_store(&snap, &path, None).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    let err = load_stage_store(&path, None).unwrap_err();
    assert!(matches!(err, RestoreError::BadMagic), "{err}");
    assert!(quarantine_path(&path).exists());
    let _ = std::fs::remove_file(quarantine_path(&path));

    save_stage_store(&snap, &path, None).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let fixed_crc = stage_store::crc32(&bytes[..36]);
    bytes[36..40].copy_from_slice(&fixed_crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = load_stage_store(&path, None).unwrap_err();
    assert!(
        matches!(err, RestoreError::UnsupportedVersion { found: 99 }),
        "{err}"
    );
    assert!(quarantine_path(&path).exists());

    // A missing file stays a benign cold start (no quarantine).
    let gone = dir.join("never-written.store");
    assert!(load_stage_store(&gone, None).unwrap_err().is_not_found());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory entry claiming more than the 1 GiB restore bound is
/// refused from its length alone — typed error, quarantined, and the
/// read (which would allocate the claimed length) never happens.
#[test]
fn oversized_file_is_refused_before_it_is_read() {
    let dir = fresh_dir("oversize");
    let path = dir.join("snapshot.store");
    save_stage_store(&warm_predictor(8, 30).snapshot(), &path, None).unwrap();
    // Sparse: the length is a claim, no blocks are allocated behind it.
    let file = std::fs::File::options().write(true).open(&path).unwrap();
    file.set_len((1 << 30) + 1).unwrap();
    drop(file);

    let hook = CountReads::default();
    let err = load_stage_store(&path, Some(&hook)).unwrap_err();
    assert!(
        matches!(&err, RestoreError::Malformed { detail } if detail.contains("exceeds")),
        "{err}"
    );
    assert_eq!(hook.0.load(Ordering::Relaxed), 0, "the file was read");
    assert!(!path.exists(), "oversized file left in place");
    assert!(quarantine_path(&path).exists(), "no quarantine file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CALIBRATION section specifically: corrupting any byte inside it is
/// a typed error + quarantine (never a silently reset calibrator), and a
/// file written *without* the section restores as a cold sentinel.
#[test]
fn calibration_section_corruption_quarantines_and_absence_is_cold_start() {
    use stage_core::storefmt::SECTION_CALIBRATION;
    use stage_core::DriftSentinel;

    let dir = fresh_dir("calibration");
    let path = dir.join("snapshot.store");
    let sys = SystemContext::empty(2);
    let mut s = warm_predictor(7, 45);
    // Extra steady traffic so the calibrator holds a non-trivial score ring.
    for i in 1..=40 {
        let q = plan((i % 11 + 1) as f64 * 9.1e3);
        s.observe(&q, &sys, (i % 5) as f64 * 0.3 + 0.1);
    }
    let snap = s.snapshot();
    assert!(
        snap.calibration.residuals_seen() > 0,
        "warm-up never fed the drift sentinel"
    );
    save_stage_store(&snap, &path, None).unwrap();
    let full = std::fs::read(&path).unwrap();

    // Flip one byte in the middle of the CALIBRATION section payload.
    let view = stage_store::StoreView::parse(&full).unwrap();
    let sec = view.section(SECTION_CALIBRATION).expect("section missing");
    assert!(!sec.is_empty());
    let offset = sec.as_ptr() as usize - full.as_ptr() as usize;
    let mut damaged = full.clone();
    damaged[offset + sec.len() / 2] ^= 0x40;
    std::fs::write(&path, &damaged).unwrap();
    let err = load_stage_store(&path, None).unwrap_err();
    assert!(
        !matches!(err, RestoreError::Io(_)),
        "expected typed damage, got {err}"
    );
    assert!(quarantine_path(&path).exists(), "no quarantine file");
    let _ = std::fs::remove_file(quarantine_path(&path));

    // A pre-calibration-era file (section absent) restores with a default
    // sentinel rather than failing.
    let legacy: Vec<(u32, Vec<u8>)> = snapshot_sections(&snap)
        .into_iter()
        .filter(|(id, _)| *id != SECTION_CALIBRATION)
        .collect();
    std::fs::write(&path, stage_store::build_file(&legacy, 0)).unwrap();
    let restored = load_stage_store(&path, None).unwrap();
    assert_eq!(restored.calibration, DriftSentinel::default());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file whose constant slot holds anything but its constant is refused —
/// typed `Malformed`, and quarantined — rather than restored into a model
/// that serves nonsense: a `fallback_z` of 1e300 serves `(0, ∞)` for every
/// local answer until the score window fills, a member `learning_rate` of
/// 1e300 serves `inf` s from the Local tier, and a `lambda` of −1.0 serves
/// 0.0 s after the next retrain.
#[test]
fn a_hostile_policy_slot_is_refused() {
    use stage_core::storefmt::{SECTION_CALIBRATION, SECTION_LOCAL};

    // `(section, byte offset, slot, its constant, the lie)`. CALIBRATION
    // opens with the drift sentinel's eleven policy slots: `fallback_z`
    // sits past four f64 slots, a u64, a u32 and `target_coverage`. LOCAL
    // opens with seventeen ensemble slots, `lambda` the fourteenth; the
    // first member's `learning_rate` follows them, five u64 counters, the
    // trained flag, the member count and two f64 base scores.
    let cases: [(u32, usize, &str, f64, f64); 3] = [
        (
            SECTION_CALIBRATION,
            4 * 8 + 8 + 4 + 8,
            "fallback_z",
            1.645,
            1e300,
        ),
        (SECTION_LOCAL, 13 * 8, "lambda", 1.0, -1.0),
        (
            SECTION_LOCAL,
            17 * 8 + 5 * 8 + 1 + 8 + 2 * 8,
            "learning_rate",
            0.1,
            1e300,
        ),
    ];
    let dir = fresh_dir("policy");
    let path = dir.join("snapshot.store");
    let snap = warm_predictor(7, 32).snapshot();
    assert!(snap.local.is_trained(), "no member slot to lie in");
    for (section, at, slot, constant, lie) in cases {
        let sections: Vec<(u32, Vec<u8>)> = snapshot_sections(&snap)
            .into_iter()
            .map(|(id, mut bytes)| {
                if id == section {
                    let bits = &mut bytes[at..at + 8];
                    assert_eq!(bits, &constant.to_le_bytes()[..], "not the {slot} slot");
                    bits.copy_from_slice(&lie.to_le_bytes());
                }
                (id, bytes)
            })
            .collect();
        std::fs::write(&path, stage_store::build_file(&sections, 0)).unwrap();
        let err = load_stage_store(&path, None).unwrap_err();
        assert!(
            matches!(err, RestoreError::Malformed { .. }),
            "{slot}: {err}"
        );
        assert!(!path.exists(), "{slot}: hostile file left in place");
        assert!(
            quarantine_path(&path).exists(),
            "{slot}: no quarantine file"
        );
        let _ = std::fs::remove_file(quarantine_path(&path));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The POOL section re-encoded with `extra(i)` more zero columns on its
/// `i`-th example, every other word as it was.
fn widen_pool(section: &[u8], extra: impl Fn(usize) -> usize) -> Vec<u8> {
    use stage_store::{SectionReader, SectionWriter};
    let (mut r, mut w) = (SectionReader::new(section), SectionWriter::new());
    for _ in 0..3 {
        w.put_u64(r.u64().unwrap());
    }
    w.put_bool(r.bool().unwrap());
    w.put_u64(r.u64().unwrap());
    let n_buckets = r.u64().unwrap();
    w.put_u64(n_buckets);
    let mut i = 0;
    for _ in 0..n_buckets {
        let len = r.u64().unwrap();
        w.put_u64(len);
        for _ in 0..len {
            let mut features = r.f64_vec().unwrap();
            features.resize(features.len() + extra(i), 0.0);
            w.put_f64_slice(&features);
            w.put_f64(r.f64().unwrap());
            i += 1;
        }
    }
    r.expect_end().unwrap();
    w.finish()
}

/// A shard cuts or pads every input to one width, so no sequence of verbs
/// leaves a pool of mixed widths, or a pool of another width than its
/// trained ensemble. A file that holds either is refused — typed
/// `Malformed`, and quarantined — rather than restored into a shard whose
/// next retrain trains on rows of the wrong width.
#[test]
fn a_pool_of_another_width_is_refused() {
    use stage_core::storefmt::SECTION_POOL;

    let dir = fresh_dir("width");
    let path = dir.join("snapshot.store");
    let snap = warm_predictor(9, 40).snapshot();
    assert!(snap.local.is_trained() && snap.pool.len() > 1);
    let (_, original) = (snapshot_sections(&snap).into_iter())
        .find(|(id, _)| *id == SECTION_POOL)
        .unwrap();
    // Re-encoding with no change is the section itself.
    assert_eq!(widen_pool(&original, |_| 0), original);
    // Only the first example one column wider, then every example.
    for (case, mixed) in [
        ("mixed widths", true),
        ("one width, not the ensemble's", false),
    ] {
        let extra = |i: usize| usize::from(!mixed || i == 0);
        let sections: Vec<(u32, Vec<u8>)> = snapshot_sections(&snap)
            .into_iter()
            .map(|(id, bytes)| match id {
                SECTION_POOL => (id, widen_pool(&bytes, extra)),
                _ => (id, bytes),
            })
            .collect();
        std::fs::write(&path, stage_store::build_file(&sections, 0)).unwrap();
        let err = load_stage_store(&path, None).unwrap_err();
        assert!(
            matches!(&err, RestoreError::Malformed { detail } if detail.contains("width")),
            "{case}: {err}"
        );
        assert!(!path.exists(), "{case}: refused file left in place");
        assert!(
            quarantine_path(&path).exists(),
            "{case}: no quarantine file"
        );
        let _ = std::fs::remove_file(quarantine_path(&path));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The global-model store file round-trips the model bit-exactly and
/// carries the caller's generation stamp, readable from the header alone.
#[test]
fn global_store_round_trip_and_generation_poll() {
    use stage_core::global::{plan_to_tree_sample, GlobalModel, GlobalModelConfig};
    use stage_core::storefmt::{load_global_store, save_global_store, store_generation};

    let dir = fresh_dir("global");
    let path = dir.join("global.store");
    let sys = SystemContext::empty(2);
    let samples: Vec<_> = (1..=25)
        .map(|i| plan_to_tree_sample(&plan(i as f64 * 1e4), &sys, i as f64 * 0.2))
        .collect();
    let cfg = GlobalModelConfig {
        hidden: 8,
        gcn_layers: 1,
        epochs: 3,
        ..GlobalModelConfig::default()
    };
    let model = GlobalModel::train(&samples, 2, &cfg);

    save_global_store(&model, &path, 7, None).unwrap();
    assert_eq!(store_generation(&path).unwrap(), 7);
    let (restored, generation) = load_global_store(&path, None).unwrap();
    assert_eq!(generation, 7);
    // Log-space answers, before the clamp and the `exp` can hide a stray
    // bit, on single-chain and join-tree probes (3 to 9 plan nodes).
    for joins in 0..4 {
        let mut b = PlanBuilder::select().scan("t", S3Format::Local, 3.3e5, 64.0);
        for j in 0..joins {
            b = b
                .scan("u", S3Format::Local, 1e4 * (j + 1) as f64, 48.0)
                .hash_join(0.1);
        }
        let probe = b.hash_aggregate(0.01).finish();
        assert_eq!(
            model.predict_log(&probe, &sys).to_bits(),
            restored.predict_log(&probe, &sys).to_bits()
        );
        assert_eq!(
            model.predict_log_raw(&probe, &sys).to_bits(),
            restored.predict_log_raw(&probe, &sys).to_bits()
        );
    }

    // A newer artefact bumps the polled generation.
    save_global_store(&model, &path, 8, None).unwrap();
    assert_eq!(store_generation(&path).unwrap(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}
