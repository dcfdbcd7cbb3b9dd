//! Bit-identity of the batched inference path (tree-major: one tree walks
//! many rows in lockstep) against a batch of one row (row-major: one row
//! walks many trees in lockstep), across every model class the serving path
//! uses.
//!
//! Reordering the loops must not change a single prediction: the serving
//! layer routes on exact thresholds (`short_circuit_secs`, confidence
//! bounds), so even 1-ulp drift between `predict` and `predict_batch` would
//! make batch and scalar requests route differently. An ensemble rebuilt
//! by `BayesianEnsemble::from_parts` from its exported members — the
//! artefact store's decode path — walks a cut table of its own and must
//! answer as the trained one does, scalar and batch. These property tests
//! fit real models on random datasets (deterministically seeded by the
//! vendored proptest runner) and compare every float by its bit pattern.

use proptest::prelude::*;
use stage_gbdt::ensemble::{BayesianEnsemble, EnsembleParams, EnsemblePrediction, MemberParts};
use stage_gbdt::ngboost::NgBoost;
use stage_gbdt::tree::LANES;
use stage_gbdt::Dataset;

/// Small-but-real: enough rounds to grow several trees.
const N_ESTIMATORS: usize = 15;

fn ensemble_params(seed: u64) -> EnsembleParams {
    EnsembleParams {
        n_members: 3,
        n_estimators: N_ESTIMATORS,
        seed,
    }
}

/// Builds a dataset from generated (x0, x1, y) triples.
fn dataset(triples: &[(f64, f64, f64)]) -> Dataset {
    let rows: Vec<Vec<f64>> = triples.iter().map(|t| vec![t.0, t.1]).collect();
    let targets: Vec<f64> = triples.iter().map(|t| t.2).collect();
    Dataset::from_rows(&rows, &targets)
}

fn probe_rows(probes: &[(f64, f64)]) -> Vec<Vec<f64>> {
    probes.iter().map(|p| vec![p.0, p.1]).collect()
}

/// The answer bits of an ensemble prediction.
fn bits(p: &EnsemblePrediction) -> [u64; 3] {
    [p.mean, p.model_uncertainty, p.data_uncertainty].map(f64::to_bits)
}

/// Every member's scalars and both heads exported in arena form: what the
/// artefact store keeps of an ensemble, and [`BayesianEnsemble::from_parts`]
/// rebuilds it from.
fn exported(ens: &BayesianEnsemble) -> Vec<MemberParts> {
    (ens.members().iter())
        .map(|m| {
            let (base_mu, base_log_var, ..) = m.scalar_parts();
            let mu = m.mu_trees().into_iter().collect();
            let var = m.var_trees().into_iter().collect();
            (base_mu, base_log_var, mu, var)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ngboost_batch_bit_identical(
        triples in proptest::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, -20.0f64..20.0), 20..120),
        probes in proptest::collection::vec(
            (-60.0f64..60.0, -60.0f64..60.0), 0..48),
        seed in 0u64..1000,
    ) {
        let data = dataset(&triples);
        let model = NgBoost::fit(&data, N_ESTIMATORS, seed).expect("non-empty dataset");
        let rows = probe_rows(&probes);
        let batch = model.predict_dist_batch(&rows);
        prop_assert_eq!(batch.len(), rows.len());
        for (row, got) in rows.iter().zip(&batch) {
            let (mu, var) = model.predict_dist_batch(&[row])[0];
            prop_assert_eq!(mu.to_bits(), got.0.to_bits());
            prop_assert_eq!(var.to_bits(), got.1.to_bits());
        }
    }

    #[test]
    fn bayesian_ensemble_batch_bit_identical(
        triples in proptest::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, -20.0f64..20.0), 20..100),
        probes in proptest::collection::vec(
            (-60.0f64..60.0, -60.0f64..60.0), 0..32),
        seed in 0u64..1000,
    ) {
        let data = dataset(&triples);
        let ens = BayesianEnsemble::fit(&data, &ensemble_params(seed)).expect("non-empty dataset");
        let decoded = BayesianEnsemble::from_parts(data.n_cols(), exported(&ens)).expect("lays out");
        let rows = probe_rows(&probes);
        let batch = ens.predict_batch(&rows);
        let decoded_batch = decoded.predict_batch(&rows);
        prop_assert_eq!(batch.len(), rows.len());
        prop_assert_eq!(decoded_batch.len(), rows.len());
        for ((row, got), decoded_got) in rows.iter().zip(&batch).zip(&decoded_batch) {
            let want = bits(&ens.predict(row));
            prop_assert_eq!(bits(got), want);
            prop_assert_eq!(bits(&decoded.predict(row)), want);
            prop_assert_eq!(bits(decoded_got), want);
        }
    }
}

/// The four lengths where the lockstep walk's chunking can go wrong: one
/// chain, one short of a full chunk, a full chunk, one over.
const BOUNDARIES: [usize; 4] = [1, LANES - 1, LANES, LANES + 1];

/// Heads of exactly 1, K−1, K and K+1 trees, walked by batches of 1, K−1,
/// K and K+1 rows: the batch answers, the one-row answers and a fold of the
/// heads' trees one `Tree::predict` at a time in boosting order all agree
/// to the bit. Nine training rows are below the ten at which boosting
/// holds out a validation split, so no model stops early.
#[test]
fn ngboost_batch_bit_identical_at_every_lane_boundary() {
    let triples: Vec<(f64, f64, f64)> = (0..9)
        .map(|i| {
            let x0 = ((i * 37) % 23) as f64 - 11.0;
            let x1 = ((i * 11) % 7) as f64;
            (x0, x1, x0 * 0.7 + x1 * x1 - 3.0)
        })
        .collect();
    let data = dataset(&triples);
    let rows: Vec<Vec<f64>> = (0..LANES + 1)
        .map(|i| match i % 6 {
            0 => vec![f64::NAN, i as f64],
            1 => vec![i as f64 - 8.0, f64::INFINITY],
            2 => vec![f64::NEG_INFINITY, -0.0],
            _ => vec![(i * 5 % 23) as f64 - 11.5, (i % 7) as f64],
        })
        .collect();
    for n_trees in BOUNDARIES {
        let model = NgBoost::fit(&data, n_trees, n_trees as u64).expect("non-empty dataset");
        assert_eq!(model.n_rounds(), n_trees);
        let (base_mu, base_log_var, lr, (lo, hi), _) = model.scalar_parts();
        for n_rows in BOUNDARIES {
            let batch = model.predict_dist_batch(&rows[..n_rows]);
            for (row, got) in rows.iter().zip(&batch) {
                let (mut mu, mut s) = (base_mu, base_log_var);
                for (tm, ts) in model.mu_trees().iter().zip(model.var_trees()) {
                    mu += lr * tm.predict(row);
                    s = (s + lr * ts.predict(row)).clamp(lo, hi);
                }
                let one = model.predict_dist_batch(&[row])[0];
                assert_eq!(one.0.to_bits(), mu.to_bits(), "{n_trees} trees: μ");
                assert_eq!(one.1.to_bits(), s.exp().to_bits(), "{n_trees} trees: σ²");
                assert_eq!(
                    got.0.to_bits(),
                    mu.to_bits(),
                    "{n_trees} trees, {n_rows} rows"
                );
                assert_eq!(
                    got.1.to_bits(),
                    s.exp().to_bits(),
                    "{n_trees} trees, {n_rows} rows"
                );
            }
        }
    }
}
