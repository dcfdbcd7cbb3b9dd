//! Ablation: uncertainty-source comparison — the Bayesian ensemble (Stage's
//! choice) vs a quantile-band GBM (the lightweight alternative the paper
//! argues captures only part of the uncertainty, §2.2).
//!
//! Both are trained on the same deduplicated pool from an instance's
//! cache-missing queries (70% chronological split) and scored on how well
//! their uncertainty ranks held-out absolute error (PRR) and how well their
//! 80% intervals cover the truth.

use super::ExperimentReport;
use crate::context::ExperimentContext;
use serde_json::json;
use stage_gbdt::{BayesianEnsemble, Dataset, GbmParams, QuantileBand};
use stage_metrics::{interval_coverage, prr_score};

/// Runs the comparison; see the module docs.
pub fn uncertainty_sources(ctx: &ExperimentContext) -> ExperimentReport {
    let pooled = super::ablations::dedup_pool(ctx);
    let split = pooled.len() * 7 / 10;
    let mut train = Dataset::new(stage_plan::CACHE_FEATURE_DIM);
    for (f, secs) in &pooled[..split] {
        train.push(f, secs.ln_1p());
    }
    let eval = &pooled[split..];

    let ensemble =
        BayesianEnsemble::fit(&train, &ctx.config.stage.local.ensemble).expect("non-empty");
    let band = QuantileBand::fit(
        &train,
        0.1,
        0.9,
        // Pinball gradients are small constants, so validation loss improves
        // slowly: the quantile heads take a larger step, subsample and wait
        // longer before stopping than the squared/NLL models.
        &GbmParams {
            n_estimators: ctx.config.stage.local.ensemble.n_estimators,
            learning_rate: 0.2,
            subsample: 0.9,
            early_stopping_rounds: 25,
            ..GbmParams::default()
        },
    )
    .expect("non-empty");

    // Score both on the held-out slice.
    let mut ens_err = Vec::new();
    let mut ens_unc = Vec::new();
    let mut ens_cover = Vec::new();
    let mut band_err = Vec::new();
    let mut band_unc = Vec::new();
    let mut band_cover = Vec::new();
    // z for a central 80% Gaussian interval.
    const Z80: f64 = 1.2816;
    for (f, secs) in eval {
        let p = ensemble.predict(f);
        let pred = p.mean.exp_m1().max(0.0);
        ens_err.push((secs - pred).abs());
        ens_unc.push(pred * p.total_variance().sqrt());
        let half = Z80 * p.total_variance().sqrt();
        ens_cover.push((
            *secs,
            (p.mean - half).exp_m1().max(0.0),
            (p.mean + half).exp_m1().max(0.0),
        ));

        let (lo, mid, hi) = band.predict(f);
        let bp = mid.exp_m1().max(0.0);
        band_err.push((secs - bp).abs());
        band_unc.push(bp * (hi - lo).max(0.0));
        band_cover.push((*secs, lo.exp_m1().max(0.0), hi.exp_m1().max(0.0)));
    }
    let ens_prr = prr_score(&ens_err, &ens_unc);
    let band_prr = prr_score(&band_err, &band_unc);
    let ens_cov = interval_coverage(&ens_cover);
    let band_cov = interval_coverage(&band_cover);
    let mae = |errs: &[f64]| errs.iter().sum::<f64>() / errs.len().max(1) as f64;

    let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
    let text = format!(
        "Ablation — uncertainty sources on {n} held-out cache-miss queries\n\
         method                          MAE        PRR   80%-coverage\n\
         Bayesian ensemble (Stage) {:>9.3} {:>10} {:>14}\n\
         quantile band (10/50/90)  {:>9.3} {:>10} {:>14}\n\
         \nExpected (paper §2.2): the ensemble's decomposed uncertainty ranks errors\n\
         at least as well; quantile bands capture data noise but not model doubt.\n",
        mae(&ens_err),
        fmt_opt(ens_prr),
        fmt_opt(ens_cov),
        mae(&band_err),
        fmt_opt(band_prr),
        fmt_opt(band_cov),
        n = eval.len(),
    );
    let json = json!({
        "n": eval.len(),
        "ensemble": {"mae": mae(&ens_err), "prr": ens_prr, "coverage80": ens_cov},
        "quantile_band": {"mae": mae(&band_err), "prr": band_prr, "coverage80": band_cov},
    });
    ExperimentReport::new("ablation_uncertainty", text, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::data::tests::tiny_context;

    #[test]
    fn uncertainty_sources_runs() {
        let ctx = tiny_context();
        let r = uncertainty_sources(&ctx);
        assert_eq!(r.name, "ablation_uncertainty");
        assert!(r.json["n"].as_u64().unwrap() > 0);
    }
}
