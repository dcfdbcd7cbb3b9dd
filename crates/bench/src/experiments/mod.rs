//! One module per paper artefact, plus ablations. Every experiment returns
//! an [`ExperimentReport`]: a human-readable text block (what the CLI
//! prints) and a JSON value (written under `results/`).

pub mod ablations;
pub mod accuracy;
pub mod components;
pub mod data;
pub mod e2e;
pub mod fig1;
pub mod overhead;
pub mod uncertainty;
pub mod uncertainty_alt;

use crate::context::ExperimentContext;
use serde_json::Value;

/// The outcome of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (`fig1a`, `tab5`, `ablation_alpha`, …).
    pub name: String,
    /// Human-readable report.
    pub text: String,
    /// Machine-readable artefact.
    pub json: Value,
}

impl ExperimentReport {
    /// Builds a report.
    pub fn new(name: &str, text: String, json: Value) -> Self {
        Self {
            name: name.to_string(),
            text,
            json,
        }
    }
}

/// All experiment ids, in the order `all` runs them.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1a",
    "fig1b",
    "tab1",
    "tab2",
    "tab3",
    "tab4",
    "tab5",
    "tab6",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "ablation_alpha",
    "ablation_cache_mode",
    "ablation_k",
    "ablation_pool",
    "ablation_coldstart",
    "ablation_routing",
    "ablation_drift",
    "ablation_heterogeneity",
    "ablation_mixed",
    "ablation_uncertainty",
    "ablation_importance",
    "ablation_env",
    "ablation_hash",
    "ablation_welford",
];

/// Runs one experiment by id. `shared` carries replay data across
/// experiments inside one process (pass `None` to let each experiment
/// collect its own).
pub fn run(
    name: &str,
    ctx: &ExperimentContext,
    shared: &mut Option<data::Collected>,
) -> Option<ExperimentReport> {
    let needs_collected = matches!(
        name,
        "tab1" | "tab2" | "tab3" | "tab4" | "tab5" | "tab6" | "fig6" | "fig7" | "fig10" | "fig11"
    );
    if needs_collected && !shared.as_ref().is_some_and(|c| c.with_global) {
        *shared = Some(data::collect(ctx, true));
    }
    let collected = shared.as_ref();
    Some(match name {
        "fig1a" => fig1::fig1a(ctx),
        "fig1b" => fig1::fig1b(ctx),
        "tab1" => accuracy::tab1(ctx, collected?),
        "tab2" => accuracy::tab2(ctx, collected?),
        "tab3" => components::tab3(ctx, collected?),
        "tab4" => components::tab4(ctx, collected?),
        "tab5" => components::tab5(ctx, collected?),
        "tab6" => components::tab6(ctx, collected?),
        "fig6" => e2e::fig6(ctx, collected?),
        "fig7" => e2e::fig7(ctx, collected?),
        "fig9" => overhead::fig9(ctx),
        "fig10" => uncertainty::fig10(ctx, collected?),
        "fig11" => uncertainty::fig11(ctx, collected?),
        "ablation_alpha" => ablations::alpha_sweep(ctx),
        "ablation_cache_mode" => ablations::cache_mode(ctx),
        "ablation_k" => ablations::ensemble_k_sweep(ctx),
        "ablation_pool" => ablations::pool_ablation(ctx),
        "ablation_coldstart" => ablations::cold_start(ctx),
        "ablation_routing" => ablations::routing_sweep(ctx),
        "ablation_drift" => ablations::drift(ctx),
        "ablation_heterogeneity" => ablations::heterogeneity(ctx),
        "ablation_mixed" => ablations::mixed_ensemble(ctx),
        "ablation_uncertainty" => uncertainty_alt::uncertainty_sources(ctx),
        "ablation_importance" => ablations::feature_importance(ctx),
        "ablation_env" => ablations::env_features(ctx),
        "ablation_hash" => ablations::hash_audit(ctx),
        "ablation_welford" => ablations::welford_equivalence(ctx),
        _ => return None,
    })
}
