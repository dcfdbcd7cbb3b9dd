//! Per-instance repeat statistics behind Fig. 1a of the paper.
//!
//! [`daily_unique_fraction`] is the fraction of an instance's queries that
//! had *no* identical query (same flattened feature vector) within the
//! preceding 24 hours; Fig. 1a plots its distribution over clusters. The
//! experiments runner computes that distribution, and Fig. 1b's fleet-wide
//! latency histogram, per instance in parallel (`stage-bench`'s `fig1`).

use crate::generator::QueryEvent;
use stage_plan::plan_feature_vector;
use std::collections::HashMap;

/// Fraction of events that are "daily unique": no event with an identical
/// plan feature vector in the preceding 24 simulated hours. Returns `None`
/// for an empty log.
pub fn daily_unique_fraction(events: &[QueryEvent]) -> Option<f64> {
    if events.is_empty() {
        return None;
    }
    let mut last_seen: HashMap<u64, f64> = HashMap::new();
    let mut unique = 0usize;
    for e in events {
        let h = plan_feature_vector(&e.plan).stable_hash();
        let is_repeat = last_seen
            .get(&h)
            .map(|&t| e.arrival_secs - t <= 86_400.0)
            .unwrap_or(false);
        if !is_repeat {
            unique += 1;
        }
        last_seen.insert(h, e.arrival_secs);
    }
    Some(unique as f64 / events.len() as f64)
}

/// Convenience: `1 − daily_unique_fraction`.
pub fn repeat_fraction(events: &[QueryEvent]) -> Option<f64> {
    daily_unique_fraction(events).map(|u| 1.0 - u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Fleet, FleetConfig, InstanceWorkload};
    use stage_metrics::LogHistogram;

    #[test]
    fn empty_log_is_none() {
        assert_eq!(daily_unique_fraction(&[]), None);
    }

    #[test]
    fn repeats_detected() {
        let w = InstanceWorkload::generate(&FleetConfig::tiny(), 0);
        let u = daily_unique_fraction(&w.events).unwrap();
        let r = repeat_fraction(&w.events).unwrap();
        assert!((u + r - 1.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&u));
        // A single tiny instance has a few dozen events — too few for a
        // sharp distributional claim — so pool the whole tiny fleet:
        // dashboards dominate it and repeats must exist in bulk.
        let fleet = Fleet::generate(FleetConfig::tiny());
        let (mut repeats, mut total) = (0.0, 0usize);
        for inst in &fleet.instances {
            if let Some(r) = repeat_fraction(&inst.events) {
                repeats += r * inst.events.len() as f64;
                total += inst.events.len();
            }
        }
        assert!(total > 0);
        let pooled = repeats / total as f64;
        assert!(pooled > 0.2, "pooled repeat fraction too low: {pooled}");
    }

    #[test]
    fn fleet_average_repeat_rate_matches_paper_ballpark() {
        // Paper: >60% of queries repeat within 24h on average. Check the
        // default fleet lands in a broad band around that (±20 points).
        let cfg = FleetConfig {
            n_instances: 8,
            duration_days: 2.0,
            ..FleetConfig::default()
        };
        let fleet = Fleet::generate(cfg);
        let total: usize = fleet.total_events();
        let repeats: f64 = fleet
            .instances
            .iter()
            .filter_map(|i| repeat_fraction(&i.events).map(|r| r * i.events.len() as f64))
            .sum();
        let rate = repeats / total as f64;
        assert!(
            (0.4..=0.85).contains(&rate),
            "fleet repeat rate {rate} outside the plausible band"
        );
    }

    #[test]
    fn unique_distribution_spreads_across_instances() {
        let cfg = FleetConfig {
            n_instances: 10,
            duration_days: 1.0,
            ..FleetConfig::default()
        };
        let fleet = Fleet::generate(cfg);
        let dist: Vec<f64> = fleet
            .instances
            .iter()
            .filter_map(|i| daily_unique_fraction(&i.events))
            .collect();
        assert_eq!(dist.len(), 10);
        let min = dist.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = dist.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min > 0.05, "instances should differ: {min}..{max}");
    }

    #[test]
    fn latency_histogram_covers_all_events() {
        let fleet = Fleet::generate(FleetConfig::tiny());
        let mut h = LogHistogram::for_latencies();
        for e in fleet.instances.iter().flat_map(|i| &i.events) {
            h.record(e.true_exec_secs);
        }
        assert_eq!(h.total() as usize, fleet.total_events());
    }
}
