//! Output checks for the untraced run.
//!
//! A full in-process oracle costs what the server costs (it retrains the
//! same ensembles), so within the run-time cap it replays a fixed prefix of
//! the first shards; the traced run holds *every* answer against one.
//! Beyond the prefix the checks are the ones that need no model state:
//!
//! * a mirror `ExecTimeCache` fed the same observes says, for every query,
//!   whether the cache must answer and with which bits;
//! * the global model is stateless, so a fixed one-in-sixteen sample of its
//!   answers is recomputed;
//! * every answer is finite, non-negative, and its interval ordered.

use crate::corpus::Workload;
use crate::served::{ops_on, Answer, Ledger};
use crate::spec::ORACLE_SHARDS;
use stage_core::{
    ExecTimeCache, ExecTimePredictor, GlobalModel, PredictionSource, StageConfig, StagePredictor,
};
use stage_plan::PhysicalPlan;
use std::sync::Arc;

/// Global-model answers recomputed: one in this many.
const GLOBAL_SAMPLE: usize = 16;

#[derive(Debug, Default)]
pub struct Verdict {
    pub oracle_checked: u64,
    pub cache_checked: u64,
    pub global_checked: u64,
    pub mismatches: u64,
    pub first: Option<String>,
}

impl Verdict {
    pub fn miss(&mut self, what: impl FnOnce() -> String) {
        self.mismatches += 1;
        self.first.get_or_insert_with(what);
    }

    pub fn merge(&mut self, other: Verdict) {
        self.oracle_checked += other.oracle_checked;
        self.cache_checked += other.cache_checked;
        self.global_checked += other.global_checked;
        self.mismatches += other.mismatches;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// The predictor a server shard holds: default config, the shard id as
/// seed salt, the shared global model when one is mapped.
pub fn shard_predictor(shard: u32, global: Option<&Arc<GlobalModel>>) -> StagePredictor {
    let mut p = match global {
        Some(g) => StagePredictor::with_global(StageConfig::default(), Arc::clone(g)),
        None => StagePredictor::new(StageConfig::default()),
    };
    p.set_instance_salt(u64::from(shard));
    p
}

/// What the server computes for one Predict / PredictBatch request, by
/// the same calls in the same order.
pub fn oracle_answers(
    p: &mut StagePredictor,
    w: &Workload,
    shard: u32,
    first: usize,
) -> Vec<Answer> {
    let sys = w.query(shard, first).context();
    let predictions = if w.spec.batch == 1 {
        vec![p.predict(&w.query(shard, first).plan, &sys)]
    } else {
        let plans: Vec<PhysicalPlan> = (0..w.spec.batch)
            .map(|k| w.query(shard, first + k).plan.clone())
            .collect();
        p.predict_batch(&plans, &sys)
    };
    predictions
        .iter()
        .map(|pr| {
            let (lo, hi) = p.calibrated_interval(pr).unzip();
            Answer::new(pr.exec_secs, lo, hi, pr.source)
        })
        .collect()
}

fn sane(a: &Answer) -> bool {
    let interval_ok = match (a.lo.is_nan(), a.hi.is_nan()) {
        (true, true) => true,
        (false, false) => a.lo >= 0.0 && a.lo <= a.hi && a.hi.is_finite(),
        _ => false,
    };
    a.secs.is_finite() && a.secs >= 0.0 && interval_ok
}

/// Checks everything one client was answered.
pub fn verify(w: &Workload, l: &Ledger, global: Option<&Arc<GlobalModel>>) -> Verdict {
    let mut v = Verdict::default();
    let batch = w.spec.batch;
    let n = l.owned.len();
    for (k, &shard) in l.owned.iter().enumerate() {
        let mut mirror = ExecTimeCache::new(StageConfig::default().cache);
        let mut oracle = (shard < ORACLE_SHARDS).then(|| shard_predictor(shard, global));
        for q in w.setup_queries(shard) {
            mirror.record(q.key, q.true_secs);
            if let Some(p) = &mut oracle {
                p.observe(&q.plan, &q.context(), q.true_secs);
            }
        }
        for b in 0..ops_on(l, k) {
            let first = b * batch;
            let at = (b * n + k) * batch;
            let answers = &l.answers[at..at + batch];
            if first >= w.spec.oracle_prefix {
                oracle = None;
            }
            if let Some(p) = &mut oracle {
                for (t, (got, want)) in answers
                    .iter()
                    .zip(oracle_answers(p, w, shard, first))
                    .enumerate()
                {
                    v.oracle_checked += 1;
                    if !got.is_missing() && !got.same_bits(&want) {
                        v.miss(|| {
                            format!(
                                "shard {shard} query {}: served {got:?}, oracle {want:?}",
                                first + t
                            )
                        });
                    }
                }
            }
            for (t, a) in answers.iter().enumerate() {
                if a.is_missing() {
                    continue;
                }
                let q = w.query(shard, first + t);
                let i = first + t;
                if !sane(a) {
                    v.miss(|| format!("shard {shard} query {i}: not a usable answer {a:?}"));
                }
                v.cache_checked += 1;
                match mirror.lookup(q.key) {
                    Some(secs)
                        if a.source != PredictionSource::Cache
                            || a.secs.to_bits() != secs.to_bits() =>
                    {
                        v.miss(|| {
                            format!("shard {shard} query {i}: cache holds {secs}, served {a:?}")
                        });
                    }
                    None if a.source == PredictionSource::Cache => {
                        v.miss(|| {
                            format!("shard {shard} query {i}: cache answer for an unseen plan")
                        });
                    }
                    _ => {}
                }
                if a.source == PredictionSource::Global && (at + t).is_multiple_of(GLOBAL_SAMPLE) {
                    if let Some(g) = global {
                        v.global_checked += 1;
                        let want = g.predict(&q.plan, &w.query(shard, first).context());
                        if want.to_bits() != a.secs.to_bits() {
                            v.miss(|| format!("shard {shard} query {i}: global model gives {want}, served {a:?}"));
                        }
                    }
                }
            }
            for t in 0..batch {
                let q = w.query(shard, first + t);
                mirror.record(q.key, q.true_secs);
                if let Some(p) = &mut oracle {
                    p.observe(&q.plan, &q.context(), q.true_secs);
                }
            }
        }
    }
    v
}

/// Share of answers each tier gave, `[cache, local, global, default]`.
pub fn source_shares(ledgers: &[Ledger]) -> [f64; 4] {
    let mut counts = [0u64; 4];
    for a in ledgers.iter().flat_map(|l| &l.answers) {
        if !a.is_missing() {
            counts[source_index(a.source)] += 1;
        }
    }
    shares(counts)
}

pub fn source_index(source: PredictionSource) -> usize {
    match source {
        PredictionSource::Cache => 0,
        PredictionSource::Local => 1,
        PredictionSource::Global => 2,
        PredictionSource::Default => 3,
    }
}

pub fn shares(counts: [u64; 4]) -> [f64; 4] {
    let total: u64 = counts.iter().sum();
    counts.map(|c| {
        if total == 0 {
            0.0
        } else {
            c as f64 / total as f64
        }
    })
}

/// The tier-mix assertion: `None` when the run is the workload it claims
/// to be.
pub fn tier_mix_violation(w: &Workload, shares: [f64; 4]) -> Option<String> {
    let expect = w.spec.expect?;
    let share = shares[source_index(expect.source)];
    (share < expect.min_share || share > expect.max_share).then(|| {
        format!(
            "{}: {:?} answered {share:.4} of queries, expected {}..={}",
            w.spec.name, expect.source, expect.min_share, expect.max_share
        )
    })
}
