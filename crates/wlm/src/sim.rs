//! The workload-manager simulation proper.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One query to replay: when it arrived, how long it actually ran, and what
/// the predictor under evaluation said it would run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimQuery {
    /// Arrival time (seconds since replay start); input must be sorted.
    pub arrival_secs: f64,
    /// Logged true execution time in seconds.
    pub true_exec_secs: f64,
    /// Predicted execution time in seconds.
    pub predicted_secs: f64,
}

/// Which queue a query was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueKind {
    /// Dedicated short-query queue.
    Short,
    /// Long-running queue.
    Long,
}

/// Scheduling outcome for one query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Index into the input slice.
    pub query: usize,
    /// Queue the query finally completed in.
    pub queue: QueueKind,
    /// Arrival time.
    pub arrival_secs: f64,
    /// Start of the (final) execution attempt.
    pub start_secs: f64,
    /// Completion time.
    pub finish_secs: f64,
    /// Whether the query was first admitted to the short queue, overran the
    /// SQA limit, and was restarted in the long queue.
    pub evicted_from_sqa: bool,
}

impl SimResult {
    /// Queueing delay.
    pub fn wait_secs(&self) -> f64 {
        self.start_secs - self.arrival_secs
    }

    /// End-to-end latency (wait + execution).
    pub fn latency_secs(&self) -> f64 {
        self.finish_secs - self.arrival_secs
    }
}

/// Workload-manager configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WlmConfig {
    /// Predicted exec-time below which a query is routed to the short queue.
    pub short_threshold_secs: f64,
    /// Concurrency slots dedicated to the short queue.
    pub short_slots: usize,
    /// Concurrency slots for the long queue.
    pub long_slots: usize,
    /// Short-queue (SQA) runtime limit: a query running in the short queue
    /// longer than this is evicted and restarted in the long queue, wasting
    /// the work done so far — Redshift's guard against head-of-line
    /// blocking by mispredicted long queries. `None` disables eviction.
    pub sqa_max_runtime_secs: Option<f64>,
}

impl Default for WlmConfig {
    fn default() -> Self {
        Self {
            short_threshold_secs: 5.0,
            short_slots: 3,
            long_slots: 3,
            sqa_max_runtime_secs: None,
        }
    }
}

/// Aggregate latency statistics over a replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WlmSummary {
    /// Number of queries.
    pub count: usize,
    /// Mean end-to-end latency.
    pub avg_latency: f64,
    /// Median latency.
    pub p50_latency: f64,
    /// Tail (P90) latency.
    pub p90_latency: f64,
    /// Mean queueing delay.
    pub avg_wait: f64,
    /// Fraction routed to the short queue.
    pub short_fraction: f64,
}

/// f64 wrapper ordered for min-heaps (panics on NaN at construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl OrdF64 {
    fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "NaN time in simulation");
        Self(v)
    }
}

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("no NaN by construction")
    }
}

/// Min-heap entry for waiting queries: (predicted, arrival order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiting {
    predicted: OrdF64,
    seq: usize,
}
impl PartialOrd for Waiting {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Waiting {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for BinaryHeap max-heap -> min by (predicted, seq).
        other
            .predicted
            .cmp(&self.predicted)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap entry for running queries: completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Running {
    finish: OrdF64,
    seq: usize,
    queue: QueueKind,
    /// The query will not complete at `finish` — it hits the SQA limit and
    /// must be requeued into the long queue.
    evicts: bool,
}
impl PartialOrd for Running {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Running {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .finish
            .cmp(&self.finish)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The replay simulator. Construct with a config, then call
/// [`Simulation::run`].
#[derive(Debug, Clone, Default)]
pub struct Simulation {
    config: WlmConfig,
}

impl Simulation {
    /// Creates a simulator.
    pub fn new(config: WlmConfig) -> Self {
        Self { config }
    }

    /// Replays `queries` (must be sorted by arrival time) and returns one
    /// [`SimResult`] per query, in input order.
    ///
    /// # Panics
    /// Panics if arrivals are unsorted or any time is NaN/negative.
    pub fn run(&self, queries: &[SimQuery]) -> Vec<SimResult> {
        for w in queries.windows(2) {
            assert!(
                w[1].arrival_secs >= w[0].arrival_secs,
                "queries must be sorted by arrival"
            );
        }
        let cfg = &self.config;
        let mut results: Vec<Option<SimResult>> = vec![None; queries.len()];

        let mut short_queue: BinaryHeap<Waiting> = BinaryHeap::new();
        let mut long_queue: BinaryHeap<Waiting> = BinaryHeap::new();
        let mut running: BinaryHeap<Running> = BinaryHeap::new();
        let mut busy_short = 0usize;
        let mut busy_long = 0usize;
        let mut next_arrival = 0usize;
        let mut now;

        // Starts every query that can start at time `now`.
        let start_ready = |now: f64,
                           short_queue: &mut BinaryHeap<Waiting>,
                           long_queue: &mut BinaryHeap<Waiting>,
                           running: &mut BinaryHeap<Running>,
                           busy_short: &mut usize,
                           busy_long: &mut usize,
                           results: &mut Vec<Option<SimResult>>| {
            while *busy_short < cfg.short_slots {
                let Some(w) = short_queue.pop() else { break };
                let q = &queries[w.seq];
                *busy_short += 1;
                let evicts = cfg
                    .sqa_max_runtime_secs
                    .map(|limit| q.true_exec_secs > limit)
                    .unwrap_or(false);
                let occupied = match cfg.sqa_max_runtime_secs {
                    Some(limit) if evicts => limit,
                    _ => q.true_exec_secs,
                };
                let finish = now + occupied;
                running.push(Running {
                    finish: OrdF64::new(finish),
                    seq: w.seq,
                    queue: QueueKind::Short,
                    evicts,
                });
                results[w.seq] = Some(SimResult {
                    query: w.seq,
                    queue: QueueKind::Short,
                    arrival_secs: q.arrival_secs,
                    start_secs: now,
                    finish_secs: finish,
                    evicted_from_sqa: false,
                });
            }
            while *busy_long < cfg.long_slots {
                let Some(w) = long_queue.pop() else { break };
                let q = &queries[w.seq];
                *busy_long += 1;
                let finish = now + q.true_exec_secs;
                running.push(Running {
                    finish: OrdF64::new(finish),
                    seq: w.seq,
                    queue: QueueKind::Long,
                    evicts: false,
                });
                let was_evicted = results[w.seq]
                    .map(|r| r.queue == QueueKind::Short)
                    .unwrap_or(false);
                results[w.seq] = Some(SimResult {
                    query: w.seq,
                    queue: QueueKind::Long,
                    arrival_secs: q.arrival_secs,
                    start_secs: now,
                    finish_secs: finish,
                    evicted_from_sqa: was_evicted,
                });
            }
        };

        loop {
            let arrival_time = queries.get(next_arrival).map(|q| q.arrival_secs);
            let completion_time = running.peek().map(|r| r.finish.0);
            let take_arrival = match (arrival_time, completion_time) {
                (None, None) => break,
                (Some(a), Some(c)) => a <= c,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if take_arrival {
                let a = arrival_time.expect("checked");
                {
                    now = a;
                    let q = &queries[next_arrival];
                    assert!(
                        q.true_exec_secs >= 0.0 && !q.predicted_secs.is_nan(),
                        "invalid query at {next_arrival}"
                    );
                    let entry = Waiting {
                        predicted: OrdF64::new(q.predicted_secs),
                        seq: next_arrival,
                    };
                    if q.predicted_secs < cfg.short_threshold_secs {
                        short_queue.push(entry);
                    } else {
                        long_queue.push(entry);
                    }
                    next_arrival += 1;
                }
            } else {
                now = completion_time.expect("checked");
                // Complete everything finishing at this instant.
                while running.peek().map(|r| r.finish.0 <= now).unwrap_or(false) {
                    let r = running.pop().expect("peeked");
                    match r.queue {
                        QueueKind::Short => busy_short -= 1,
                        QueueKind::Long => busy_long -= 1,
                    }
                    if r.evicts {
                        // SQA eviction: restart in the long queue; rank it
                        // by at least the limit it just overran.
                        let limit = cfg.sqa_max_runtime_secs.expect("evicts implies limit");
                        let pred = queries[r.seq].predicted_secs.max(limit);
                        long_queue.push(Waiting {
                            predicted: OrdF64::new(pred),
                            seq: r.seq,
                        });
                    }
                }
            }
            start_ready(
                now,
                &mut short_queue,
                &mut long_queue,
                &mut running,
                &mut busy_short,
                &mut busy_long,
                &mut results,
            );
        }

        results
            .into_iter()
            .map(|r| r.expect("every query eventually scheduled"))
            .collect()
    }

    /// Replays and summarizes.
    pub fn summarize(&self, queries: &[SimQuery]) -> Option<WlmSummary> {
        if queries.is_empty() {
            return None;
        }
        let results = self.run(queries);
        Some(Self::summary_of(&results))
    }

    /// Aggregates a result set into a [`WlmSummary`].
    pub fn summary_of(results: &[SimResult]) -> WlmSummary {
        let mut latencies: Vec<f64> = results.iter().map(SimResult::latency_secs).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let n = latencies.len();
        let pct = |p: f64| -> f64 {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            latencies[lo] + (latencies[hi] - latencies[lo]) * (pos - lo as f64)
        };
        WlmSummary {
            count: n,
            avg_latency: latencies.iter().sum::<f64>() / n as f64,
            p50_latency: pct(0.5),
            p90_latency: pct(0.9),
            avg_wait: results.iter().map(SimResult::wait_secs).sum::<f64>() / n as f64,
            short_fraction: results
                .iter()
                .filter(|r| r.queue == QueueKind::Short)
                .count() as f64
                / n as f64,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WlmConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(arrival: f64, exec: f64, pred: f64) -> SimQuery {
        SimQuery {
            arrival_secs: arrival,
            true_exec_secs: exec,
            predicted_secs: pred,
        }
    }

    #[test]
    fn single_query_runs_immediately() {
        let sim = Simulation::new(WlmConfig::default());
        let r = sim.run(&[q(10.0, 2.0, 2.0)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].start_secs, 10.0);
        assert_eq!(r[0].finish_secs, 12.0);
        assert_eq!(r[0].wait_secs(), 0.0);
        assert_eq!(r[0].queue, QueueKind::Short);
    }

    #[test]
    fn routing_by_prediction() {
        let sim = Simulation::new(WlmConfig::default());
        let r = sim.run(&[q(0.0, 100.0, 1.0), q(0.0, 1.0, 100.0)]);
        assert_eq!(r[0].queue, QueueKind::Short); // misrouted long query
        assert_eq!(r[1].queue, QueueKind::Long); // misrouted short query
    }

    #[test]
    fn sjf_orders_by_prediction_within_queue() {
        // One slot; three queries arrive together; service order must follow
        // predicted time, not arrival order.
        let cfg = WlmConfig {
            short_slots: 1,
            ..WlmConfig::default()
        };
        let sim = Simulation::new(cfg);
        // First query occupies the slot; the other three queue up.
        let r = sim.run(&[
            q(0.0, 5.0, 4.0),
            q(0.1, 1.0, 3.0),
            q(0.2, 1.0, 1.0),
            q(0.3, 1.0, 2.0),
        ]);
        // Start order after the first: query 2 (pred 1), 3 (pred 2), 1 (pred 3).
        assert!(r[2].start_secs < r[3].start_secs);
        assert!(r[3].start_secs < r[1].start_secs);
    }

    #[test]
    fn head_of_line_blocking_from_misprediction() {
        // A 300s query mispredicted as 1s hogs the single short slot; ten
        // 0.1s dashboards queue behind it. With a correct prediction it goes
        // to the long queue and the dashboards fly through.
        let cfg = WlmConfig {
            short_slots: 1,
            long_slots: 1,
            ..WlmConfig::default()
        };
        let sim = Simulation::new(cfg);
        let mut mispredicted = vec![q(0.0, 300.0, 1.0)];
        let mut correct = vec![q(0.0, 300.0, 300.0)];
        for i in 0..10 {
            let arr = 1.0 + i as f64 * 0.1;
            mispredicted.push(q(arr, 0.1, 0.1));
            correct.push(q(arr, 0.1, 0.1));
        }
        let bad = Simulation::summary_of(&sim.run(&mispredicted));
        let good = Simulation::summary_of(&sim.run(&correct));
        assert!(
            bad.avg_latency > 10.0 * good.avg_latency,
            "bad={} good={}",
            bad.avg_latency,
            good.avg_latency
        );
    }

    #[test]
    fn sqa_eviction_restarts_in_long_queue() {
        let cfg = WlmConfig {
            short_slots: 1,
            long_slots: 1,
            sqa_max_runtime_secs: Some(10.0),
            ..WlmConfig::default()
        };
        let sim = Simulation::new(cfg);
        // A 100 s query mispredicted as 1 s: runs 10 s in SQA, is evicted,
        // restarts in the empty long queue, finishes at 10 + 100.
        let r = sim.run(&[q(0.0, 100.0, 1.0)]);
        assert_eq!(r[0].queue, QueueKind::Long);
        assert!(r[0].evicted_from_sqa);
        assert!((r[0].start_secs - 10.0).abs() < 1e-9);
        assert!((r[0].finish_secs - 110.0).abs() < 1e-9);
        assert!((r[0].latency_secs() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn sqa_eviction_frees_the_short_slot() {
        let cfg = WlmConfig {
            short_slots: 1,
            long_slots: 1,
            sqa_max_runtime_secs: Some(5.0),
            ..WlmConfig::default()
        };
        let sim = Simulation::new(cfg);
        // Mispredicted long query + a dashboard behind it: the dashboard
        // waits at most the SQA limit, not the full 300 s.
        let r = sim.run(&[q(0.0, 300.0, 1.0), q(1.0, 0.1, 0.1)]);
        assert!(r[1].wait_secs() <= 5.0 + 1e-9, "wait={}", r[1].wait_secs());
        assert!(!r[1].evicted_from_sqa);
        // Without eviction the dashboard is stuck behind the misroute.
        let sim_off = Simulation::new(WlmConfig {
            sqa_max_runtime_secs: None,
            ..cfg
        });
        let r_off = sim_off.run(&[q(0.0, 300.0, 1.0), q(1.0, 0.1, 0.1)]);
        assert!(r_off[1].wait_secs() > 100.0);
    }

    #[test]
    fn short_queries_unaffected_by_sqa_limit() {
        let cfg = WlmConfig {
            sqa_max_runtime_secs: Some(10.0),
            ..WlmConfig::default()
        };
        let sim = Simulation::new(cfg);
        let r = sim.run(&[q(0.0, 3.0, 2.0)]);
        assert_eq!(r[0].queue, QueueKind::Short);
        assert!(!r[0].evicted_from_sqa);
        assert!((r[0].finish_secs - 3.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_laws() {
        let sim = Simulation::new(WlmConfig::default());
        let queries: Vec<SimQuery> = (0..50)
            .map(|i| q(i as f64 * 0.5, 1.0 + (i % 7) as f64, 1.0 + (i % 5) as f64))
            .collect();
        let r = sim.run(&queries);
        assert_eq!(r.len(), queries.len());
        for (i, res) in r.iter().enumerate() {
            assert_eq!(res.query, i);
            assert!(res.start_secs >= res.arrival_secs - 1e-9);
            assert!((res.finish_secs - res.start_secs - queries[i].true_exec_secs).abs() < 1e-9);
        }
    }

    #[test]
    fn slot_limits_respected() {
        let cfg = WlmConfig {
            short_slots: 2,
            long_slots: 1,
            ..WlmConfig::default()
        };
        let sim = Simulation::new(cfg);
        let queries: Vec<SimQuery> = (0..20).map(|_| q(0.0, 10.0, 1.0)).collect();
        let r = sim.run(&queries);
        // At any time, at most 2 queries overlap (all short-routed).
        let mut points: Vec<(f64, i32)> = Vec::new();
        for res in &r {
            points.push((res.start_secs, 1));
            points.push((res.finish_secs, -1));
        }
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut active = 0;
        for (_, d) in points {
            active += d;
            assert!(active <= 2, "short slots exceeded");
        }
    }

    #[test]
    fn summary_fields_consistent() {
        let sim = Simulation::new(WlmConfig::default());
        let queries = vec![q(0.0, 1.0, 1.0), q(0.0, 2.0, 2.0), q(0.0, 100.0, 100.0)];
        let s = sim.summarize(&queries).unwrap();
        assert_eq!(s.count, 3);
        assert!(s.p50_latency <= s.p90_latency);
        assert!(s.avg_wait >= 0.0);
        assert!((0.0..=1.0).contains(&s.short_fraction));
        // Two of three are predicted short.
        assert!((s.short_fraction - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let sim = Simulation::new(WlmConfig::default());
        assert!(sim.run(&[]).is_empty());
        assert!(sim.summarize(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_input_rejected() {
        let sim = Simulation::new(WlmConfig::default());
        sim.run(&[q(5.0, 1.0, 1.0), q(1.0, 1.0, 1.0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_every_query_scheduled_exactly_once(
            raw in proptest::collection::vec((0.0f64..1000.0, 0.001f64..50.0, 0.001f64..500.0), 1..120)
        ) {
            let mut queries: Vec<SimQuery> = raw
                .iter()
                .map(|&(a, e, p)| q(a, e, p))
                .collect();
            queries.sort_by(|a, b| a.arrival_secs.partial_cmp(&b.arrival_secs).unwrap());
            let sim = Simulation::new(WlmConfig::default());
            let r = sim.run(&queries);
            prop_assert_eq!(r.len(), queries.len());
            for (i, res) in r.iter().enumerate() {
                prop_assert_eq!(res.query, i);
                prop_assert!(res.start_secs + 1e-9 >= res.arrival_secs);
                prop_assert!((res.finish_secs - res.start_secs - queries[i].true_exec_secs).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_eviction_mode_invariants(
            raw in proptest::collection::vec((0.0f64..500.0, 0.001f64..120.0, 0.001f64..120.0), 1..100)
        ) {
            let mut queries: Vec<SimQuery> = raw.iter().map(|&(a, e, p)| q(a, e, p)).collect();
            queries.sort_by(|a, b| a.arrival_secs.partial_cmp(&b.arrival_secs).unwrap());
            let limit = 10.0;
            let sim = Simulation::new(WlmConfig {
                sqa_max_runtime_secs: Some(limit),
                ..WlmConfig::default()
            });
            let results = sim.run(&queries);
            prop_assert_eq!(results.len(), queries.len());
            for (i, r) in results.iter().enumerate() {
                let exec = queries[i].true_exec_secs;
                // Final attempt runs to completion.
                prop_assert!((r.finish_secs - r.start_secs - exec).abs() < 1e-9);
                prop_assert!(r.latency_secs() + 1e-9 >= exec);
                if r.evicted_from_sqa {
                    // Paid the wasted SQA occupancy before restarting.
                    prop_assert!(r.latency_secs() + 1e-9 >= exec + limit);
                    prop_assert_eq!(r.queue, QueueKind::Long);
                    prop_assert!(exec > limit);
                }
                // No query still routed Short may exceed the limit.
                if r.queue == QueueKind::Short {
                    prop_assert!(exec <= limit + 1e-9);
                }
            }
        }

        #[test]
        fn prop_perfect_predictions_never_much_worse_than_constant(
            raw in proptest::collection::vec((0.0f64..200.0, 0.001f64..30.0), 5..80)
        ) {
            // Oracle predictions should not lose badly to a constant predictor
            // (it can lose slightly on adversarial edge cases, §5.2).
            let mut arrivals: Vec<(f64, f64)> = raw;
            arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let oracle: Vec<SimQuery> = arrivals.iter().map(|&(a, e)| q(a, e, e)).collect();
            let constant: Vec<SimQuery> = arrivals.iter().map(|&(a, e)| q(a, e, 1.0)).collect();
            let sim = Simulation::new(WlmConfig::default());
            let s_oracle = sim.summarize(&oracle).unwrap();
            let s_const = sim.summarize(&constant).unwrap();
            prop_assert!(
                s_oracle.avg_latency <= s_const.avg_latency * 1.5 + 1.0,
                "oracle={} constant={}", s_oracle.avg_latency, s_const.avg_latency
            );
        }
    }
}
