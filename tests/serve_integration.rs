//! End-to-end tests for the `stage-serve` online prediction service: the
//! full wire protocol over a real TCP socket, warm restart from snapshots,
//! socket faults, and concurrent clients losing no feedback. Every test but
//! the concurrent one is a fixed trace on the driver (`tests/support`), so
//! on top of what it asserts here every reply equals the in-process model's
//! to the bit, every counter agrees and every server thread joins.

#[expect(
    dead_code,
    reason = "this file runs fixed traces; tests/oracle.rs also generates them"
)]
mod support;

use stage_chaos::{FaultSite, SitePolicy};
use stage_core::PredictionSource::{self, Cache, Default as Cold, Local};
use stage_serve::{Response, ServeClient, ServeConfig, Server};
use support::Step::*;
use support::{check, plan_of, secs_of, setup, Report, Step};

/// Every answer among `replies`, as `(exec_secs.to_bits(), source)` in
/// order: a batch contributes one per position.
fn answers(replies: &[Option<Response>]) -> Vec<(u64, PredictionSource)> {
    let answer = |exec_secs: f64, source| (exec_secs.to_bits(), source);
    let of = |reply: &Response| match reply {
        Response::Predicted {
            exec_secs, source, ..
        } => vec![answer(*exec_secs, *source)],
        Response::PredictionsBatch { predictions, .. } => (predictions.iter())
            .map(|p| answer(p.exec_secs, p.source))
            .collect(),
        _ => Vec::new(),
    };
    replies.iter().flatten().flat_map(of).collect()
}

/// The step's reply, which must be a `Stats`: `(routing total, observes,
/// predict_batches, cache_len)`.
fn counters(report: &Report, step: usize) -> (u64, u64, u64, u64) {
    match &report.replies[step] {
        Some(Response::Stats {
            routing,
            observes,
            predict_batches,
            cache_len,
            ..
        }) => (routing.total(), *observes, *predict_batches, *cache_len),
        other => panic!("step {step} answered {other:?}"),
    }
}

#[test]
fn all_six_verbs_and_warm_restart_from_snapshot() {
    // First lifetime: every verb, then a shutdown (which checkpoints every
    // shard); second lifetime: the cache entry survived the restart.
    let steps = [
        Predict { shard: 0, plan: 7 },
        Observe {
            shard: 0,
            plan: 7,
            secs: 3.25,
        },
        PredictBatch {
            shard: 0,
            first: 7,
            len: 1,
        },
        Stats { shard: 0 },
        Snapshot,
        Restart,
        Predict { shard: 0, plan: 7 },
        Stats { shard: 1 },
    ];
    let report = check("fixed: six verbs", &setup(2, 0, &[]), &steps);
    let r = &report.replies;
    let cold = matches!(answers(&r[..1])[..], [(_, Cold)]);
    assert!(cold, "fresh shard must cold-start");
    assert!(matches!(r[1], Some(Response::Observed { .. })));
    assert!(matches!(answers(&r[2..3])[..], [(_, Cache)]));
    assert_eq!(counters(&report, 3), (2, 1, 1, 1));
    assert!(matches!(r[4], Some(Response::Snapshotted { instances: 2 })));
    assert!(matches!(r[5], Some(Response::ShuttingDown)));
    assert_eq!(
        answers(&r[6..7]),
        [(3.25f64.to_bits(), Cache)],
        "warm restart must hit the cache"
    );
    // Instance 1 was never fed; its restored shard must still be cold.
    assert_eq!(counters(&report, 7).1, 0);
}

#[test]
fn kill9_mid_checkpoint_leaves_restart_clean() {
    // A kill -9 mid-checkpoint leaves the previous good artefact and a
    // truncated `*.tmp` sibling behind; instance 1's artefact is truncated
    // in place too (filesystem damage, not our writer). The restart must
    // serve instance 0 from the checkpoint and set instance 1's file aside
    // and start it cold — never crash, never half-load.
    let steps = [
        Observe {
            shard: 0,
            plan: 9,
            secs: 6.5,
        },
        Snapshot,
        Truncate { shard: 1 },
        Kill { torn_tmp: true },
        Predict { shard: 0, plan: 9 },
        Predict { shard: 1, plan: 9 },
    ];
    let report = check("fixed: kill -9", &setup(2, 0, &[]), &steps);
    assert!(matches!(
        report.replies[1],
        Some(Response::Snapshotted { .. })
    ));
    let answered = answers(&report.replies[4..]);
    assert_eq!(answered[0], (6.5f64.to_bits(), Cache));
    assert_eq!(answered[1].1, Cold, "damaged shard starts cold");
    assert_eq!(
        report.quarantined, 1,
        "truncated artefact must be quarantined"
    );
}

#[test]
fn socket_faults_lose_no_observes() {
    // Both socket directions fail at 30 % until 6 injections have landed on
    // each, then the schedule quiesces (bounded damage). The driver delivers
    // at least once and checks every observe is answered `Observed`.
    let sites = [
        (FaultSite::SockRead, SitePolicy::flat(0.3, 6)),
        (FaultSite::SockWrite, SitePolicy::flat(0.3, 6)),
    ];
    const ROUNDS: u32 = 40;
    let observes = (0..ROUNDS).map(|plan| Observe {
        shard: 0,
        plan,
        secs: 1.0,
    });
    let steps: Vec<Step> = observes
        .chain([Faults(false), Stats { shard: 0 }])
        .collect();
    let report = check("fixed: socket faults", &setup(2, 17, &sites), &steps);
    let plan = report.plan.as_deref().expect("a finished run has its plan");
    assert!(
        plan.injected_total() > 0,
        "the fault plan never fired — the test is vacuous"
    );

    // Quiesced: every unique observe was applied at least once, and every
    // resend of one whose reply was torn is counted — yet lands as a
    // cache-hit repeat, not a second cache entry.
    let (_, observes, _, cache_len) = counters(&report, ROUNDS as usize + 1);
    assert!(observes >= u64::from(ROUNDS), "observes lost: {observes}");
    assert_eq!(
        observes,
        u64::from(ROUNDS) + report.lost_observes,
        "a duplicate went uncounted"
    );
    assert_eq!(
        cache_len,
        u64::from(ROUNDS),
        "one cache entry per unique plan"
    );
}

/// `PredictBatch` over `first .. first + len`, then each plan through the
/// scalar verb.
fn batch_then_scalar(shard: u32, first: u32, len: u32) -> impl Iterator<Item = Step> {
    let scalar = (first..first + len).map(move |plan| Predict { shard, plan });
    [PredictBatch { shard, first, len }]
        .into_iter()
        .chain(scalar)
}

/// The batch answered at step `at` and the `len` scalar answers after it
/// agree position by position, by `to_bits` and by source. Returns them.
fn batch_matching_scalar(report: &Report, at: usize, len: usize) -> Vec<(u64, PredictionSource)> {
    let batch = answers(&report.replies[at..=at]);
    assert_eq!(batch.len(), len);
    let scalar = answers(&report.replies[at + 1..=at + len]);
    for (k, (b, s)) in batch.iter().zip(&scalar).enumerate() {
        assert_eq!(b, s, "batch position {k} of {len} diverged from scalar");
    }
    batch
}

#[test]
fn predict_batch_preserves_order_and_counts() {
    // Plans 0 and 1 with known observed times plus never-seen plan 2: the
    // batch answer must line up with the submission order, not e.g. a
    // cache-hits-first order. Then an empty batch (legal), the counters,
    // and an unknown instance.
    let observed = [(0, 2.0), (1, 5.0)].map(|(plan, secs)| Observe {
        shard: 0,
        plan,
        secs,
    });
    // Instance 1 trains a local ensemble on 40 observes, so a full-width
    // batch of unseen plans on it walks the model, not just Cache/Default.
    let warm = (100..140).map(|plan| Observe {
        shard: 1,
        plan,
        secs: secs_of(plan),
    });
    let steps: Vec<Step> = (observed.into_iter())
        .chain(batch_then_scalar(0, 0, 3))
        .chain([
            PredictBatch {
                shard: 0,
                first: 0,
                len: 0,
            },
            Stats { shard: 0 },
            PredictBatch {
                shard: 99,
                first: 0,
                len: 3,
            },
        ])
        .chain(warm)
        .chain(batch_then_scalar(1, 200, 64))
        .collect();
    let report = check("fixed: predict batch", &setup(2, 0, &[]), &steps);

    let batch = batch_matching_scalar(&report, 2, 3);
    let bits = |secs: f64| secs.to_bits();
    assert_eq!(batch[..2], [(bits(2.0), Cache), (bits(5.0), Cache)]);
    assert_eq!(batch[2].1, Cold);
    assert!(answers(&report.replies[6..=6]).is_empty(), "an empty batch");
    // Two batches served; routing advanced per prediction (3 batched + 3
    // scalar re-checks + 0 from the empty batch).
    let (routing, observes, predict_batches, _) = counters(&report, 7);
    assert_eq!((predict_batches, routing, observes), (2, 6, 2));
    // Unknown instances answer Error for batches like for scalars.
    let Some(Response::Error { message }) = &report.replies[8] else {
        panic!("out-of-range batch must answer Error");
    };
    assert!(message.contains("99"));

    let batch = batch_matching_scalar(&report, 49, 64);
    assert!(
        batch.iter().any(|&(_, source)| source == Local),
        "no unseen plan was answered by the local model"
    );
}

/// The same observe stream and probes over the binary codec and over JSON
/// (`SwitchCodec` first): every answer agrees bit-for-bit — the codec is
/// transport, not semantics.
#[test]
fn json_and_binary_codecs_answer_bit_identically() {
    let observes = (0..30).map(|plan| Observe {
        shard: 0,
        plan,
        secs: 0.5 + f64::from(plan),
    });
    // The 30 observed plans and an unseen probe, then all 30 in one batch.
    let probes = (0..30).chain([1000]).map(|plan| Predict { shard: 0, plan });
    let steps: Vec<Step> = (observes.chain(probes))
        .chain([
            PredictBatch {
                shard: 0,
                first: 0,
                len: 30,
            },
            Stats { shard: 0 },
        ])
        .collect();
    let answered = [vec![], vec![SwitchCodec]].map(|codec| {
        let trace = [codec, steps.clone()].concat();
        let report = check("fixed: codecs", &setup(2, 0, &[]), &trace);
        // The server's counters reconcile with what the trace sent.
        let (routing, observes, predict_batches, _) = counters(&report, trace.len() - 1);
        assert_eq!((observes, routing, predict_batches), (30, 61, 1));
        answers(&report.replies)
    });
    assert_eq!(
        answered[0], answered[1],
        "binary and JSON codecs must answer bit-identically"
    );
}

/// The same differential under socket faults: torn frames, disconnects and
/// stalls land on *both* codecs (the same seeded fault plan), the driver
/// reconnects and resends at least once, and the surviving state must still
/// answer bit-identically across codecs.
#[test]
fn codecs_agree_bit_for_bit_even_under_torn_frames() {
    let sites = [
        (FaultSite::SockRead, SitePolicy::flat(0.3, 8)),
        (FaultSite::SockWrite, SitePolicy::flat(0.3, 8)),
    ];
    let observes = (0..25).map(|plan| Observe {
        shard: 0,
        plan,
        secs: 1.0 + f64::from(plan),
    });
    let predicts = (0..25).map(|plan| Predict { shard: 0, plan });
    let steps: Vec<Step> = observes.chain([Faults(false)]).chain(predicts).collect();
    let answered = [vec![], vec![SwitchCodec]].map(|codec| {
        let trace = [codec, steps.clone()].concat();
        let report = check("fixed: torn codecs", &setup(2, 23, &sites), &trace);
        let plan = report.plan.as_deref().expect("a finished run has its plan");
        assert!(
            plan.injected_total() > 0,
            "the fault plan never fired — the test is vacuous"
        );
        answers(&report.replies)
    });
    assert_eq!(
        answered[0], answered[1],
        "codecs diverged after identical fault schedules"
    );
}

#[test]
fn unknown_instance_is_an_error_not_a_crash() {
    let steps = [Predict { shard: 99, plan: 0 }];
    let report = check("fixed: unknown instance", &setup(2, 0, &[]), &steps);
    let Some(Response::Error { message }) = &report.replies[0] else {
        panic!("out-of-range instance must answer Error");
    };
    assert!(
        message.contains("99"),
        "error names the instance: {message}"
    );
}

#[test]
fn concurrent_clients_lose_no_observes() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 50;
    let config = ServeConfig {
        n_instances: 4,
        // A deliberately tight queue so backpressure actually fires under
        // contention; correctness must hold regardless.
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let n_instances = config.n_instances;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let instance = (c as u32) % n_instances;
                let sys = [1.0, 0.5];
                for r in 0..ROUNDS {
                    let query = plan_of((c * ROUNDS + r) as u32);
                    // Predicts may be shed under backpressure; retry them
                    // like a real client would.
                    loop {
                        match client.predict(instance, &query, &sys).unwrap() {
                            Response::Predicted { .. } => break,
                            Response::Overloaded { retry_after_ms } => {
                                std::thread::sleep(std::time::Duration::from_millis(
                                    retry_after_ms.max(1),
                                ));
                            }
                            other => panic!("predict rejected: {other:?}"),
                        }
                    }
                    // Observes must never be lost: bounded retry on overload.
                    client
                        .observe_with_retry(instance, &query, &sys, 1.0, 10_000)
                        .unwrap();
                }
            });
        }
    });

    let expected = (CLIENTS * ROUNDS) as u64;
    let mut client = ServeClient::connect(addr).unwrap();
    let (mut total_observes, mut total_predicts) = (0u64, 0u64);
    for instance in 0..n_instances {
        let Response::Stats {
            routing, observes, ..
        } = client.stats(instance).unwrap()
        else {
            panic!("stats did not answer Stats");
        };
        total_observes += observes;
        total_predicts += routing.total();
    }
    assert_eq!(total_observes, expected, "observes were dropped");
    assert_eq!(
        total_predicts, expected,
        "predict routing counters diverged"
    );

    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap();
}

/// A served shard fed a steady → 30× trace of fresh plans: the drift
/// retrain happens inside an `Observe`, so the model replays it and every
/// answer before, across and after it is equal to the bit.
#[test]
fn served_equals_library_across_a_drift_retrain() {
    // 100 steady rounds, then 80 at 30×.
    let steps: Vec<Step> = (0..180)
        .flat_map(|plan| {
            let shift = if plan < 100 { 1.0 } else { 30.0 };
            let secs = secs_of(plan) * shift;
            [
                Predict { shard: 0, plan },
                Observe {
                    shard: 0,
                    plan,
                    secs,
                },
            ]
        })
        .collect();
    let report = check("fixed: drift retrain", &setup(1, 0, &[]), &steps);
    assert_eq!(
        report.forced_retrains, 1,
        "the trace must cross a drift retrain"
    );
}
