//! End-to-end tests for the `stage-serve` online prediction service: the
//! full wire protocol over a real TCP socket, warm restart from snapshots,
//! and concurrent clients losing no feedback.

#[expect(
    dead_code,
    reason = "this file uses the driver's temp dir and its at-least-once link; \
              tests/oracle.rs uses the rest"
)]
mod support;

use stage_core::{ExecTimePredictor, PredictionSource, StageConfig, StagePredictor, SystemContext};
use stage_gbdt::{EnsembleParams, NgBoostParams};
use stage_plan::{PhysicalPlan, PlanBuilder, S3Format};
use stage_serve::{BatchPrediction, Codec, Request, Response, ServeClient, ServeConfig, Server};
use support::{Link, TempDir};

fn plan(tag: &str, rows: f64) -> PhysicalPlan {
    PlanBuilder::select()
        .scan(tag, S3Format::Local, rows, 64.0)
        .hash_aggregate(0.01)
        .finish()
}

#[test]
fn all_six_verbs_and_warm_restart_from_snapshot() {
    let snapshots = TempDir::new("stage-serve-restart-test");
    let config = ServeConfig {
        snapshot_dir: Some(snapshots.0.clone()),
        ..ServeConfig::default()
    };
    let query = plan("restart", 1e5);
    let sys = [0.0, 0.0];

    // First server lifetime: exercise every verb, then shut down (which
    // checkpoints every shard).
    let server = Server::start(config.clone()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let Response::Predicted { source, .. } = client.predict(0, &query, &sys).unwrap() else {
        panic!("predict did not answer Predicted");
    };
    assert_eq!(
        source,
        PredictionSource::Default,
        "fresh shard must cold-start"
    );

    let Response::Observed { .. } = client.observe(0, &query, &sys, 3.25).unwrap() else {
        panic!("observe did not answer Observed");
    };

    let Response::PredictionsBatch { predictions, .. } = client
        .predict_batch(0, std::slice::from_ref(&query), &sys)
        .unwrap()
    else {
        panic!("predict_batch did not answer PredictionsBatch");
    };
    assert_eq!(predictions.len(), 1);
    assert_eq!(predictions[0].source, PredictionSource::Cache);

    let Response::Stats {
        routing,
        observes,
        predict_batches,
        cache_len,
        ..
    } = client.stats(0).unwrap()
    else {
        panic!("stats did not answer Stats");
    };
    assert_eq!(routing.total(), 2);
    assert_eq!(observes, 1);
    assert_eq!(predict_batches, 1);
    assert_eq!(cache_len, 1);

    let Response::Snapshotted { instances } = client.snapshot().unwrap() else {
        panic!("snapshot did not answer Snapshotted");
    };
    assert_eq!(instances, config.n_instances);

    let Response::ShuttingDown = client.shutdown().unwrap() else {
        panic!("shutdown did not answer ShuttingDown");
    };
    drop(client);
    server.join().unwrap();

    // Second lifetime: the cache entry must survive the restart, so the
    // same plan now answers from the cache with the observed time.
    let server = Server::start(config).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let Response::Predicted {
        exec_secs, source, ..
    } = client.predict(0, &query, &sys).unwrap()
    else {
        panic!("predict did not answer Predicted");
    };
    assert_eq!(
        source,
        PredictionSource::Cache,
        "warm restart must hit the cache"
    );
    assert!(
        (exec_secs - 3.25).abs() < 1e-9,
        "cached exec-time drifted: {exec_secs}"
    );

    // Instance 1 was never fed; its restored shard must still be cold.
    let Response::Stats { observes, .. } = client.stats(1).unwrap() else {
        panic!("stats did not answer Stats");
    };
    assert_eq!(observes, 0);

    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap();
}

#[test]
fn kill9_mid_checkpoint_leaves_restart_clean() {
    let snapshots = TempDir::new("stage-serve-kill9-test");
    let config = ServeConfig {
        snapshot_dir: Some(snapshots.0.clone()),
        ..ServeConfig::default()
    };
    let query = plan("kill9", 2e5);
    let sys = [0.0, 0.0];

    // Lifetime 1: feed instance 0 and checkpoint cleanly.
    let server = Server::start(config.clone()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.observe(0, &query, &sys, 6.5).unwrap();
    let Response::Snapshotted { .. } = client.snapshot().unwrap() else {
        panic!("snapshot failed");
    };
    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap();

    // Simulate a kill -9 mid-checkpoint: the crash-safe writer stages into
    // a temp sibling and renames last, so a kill leaves (a) the previous
    // good artefact untouched and (b) a truncated `*.tmp` sibling behind.
    let good = std::fs::read(snapshots.0.join("instance_0.store")).unwrap();
    std::fs::write(
        snapshots.0.join("instance_0.store.99999.0.tmp"),
        &good[..good.len() / 3],
    )
    .unwrap();
    // Harsher variant on instance 1: the artefact itself was truncated
    // in place (e.g. filesystem damage, not our writer). Restore must
    // quarantine it and come up cold — never crash, never half-load.
    let other = std::fs::read(snapshots.0.join("instance_1.store")).unwrap();
    std::fs::write(
        snapshots.0.join("instance_1.store"),
        &other[..other.len() / 2],
    )
    .unwrap();

    // Lifetime 2: warm restart must serve instance 0 from the previous
    // checkpoint and instance 1 cold, with the damaged file set aside.
    let server = Server::start(config).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let Response::Predicted {
        exec_secs, source, ..
    } = client.predict(0, &query, &sys).unwrap()
    else {
        panic!("predict did not answer Predicted");
    };
    assert_eq!(source, PredictionSource::Cache);
    assert!((exec_secs - 6.5).abs() < 1e-9);
    let Response::Predicted { source, .. } = client.predict(1, &query, &sys).unwrap() else {
        panic!("predict did not answer Predicted");
    };
    assert_eq!(
        source,
        PredictionSource::Default,
        "damaged shard starts cold"
    );
    assert!(
        snapshots.0.join("instance_1.store.quarantine").exists(),
        "truncated artefact must be quarantined"
    );
    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap();
}

#[test]
fn socket_faults_lose_no_observes() {
    use stage_chaos::{FaultPlan, FaultPlanConfig, FaultSite, SitePolicy};
    use std::sync::Arc;
    use std::time::Duration;

    // Both socket directions fail with certainty until 6 injections have
    // landed on each, then the schedule quiesces (bounded damage).
    let plan_cfg = FaultPlanConfig::new(17)
        .stall(Duration::from_millis(2))
        .site(FaultSite::SockRead, SitePolicy::flat(0.3, 6))
        .site(FaultSite::SockWrite, SitePolicy::flat(0.3, 6));
    let chaos = Arc::new(FaultPlan::new(plan_cfg));
    let server = Server::start(ServeConfig {
        chaos: Some(Arc::clone(&chaos)),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let sys = [0.0, 0.0];

    const ROUNDS: usize = 40;
    let mut confirmed = 0u64;
    // Sends the server applied: the confirmed ones plus the ones whose ack
    // was torn (the link learns of those from `Stats` before it resends).
    let mut applied = 0u64;
    let mut link = Link::new(addr, Codec::Binary);
    for r in 0..ROUNDS {
        // At-least-once delivery: on any I/O error, reconnect and resend.
        // (The observe may have been applied before the ack was torn; the
        // cache dedups the resend, so counters stay exact per unique plan.)
        let request = Request::Observe {
            instance: 0,
            plan: plan("chaos", 1e4 + r as f64),
            sys: sys.to_vec(),
            actual_secs: 1.0,
        };
        let (reply, lost) = link.deliver(&request, applied);
        assert!(
            matches!(reply, Response::Observed { .. }),
            "observe rejected: {reply:?}"
        );
        confirmed += 1;
        applied += lost + 1;
    }
    assert_eq!(confirmed, ROUNDS as u64);
    assert!(
        chaos.injected_total() > 0,
        "the fault plan never fired — the test is vacuous"
    );

    // Quiesced: the server must have ingested every unique observe at
    // least once (resends land as cache-hit repeats, not pool entries).
    chaos.disarm();
    let mut check = ServeClient::connect(addr).unwrap();
    let Response::Stats {
        observes,
        cache_len,
        ..
    } = check.stats(0).unwrap()
    else {
        panic!("stats did not answer Stats");
    };
    assert!(observes >= ROUNDS as u64, "observes lost: {observes}");
    assert_eq!(observes, applied, "a duplicate went uncounted");
    assert_eq!(cache_len, ROUNDS as u64, "one cache entry per unique plan");

    check.shutdown().unwrap();
    drop(check);
    drop(link);
    server.join().unwrap();
}

/// Prices `plans` through one `PredictBatch`, then each through the scalar
/// verb: every position must agree `to_bits` and by source. Returns the
/// batch answer.
fn batch_matching_scalar(
    client: &mut ServeClient,
    instance: u32,
    plans: &[PhysicalPlan],
    sys: &[f64],
) -> Vec<BatchPrediction> {
    let Response::PredictionsBatch { predictions, .. } =
        client.predict_batch(instance, plans, sys).unwrap()
    else {
        panic!("predict_batch did not answer PredictionsBatch");
    };
    assert_eq!(predictions.len(), plans.len());
    for (k, p) in plans.iter().enumerate() {
        let Response::Predicted {
            exec_secs, source, ..
        } = client.predict(instance, p, sys).unwrap()
        else {
            panic!("scalar predict failed");
        };
        assert_eq!(
            exec_secs.to_bits(),
            predictions[k].exec_secs.to_bits(),
            "batch position {k} of {} diverged from scalar",
            plans.len()
        );
        assert_eq!(source, predictions[k].source);
    }
    predictions
}

#[test]
fn predict_batch_preserves_order_and_counts() {
    // Instance 1 trains a (small) local ensemble after 30 observes, so a
    // batch of unseen plans on it walks the model, not just Cache/Default.
    let mut stage = StageConfig::default();
    stage.local.ensemble = EnsembleParams {
        n_members: 4,
        member: NgBoostParams {
            n_estimators: 25,
            ..NgBoostParams::default()
        },
        seed: 11,
    };
    stage.local.min_train_examples = 30;
    let server = Server::start(ServeConfig {
        n_instances: 2,
        stage,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let sys = [0.0, 0.0];

    // Two plans with known observed times plus one never-seen plan: the
    // batch answer must line up with the submission order, not e.g. a
    // cache-hits-first order.
    let a = plan("batch-a", 1e4);
    let b = plan("batch-b", 5e5);
    let c = plan("batch-c", 7e6);
    let Response::Observed { .. } = client.observe(0, &a, &sys, 2.0).unwrap() else {
        panic!("observe(a) failed");
    };
    let Response::Observed { .. } = client.observe(0, &b, &sys, 5.0).unwrap() else {
        panic!("observe(b) failed");
    };

    let plans = [a.clone(), b.clone(), c.clone()];
    let predictions = batch_matching_scalar(&mut client, 0, &plans, &sys);
    assert_eq!(predictions[0].source, PredictionSource::Cache);
    assert!((predictions[0].exec_secs - 2.0).abs() < 1e-9);
    assert_eq!(predictions[1].source, PredictionSource::Cache);
    assert!((predictions[1].exec_secs - 5.0).abs() < 1e-9);
    assert_eq!(predictions[2].source, PredictionSource::Default);

    // An empty batch is legal and answers an empty prediction list.
    let Response::PredictionsBatch { predictions, .. } =
        client.predict_batch(0, &[], &sys).unwrap()
    else {
        panic!("empty predict_batch did not answer PredictionsBatch");
    };
    assert!(predictions.is_empty());

    // Counters: two batches served; routing advanced per prediction
    // (3 batched + 3 scalar re-checks + 0 from the empty batch).
    let Response::Stats {
        routing,
        observes,
        predict_batches,
        ..
    } = client.stats(0).unwrap()
    else {
        panic!("stats did not answer Stats");
    };
    assert_eq!(predict_batches, 2);
    assert_eq!(routing.total(), 6);
    assert_eq!(observes, 2);

    // Unknown instances answer Error for batches like for scalars.
    let Response::Error { message } = client.predict_batch(99, &plans, &sys).unwrap() else {
        panic!("out-of-range batch must answer Error");
    };
    assert!(message.contains("99"));

    // A full-width batch of unseen plans against the trained shard: every
    // position bit-identical to the scalar verb, and the local model
    // answers at least one of them.
    for r in 0..40 {
        let p = plan("warm", 1e4 * (1.0 + r as f64));
        let Response::Observed { .. } = client.observe(1, &p, &sys, 0.5 + r as f64).unwrap() else {
            panic!("warm-up observe failed");
        };
    }
    let unseen: Vec<PhysicalPlan> = (0..64)
        .map(|r| plan("unseen", 1.5e4 * (1.0 + r as f64)))
        .collect();
    let predictions = batch_matching_scalar(&mut client, 1, &unseen, &sys);
    assert!(
        predictions
            .iter()
            .any(|p| p.source == PredictionSource::Local),
        "no unseen plan was answered by the local model"
    );

    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap();
}

/// Replays the same observe stream into a server over `connect` (binary)
/// vs `connect_json`, then prices the same probe plans on both: every
/// answer must agree bit-for-bit — the codec is transport, not semantics.
#[test]
fn json_and_binary_codecs_answer_bit_identically() {
    let plans: Vec<PhysicalPlan> = (0..30).map(|r| plan("diff", 1e4 + r as f64)).collect();
    let probe = plan("diff-unseen", 9e6);
    let sys = [0.5, 1.0];

    let mut answers: Vec<Vec<(u64, PredictionSource)>> = Vec::new();
    for use_json in [false, true] {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut client = if use_json {
            ServeClient::connect_json(server.local_addr()).unwrap()
        } else {
            ServeClient::connect(server.local_addr()).unwrap()
        };
        for (r, p) in plans.iter().enumerate() {
            let Response::Observed { .. } = client.observe(0, p, &sys, 0.5 + r as f64).unwrap()
            else {
                panic!("observe failed");
            };
        }
        let mut got = Vec::new();
        for p in plans.iter().chain(std::iter::once(&probe)) {
            let Response::Predicted {
                exec_secs, source, ..
            } = client.predict(0, p, &sys).unwrap()
            else {
                panic!("predict failed");
            };
            got.push((exec_secs.to_bits(), source));
        }
        let Response::PredictionsBatch { predictions, .. } =
            client.predict_batch(0, &plans, &sys).unwrap()
        else {
            panic!("predict_batch failed");
        };
        got.extend(
            predictions
                .iter()
                .map(|p| (p.exec_secs.to_bits(), p.source)),
        );
        // The server's counters reconcile with what this client sent.
        let Response::Stats {
            routing,
            observes,
            predict_batches,
            ..
        } = client.stats(0).unwrap()
        else {
            panic!("stats failed");
        };
        assert_eq!(observes, plans.len() as u64);
        assert_eq!(routing.total(), got.len() as u64);
        assert_eq!(predict_batches, 1);
        answers.push(got);
        client.shutdown().unwrap();
        drop(client);
        server.join().unwrap();
    }
    assert_eq!(
        answers[0], answers[1],
        "binary and JSON codecs must answer bit-identically"
    );
}

/// The same differential under socket faults: torn frames, disconnects,
/// and stalls land on *both* codecs (the same deterministic fault plan),
/// clients reconnect and resend at-least-once, and the surviving state
/// must still answer bit-identically across codecs.
#[test]
fn codecs_agree_bit_for_bit_even_under_torn_frames() {
    use stage_chaos::{FaultPlan, FaultPlanConfig, FaultSite, SitePolicy};
    use std::sync::Arc;
    use std::time::Duration;

    let plans: Vec<PhysicalPlan> = (0..25)
        .map(|r| plan("diff-chaos", 2e4 + r as f64))
        .collect();
    let sys = [0.0, 0.0];

    let mut answers: Vec<Vec<(u64, PredictionSource)>> = Vec::new();
    for use_json in [false, true] {
        // Same seed for both runs: the fault schedule is identical, so the
        // binary path eats torn frames exactly where the JSON path eats
        // torn lines.
        let chaos = Arc::new(FaultPlan::new(
            FaultPlanConfig::new(23)
                .stall(Duration::from_millis(1))
                .site(FaultSite::SockRead, SitePolicy::flat(0.3, 8))
                .site(FaultSite::SockWrite, SitePolicy::flat(0.3, 8)),
        ));
        let server = Server::start(ServeConfig {
            chaos: Some(Arc::clone(&chaos)),
            ..ServeConfig::default()
        })
        .unwrap();
        let codec = if use_json { Codec::Json } else { Codec::Binary };
        let mut link = Link::new(server.local_addr(), codec);
        let mut applied = 0u64;
        for (r, p) in plans.iter().enumerate() {
            // At-least-once: on any I/O error (possibly a torn frame killing
            // the connection), reconnect and resend; the cache dedups.
            let request = Request::Observe {
                instance: 0,
                plan: p.clone(),
                sys: sys.to_vec(),
                actual_secs: 1.0 + r as f64,
            };
            let (reply, lost) = link.deliver(&request, applied);
            assert!(
                matches!(reply, Response::Observed { .. }),
                "observe rejected: {reply:?}"
            );
            applied += lost + 1;
        }
        assert!(
            chaos.injected_total() > 0,
            "the fault plan never fired — the test is vacuous"
        );
        chaos.disarm();

        let mut got = Vec::new();
        for p in &plans {
            let request = Request::Predict {
                instance: 0,
                plan: p.clone(),
                sys: sys.to_vec(),
            };
            let (
                Response::Predicted {
                    exec_secs, source, ..
                },
                _,
            ) = link.deliver(&request, 0)
            else {
                panic!("predict failed");
            };
            got.push((exec_secs.to_bits(), source));
        }
        answers.push(got);
        link.deliver(&Request::Shutdown, 0);
        drop(link);
        server.join().unwrap();
    }
    assert_eq!(
        answers[0], answers[1],
        "codecs diverged after identical fault schedules"
    );
}

#[test]
fn unknown_instance_is_an_error_not_a_crash() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let query = plan("bogus", 1e4);
    let Response::Error { message } = client.predict(99, &query, &[0.0, 0.0]).unwrap() else {
        panic!("out-of-range instance must answer Error");
    };
    assert!(
        message.contains("99"),
        "error names the instance: {message}"
    );
    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap();
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
                    let query = plan("conc", 1e4 + (c * ROUNDS + r) as f64);
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

/// Served shard 0 and an in-process `StagePredictor` (same config; salt 0 is
/// the default) fed the same steady → 30× trace of fresh plans: the drift
/// retrain happens inside an `Observe`, so the library replays it and every
/// answer before, across and after it is equal to the bit.
#[test]
fn served_equals_library_across_a_drift_retrain() {
    let mut stage = StageConfig::default();
    stage.local.ensemble.n_members = 2;
    stage.local.ensemble.member.n_estimators = 10;
    let server = Server::start(ServeConfig {
        n_instances: 1,
        stage,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let mut library = StagePredictor::new(stage);

    let sys = SystemContext::empty(2);
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    // 100 steady rounds, then 80 at 30×: short of the 300-add cadence, so
    // the only retrain after the first is the one the sentinel brings on.
    for i in 0..180u32 {
        let rows = f64::from(i % 40 + 1) * 1e4 + f64::from(i);
        let query = plan("drift", rows);
        let secs = rows / 1e5 * if i < 100 { 1.0 } else { 30.0 };

        let want = library.predict(&query, &sys);
        let (want_lo, want_hi) = library.calibrated_interval(&want).unzip();
        let Ok(Response::Predicted {
            exec_secs,
            interval_lo,
            interval_hi,
            source,
            ..
        }) = client.predict(0, &query, &sys.features)
        else {
            panic!("predict did not answer Predicted");
        };
        assert_eq!(
            (exec_secs.to_bits(), bits(interval_lo), bits(interval_hi)),
            (want.exec_secs.to_bits(), bits(want_lo), bits(want_hi)),
            "served != library at query {i}"
        );
        assert_eq!(source, want.source, "routing differs at query {i}");

        library.observe(&query, &sys, secs);
        let served = client.observe(0, &query, &sys.features, secs);
        assert!(matches!(served, Ok(Response::Observed { .. })));
    }

    let Ok(Response::Stats {
        routing,
        drift_detections,
        forced_retrains,
        ..
    }) = client.stats(0)
    else {
        panic!("stats did not answer Stats");
    };
    assert_eq!(routing, library.stats());
    assert_eq!(drift_detections, library.drift().detections());
    assert_eq!(forced_retrains, library.drift().forced_retrains());
    assert_eq!(forced_retrains, 1, "the trace must cross a drift retrain");

    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap();
}
