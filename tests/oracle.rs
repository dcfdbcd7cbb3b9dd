//! The serving stack against its model (`tests/support`): seeded random
//! interleavings of every verb with restarts, kills, codec switches, global
//! hot-swaps, lying frames and injected faults; one trace per fault family
//! that balances the injection ledger exactly; fixed traces; and the
//! self-test that a diverging seed comes back as a short, pasteable trace.
//!
//! Every trace asserts, after every step, what `support::run` documents —
//! among it that every `Observe` is answered `Observed` (zero lost) and
//! every server thread joins (zero panics). What the tests below add is
//! each family's ledger and that no trace is vacuous.

#[expect(
    dead_code,
    reason = "`Step::Truncate` is for the fixed traces of tests/serve_integration.rs"
)]
mod support;

use stage_chaos::{FaultSite, SitePolicy};
use stage_core::storefmt::load_stage_store;
use stage_serve::{wire, Response, ServeClient, ServeConfig, Server, ShardRegistry};
use stage_store::StoreView;
use support::Frame::*;
use support::Step::*;
use support::{
    check, falsify, generate, plan_of, run, secs_of, setup, small_stage, Setup, Step, TempDir,
    EVERYTHING, SYS, TRAFFIC,
};

/// The seeds of the random-interleaving test. A seed that ever fails is
/// kept here (or its shrunk trace becomes a fixed trace below).
const SEEDS: [u64; 12] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233];

fn count(steps: &[Step], kind: impl Fn(&Step) -> bool) -> u64 {
    steps.iter().filter(|s| kind(s)).count() as u64
}

#[test]
fn random_interleavings_answer_what_the_library_answers() {
    // Model-tier faults (the first three sites) on every seed, faulty
    // sockets (the last two) on every other.
    let sites = [
        (FaultSite::LocalPredict, SitePolicy::flat(0.05, u64::MAX)),
        (FaultSite::LocalRetrain, SitePolicy::flat(0.3, u64::MAX)),
        (FaultSite::GlobalPredict, SitePolicy::flat(0.1, u64::MAX)),
        (FaultSite::SockRead, SitePolicy::flat(0.02, 25)),
        (FaultSite::SockWrite, SitePolicy::flat(0.02, 25)),
    ];
    let mut all_steps = Vec::new();
    let (mut forced, mut degraded, mut lost, mut global, mut skipped) = (0, 0, 0, 0, 0);
    for seed in SEEDS {
        let sites = &sites[..if seed % 2 == 0 { 3 } else { 5 }];
        let steps = generate(seed, 1200, 2, &EVERYTHING);
        let report = check(&format!("seed {seed}"), &setup(2, seed, sites), &steps);
        forced += report.forced_retrains;
        degraded += report.degraded.total();
        lost += report.lost_observes;
        global += report.answered_global;
        skipped += report.skipped;
        all_steps.extend(steps);
    }
    for (what, n) in [
        ("restarts", count(&all_steps, |s| *s == Restart)),
        ("kills", count(&all_steps, |s| matches!(s, Kill { .. }))),
        ("codec switches", count(&all_steps, |s| *s == SwitchCodec)),
        ("hot-swaps", count(&all_steps, |s| *s == HotSwap)),
        ("drift retrains", forced),
        ("faults absorbed by a tier", degraded),
        ("observes applied whose reply was lost", lost),
        ("answers from the global tier", global),
        ("clean shards skipped by a checkpoint", skipped),
    ] {
        assert!(n > 0, "vacuous: no {what} on any seed");
    }
}

/// Model family: every injected tier fault is one degraded-mode count, and
/// the model's plan injected what the server's did (checked at every
/// `Stats`).
#[test]
fn model_faults_balance_against_the_degraded_counters() {
    let sites = [
        (FaultSite::LocalPredict, SitePolicy::flat(0.2, 40)),
        (FaultSite::LocalRetrain, SitePolicy::flat(1.0, 12)),
        (FaultSite::GlobalPredict, SitePolicy::flat(0.3, 20)),
    ];
    // Traffic with a few restarts and codec switches: the degraded
    // counters are checkpointed state and must survive both.
    let mix = [300, 50, 500, 60, 0, 5, 0, 5, 0, 0, 0];
    let steps = [vec![HotSwap], generate(7, 1000, 2, &mix)].concat();
    let report = check("model family", &setup(2, 7, &sites), &steps);
    let plan = report.plan.as_deref().expect("a finished run has its plan");
    let degraded = report.degraded;
    assert!(plan.injected_total() > 0, "vacuous: nothing injected");
    assert_eq!(
        plan.injected(FaultSite::LocalPredict),
        degraded.local_failover
    );
    assert_eq!(
        plan.injected(FaultSite::GlobalPredict),
        degraded.global_failover
    );
    assert_eq!(
        plan.injected(FaultSite::LocalRetrain),
        degraded.retrains_poisoned + degraded.retrains_slowed
    );
    assert_eq!(plan.injected_total(), degraded.total());
    assert!(count(&steps, |s| *s == Restart) > 0);
}

/// Persist family: every hard-error injection is one `Snapshot` answered
/// `Error`, and every artefact after every pass is what the model's pass
/// left (`audit_disk`): its sections, a torn image, or — where a clean
/// shard was skipped or the pass ended earlier — the bytes already there. A
/// torn artefact is not healed until its shard is touched: left alone it is
/// quarantined at the next start and its shard comes up cold.
#[test]
fn persist_faults_leave_the_new_artefact_the_old_one_or_an_unparsable_one() {
    let sites = [
        (FaultSite::PersistWrite, SitePolicy::flat(1.0, 7)),
        (FaultSite::PersistFsync, SitePolicy::flat(1.0, 2)),
    ];
    let traffic = |seed| generate(seed, 60, 2, &TRAFFIC);
    let steps = [
        traffic(1),
        vec![Snapshot, Snapshot, Snapshot],
        traffic(2),
        // Five faulted passes, each answered `Error`: torn + fsync, write
        // error, torn + fsync, write error, then shard 0 written torn before
        // shard 1's write fails. Nothing moves shard 0 after that, so the
        // disarmed pass and the graceful stop's both skip it, and the start
        // sets it aside.
        vec![Snapshot, Snapshot, Faults(false), Snapshot, Restart],
        vec![Faults(true)],
        traffic(3),
        // The last injection tears shard 0 again in a pass that completes;
        // touched, it is rewritten by the next, and this start finds nothing
        // to set aside.
        vec![Snapshot, Faults(false), Predict { shard: 0, plan: 0 }],
        vec![Snapshot, Restart, Stats { shard: 0 }],
    ]
    .concat();
    let report = check("persist family", &setup(2, 3, &sites), &steps);
    let plan = report.plan.as_deref().expect("a finished run has its plan");
    let hard_errors =
        plan.injected(FaultSite::PersistWrite) / 2 + plan.injected(FaultSite::PersistFsync);
    assert_eq!(
        plan.injected_total(),
        9,
        "vacuous: the caps were not reached"
    );
    assert_eq!((report.snapshot_errors, hard_errors), (5, 5));
    assert_eq!(
        report.quarantined, 1,
        "the torn artefact left alone is set aside, the one rewritten is not"
    );
    // Shard 0 by the disarmed pass, both by the first stop; shard 1 by the
    // last pass, both by the second stop.
    assert_eq!(report.skipped, 6);
}

/// Restore family: every injected bit flip is one `*.quarantine` file and
/// one shard that restarts cold (its `Stats` equal a cold model's); every
/// other shard restarts warm.
#[test]
fn restore_faults_quarantine_and_cold_start_exactly_the_flipped_shards() {
    let sites = [(FaultSite::PersistRestore, SitePolicy::flat(1.0, 2))];
    let traffic = |seed| generate(seed, 90, 3, &TRAFFIC);
    let steps = [
        traffic(1),
        vec![Restart],
        traffic(2),
        vec![Restart],
        traffic(3),
    ]
    .concat();
    let report = check("restore family", &setup(3, 11, &sites), &steps);
    let plan = report.plan.as_deref().expect("a finished run has its plan");
    assert_eq!(plan.injected(FaultSite::PersistRestore), 2);
    assert_eq!(report.quarantined, 2);
}

/// Socket family: whatever the sockets do, every observe is confirmed and
/// the server counts exactly the sends the driver knows were applied — the
/// answered ones plus the ones whose reply was lost. No tolerance.
#[test]
fn socket_faults_lose_no_observe_and_count_every_duplicate() {
    let sites = [
        (FaultSite::SockRead, SitePolicy::flat(0.05, 30)),
        (FaultSite::SockWrite, SitePolicy::flat(0.05, 30)),
    ];
    let steps = generate(17, 1200, 2, &[300, 50, 500, 60, 0, 0, 0, 20, 0, 0, 0]);
    let report = check("socket family", &setup(2, 17, &sites), &steps);
    let plan = report.plan.as_deref().expect("a finished run has its plan");
    assert_eq!(
        plan.injected_total(),
        60,
        "vacuous: the caps were not reached"
    );
    assert!(
        report.io_errors > 0 && report.lost_observes > 0,
        "{report:?}"
    );
    let answered = count(&steps, |s| matches!(s, Observe { .. }));
    assert_eq!(report.observes, answered + report.lost_observes);
}

/// A kill between two checkpoints: the second lifetime answers from the
/// last checkpoint — the observations made after it are gone, the stray
/// `*.tmp` is ignored, and a shard never fed is as cold as it was.
#[test]
fn a_kill_restores_the_last_completed_checkpoint() {
    let report = check(
        "fixed: kill",
        &setup(2, 0, &[]),
        &[
            Observe {
                shard: 0,
                plan: 1,
                secs: 0.20001,
            },
            Snapshot,
            Observe {
                shard: 0,
                plan: 2,
                secs: 0.30002,
            },
            Snapshot,
            Observe {
                shard: 0,
                plan: 3,
                secs: 0.40003,
            },
            Observe {
                shard: 1,
                plan: 3,
                secs: 0.40003,
            },
            Kill { torn_tmp: true },
            Predict { shard: 0, plan: 2 },
            Predict { shard: 0, plan: 3 },
            Predict { shard: 1, plan: 3 },
            Kill { torn_tmp: false },
            Stats { shard: 0 },
        ],
    );
    assert_eq!(report.quarantined, 0);
}

/// A kill in the middle of a drift recovery: the sentinel latched on a shift
/// of *repeated* plans (cache hits add nothing to the pool, so the latch is
/// held), the checkpoint captured that and the process died before a new
/// plan arrived. The latch survives the restore, and the first new plan the
/// shard observes finishes the interrupted recovery.
#[test]
fn a_latched_sentinel_survives_a_kill_and_retrains_on_the_next_new_plan() {
    let repeats = |shift: f64| {
        (0..120).map(move |i| Observe {
            shard: 0,
            plan: i % 40,
            secs: secs_of(i % 40) * shift,
        })
    };
    let latched: Vec<Step> = repeats(1.0)
        .chain(repeats(30.0))
        .chain([Snapshot, Kill { torn_tmp: false }, Stats { shard: 0 }])
        .collect();
    let report = check("fixed: latched kill", &setup(1, 0, &[]), &latched);
    assert_eq!((report.drift_detections, report.forced_retrains), (1, 0));
    let fresh = Observe {
        shard: 0,
        plan: 1000,
        secs: secs_of(1000) * 30.0,
    };
    let recovered = [latched, vec![fresh, Stats { shard: 0 }]].concat();
    let report = check("fixed: latched kill", &setup(1, 0, &[]), &recovered);
    assert_eq!((report.drift_detections, report.forced_retrains), (1, 1));
}

/// A published generation reaches every shard, answers the misses of cold
/// ones, and is re-read at start after a kill.
#[test]
fn a_hot_swap_reaches_cold_shards_and_survives_a_kill() {
    let steps = [
        Predict { shard: 0, plan: 5 },
        HotSwap,
        Predict { shard: 0, plan: 5 },
        PredictBatch {
            shard: 1,
            first: 3,
            len: 4,
        },
        HotSwap,
        Snapshot,
        Predict { shard: 1, plan: 5 },
        Kill { torn_tmp: false },
        Predict { shard: 0, plan: 6 },
    ];
    let report = check("fixed: hot-swap", &setup(2, 0, &[]), &steps);
    assert_eq!(
        report.answered_global, 6,
        "5 checkpointed + 1 after the kill"
    );
}

/// Decoders never trust input: a frame whose CRC is right and whose count
/// fields lie reaches `decode_request` and is answered `Error`; the same
/// connection then answers a `Stats` that equals the model's — at every
/// `Cur::count` site a request can reach, and past `MAX_PLAN_DEPTH`. The
/// two count sites only a response reaches are checked on the decoder.
#[test]
fn lying_frames_are_answered_error_and_the_connection_stays_usable() {
    let steps = [
        generate(6, 40, 1, &TRAFFIC),
        [PlansCount, SysCount, ChildCount, DeepPlan]
            .map(Garbage)
            .to_vec(),
        generate(7, 40, 1, &TRAFFIC),
    ]
    .concat();
    check("fixed: garbage", &setup(1, 0, &[]), &steps);

    for response in [
        Response::Error {
            message: "short".to_string(),
        },
        Response::PredictionsBatch {
            predictions: Vec::new(),
            latency_us: 0,
        },
    ] {
        let mut payload = Vec::new();
        wire::encode_response(&response, &mut payload);
        assert!(wire::decode_response(&payload).is_ok());
        payload[1..5].copy_from_slice(&1000u32.to_le_bytes());
        let err = wire::decode_response(&payload).unwrap_err();
        assert!(err.to_string().contains("count exceeds payload"), "{err}");
    }
}

/// One flipped bit inside any section of an artefact: the restore error —
/// the text the server logs — names that section, the file is set aside
/// and the shard starts cold.
#[test]
fn a_flipped_bit_in_any_section_quarantines_and_names_the_section() {
    let dir = TempDir::new("stage-oracle-flip");
    let artefact = |shard| ShardRegistry::snapshot_path(&dir.0, shard);
    // Serves `n` shards for one lifetime; reads each shard's `cache_len`
    // after giving it three entries if `feed`.
    let lifetime = |n: u32, feed: bool| {
        let server = Server::start(ServeConfig {
            n_instances: n,
            stage: small_stage(),
            snapshot_dir: Some(dir.0.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let cache_lens: Vec<u64> = (0..n)
            .map(|shard| {
                for id in (0..3).filter(|_| feed) {
                    let observed = client.observe(shard, &plan_of(id), &SYS, secs_of(id));
                    assert!(matches!(observed, Ok(Response::Observed { .. })));
                }
                match client.stats(shard).unwrap() {
                    Response::Stats { cache_len, .. } => cache_len,
                    other => panic!("stats answered {other:?}"),
                }
            })
            .collect();
        client.shutdown().unwrap();
        drop(client);
        server.join().unwrap();
        cache_lens
    };

    // One shard first, to learn the artefact's section ids; then one shard
    // per section, each checkpointed at shutdown.
    assert_eq!(lifetime(1, true), [3]);
    let image = std::fs::read(artefact(0)).unwrap();
    let sections = StoreView::parse(&image).unwrap().section_ids();
    assert_eq!(sections.len(), 6, "{sections:?}");
    assert_eq!(lifetime(6, true), [3; 6]);

    // Shard `i` loses one bit in the middle of section `sections[i]`.
    for (shard, &id) in sections.iter().enumerate() {
        let mut bytes = std::fs::read(artefact(shard as u32)).unwrap();
        let at = {
            let section = StoreView::parse(&bytes).unwrap().section(id).unwrap();
            assert!(!section.is_empty(), "section {id} is empty");
            section.as_ptr() as usize - bytes.as_ptr() as usize + section.len() / 2
        };
        bytes[at] ^= 0x10;
        std::fs::write(artefact(shard as u32), &bytes).unwrap();
        let copy = dir.0.join("copy.store");
        std::fs::write(&copy, &bytes).unwrap();
        let err = load_stage_store(&copy, None).unwrap_err().to_string();
        assert!(err.starts_with(&format!("section {id} checksum")), "{err}");
    }

    assert_eq!(lifetime(6, false), [0; 6], "a damaged shard restored");
    for shard in 0..6 {
        let aside = artefact(shard).with_extension("store.quarantine");
        assert!(aside.exists(), "shard {shard} was not set aside");
    }
}

/// A failing seed is usable: with a divergence planted (the model ignores
/// the observes of one plan) the driver names the seed, and the trace it
/// prints still fails, is no longer than the prefix that first diverged,
/// and here is minimal — the one observe the model skipped.
#[test]
fn a_planted_divergence_comes_back_as_a_seed_and_a_shrunk_trace() {
    let steps = generate(5, 300, 2, &EVERYTHING);
    let observed = |s: &Step| match s {
        Observe { plan, .. } => Some(*plan),
        _ => None,
    };
    let setup = Setup {
        sabotage: steps.iter().skip(100).find_map(observed),
        ..setup(2, 5, &[])
    };
    let failure = falsify("seed 5", &setup, &steps).expect_err("the planted divergence");
    let message = &failure.message;
    assert!(message.starts_with("seed 5: step "), "{message}");
    assert!(
        run(&setup, &failure.shrunk).is_err(),
        "the shrunk trace passes"
    );
    assert!(failure.shrunk.len() <= failure.step + 1);
    let [skipped] = &failure.shrunk[..] else {
        panic!("not minimal: {:?}", failure.shrunk);
    };
    assert_eq!(observed(skipped), setup.sabotage);
    let literal = format!("check(\"seed 5\", &setup, &{:?});", failure.shrunk);
    assert!(message.ends_with(&literal), "{message}");
}
