//! Chaos soak: replays predict+observe round-trip traffic against
//! `stage-serve` under an escalating, seed-deterministic fault schedule and
//! balances the books.
//!
//! Six phases, each against a fresh server (persist/restore share a
//! snapshot directory to exercise warm restart under disk faults):
//!
//! 1. `baseline` — no faults; establishes the healthy envelope.
//! 2. `socket` — torn frames, mid-message disconnects, slow-loris stalls
//!    on every accepted connection; a reconnecting at-least-once client
//!    must confirm every observe.
//! 3. `model` — local-model unavailability and poisoned/slowed retrains;
//!    the server's `DegradedStats` must match the fault plan's injection
//!    ledger *exactly*.
//! 4. `persist` — partial snapshot writes and fsync failures; every
//!    error-flavoured injection surfaces as exactly one `Snapshot` error
//!    response, and a disarmed final checkpoint heals the artefacts.
//! 5. `restore` — bit-flip corruption on warm restart; every injected
//!    flip quarantines exactly one artefact and the server comes up
//!    serving (cold where quarantined).
//! 6. `step_change` — the `WorkloadShift` site fires exactly once in the
//!    load driver, multiplying every true execution time from then on;
//!    every shard's drift sentinel must latch within the detection budget,
//!    every latched shard must retrain on its next pool add and recover the
//!    error, and the served calibrated intervals must keep their target
//!    coverage through the whole episode.
//!
//! Hard assertions across the run: zero server panics (every `join` is
//! `Ok`), zero lost observes (at-least-once delivery confirmed per plan and
//! cross-checked against server counters), and every injected fault
//! accounted for by a degraded-mode counter (exact ledgers for model,
//! persist, and restore faults; socket-fault accounting tolerates at most
//! one unobserved connection kill per driver connection, which can land on
//! an idle socket after its final round-trip).
//!
//! ```text
//! cargo run --release -p stage-bench --bin chaos_soak -- \
//!     [--smoke] [--seed N] [--instances N] [--rounds N] [--out FILE]
//! ```
//!
//! `--smoke` is the CI shape: 2 instances, 40 rounds per phase, small
//! injection caps. The artefact lands in `results/bench_chaos.json`.

use serde::Serialize;
use stage_chaos::{FaultPlan, FaultPlanConfig, FaultSite, SitePolicy};
use stage_core::{DegradedStats, LocalModelConfig, StageConfig};
use stage_gbdt::{EnsembleParams, NgBoostParams};
use stage_serve::{Response, ServeClient, ServeConfig, Server};
use stage_workload::{FleetConfig, InstanceWorkload};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reconnect budget per observe before declaring the feedback lost.
const MAX_RECONNECTS_PER_OP: u32 = 50;
/// Overload retry budget per operation.
const MAX_OVERLOAD_RETRIES: u32 = 10_000;

struct Args {
    smoke: bool,
    seed: u64,
    instances: u32,
    rounds: u64,
    out: String,
}

/// Per-site ledger entry in the report.
#[derive(Serialize)]
struct SiteLedger {
    site: &'static str,
    calls: u64,
    injected: u64,
}

#[derive(Serialize)]
struct PhaseReport {
    name: &'static str,
    rounds: u64,
    elapsed_secs: f64,
    /// Observes confirmed by the at-least-once driver (must equal rounds).
    observes_confirmed: u64,
    /// Observes the server itself counted (>= confirmed under resends).
    observes_server: u64,
    lost_observes: u64,
    io_errors: u64,
    reconnects: u64,
    overload_retries: u64,
    timed_out_answers: u64,
    snapshot_errors: u64,
    snapshots_ok: u64,
    quarantined_files: u64,
    /// Restore phase only: shards that came up cold (zero restored routing
    /// counters) because their artefact was quarantined.
    cold_started: u64,
    degraded: DegradedStats,
    /// Injections this phase could not map to a degraded-mode counter.
    unaccounted_faults: u64,
    /// Step-change phase only (zero elsewhere): drift detections across
    /// all shards.
    drift_detections: u64,
    /// Step-change phase only: latch-driven retrains across shards.
    forced_retrains: u64,
    /// Step-change phase only: post-shift observes per shard before every
    /// sentinel had latched (upper bound; driven in chunks).
    detection_latency_rounds: u64,
    /// Step-change phase only: mean |log error| between shift and retrain.
    post_shift_log_err: f64,
    /// Step-change phase only: mean |log error| in the recovery tail.
    recovery_log_err: f64,
    /// Step-change phase only: client-measured interval coverage over the
    /// recovery tail.
    recovery_coverage: f64,
    faults: Vec<SiteLedger>,
}

/// The `results/bench_chaos.json` artefact.
#[derive(Serialize)]
struct ChaosSoakReport {
    smoke: bool,
    seed: u64,
    instances: u32,
    rounds_per_phase: u64,
    phases: Vec<PhaseReport>,
    total_injected: u64,
    total_unaccounted: u64,
    server_panics: u64,
    lost_observes: u64,
}

/// Per-driver-thread tallies.
#[derive(Default)]
struct DriverResult {
    confirmed: u64,
    lost: u64,
    io_errors: u64,
    reconnects: u64,
    overload_retries: u64,
    timed_out_answers: u64,
}

impl DriverResult {
    fn absorb(&mut self, other: &DriverResult) {
        self.confirmed += other.confirmed;
        self.lost += other.lost;
        self.io_errors += other.io_errors;
        self.reconnects += other.reconnects;
        self.overload_retries += other.overload_retries;
        self.timed_out_answers += other.timed_out_answers;
    }
}

/// Serving-speed Stage configuration with an aggressive retrain cadence so
/// the `LocalRetrain` fault site sees real traffic within a short soak.
fn soak_stage_config() -> StageConfig {
    StageConfig {
        local: LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: 4,
                member: NgBoostParams {
                    n_estimators: 25,
                    ..NgBoostParams::default()
                },
                seed: 11,
            },
            min_train_examples: 20,
            retrain_interval: 20,
        },
        ..StageConfig::default()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Some(a) => a,
        None => return ExitCode::from(2),
    };
    println!(
        "chaos_soak: seed {} / {} instances / {} rounds per phase{}",
        args.seed,
        args.instances,
        args.rounds,
        if args.smoke { " (smoke)" } else { "" }
    );

    let snap_dir = std::env::temp_dir().join(format!(
        "stage-chaos-soak-{}-{}",
        std::process::id(),
        args.seed
    ));
    let _ = std::fs::remove_dir_all(&snap_dir);

    let mut phases = Vec::new();
    let mut panics = 0u64;
    for phase in [
        Phase::Baseline,
        Phase::Socket,
        Phase::Model,
        Phase::Persist,
        Phase::Restore,
        Phase::StepChange,
    ] {
        match run_phase(phase, &args, &snap_dir) {
            Ok(report) => {
                println!(
                    "chaos_soak: phase {:<8} ok in {:.2}s: {} observes confirmed, \
                     {} injected, {} unaccounted, degraded total {}",
                    report.name,
                    report.elapsed_secs,
                    report.observes_confirmed,
                    report.faults.iter().map(|f| f.injected).sum::<u64>(),
                    report.unaccounted_faults,
                    report.degraded.total(),
                );
                phases.push(report);
            }
            Err(e) => {
                eprintln!("chaos_soak: phase {:?} FAILED: {e}", phase);
                panics += 1;
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&snap_dir);

    let report = ChaosSoakReport {
        smoke: args.smoke,
        seed: args.seed,
        instances: args.instances,
        rounds_per_phase: args.rounds,
        total_injected: phases
            .iter()
            .flat_map(|p| p.faults.iter())
            .map(|f| f.injected)
            .sum(),
        total_unaccounted: phases.iter().map(|p| p.unaccounted_faults).sum(),
        server_panics: panics,
        lost_observes: phases.iter().map(|p| p.lost_observes).sum(),
        phases,
    };

    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::File::create(&args.out) {
        Ok(f) => {
            if let Err(e) = serde_json::to_writer_pretty(f, &report) {
                eprintln!("chaos_soak: cannot write {}: {e}", args.out);
                return ExitCode::FAILURE;
            }
            println!("chaos_soak: wrote {}", args.out);
        }
        Err(e) => {
            eprintln!("chaos_soak: cannot create {}: {e}", args.out);
            return ExitCode::FAILURE;
        }
    }

    let failed = report.server_panics > 0
        || report.lost_observes > 0
        || report.total_unaccounted > 0
        || report.phases.len() != 6
        || report.total_injected == 0;
    if failed {
        eprintln!(
            "chaos_soak: FAILED: panics={} lost_observes={} unaccounted={} phases={} injected={}",
            report.server_panics,
            report.lost_observes,
            report.total_unaccounted,
            report.phases.len(),
            report.total_injected,
        );
        return ExitCode::FAILURE;
    }
    println!(
        "chaos_soak: OK: {} faults injected, all accounted; zero panics, zero lost observes",
        report.total_injected
    );
    ExitCode::SUCCESS
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Baseline,
    Socket,
    Model,
    Persist,
    Restore,
    StepChange,
}

/// How much the step-change phase multiplies true execution times once the
/// `WorkloadShift` site fires. Sized against the workload generator's
/// noise: the noisiest smoke instance has a steady residual spread of
/// ~1.2 in `ln(1+secs)` space, so the shift must land well past one
/// spread (`ln 30 ≈ 3.4`) for detection to be a property of the step and
/// not of the seed.
const SHIFT_FACTOR: f64 = 30.0;

/// Steady (pre-shift) rounds per instance in the step-change phase: enough
/// for the local ensemble to train (20 examples) *and* the drift baseline
/// to warm past its `min_samples` gate.
const STEADY_ROUNDS: u64 = 80;

/// Post-shift driving is chunked so detection can be polled between
/// chunks; the product is the detection budget in observes per shard.
const DETECT_CHUNK: u64 = 20;
const DETECT_CHUNKS_MAX: u64 = 12;

/// Recovery rounds per instance after every sentinel has latched.
const RECOVERY_ROUNDS: u64 = 80;

/// Builds the escalating fault plan for one phase. Caps scale with the
/// smoke flag so CI stays fast while the full soak injects real volume.
fn phase_plan(phase: Phase, args: &Args) -> Option<Arc<FaultPlan>> {
    let cap = |smoke: u64, full: u64| if args.smoke { smoke } else { full };
    let cfg = FaultPlanConfig::new(args.seed).stall(Duration::from_millis(5));
    let cfg = match phase {
        Phase::Baseline => return None,
        // Quiet warm-up, then the injection probability climbs per call
        // until the cap quiesces the site (the escalating schedule).
        Phase::Socket => cfg
            .site(
                FaultSite::SockRead,
                SitePolicy::ramped(0.05, 10, 0.02, cap(6, 24)),
            )
            .site(
                FaultSite::SockWrite,
                SitePolicy::ramped(0.05, 10, 0.02, cap(6, 24)),
            ),
        Phase::Model => cfg
            .site(
                FaultSite::LocalPredict,
                SitePolicy::ramped(0.05, 10, 0.05, cap(10, 40)),
            )
            .site(FaultSite::LocalRetrain, SitePolicy::flat(1.0, cap(4, 12))),
        Phase::Persist => cfg
            .site(FaultSite::PersistWrite, SitePolicy::flat(0.8, cap(6, 12)))
            .site(FaultSite::PersistFsync, SitePolicy::flat(0.5, cap(3, 6))),
        Phase::Restore => cfg.site(
            FaultSite::PersistRestore,
            SitePolicy::flat(1.0, u64::from(args.instances.saturating_sub(1).max(1))),
        ),
        // The shift is a world-fault, decided once per driven round: quiet
        // through the steady window, then exactly one injection (p = 1,
        // cap = 1) at round STEADY_ROUNDS — seed-independent on purpose so
        // the ledger is exact.
        Phase::StepChange => cfg.site(
            FaultSite::WorkloadShift,
            SitePolicy::ramped(1.0, STEADY_ROUNDS, 0.0, 1),
        ),
    };
    Some(Arc::new(FaultPlan::new(cfg)))
}

fn run_phase(
    phase: Phase,
    args: &Args,
    snap_dir: &std::path::Path,
) -> std::io::Result<PhaseReport> {
    if phase == Phase::StepChange {
        return run_step_change(args);
    }
    let plan = phase_plan(phase, args);
    let uses_snapshots = matches!(phase, Phase::Persist | Phase::Restore);
    let server = Server::start(ServeConfig {
        n_instances: args.instances,
        stage: soak_stage_config(),
        snapshot_dir: uses_snapshots.then(|| snap_dir.to_path_buf()),
        chaos: plan.clone(),
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let started = Instant::now();

    // Restore phase: balance the cold-start books *before* traffic muddies
    // them. The persist phase left real routing counters in every
    // artefact's STATS section, so a shard whose restored routing total is
    // zero can only be one whose artefact was corrupted and quarantined —
    // warm survivors carry their history across the restart.
    let mut cold_started = 0u64;
    if phase == Phase::Restore {
        let mut client = ServeClient::connect(&addr)?;
        for instance in 0..args.instances {
            match client.stats(instance)? {
                Response::Stats { routing, .. } => {
                    if routing.total() == 0 {
                        cold_started += 1;
                    }
                }
                other => {
                    return Err(std::io::Error::other(format!(
                        "pre-traffic stats({instance}) answered {other:?}"
                    )))
                }
            }
        }
    }

    // Drive the traffic: one at-least-once client per instance.
    let results: Vec<DriverResult> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for instance in 0..args.instances {
            let addr = addr.as_str();
            handles
                .push(scope.spawn(move || drive_instance(instance, args.rounds, args.seed, addr)));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| DriverResult {
                    lost: args.rounds,
                    ..DriverResult::default()
                })
            })
            .collect()
    });
    let mut totals = DriverResult::default();
    for r in &results {
        totals.absorb(r);
    }

    // Persist phase: hammer the Snapshot verb while write faults are armed.
    let mut snapshot_errors = 0u64;
    let mut snapshots_ok = 0u64;
    if phase == Phase::Persist {
        let mut client = ServeClient::connect(&addr)?;
        let verbs = if args.smoke { 12 } else { 30 };
        for _ in 0..verbs {
            match client.snapshot()? {
                Response::Snapshotted { .. } => snapshots_ok += 1,
                Response::Error { .. } => snapshot_errors += 1,
                other => {
                    return Err(std::io::Error::other(format!(
                        "snapshot answered {other:?}"
                    )))
                }
            }
        }
    }

    // Quiesce before the books are balanced: the drain, final checkpoint,
    // and stats sweep must run clean.
    if let Some(plan) = &plan {
        plan.disarm();
    }

    let mut observes_server = 0u64;
    let mut degraded = DegradedStats::default();
    let mut client = ServeClient::connect(&addr)?;
    for instance in 0..args.instances {
        match client.stats(instance)? {
            Response::Stats {
                observes,
                degraded: d,
                ..
            } => {
                observes_server += observes;
                degraded.global_failover += d.global_failover;
                degraded.local_failover += d.local_failover;
                degraded.retrains_poisoned += d.retrains_poisoned;
                degraded.retrains_slowed += d.retrains_slowed;
            }
            other => {
                return Err(std::io::Error::other(format!(
                    "stats({instance}) answered {other:?}"
                )))
            }
        }
    }
    let Response::ShuttingDown = client.shutdown()? else {
        return Err(std::io::Error::other("bad shutdown reply"));
    };
    drop(client);
    // A panicked serving thread surfaces here — the zero-panic assertion.
    server.join()?;

    let quarantined_files = if uses_snapshots {
        std::fs::read_dir(snap_dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".quarantine"))
            .count() as u64
    } else {
        0
    };

    // Balance the books: every injection must map to a degraded-mode
    // counter. The flavour split falls out of the injection-ordinal
    // rotation in the hooks (read: even=disconnect, odd=stall; write:
    // 0/1=error, 2=stall; persist write: even=torn, odd=hard error).
    let ledger = |site: FaultSite| plan.as_ref().map_or(0, |p| p.injected(site));
    let mut unaccounted = 0u64;
    match phase {
        Phase::Baseline => {
            if let Some(p) = &plan {
                unaccounted += p.injected_total();
            }
        }
        Phase::Socket => {
            let read_kills = ledger(FaultSite::SockRead).div_ceil(2);
            let w = ledger(FaultSite::SockWrite);
            let write_kills = w - w / 3;
            // Each connection-killing injection is observed as exactly one
            // client I/O error — except a kill landing on an idle socket
            // after that driver's final round-trip, which nothing reads.
            let kills = read_kills + write_kills;
            unaccounted += kills
                .saturating_sub(totals.io_errors)
                .saturating_sub(u64::from(args.instances));
            if totals.io_errors > kills {
                unaccounted += totals.io_errors - kills;
            }
        }
        Phase::Model => {
            let lp = ledger(FaultSite::LocalPredict);
            let lr = ledger(FaultSite::LocalRetrain);
            unaccounted += lp.abs_diff(degraded.local_failover);
            unaccounted += lr.abs_diff(degraded.retrains_poisoned + degraded.retrains_slowed);
        }
        Phase::Persist => {
            // Odd-ordinal write injections and every fsync injection abort
            // one snapshot sweep each; even-ordinal (torn) injections write
            // a corrupt artefact that the disarmed final checkpoint heals
            // (proven in the restore phase: quarantines match its own
            // ledger exactly, so no stray corruption survived this one).
            let hard_errors = ledger(FaultSite::PersistWrite) / 2 + ledger(FaultSite::PersistFsync);
            unaccounted += hard_errors.abs_diff(snapshot_errors);
        }
        Phase::Restore => {
            let flips = ledger(FaultSite::PersistRestore);
            unaccounted += flips.abs_diff(quarantined_files);
            // Corrupted sections must quarantine *and* cold-start: every
            // injected flip produced exactly one shard that restarted with
            // empty state, and every untouched artefact warm-started.
            unaccounted += flips.abs_diff(cold_started);
        }
        // Dispatched to run_step_change at the top of this function.
        Phase::StepChange => {}
    }

    let expected_confirmed = args.rounds * u64::from(args.instances);
    let lost = totals.lost + expected_confirmed.saturating_sub(totals.confirmed);
    if observes_server < totals.confirmed {
        return Err(std::io::Error::other(format!(
            "server counted {observes_server} observes but clients confirmed {}",
            totals.confirmed
        )));
    }

    Ok(PhaseReport {
        name: match phase {
            Phase::Baseline => "baseline",
            Phase::Socket => "socket",
            Phase::Model => "model",
            Phase::Persist => "persist",
            Phase::Restore => "restore",
            Phase::StepChange => "step_change",
        },
        rounds: args.rounds,
        elapsed_secs: started.elapsed().as_secs_f64(),
        observes_confirmed: totals.confirmed,
        observes_server,
        lost_observes: lost,
        io_errors: totals.io_errors,
        reconnects: totals.reconnects,
        overload_retries: totals.overload_retries,
        timed_out_answers: totals.timed_out_answers,
        snapshot_errors,
        snapshots_ok,
        quarantined_files,
        cold_started,
        degraded,
        unaccounted_faults: unaccounted,
        drift_detections: 0,
        forced_retrains: 0,
        detection_latency_rounds: 0,
        post_shift_log_err: 0.0,
        recovery_log_err: 0.0,
        recovery_coverage: 0.0,
        faults: plan
            .map(|p| {
                p.stats()
                    .into_iter()
                    .filter(|s| s.calls > 0 || s.injected > 0)
                    .map(|s| SiteLedger {
                        site: s.site.name(),
                        calls: s.calls,
                        injected: s.injected,
                    })
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Outcome of one lockstep round across all instances.
struct RoundOutcome {
    /// Per-prediction |log1p(pred) − log1p(actual)|.
    log_errs: Vec<f64>,
    /// Calibrated intervals that contained the actual.
    covered: u64,
    /// Predictions that carried a calibrated interval at all.
    measured: u64,
}

/// Per-shard drift counters swept over the Stats verb.
struct DriftSweep {
    shards_detected: u32,
    shards_retrained: u32,
    detections: u64,
    forced: u64,
    observes: u64,
}

/// One lockstep round: predict + observe every instance once at the
/// current shift multiplier. Any fault here is a real failure — the phase
/// runs without socket/model/persist chaos, so errors are not retried.
fn step_round(
    client: &mut ServeClient,
    workloads: &[InstanceWorkload],
    round: u64,
    mult: f64,
    totals: &mut DriverResult,
) -> std::io::Result<RoundOutcome> {
    let mut out = RoundOutcome {
        log_errs: Vec::with_capacity(workloads.len()),
        covered: 0,
        measured: 0,
    };
    for (i, workload) in workloads.iter().enumerate() {
        let instance = i as u32;
        let event = &workload.events[(round as usize) % workload.events.len()];
        let sys = workload.spec.system_features(event.concurrency);
        let actual = event.true_exec_secs * mult;
        match client.predict(instance, &event.plan, &sys)? {
            Response::Predicted {
                exec_secs,
                interval_lo,
                interval_hi,
                ..
            } => {
                out.log_errs
                    .push((exec_secs.max(0.0).ln_1p() - actual.max(0.0).ln_1p()).abs());
                if let (Some(lo), Some(hi)) = (interval_lo, interval_hi) {
                    out.measured += 1;
                    if (lo..=hi).contains(&actual) {
                        out.covered += 1;
                    }
                }
            }
            other => {
                return Err(std::io::Error::other(format!(
                    "predict({instance}) answered {other:?}"
                )))
            }
        }
        match client.observe(instance, &event.plan, &sys, actual)? {
            Response::Observed { .. } => totals.confirmed += 1,
            other => {
                return Err(std::io::Error::other(format!(
                    "observe({instance}) answered {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

/// Sweeps drift counters across every shard via the Stats verb.
fn drift_sweep(client: &mut ServeClient, instances: u32) -> std::io::Result<DriftSweep> {
    let mut out = DriftSweep {
        shards_detected: 0,
        shards_retrained: 0,
        detections: 0,
        forced: 0,
        observes: 0,
    };
    for instance in 0..instances {
        match client.stats(instance)? {
            Response::Stats {
                observes,
                drift_detections,
                forced_retrains,
                ..
            } => {
                out.observes += observes;
                out.detections += drift_detections;
                out.forced += forced_retrains;
                if drift_detections > 0 {
                    out.shards_detected += 1;
                }
                if forced_retrains > 0 {
                    out.shards_retrained += 1;
                }
            }
            other => {
                return Err(std::io::Error::other(format!(
                    "stats({instance}) answered {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

/// The step-change phase: steady traffic, then a driver-side workload
/// shift (`SHIFT_FACTOR`× every true execution time); the server must
/// notice (drift sentinel latches on every shard within the detection
/// budget), recover (each latched shard retrains on its next pool add,
/// which pulls the log error back down), and keep honest uncertainty (client-
/// measured interval coverage in the recovery tail stays within two
/// points of the nominal 90%).
fn run_step_change(args: &Args) -> std::io::Result<PhaseReport> {
    let plan = phase_plan(Phase::StepChange, args)
        .ok_or_else(|| std::io::Error::other("step-change phase must have a plan"))?;
    // No server-side chaos: the fault is in the world, not the machinery.
    // The plan lives driver-side so the injection ledger still balances.
    let server = Server::start(ServeConfig {
        n_instances: args.instances,
        stage: soak_stage_config(),
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let started = Instant::now();

    // Unlike the fault phases, this one must never wrap its event stream:
    // a repeated plan answers from the cache (no variance, no interval),
    // which would blind the coverage measurement. A multi-day trace keeps
    // every round on a fresh plan for the worst-case round budget.
    let budget = STEADY_ROUNDS + DETECT_CHUNK * DETECT_CHUNKS_MAX + RECOVERY_ROUNDS;
    let workloads: Vec<InstanceWorkload> = (0..args.instances)
        .map(|instance| {
            InstanceWorkload::generate(
                &FleetConfig {
                    n_instances: 64,
                    duration_days: 30.0,
                    seed: args.seed,
                    max_events_per_instance: 4_000,
                    ..FleetConfig::tiny()
                },
                instance,
            )
        })
        .collect();
    if let Some(short) = workloads.iter().find(|w| (w.events.len() as u64) < budget) {
        return Err(std::io::Error::other(format!(
            "workload too short for the step-change budget: {} events < {budget} rounds",
            short.events.len()
        )));
    }

    let mut client = ServeClient::connect(&addr)?;
    let mut totals = DriverResult::default();
    let mut mult = 1.0f64;
    let mut round = 0u64;

    // Stage A: steady traffic. The sentinel must stay quiet — a false
    // positive here would mean spurious retrains in production.
    for _ in 0..STEADY_ROUNDS {
        if plan.decide(FaultSite::WorkloadShift).is_some() {
            mult = SHIFT_FACTOR;
        }
        step_round(&mut client, &workloads, round, mult, &mut totals)?;
        round += 1;
    }
    if mult != 1.0 {
        return Err(std::io::Error::other(
            "workload shift fired inside the steady window",
        ));
    }
    let steady = drift_sweep(&mut client, args.instances)?;
    if steady.detections > 0 {
        return Err(std::io::Error::other(format!(
            "sentinel false-positived on steady workload: {} detections",
            steady.detections
        )));
    }

    // Stage B: the shift lands on the first round here (call ordinal ==
    // STEADY_ROUNDS). Drive in chunks, polling until every shard's
    // sentinel has latched or the detection budget is spent.
    let mut post_shift_errs: Vec<f64> = Vec::new();
    let mut detection_rounds = 0u64;
    let mut detected = false;
    for _ in 0..DETECT_CHUNKS_MAX {
        for _ in 0..DETECT_CHUNK {
            if plan.decide(FaultSite::WorkloadShift).is_some() {
                mult = SHIFT_FACTOR;
            }
            let out = step_round(&mut client, &workloads, round, mult, &mut totals)?;
            post_shift_errs.extend(out.log_errs);
            round += 1;
            detection_rounds += 1;
        }
        if drift_sweep(&mut client, args.instances)?.shards_detected == args.instances {
            detected = true;
            break;
        }
    }
    if mult != SHIFT_FACTOR {
        return Err(std::io::Error::other("workload shift never fired"));
    }
    if !detected {
        return Err(std::io::Error::other(format!(
            "drift sentinel missed the step change within {detection_rounds} post-shift rounds"
        )));
    }

    // Stage C: recovery tail. The retrained model must pull the error
    // back down and the recalibrated intervals must keep coverage. (A shard
    // that latched on a cache hit retrains on its first fresh plan here.)
    let mut tail_errs: Vec<f64> = Vec::new();
    let mut covered = 0u64;
    let mut measured = 0u64;
    for _ in 0..RECOVERY_ROUNDS {
        if plan.decide(FaultSite::WorkloadShift).is_some() {
            mult = SHIFT_FACTOR;
        }
        let out = step_round(&mut client, &workloads, round, mult, &mut totals)?;
        tail_errs.extend(out.log_errs);
        covered += out.covered;
        measured += out.measured;
        round += 1;
    }

    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let post_shift_log_err = mean(&post_shift_errs);
    let recovery_log_err = mean(&tail_errs);
    if measured == 0 {
        return Err(std::io::Error::other(
            "no calibrated intervals served in the recovery tail",
        ));
    }
    let recovery_coverage = covered as f64 / measured as f64;
    if recovery_log_err >= post_shift_log_err {
        return Err(std::io::Error::other(format!(
            "forced retrain did not recover the error: post-shift log err \
             {post_shift_log_err:.3} vs recovery {recovery_log_err:.3}"
        )));
    }
    if recovery_coverage < 0.88 {
        return Err(std::io::Error::other(format!(
            "recovery interval coverage {recovery_coverage:.3} fell below nominal − 2pts (0.88)"
        )));
    }

    let sweep = drift_sweep(&mut client, args.instances)?;
    if sweep.shards_retrained != args.instances {
        return Err(std::io::Error::other(format!(
            "only {}/{} latched shards retrained by the end of the recovery tail",
            sweep.shards_retrained, args.instances
        )));
    }
    let Response::ShuttingDown = client.shutdown()? else {
        return Err(std::io::Error::other("bad shutdown reply"));
    };
    drop(client);
    // A panicked serving or health thread surfaces here.
    server.join()?;

    // Exact ledger: only the world-fault site is armed and it must have
    // injected exactly once.
    let unaccounted = plan.injected_total().abs_diff(1);

    let expected = round * u64::from(args.instances);
    let lost = expected.saturating_sub(totals.confirmed);
    if sweep.observes < totals.confirmed {
        return Err(std::io::Error::other(format!(
            "server counted {} observes but the driver confirmed {}",
            sweep.observes, totals.confirmed
        )));
    }

    Ok(PhaseReport {
        name: "step_change",
        rounds: round,
        elapsed_secs: started.elapsed().as_secs_f64(),
        observes_confirmed: totals.confirmed,
        observes_server: sweep.observes,
        lost_observes: lost,
        io_errors: totals.io_errors,
        reconnects: totals.reconnects,
        overload_retries: totals.overload_retries,
        timed_out_answers: totals.timed_out_answers,
        snapshot_errors: 0,
        snapshots_ok: 0,
        quarantined_files: 0,
        cold_started: 0,
        degraded: DegradedStats::default(),
        unaccounted_faults: unaccounted,
        drift_detections: sweep.detections,
        forced_retrains: sweep.forced,
        detection_latency_rounds: detection_rounds,
        post_shift_log_err,
        recovery_log_err,
        recovery_coverage,
        faults: plan
            .stats()
            .into_iter()
            .filter(|s| s.calls > 0 || s.injected > 0)
            .map(|s| SiteLedger {
                site: s.site.name(),
                calls: s.calls,
                injected: s.injected,
            })
            .collect(),
    })
}

/// One instance's at-least-once driver: predict→observe rounds over its
/// own connection, reconnecting on any I/O error and resending until the
/// observe is confirmed (the server's cache dedups resends of a plan it
/// already ingested, so counters stay exact).
fn drive_instance(instance: u32, rounds: u64, seed: u64, addr: &str) -> DriverResult {
    let workload = InstanceWorkload::generate(
        &FleetConfig {
            n_instances: 64,
            duration_days: 1.0,
            seed,
            max_events_per_instance: 4_000,
            ..FleetConfig::tiny()
        },
        instance,
    );
    let mut result = DriverResult::default();
    let mut client = None;

    'rounds: for round in 0..rounds {
        let event = &workload.events[(round as usize) % workload.events.len()];
        let sys = workload.spec.system_features(event.concurrency);

        // Predict (idempotent: retried freely across faults).
        let mut overloads = 0u32;
        let mut reconnects = 0u32;
        // Best-effort: a predict starved of connections is abandoned (the
        // observe below is what must never be lost).
        while let Some(c) = connected(&mut client, addr, &mut result, &mut reconnects) {
            match c.predict(instance, &event.plan, &sys) {
                Ok(Response::Predicted { .. }) => break,
                Ok(Response::TimedOut { .. }) => {
                    result.timed_out_answers += 1;
                    break; // answered, just degraded
                }
                Ok(Response::Overloaded { retry_after_ms }) => {
                    result.overload_retries += 1;
                    overloads += 1;
                    if overloads > MAX_OVERLOAD_RETRIES {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                Ok(_) => break, // protocol-level refusal; not a lost observe
                Err(_) => {
                    result.io_errors += 1;
                    client = None;
                }
            }
        }

        // Observe: at-least-once, never dropped.
        let mut overloads = 0u32;
        let mut reconnects = 0u32;
        loop {
            let c = match connected(&mut client, addr, &mut result, &mut reconnects) {
                Some(c) => c,
                None => {
                    result.lost += 1;
                    continue 'rounds;
                }
            };
            match c.observe(instance, &event.plan, &sys, event.true_exec_secs) {
                Ok(Response::Observed { .. }) => {
                    result.confirmed += 1;
                    break;
                }
                Ok(Response::Overloaded { retry_after_ms }) => {
                    result.overload_retries += 1;
                    overloads += 1;
                    if overloads > MAX_OVERLOAD_RETRIES {
                        result.lost += 1;
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                Ok(other) => {
                    eprintln!("chaos_soak: instance {instance}: observe rejected: {other:?}");
                    result.lost += 1;
                    break;
                }
                Err(_) => {
                    result.io_errors += 1;
                    client = None;
                }
            }
        }
    }
    result
}

/// Returns a live connection, dialling a fresh one after a fault killed the
/// previous. `None` once the per-operation reconnect budget is spent.
fn connected<'c>(
    client: &'c mut Option<ServeClient>,
    addr: &str,
    result: &mut DriverResult,
    reconnects: &mut u32,
) -> Option<&'c mut ServeClient> {
    if client.is_none() {
        if *reconnects >= MAX_RECONNECTS_PER_OP {
            return None;
        }
        match ServeClient::connect(addr) {
            Ok(c) => {
                *client = Some(c);
                result.reconnects += 1;
                *reconnects += 1;
            }
            Err(_) => {
                result.io_errors += 1;
                *reconnects += 1;
                std::thread::sleep(Duration::from_millis(5));
                return None;
            }
        }
    }
    client.as_mut()
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        smoke: false,
        seed: 42,
        instances: 4,
        rounds: 250,
        out: "results/bench_chaos.json".to_string(),
    };
    let mut explicit_shape = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                i += 1;
                args.seed = parse_val(&argv, i, "--seed")?;
            }
            "--instances" => {
                i += 1;
                args.instances = parse_val(&argv, i, "--instances")?;
                explicit_shape = true;
            }
            "--rounds" => {
                i += 1;
                args.rounds = parse_val(&argv, i, "--rounds")?;
                explicit_shape = true;
            }
            "--out" => {
                i += 1;
                args.out = argv.get(i)?.clone();
            }
            other => {
                eprintln!("chaos_soak: unknown flag {other}");
                eprintln!(
                    "usage: chaos_soak [--smoke] [--seed N] [--instances N] [--rounds N] \
                     [--out FILE]"
                );
                return None;
            }
        }
        i += 1;
    }
    if args.smoke && !explicit_shape {
        args.instances = 2;
        args.rounds = 40;
    }
    if args.instances == 0 || args.rounds == 0 {
        eprintln!("chaos_soak: instances and rounds must be positive");
        return None;
    }
    Some(args)
}

fn parse_val<T: std::str::FromStr>(argv: &[String], i: usize, flag: &str) -> Option<T> {
    match argv.get(i).and_then(|s| s.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("chaos_soak: invalid value for {flag}");
            None
        }
    }
}
