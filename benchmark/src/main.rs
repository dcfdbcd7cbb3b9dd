//! The repo's benchmark. One process runs one workload in one mode:
//!
//! ```text
//! stage-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--scale <f>] [--out <dir>]
//! stage-benchmark summarize <BENCHMARK.json> <dir-of-run-sets>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` is the separate traced run that yields the per-layer ones.
//! The last line of stdout is the result object the pipeline reads.

// The vendored `json!` munches one token per expansion step.
#![recursion_limit = "512"]

mod check;
mod corpus;
mod inproc;
mod layers;
mod report;
mod served;
mod spec;
mod stats;
mod summary;
mod trace;

use check::Verdict;
use corpus::Workload;
use report::{Metric, Outcome};
use serde_json::json;
use served::{Ledger, ServerTotals};
use spec::{Mode, WorkloadSpec};
use stage_core::{load_global_store, save_global_store, GlobalModel};
use stage_serve::Server;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median, and the last one
/// is the one measured on.
const SETUP_REPEATS: usize = 3;

struct Args {
    spec: WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let (mut scale, mut out) = (1.0f64, PathBuf::from("benchmark/out"));
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--scale" => scale = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = spec::by_name(&name).ok_or_else(|| {
        let names: Vec<_> = spec::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    if !(seconds > 0.0 && scale > 0.0 && scale <= 1.0) {
        return Err("--seconds must be positive and --scale in (0, 1]".into());
    }
    Ok(Args {
        spec: spec.scaled(scale),
        seed,
        seconds: seconds * scale,
        trace,
        scale,
        out,
    })
}

/// Load is generated by at most this many threads, one connection each.
fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Everything built before the clock starts.
struct Setup {
    w: Workload,
    global: Option<Arc<GlobalModel>>,
    server: Option<Server>,
    corpus_gen_s: f64,
    global_train_s: f64,
    total_s: f64,
}

fn set_up(spec: &WorkloadSpec, seed: u64, clients: usize, tmp: &Path) -> io::Result<Setup> {
    let t0 = Instant::now();
    let w = Workload::generate(spec, seed);
    let corpus_gen_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut global = spec
        .global_model
        .then(|| Arc::new(corpus::train_global(seed)));
    let global_train_s = t.elapsed().as_secs_f64();
    let server = match spec.mode {
        Mode::Inproc => None,
        Mode::Served => {
            let path = match &global {
                Some(g) => {
                    let path = tmp.join("global.store");
                    save_global_store(g, &path, 1, None)?;
                    // Check against the model the server maps, not the one
                    // that was written.
                    let (mapped, _) = load_global_store(&path, None).map_err(io::Error::other)?;
                    global = Some(Arc::new(mapped));
                    Some(path)
                }
                None => None,
            };
            let server = served::boot(spec.shards, path)?;
            served::warm_up(&w, server.local_addr(), clients)?;
            Some(server)
        }
    };
    Ok(Setup {
        w,
        global,
        server,
        corpus_gen_s,
        global_train_s,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

fn tear_down(setup: Setup) -> io::Result<()> {
    if let Some(server) = setup.server {
        server.shutdown();
        server.join()?;
    }
    Ok(())
}

fn merged(ledgers: &[Ledger], pick: impl Fn(&Ledger) -> &Vec<u32>) -> Vec<u64> {
    let mut all: Vec<u64> = ledgers
        .iter()
        .flat_map(|l| pick(l).iter().map(|&ns| u64::from(ns)))
        .collect();
    all.sort_unstable();
    all
}

fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    stats::nearest_rank(sorted, q).map_or(0.0, |ns| ns as f64 / 1_000.0)
}

fn tier_mix_json(shares: [f64; 4]) -> serde_json::Value {
    json!({"cache": shares[0], "local": shares[1], "global": shares[2], "default": shares[3]})
}

fn run_untraced(args: &Args, tmp: &Path) -> io::Result<Outcome> {
    let spec = &args.spec;
    let clients = client_threads();
    let mut setup_times = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = setup.take() {
            tear_down(previous)?;
        }
        let s = set_up(spec, args.seed, clients, tmp)?;
        setup_times.push(s.total_s);
        setup = Some(s);
    }
    let s = setup.expect("SETUP_REPEATS is at least one");
    let global = s.global.as_ref();

    let cpu_before = stats::process_cpu_us();
    let ledgers = match &s.server {
        Some(server) => served::run_clients(&s.w, server.local_addr(), clients, args.seconds)?,
        None => inproc::run(
            &s.w,
            global.expect("replay_inproc trains a global model"),
            clients,
            args.seconds,
        ),
    };
    let cpu_us = stats::process_cpu_us() - cpu_before;
    let peak_rss_mb = stats::peak_rss_mb();

    let mut notes = Vec::new();
    let mut failed: u64 = ledgers.iter().map(|l| l.failed).sum();
    let totals = match &s.server {
        Some(server) => served::reconcile(&s.w, server.local_addr(), &ledgers)?,
        None => ServerTotals::default(),
    };
    failed += totals.stats_mismatch;
    notes.extend(totals.first_mismatch.clone());
    let mut verdict = Verdict::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ledgers
            .iter()
            .map(|l| {
                let w = &s.w;
                scope.spawn(move || match w.spec.mode {
                    Mode::Served => check::verify(w, l, global),
                    Mode::Inproc => inproc::verify(w, l, global.expect("trained above")),
                })
            })
            .collect();
        for h in handles {
            verdict.merge(h.join().expect("check thread panicked"));
        }
    });
    failed += verdict.mismatches;
    notes.extend(verdict.first.clone());
    let shares = check::source_shares(&ledgers);
    if let Some(violation) = check::tier_mix_violation(&s.w, shares) {
        failed += 1;
        notes.push(violation);
    }

    let queries: usize = ledgers.iter().map(|l| l.answers.len()).sum();
    let window_s = ledgers
        .iter()
        .map(|l| l.elapsed.as_secs_f64())
        .fold(0.0, f64::max);
    let queries_per_s: f64 = ledgers
        .iter()
        .map(|l| l.answers.len() as f64 / l.elapsed.as_secs_f64())
        .sum();
    let predict = merged(&ledgers, |l| &l.predict_ns);
    let observe = merged(&ledgers, |l| &l.observe_ns);
    // Accuracy over the prefix, against what always answering the median
    // exec-time of the same queries would score.
    let mut log_true: Vec<f64> = ledgers
        .iter()
        .flat_map(|l| l.log_true.iter().copied())
        .collect();
    let scored = log_true.len();
    let abs_err_mean_s = ledgers.iter().map(|l| l.abs_err_sum).sum::<f64>() / scored.max(1) as f64;
    let abs_log_err_mean =
        ledgers.iter().map(|l| l.abs_log_err_sum).sum::<f64>() / scored.max(1) as f64;
    let centre = stats::median(&mut log_true);
    let median_guess_err =
        log_true.iter().map(|y| (y - centre).abs()).sum::<f64>() / scored.max(1) as f64;
    let np = predict.len() as u64;
    let metrics = vec![
        Metric::new(
            "setup_s",
            stats::median(&mut setup_times.clone()),
            "s",
            SETUP_REPEATS as u64,
        ),
        Metric::new("queries_per_s", queries_per_s, "1/s", queries as u64),
        Metric::new("predict_p50_us", quantile_us(&predict, 0.50), "us", np),
        Metric::new(
            "cpu_us_per_query",
            cpu_us as f64 / queries.max(1) as f64,
            "us",
            queries as u64,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 0),
        Metric::new(
            "rel_log_err",
            abs_log_err_mean / median_guess_err,
            "ratio",
            scored as u64,
        ),
    ];
    report::assert_names(&metrics, &report::END_TO_END);
    let quantiles = |sorted: &[u64]| {
        json!({
            "samples": sorted.len(),
            "p50": quantile_us(sorted, 0.50),
            "p75": quantile_us(sorted, 0.75),
            "p90": quantile_us(sorted, 0.90),
            "p95": quantile_us(sorted, 0.95),
            "p99": quantile_us(sorted, 0.99),
        })
    };
    let meta = json!({
        "mode": "untraced",
        "host": report::host(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds_asked": args.seconds,
        "spec": spec,
        "key_digest": match spec.mode {
            Mode::Served => format!("{:016x}", s.w.key_digest(0, 1_000)),
            Mode::Inproc => String::new(),
        },
        "clients": clients,
        "setup_s_each": setup_times,
        "corpus_gen_s": s.corpus_gen_s,
        "global_train_s": s.global_train_s,
        "timed_window_s": window_s,
        "ops_per_client": ledgers.iter().map(|l| l.ops).collect::<Vec<_>>(),
        "queries": queries,
        "predict_us": quantiles(&predict),
        "observe_us": quantiles(&observe),
        "abs_err_mean_s": abs_err_mean_s,
        "abs_log_err_mean": abs_log_err_mean,
        "median_guess_log_err": median_guess_err,
        "retries": ledgers.iter().map(|l| l.retries).sum::<u64>(),
        "shards_exhausted": ledgers.iter().any(|l| l.exhausted),
        "accuracy_prefix_complete": ledgers.iter().all(|l| l.log_true.len() == spec.accuracy_prefix),
        "tier_mix": tier_mix_json(shares),
        "checked": {
            "oracle": verdict.oracle_checked,
            "cache_mirror": verdict.cache_checked,
            "global_sample": verdict.global_checked,
            "stats_mismatch": totals.stats_mismatch,
        },
        "server": {
            "forced_retrains": totals.forced_retrains,
            "drift_detections": totals.drift_detections,
            "timed_out": totals.timed_out,
            "overloaded": s.server.as_ref().map_or(0, Server::overloaded_count),
        },
    });
    let attempted = ledgers.iter().map(|l| l.requests).sum();
    tear_down(s)?;
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes,
        meta,
    })
}

/// What only a served traced run measures; zero on `replay_inproc`.
#[derive(Default)]
struct ServedNumbers {
    wait_us: f64,
    residual_us: f64,
    predict_requests: u64,
    request_bytes: f64,
    requests: u64,
    nodes_per_plan: f64,
    hit_ratio: f64,
    /// p50 and sample count.
    ensemble_batch_row: (f64, u64),
    predict_batch_row: (f64, u64),
    answers_checked: u64,
}

/// p50 of the spans called `name`, and how many there were.
fn span_p50(tracer: &Tracer, name: &str) -> (f64, u64) {
    let mut d = tracer.durations(name);
    let n = d.len() as u64;
    (stats::quantile_of(&mut d, 0.5), n)
}

fn run_traced(args: &Args, tmp: &Path) -> io::Result<Outcome> {
    let spec = &args.spec;
    let clients = client_threads();
    let s = set_up(spec, args.seed, clients, tmp)?;
    let global = s.global.as_ref();
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let mut m: Vec<Metric> = Vec::new();
    let mut add = |name, value: f64, unit, samples| m.push(Metric::new(name, value, unit, samples));

    let (tracer, wall, sources, ops): (Tracer, Duration, [u64; 4], usize);
    let mut totals = ServerTotals::default();
    let mut store = layers::StoreTimings::default();
    let mut overhead_share = 0.0;
    let attempted: u64;
    let mut overloaded = 0u64;
    let mut served = ServedNumbers::default();
    match &s.server {
        Some(server) => {
            let addr = server.local_addr();
            let registry = layers::mirror_registry(&s.w, global, clients);
            let t = layers::traced(&s.w, addr, &registry, global)?;
            let pseudo = Ledger {
                ops: t.ops,
                ..Ledger::new(t.shards.clone())
            };
            totals = served::reconcile(&s.w, addr, std::slice::from_ref(&pseudo))?;
            overloaded = server.overloaded_count();
            if spec.measure_store {
                store = layers::measure_store(&s.w, &registry, &tmp.join("store"), t.ops)?;
            }
            failed +=
                t.failed + t.verdict.mismatches + totals.stats_mismatch + store.restore_mismatch;
            notes.extend(t.verdict.first.clone());
            notes.extend(totals.first_mismatch.clone());
            attempted = t.requests;
            wall = t.wall;
            sources = t.sources;
            ops = t.ops;
            let shares = check::shares(sources);
            if let Some(violation) = check::tier_mix_violation(&s.w, shares) {
                failed += 1;
                notes.push(violation);
            }
            let (mut wait, mut residual) = (t.wait_ns, t.residual_us);
            let (mut batch_row, mut predict_row) = (t.batch_ns_per_row, t.predict_batch_ns_per_row);
            served = ServedNumbers {
                wait_us: stats::quantile_of(&mut wait, 0.5) / 1_000.0,
                residual_us: stats::median(&mut residual),
                predict_requests: wait.len() as u64,
                request_bytes: t.request_bytes as f64 / t.requests.max(1) as f64,
                requests: t.requests,
                nodes_per_plan: t.plan_nodes as f64 / t.plans.max(1) as f64,
                hit_ratio: t.mirror_hits as f64 / (t.mirror_hits + t.mirror_misses).max(1) as f64,
                ensemble_batch_row: (
                    stats::quantile_of(&mut batch_row, 0.5),
                    batch_row.len() as u64,
                ),
                predict_batch_row: (
                    stats::quantile_of(&mut predict_row, 0.5),
                    predict_row.len() as u64,
                ),
                answers_checked: t.verdict.oracle_checked,
            };
            tracer = t.tracer;
        }
        None => {
            let t = inproc::traced(&s.w, global.expect("replay_inproc trains a global model"));
            overhead_share = t.traced_wall.as_secs_f64() / t.untraced_wall.as_secs_f64() - 1.0;
            attempted = 2 * t.ops as u64;
            wall = t.traced_wall;
            sources = t.sources;
            ops = t.ops;
            tracer = t.tracer;
        }
    }

    for (name, span) in [
        ("serve.wire.encode_request_ns", "serve.wire.encode_request"),
        ("serve.wire.decode_request_ns", "serve.wire.decode_request"),
        ("serve.wire.frame_crc_ns", "serve.wire.frame_crc"),
        (
            "serve.wire.encode_response_ns",
            "serve.wire.encode_response",
        ),
        (
            "serve.wire.decode_response_ns",
            "serve.wire.decode_response",
        ),
        ("serve.json.decode_request_ns", "serve.json.decode_request"),
        ("plan.feature_vector_ns", "plan.feature_vector"),
        ("plan.hash_ns", "plan.hash"),
        ("core.cache.lookup_ns", "core.cache.lookup"),
        ("core.cache.record_ns", "core.cache.record"),
        ("core.predict_ns.cache", "core.predict.cache"),
        ("core.predict_ns.local", "core.predict.local"),
        ("core.predict_ns.global", "core.predict.global"),
        ("core.observe_ns", "core.observe"),
        ("core.calibrate_ns", "core.calibrate"),
        ("gbdt.ensemble_predict_ns", "gbdt.ensemble_predict"),
    ] {
        let (p50, n) = span_p50(&tracer, span);
        add(name, p50, "ns", n);
    }
    add(
        "serve.wire.request_bytes",
        served.request_bytes,
        "B",
        served.requests,
    );
    add(
        "serve.wait_us",
        served.wait_us,
        "us",
        served.predict_requests,
    );
    add(
        "serve.residual_us",
        served.residual_us,
        "us",
        served.predict_requests,
    );
    add("serve.overloaded", overloaded as f64, "count", 0);
    add("serve.timed_out", totals.timed_out as f64, "count", 0);
    add(
        "serve.stats_mismatch",
        totals.stats_mismatch as f64,
        "count",
        0,
    );
    add("plan.nodes_per_plan", served.nodes_per_plan, "count", 0);
    add("core.cache.hit_ratio", served.hit_ratio, "share", 0);
    let (ns, n) = served.predict_batch_row;
    add("core.predict_batch_ns_per_row", ns, "ns", n);
    let share = check::shares(sources);
    add("core.source_share.cache", share[0], "share", 0);
    add("core.source_share.local", share[1], "share", 0);
    add("core.source_share.global", share[2], "share", 0);
    add("core.source_share.default", share[3], "share", 0);
    add(
        "core.forced_retrains",
        totals.forced_retrains as f64,
        "count",
        0,
    );
    add(
        "core.drift_detections",
        totals.drift_detections as f64,
        "count",
        0,
    );
    let coverage = totals.coverage_sum / totals.coverage_n.max(1) as f64;
    add(
        "core.interval_coverage",
        coverage,
        "share",
        totals.coverage_n,
    );
    let (ns, n) = served.ensemble_batch_row;
    add("gbdt.ensemble_predict_batch_ns_per_row", ns, "ns", n);
    let fits = tracer.durations("gbdt.fit");
    let fit_total_ns: u64 = fits.iter().sum();
    let (fit_p50, n_fits) = span_p50(&tracer, "gbdt.fit");
    add("gbdt.fit_ms", fit_p50 / 1e6, "ms", n_fits);
    add("gbdt.fit_count", n_fits as f64, "count", 0);
    add(
        "gbdt.fit_wall_share",
        fit_total_ns as f64 / wall.as_nanos().max(1) as f64,
        "share",
        0,
    );
    let (gcn_p50, n_gcn) = span_p50(&tracer, "nn.gcn_forward");
    add("nn.gcn_forward_us", gcn_p50 / 1_000.0, "us", n_gcn);
    add("nn.global_train_s", s.global_train_s, "s", 0);
    add("store.checkpoint_ms", store.checkpoint_ms, "ms", 0);
    add(
        "store.checkpoint_dirty_ms",
        store.checkpoint_dirty_ms,
        "ms",
        0,
    );
    add("store.restore_ms", store.restore_ms, "ms", 0);
    add("store.bytes", store.bytes as f64, "B", 0);
    add(
        "store.restore_mismatch",
        store.restore_mismatch as f64,
        "count",
        0,
    );
    add("workload.corpus_gen_s", s.corpus_gen_s, "s", 0);
    add("bench.trace_overhead_share", overhead_share, "share", 0);
    let self_ns: u64 = trace::self_times(tracer.spans()).iter().sum();
    add(
        "bench.trace_self_time_share",
        self_ns as f64 / wall.as_nanos().max(1) as f64,
        "share",
        tracer.spans().len() as u64,
    );

    report::assert_names(&m, &report::PER_LAYER);
    std::fs::create_dir_all(&args.out)?;
    tracer.write_json(&args.out.join(format!("trace_{}.json", spec.name)))?;
    let meta = json!({
        "mode": "traced",
        "host": report::host(),
        "seed": args.seed,
        "scale": args.scale,
        "spec": spec,
        "ops": ops,
        "traced_wall_s": wall.as_secs_f64(),
        "tier_mix": tier_mix_json(share),
        "answers_checked_against_mirror": served.answers_checked,
        "spans": tracer.spans().len(),
    });
    tear_down(s)?;
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        notes,
        meta,
    })
}

fn run(args: &Args) -> io::Result<Outcome> {
    let tmp = args.out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    let outcome = if args.trace {
        run_traced(args, &tmp)
    } else {
        run_untraced(args, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = outcome?;
    let mode = if args.trace { "traced" } else { "untraced" };
    report::write_output(
        &args.out.join(format!("{}_{mode}.json", args.spec.name)),
        &outcome,
    )?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("summarize") {
        let paths: Vec<String> = argv.skip(1).collect();
        return match paths.as_slice() {
            [benchmark, sets] => match summary::summarize(Path::new(benchmark), Path::new(sets)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("summarize: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: stage-benchmark summarize <BENCHMARK.json> <dir-of-run-sets>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stage-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            report::print_table(&outcome);
            println!("{}", report::result_line(&outcome));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("stage-benchmark: {}: {e}", args.spec.name);
            ExitCode::FAILURE
        }
    }
}
