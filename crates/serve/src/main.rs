//! The `stage-serve` binary: boots the online prediction service.
//!
//! ```text
//! cargo run --release -p stage-serve -- \
//!     [--addr HOST:PORT] [--instances N] [--loops N] [--queue-cap N] \
//!     [--snapshot-dir DIR] [--snapshot-secs F] [--global-model PATH] \
//!     [--deadline-ms N] [--smoke]
//! ```
//!
//! `--smoke` is the CI self-check: bind an ephemeral port, run one
//! predict→observe→predict round-trip against ourselves **on each codec**
//! (binary frames and newline-JSON), assert the two codecs' predictions
//! agree bit-for-bit, shut down cleanly, and print `serve smoke OK`.

use stage_serve::{Response, ServeClient, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    };
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                config.addr = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--instances" => {
                i += 1;
                config.n_instances = parse(&args, i, "--instances");
            }
            "--loops" => {
                i += 1;
                config.n_loops = parse(&args, i, "--loops");
            }
            "--queue-cap" => {
                i += 1;
                config.queue_capacity = parse(&args, i, "--queue-cap");
            }
            "--snapshot-dir" => {
                i += 1;
                config.snapshot_dir =
                    Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--snapshot-secs" => {
                i += 1;
                let secs: f64 = parse(&args, i, "--snapshot-secs");
                config.snapshot_every = Some(Duration::from_secs_f64(secs));
            }
            "--deadline-ms" => {
                i += 1;
                let ms: u64 = parse(&args, i, "--deadline-ms");
                config.request_deadline = Some(Duration::from_millis(ms));
            }
            "--global-model" => {
                i += 1;
                config.global_model_path =
                    Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--smoke" => smoke = true,
            _ => {
                usage();
            }
        }
        i += 1;
    }

    if smoke {
        config.addr = "127.0.0.1:0".to_string();
        return run_smoke(config);
    }

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stage-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("stage-serve listening on {}", server.local_addr());
    if let Err(e) = server.join() {
        eprintln!("stage-serve: shutdown error: {e}");
        return ExitCode::FAILURE;
    }
    println!("stage-serve: drained and stopped");
    ExitCode::SUCCESS
}

/// One full round-trip against an in-process server per codec, suitable
/// for CI. Instance 0 is exercised over binary frames, instance 1 over
/// newline-JSON, and a final cross-codec read of instance 0 must agree
/// with the binary answer bit-for-bit.
fn run_smoke(config: ServeConfig) -> ExitCode {
    use stage_plan::{PlanBuilder, S3Format};
    let result = (|| -> std::io::Result<()> {
        let server = Server::start(config)?;
        let plan = PlanBuilder::select()
            .scan("smoke", S3Format::Local, 1e5, 64.0)
            .hash_aggregate(0.01)
            .finish();
        let sys = [0.0, 0.0];

        let mut bin = ServeClient::connect(server.local_addr())?;
        let mut json = ServeClient::connect_json(server.local_addr())?;

        let bin_cached = round_trip(&mut bin, 0, &plan, &sys, "binary")?;
        round_trip(&mut json, 1, &plan, &sys, "json")?;

        // Cross-codec agreement: the JSON client re-asks the question the
        // binary client warmed; both answers came off the same shard, so
        // any difference is codec skew.
        let p = json.predict(0, &plan, &sys)?;
        let Response::Predicted { exec_secs, .. } = p else {
            return Err(std::io::Error::other(format!("bad predict reply: {p:?}")));
        };
        if exec_secs.to_bits() != bin_cached.to_bits() {
            return Err(std::io::Error::other(format!(
                "codec mismatch: binary {} vs json {exec_secs}",
                bin_cached
            )));
        }

        let Response::ShuttingDown = bin.shutdown()? else {
            return Err(std::io::Error::other("bad shutdown reply"));
        };
        drop(bin);
        drop(json);
        server.join()
    })();
    match result {
        Ok(()) => {
            println!("serve smoke OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve smoke FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// predict → observe → predict-must-hit-cache on one instance; returns the
/// cached prediction.
fn round_trip(
    client: &mut ServeClient,
    instance: u32,
    plan: &stage_plan::PhysicalPlan,
    sys: &[f64],
    codec: &str,
) -> std::io::Result<f64> {
    let p = client.predict(instance, plan, sys)?;
    let Response::Predicted { .. } = p else {
        return Err(std::io::Error::other(format!(
            "bad predict reply ({codec}): {p:?}"
        )));
    };
    client.observe(instance, plan, sys, 2.5)?;
    let p2 = client.predict(instance, plan, sys)?;
    let Response::Predicted {
        exec_secs, source, ..
    } = p2
    else {
        return Err(std::io::Error::other(format!(
            "bad predict reply ({codec}): {p2:?}"
        )));
    };
    if source != stage_core::PredictionSource::Cache || (exec_secs - 2.5).abs() > 1e-9 {
        return Err(std::io::Error::other(format!(
            "observe did not reach the cache ({codec}): {source:?} {exec_secs}"
        )));
    }
    Ok(exec_secs)
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("invalid value for {flag}");
        usage()
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: stage-serve [--addr HOST:PORT] [--instances N] [--loops N] \
         [--queue-cap N] [--snapshot-dir DIR] [--snapshot-secs F] \
         [--global-model PATH] [--deadline-ms N] [--smoke]"
    );
    std::process::exit(2);
}
