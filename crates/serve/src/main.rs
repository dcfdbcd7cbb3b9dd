//! The `stage-serve` binary: boots the online prediction service.
//!
//! ```text
//! cargo run --release -p stage-serve -- \
//!     [--addr HOST:PORT] [--instances N] [--loops N] [--queue-cap N] \
//!     [--snapshot-dir DIR] [--snapshot-secs F] [--global-model PATH] \
//!     [--deadline-ms N]
//! ```
//!
//! The server runs until a client sends `Shutdown`, then drains, takes a
//! final checkpoint and exits.

use stage_serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    };
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
            _ => {
                usage();
            }
        }
        i += 1;
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
         [--global-model PATH] [--deadline-ms N]"
    );
    std::process::exit(2);
}
