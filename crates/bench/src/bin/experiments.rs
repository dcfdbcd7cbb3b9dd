//! CLI entry point regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p stage-bench --bin experiments -- <experiment|all> [flags]
//!
//! experiments: every id of `ALL_EXPERIMENTS` (`--list` prints them)
//! flags:
//!   --quick          small fleet / small models (default)
//!   --full           paper-scale (for this substrate) configuration
//!   --instances N    override evaluation-fleet size
//!   --days F         override simulated duration
//!   --seed N         override the master seed
//!   --threads N      worker threads for shard-parallel replay
//!                    (default: all cores)
//!   --out DIR        artefact directory (default: results/)
//!   --list           list experiment ids and exit
//! ```

use stage_bench::context::{ExperimentContext, HarnessConfig};
use stage_bench::experiments::{self, ALL_EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for e in ALL_EXPERIMENTS {
            println!("{e}");
        }
        return ExitCode::SUCCESS;
    }
    let mut experiments_requested: Vec<String> = Vec::new();
    let mut config = HarnessConfig::quick();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => config = HarnessConfig::quick(),
            "--full" => config = HarnessConfig::full(),
            "--instances" => {
                i += 1;
                config.eval_fleet.n_instances = parse(&args, i, "--instances");
            }
            "--days" => {
                i += 1;
                config.eval_fleet.duration_days = parse(&args, i, "--days");
            }
            "--seed" => {
                i += 1;
                config.eval_fleet.seed = parse(&args, i, "--seed");
            }
            "--threads" => {
                i += 1;
                config.parallelism = parse(&args, i, "--threads");
            }
            "--out" => {
                i += 1;
                config.out_dir = args
                    .get(i)
                    .unwrap_or_else(|| usage("--out needs a value"))
                    .into();
            }
            name if !name.starts_with('-') => {
                experiments_requested.push(name.to_string());
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    if experiments_requested.is_empty() {
        usage("missing experiment id");
    }
    let mut names: Vec<&str> = Vec::new();
    for e in &experiments_requested {
        if e == "all" {
            names.extend_from_slice(ALL_EXPERIMENTS);
        } else if ALL_EXPERIMENTS.contains(&e.as_str()) {
            names.push(e.as_str());
        } else {
            usage(&format!("unknown experiment '{e}'"));
        }
    }

    let ctx = ExperimentContext::new(config);
    let mut shared = None;
    for name in names {
        let t0 = std::time::Instant::now();
        let Some(report) = experiments::run(name, &ctx, &mut shared) else {
            eprintln!("experiment {name} unavailable");
            return ExitCode::FAILURE;
        };
        println!("================ {name} ================");
        println!("{}", report.text);
        match ctx.write_json(&report.name, &report.json) {
            Ok(path) => println!(
                "[artefact: {} | {:.1}s]\n",
                path.display(),
                t0.elapsed().as_secs_f64()
            ),
            Err(e) => eprintln!("[artefact write failed: {e}]"),
        }
    }
    ExitCode::SUCCESS
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a numeric value")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!("usage: experiments <experiment|all> [--quick|--full] [--instances N] [--days F] [--seed N] [--threads N] [--out DIR] [--list]");
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
    std::process::exit(2);
}
