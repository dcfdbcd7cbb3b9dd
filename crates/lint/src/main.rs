//! stage-lint CLI.
//!
//! ```text
//! stage-lint --workspace [--root DIR]
//! ```
//!
//! Prints one line per finding. Exit codes: 0 = clean, 1 = findings,
//! 2 = usage / I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut workspace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root requires a directory"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }
    if !workspace {
        return usage("pass --workspace to lint the workspace sources");
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("stage-lint: no workspace root found (looked for Cargo.toml + crates/ walking up from the current directory); pass --root DIR");
            return ExitCode::from(2);
        }
    };

    let findings = match stage_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("stage-lint: {err}");
            return ExitCode::from(2);
        }
    };

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!(
            "stage-lint: workspace clean ({} rules)",
            stage_lint::rules::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("stage-lint: {} finding(s)", findings.len());
        ExitCode::from(1)
    }
}

/// Walks up from the current directory looking for a workspace root
/// (a `Cargo.toml` next to a `crates/` directory).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

const USAGE: &str = "usage: stage-lint --workspace [--root DIR]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("stage-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
