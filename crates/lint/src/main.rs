//! stage-lint CLI.
//!
//! ```text
//! stage-lint --workspace [--json] [--root DIR] [--baseline FILE]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings (with `--baseline`: *new*
//! findings), 2 = usage / I/O error. With `--json` the report is also
//! written to `results/lint_report.json` under the workspace root.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut workspace = false;
    let mut baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root requires a directory"),
            },
            "--baseline" => match args.next() {
                Some(file) => baseline = Some(PathBuf::from(file)),
                None => return usage("--baseline requires a report file"),
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

    // Read the baseline BEFORE --json rewrites the report file: the CI
    // invocation diffs against the committed report and refreshes it in
    // one call, so the comparison must see the committed content, not
    // the report this very run just wrote.
    let base_text = match &baseline {
        Some(base_path) => match std::fs::read_to_string(base_path) {
            Ok(t) => Some(t),
            Err(err) => {
                eprintln!("stage-lint: cannot read {}: {err}", base_path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    if json {
        let report = stage_lint::render_json(&findings);
        let out_dir = root.join("results");
        let out_path = out_dir.join("lint_report.json");
        if let Err(err) =
            std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&out_path, report))
        {
            eprintln!("stage-lint: cannot write {}: {err}", out_path.display());
            return ExitCode::from(2);
        }
        eprintln!("stage-lint: report written to {}", out_path.display());
    }

    // Baseline mode gates on *new* findings only: pre-existing debt listed
    // in the baseline report stays visible but does not fail the run.
    if let (Some(base_path), Some(base_text)) = (baseline, base_text) {
        let base = stage_lint::parse_report(&base_text);
        let new = stage_lint::new_vs_baseline(&findings, &base);
        for f in &new {
            println!("{f}");
        }
        return if new.is_empty() {
            eprintln!(
                "stage-lint: no new findings vs baseline ({} baseline, {} current)",
                base.len(),
                findings.len()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "stage-lint: {} NEW finding(s) vs baseline {}",
                new.len(),
                base_path.display()
            );
            ExitCode::from(1)
        };
    }

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("stage-lint: workspace clean (7 rules)");
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

const USAGE: &str = "usage: stage-lint --workspace [--json] [--root DIR] [--baseline FILE]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("stage-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
