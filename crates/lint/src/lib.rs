//! stage-lint: a std-only static-analysis pass over this workspace's own
//! sources, enforcing the invariants the serving path depends on:
//!
//! | rule id                 | invariant                                         |
//! |-------------------------|---------------------------------------------------|
//! | `no-panic`              | serve request path + persist layer are panic-free, |
//! |                         | including through transitive calls (call graph)   |
//! | `no-nondeterminism`     | replay-deterministic crates read no clock/entropy |
//! | `protocol-exhaustive`   | every Request verb is dispatched and documented   |
//! | `unsafe-seam`           | every `unsafe` on a hardened path is justified    |
//! | `bounds-before-alloc`   | wire/store-tainted allocation sizes are bounds-   |
//! |                         | checked before allocating                         |
//! | `no-blocking-in-evloop` | the poll loop's transitive callees never block    |
//!
//! Findings can be suppressed (except malformed-pragma findings) with a
//! `// lint:allow(<rule>): <reason>` comment on the offending line or the
//! line directly above.
//!
//! The pass is layered: a lexer ([`source`]) blanks comments/strings
//! offset-preservingly, a token-tree parser ([`parser`]) summarizes each
//! file's fn items / call sites / rule facts, and a workspace call graph
//! ([`graph`]) powers the interprocedural rules.

pub mod graph;
pub mod parser;
pub mod rules;
pub mod source;

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use parser::FileSummary;
use rules::{RULE_DETERMINISM, RULE_NO_PANIC, RULE_PRAGMA, RULE_UNSAFE};
use source::SourceFile;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (see [`rules`]).
    pub rule: &'static str,
    /// File the finding is anchored in, relative to the workspace root
    /// (forward slashes), so reports are portable.
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(rule: &'static str, file: &Path, line: usize, message: String) -> Self {
        Self {
            rule,
            file: file.to_path_buf(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Per-rule file scopes, relative to the workspace root.
///
/// `no-panic` covers the serve request path, the snapshot/persist layer
/// (including the artefact store, which parses hostile bytes on the
/// restore path), the degradation logic in the predictor, and
/// the fault injector itself: a panic there takes down every connection,
/// corrupts a checkpoint, or — in the injector's case — voids the very
/// no-panic property under test. The same files carry the `unsafe-seam`
/// rule.
const NO_PANIC_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/client.rs",
    "crates/serve/src/wire.rs",
    "crates/serve/src/evloop.rs",
    "crates/core/src/persist.rs",
    "crates/core/src/stage.rs",
    "crates/core/src/storefmt.rs",
    "crates/core/src/drift.rs",
    "crates/store/src/lib.rs",
    "crates/store/src/format.rs",
    "crates/chaos/src/lib.rs",
    "crates/chaos/src/plan.rs",
    "crates/chaos/src/rng.rs",
    "crates/chaos/src/io.rs",
    "crates/chaos/src/hooks.rs",
];

/// `no-nondeterminism` covers every crate the fleet replay engine loads:
/// models, the metric accumulators (which also feed the drift sentinel),
/// workload synthesis, and the replay driver itself.
const DETERMINISM_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/gbdt/src",
    "crates/metrics/src",
    "crates/nn/src",
    "crates/workload/src",
];
const DETERMINISM_FILES: &[&str] = &["crates/bench/src/replay.rs", "crates/bench/src/parallel.rs"];

/// `bounds-before-alloc` covers the binary decoders: the wire codec, the
/// snapshot/store format, and the artefact store (all of which size
/// allocations from attacker- or corruption-controlled length fields).
const BOUNDS_FILES: &[&str] = &["crates/serve/src/wire.rs", "crates/core/src/storefmt.rs"];
const BOUNDS_DIRS: &[&str] = &["crates/store/src"];

/// Lints the workspace rooted at `root`; findings are sorted by (file,
/// line, rule) and use workspace-relative paths.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let sums = summarize_workspace(root)?;
    Ok(lint_summaries(root, &sums))
}

/// Parses every workspace source file into summaries, in path order.
pub fn summarize_workspace(root: &Path) -> io::Result<Vec<FileSummary>> {
    let mut sums = Vec::new();
    for path in workspace_rust_files(root)? {
        let rel = rel_of(root, &path);
        let file = SourceFile::read(&path)?;
        sums.push(parser::summarize(&file, &rel));
    }
    Ok(sums)
}

/// Runs every rule over pre-built summaries.
pub fn lint_summaries(root: &Path, sums: &[FileSummary]) -> Vec<Finding> {
    let idx = graph::index_by_rel(sums);
    let mut findings = Vec::new();

    // Layer 1: direct lexical findings, filtered by each file's rule scope
    // and by pragmas. The hardened files carry both the panic-freedom rule
    // and the unsafe-justification rule: an FFI seam that panics and an
    // unsafe block without a reviewable argument are the same class of
    // hazard.
    for sum in sums {
        let mut scope: Vec<&str> = Vec::new();
        if NO_PANIC_FILES.contains(&sum.rel.as_str()) {
            scope.push(RULE_NO_PANIC);
            scope.push(RULE_UNSAFE);
        }
        if in_dirs(&sum.rel, DETERMINISM_DIRS) || DETERMINISM_FILES.contains(&sum.rel.as_str()) {
            scope.push(RULE_DETERMINISM);
        }
        for (rule, line, message) in &sum.direct {
            let Some(&id) = scope.iter().find(|&&id| id == rule) else {
                continue;
            };
            if !sum.allowed(id, *line) {
                findings.push(Finding::new(
                    id,
                    Path::new(&sum.rel),
                    *line,
                    message.clone(),
                ));
            }
        }
        // Malformed pragmas are reported for every workspace file and can
        // never be suppressed — a typo'd allow must not silently allow
        // anything.
        for &line in &sum.malformed {
            findings.push(Finding::new(
                RULE_PRAGMA,
                Path::new(&sum.rel),
                line,
                "malformed lint:allow pragma — expected `// lint:allow(<rule>): <reason>` with a \
                 non-empty reason"
                    .to_string(),
            ));
        }
    }

    // Layer 2: the interprocedural rules over the workspace call graph.
    let g = graph::Graph::build(sums);
    let scoped_np: HashSet<usize> = NO_PANIC_FILES
        .iter()
        .filter_map(|r| idx.get(r).copied())
        .collect();
    let scoped_bounds: HashSet<usize> = sums
        .iter()
        .enumerate()
        .filter(|(_, s)| BOUNDS_FILES.contains(&s.rel.as_str()) || in_dirs(&s.rel, BOUNDS_DIRS))
        .map(|(i, _)| i)
        .collect();
    findings.extend(rules::no_panic::transitive(&g, &scoped_np));
    findings.extend(rules::bounds_alloc::check_graph(&g, &scoped_bounds));
    findings.extend(rules::no_blocking::check_graph(&g));

    // Layer 3: the cross-file protocol rule (reads protocol/server/wire +
    // README directly; its findings come back root-joined and are
    // normalized here).
    for mut f in rules::protocol::check_workspace(root) {
        f.file = PathBuf::from(rel_of(root, &f.file));
        findings.push(f);
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule)
            .cmp(&(&b.file, b.line, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    findings
}

/// Workspace-relative path with forward slashes.
fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy();
    if std::path::MAIN_SEPARATOR == '/' {
        s.into_owned()
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}

fn in_dirs(rel: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| {
        rel.strip_prefix(d)
            .is_some_and(|rest| rest.starts_with('/'))
    })
}

/// Every `.rs` file under `crates/*/src`, sorted. Tests, fixtures, and
/// vendored code are deliberately out of scope: fixture files contain
/// intentional violations, and the graph must not resolve calls into them.
pub fn workspace_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            out.extend(rust_files(&src)?);
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
