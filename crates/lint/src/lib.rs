//! stage-lint: a std-only static-analysis pass over this workspace's own
//! sources, enforcing the invariants the serving path depends on:
//!
//! | rule id                 | invariant                                         |
//! |-------------------------|---------------------------------------------------|
//! | `no-panic`              | serve request path + persist layer are panic-free, |
//! |                         | including through transitive calls (call graph)   |
//! | `no-nondeterminism`     | replay-deterministic crates read no clock/entropy |
//! | `lock-order`            | nested guards follow registry → shard → queue,    |
//! |                         | including locks acquired in transitive callees    |
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

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use parser::FileSummary;
use rules::{RULE_DETERMINISM, RULE_LOCK_ORDER, RULE_NO_PANIC, RULE_PRAGMA, RULE_UNSAFE};
use source::SourceFile;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (see [`rules`]).
    pub rule: &'static str,
    /// File the finding is anchored in, relative to the workspace root
    /// (forward slashes), so reports and baselines are portable.
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
    "crates/bench/src/bin/debug_e2e.rs",
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

/// `lock-order` covers everywhere the ordered locks live or are taken.
const LOCK_ORDER_DIRS: &[&str] = &["crates/serve/src", "crates/core/src", "crates/chaos/src"];

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
        if in_dirs(&sum.rel, LOCK_ORDER_DIRS) {
            scope.push(RULE_LOCK_ORDER);
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
    let scoped_lock: HashSet<usize> = sums
        .iter()
        .enumerate()
        .filter(|(_, s)| in_dirs(&s.rel, LOCK_ORDER_DIRS))
        .map(|(i, _)| i)
        .collect();
    let scoped_bounds: HashSet<usize> = sums
        .iter()
        .enumerate()
        .filter(|(_, s)| BOUNDS_FILES.contains(&s.rel.as_str()) || in_dirs(&s.rel, BOUNDS_DIRS))
        .map(|(i, _)| i)
        .collect();
    findings.extend(rules::no_panic::transitive(&g, &scoped_np));
    findings.extend(rules::lock_order::interprocedural(&g, &scoped_lock));
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

/// Renders findings as the JSON report format written to
/// `results/lint_report.json`:
/// `{"findings":[{"rule":..,"file":..,"line":..,"message":..},..],"total":N}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"rule\": ");
        json_string(&mut out, f.rule);
        out.push_str(", \"file\": ");
        json_string(&mut out, &f.file.display().to_string());
        out.push_str(&format!(", \"line\": {}, \"message\": ", f.line));
        json_string(&mut out, &f.message);
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"total\": {}\n}}\n", findings.len()));
    out
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finding parsed back from a `lint_report.json` baseline (rule ids are
/// owned strings because the baseline may predate the current rule set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineFinding {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// Parses a report produced by [`render_json`] (one finding object per
/// line, keys in writer order). Unparseable lines are skipped — a
/// hand-mangled baseline shrinks toward "everything is new", never toward
/// silently accepting findings.
pub fn parse_report(text: &str) -> Vec<BaselineFinding> {
    let mut out = Vec::new();
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        let Some(rest) = t.strip_prefix("{\"rule\": ") else {
            continue;
        };
        let Some((rule, rest)) = json_unstring(rest) else {
            continue;
        };
        let Some(rest) = rest.strip_prefix(", \"file\": ") else {
            continue;
        };
        let Some((file, rest)) = json_unstring(rest) else {
            continue;
        };
        let Some(rest) = rest.strip_prefix(", \"line\": ") else {
            continue;
        };
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let Ok(line_no) = digits.parse() else {
            continue;
        };
        let Some(rest) = rest[digits.len()..].strip_prefix(", \"message\": ") else {
            continue;
        };
        let Some((message, _)) = json_unstring(rest) else {
            continue;
        };
        out.push(BaselineFinding {
            rule,
            file,
            line: line_no,
            message,
        });
    }
    out
}

/// Parses one JSON string starting at the opening quote; returns the
/// decoded value and the remainder after the closing quote.
fn json_unstring(s: &str) -> Option<(String, &str)> {
    let mut chars = s.char_indices();
    if chars.next()?.1 != '"' {
        return None;
    }
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let mut v = 0u32;
                    for _ in 0..4 {
                        v = v * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(v)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Findings in `current` that are not covered by `baseline`, matched as a
/// multiset on (rule, file, message) — line numbers shift with unrelated
/// edits, so they do not participate. Used by `--baseline` to gate CI on
/// *new* findings only while a pre-existing debt list is burned down.
pub fn new_vs_baseline<'a>(
    current: &'a [Finding],
    baseline: &[BaselineFinding],
) -> Vec<&'a Finding> {
    let mut budget: HashMap<(&str, String, &str), usize> = HashMap::new();
    for b in baseline {
        *budget
            .entry((b.rule.as_str(), b.file.clone(), b.message.as_str()))
            .or_default() += 1;
    }
    let mut new = Vec::new();
    for f in current {
        let key = (f.rule, f.file.display().to_string(), f.message.as_str());
        match budget.get_mut(&key) {
            Some(n) if *n > 0 => *n -= 1,
            _ => new.push(f),
        }
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed() {
        let findings = vec![Finding::new(
            RULE_NO_PANIC,
            Path::new("a\\b.rs"),
            7,
            "say \"no\"".to_string(),
        )];
        let json = render_json(&findings);
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\\\\b.rs"));
        assert!(json.contains("\\\"no\\\""));
        let empty = render_json(&[]);
        assert!(empty.contains("\"findings\": []"));
        assert!(empty.contains("\"total\": 0"));
    }

    #[test]
    fn report_roundtrips_through_parse() {
        let findings = vec![
            Finding::new(
                RULE_NO_PANIC,
                Path::new("a.rs"),
                7,
                "x \"q\" \\ y".to_string(),
            ),
            Finding::new(
                RULE_LOCK_ORDER,
                Path::new("b.rs"),
                9,
                "tab\there".to_string(),
            ),
        ];
        let parsed = parse_report(&render_json(&findings));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].rule, "no-panic");
        assert_eq!(parsed[0].file, "a.rs");
        assert_eq!(parsed[0].line, 7);
        assert_eq!(parsed[0].message, "x \"q\" \\ y");
        assert_eq!(parsed[1].message, "tab\there");
    }

    #[test]
    fn baseline_diff_matches_multiset_ignoring_lines() {
        let current = vec![
            Finding::new(RULE_NO_PANIC, Path::new("a.rs"), 10, "m1".to_string()),
            Finding::new(RULE_NO_PANIC, Path::new("a.rs"), 20, "m1".to_string()),
            Finding::new(RULE_NO_PANIC, Path::new("a.rs"), 30, "m2".to_string()),
        ];
        let baseline = vec![BaselineFinding {
            rule: "no-panic".to_string(),
            file: "a.rs".to_string(),
            line: 999, // shifted: must not matter
            message: "m1".to_string(),
        }];
        let new: Vec<usize> = new_vs_baseline(&current, &baseline)
            .iter()
            .map(|f| f.line)
            .collect();
        // One m1 is covered by the baseline; the duplicate and m2 are new.
        assert_eq!(new, vec![20, 30]);
    }
}
