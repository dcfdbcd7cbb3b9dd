//! Fixture corpus tests: each rule fires on its violation fixture with the
//! exact rule id and line numbers, stays silent on its clean fixture, and
//! the merged workspace lints clean end-to-end.

use std::path::{Path, PathBuf};

use stage_lint::rules;
use stage_lint::source::SourceFile;
use stage_lint::Finding;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs one single-file rule the way the driver does: check, then drop
/// pragma-suppressed findings.
fn run(rule: fn(&SourceFile) -> Vec<Finding>, name: &str) -> Vec<Finding> {
    let file = SourceFile::read(&fixture(name)).expect("fixture readable");
    rule(&file)
        .into_iter()
        .filter(|f| !file.allowed(f.rule, f.line))
        .collect()
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings
        .iter()
        .inspect(|f| assert_eq!(f.rule, rule, "unexpected rule id in {f}"))
        .map(|f| f.line)
        .collect()
}

#[test]
fn no_panic_violation_fixture_lines() {
    let findings = run(rules::no_panic::check, "no_panic_violation.rs");
    assert_eq!(
        lines_of(&findings, "no-panic"),
        vec![5, 6, 8, 10, 11],
        "unwrap, expect, panic!, assert!, and indexing — one finding each: {findings:#?}"
    );
    assert!(findings[0].file.ends_with("no_panic_violation.rs"));
}

#[test]
fn no_panic_clean_fixture_is_silent() {
    let findings = run(rules::no_panic::check, "no_panic_clean.rs");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn determinism_violation_fixture_lines() {
    let findings = run(rules::determinism::check, "determinism_violation.rs");
    assert_eq!(
        lines_of(&findings, "no-nondeterminism"),
        vec![4, 8, 12],
        "Instant::now, SystemTime::now, thread_rng: {findings:#?}"
    );
}

#[test]
fn determinism_clean_fixture_is_silent() {
    let findings = run(rules::determinism::check, "determinism_clean.rs");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn unsafe_seam_violation_fixture_lines() {
    let findings = run(rules::unsafe_seam::check, "unsafe_seam_violation.rs");
    assert_eq!(
        lines_of(&findings, "unsafe-seam"),
        vec![4, 8],
        "unjustified unsafe block and unsafe fn: {findings:#?}"
    );
    assert!(findings[0].message.contains("lint:allow(unsafe-seam)"));
}

#[test]
fn unsafe_seam_clean_fixture_is_silent() {
    let findings = run(rules::unsafe_seam::check, "unsafe_seam_clean.rs");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn protocol_violation_fixture_lines() {
    let dir = fixture("protocol");
    let protocol = SourceFile::read(&dir.join("protocol.rs")).expect("fixture readable");
    let server = SourceFile::read(&dir.join("server.rs")).expect("fixture readable");
    let wire = SourceFile::read(&dir.join("wire.rs")).expect("fixture readable");
    let readme = std::fs::read_to_string(dir.join("README.md")).expect("fixture readable");
    let findings = rules::protocol::check(&protocol, &[&server, &wire], &readme);
    // Ping (line 6) is undispatched in both dispatchers and undocumented.
    assert_eq!(lines_of(&findings, "protocol-exhaustive"), vec![6, 6, 6]);
    assert!(findings
        .iter()
        .any(|f| f.message.contains("never dispatched") && f.message.contains("server.rs")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("never dispatched") && f.message.contains("wire.rs")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("missing from the README")));
    assert!(findings.iter().all(|f| f.file.ends_with("protocol.rs")));
}

#[test]
fn protocol_clean_fixture_is_silent() {
    let dir = fixture("protocol_clean");
    let protocol = SourceFile::read(&dir.join("protocol.rs")).expect("fixture readable");
    let server = SourceFile::read(&dir.join("server.rs")).expect("fixture readable");
    let wire = SourceFile::read(&dir.join("wire.rs")).expect("fixture readable");
    let readme = std::fs::read_to_string(dir.join("README.md")).expect("fixture readable");
    let findings = rules::protocol::check(&protocol, &[&server, &wire], &readme);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn malformed_pragma_is_reported_and_unsuppressible() {
    let text = "fn f(x: Option<u8>) {\n    let _ = x.unwrap(); // lint:allow(no-panic)\n}\n";
    let file = SourceFile::parse(Path::new("mem.rs"), text);
    // The pragma is malformed (no reason), so the unwrap is NOT allowed...
    assert!(!file.allowed("no-panic", 2));
    // ...and the pragma itself is surfaced.
    assert_eq!(file.malformed_pragmas(), vec![2]);
}

#[test]
fn merged_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let findings = stage_lint::lint_workspace(&root).expect("lint runs");
    assert!(
        findings.is_empty(),
        "the merged tree must lint clean: {findings:#?}"
    );
}

/// Summarizes one fixture file under a synthetic workspace-relative path.
fn summarize_fixture(name: &str, rel: &str) -> stage_lint::parser::FileSummary {
    let file = SourceFile::read(&fixture(name)).expect("fixture readable");
    stage_lint::parser::summarize(&file, rel)
}

#[test]
fn transitive_no_panic_fires_two_hops_and_two_files_away() {
    let sums = vec![
        summarize_fixture("transitive_no_panic/entry.rs", "fx/entry.rs"),
        summarize_fixture("transitive_no_panic/mid.rs", "fx/mid.rs"),
        summarize_fixture("transitive_no_panic/util.rs", "fx/util.rs"),
    ];
    let g = stage_lint::graph::Graph::build(&sums);
    let scoped = std::collections::HashSet::from([0usize]);
    let findings = rules::no_panic::transitive(&g, &scoped);
    assert_eq!(
        findings.len(),
        1,
        "exactly one boundary finding: {findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, "no-panic");
    assert_eq!(f.file, Path::new("fx/entry.rs"));
    assert_eq!(f.line, 6, "anchors at the scoped call site");
    assert!(
        f.message.contains("widen") && f.message.contains("force"),
        "prints the panic path: {}",
        f.message
    );
    assert!(
        f.message.contains("fx/util.rs:5"),
        "names the panic site file:line: {}",
        f.message
    );
}

#[test]
fn bounds_alloc_violation_fixture_lines() {
    let sums = vec![summarize_fixture("bounds_alloc_violation.rs", "fx/wire.rs")];
    let g = stage_lint::graph::Graph::build(&sums);
    let scoped = std::collections::HashSet::from([0usize]);
    let findings = rules::bounds_alloc::check_graph(&g, &scoped);
    assert_eq!(
        findings.len(),
        1,
        "exactly one tainted alloc: {findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, "bounds-before-alloc");
    assert_eq!(f.file, Path::new("fx/wire.rs"));
    assert_eq!(f.line, 7, "anchors at the allocation");
    assert!(
        f.message.contains("tainted"),
        "explains the taint: {}",
        f.message
    );
}

#[test]
fn bounds_alloc_clean_fixture_is_silent() {
    let sums = vec![summarize_fixture("bounds_alloc_clean.rs", "fx/wire.rs")];
    let g = stage_lint::graph::Graph::build(&sums);
    let scoped = std::collections::HashSet::from([0usize]);
    let findings = rules::bounds_alloc::check_graph(&g, &scoped);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn no_blocking_violation_fixture_lines() {
    let sums = vec![
        summarize_fixture("no_blocking_violation/evloop.rs", "fx/evloop.rs"),
        summarize_fixture("no_blocking_violation/worker.rs", "fx/worker.rs"),
    ];
    let g = stage_lint::graph::Graph::build(&sums);
    let findings = rules::no_blocking::check_graph(&g);
    assert_eq!(
        findings.len(),
        1,
        "exactly one blocking call: {findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, "no-blocking-in-evloop");
    assert_eq!(f.file, Path::new("fx/evloop.rs"));
    assert_eq!(f.line, 8, "anchors at the event loop's call site");
    assert!(
        f.message.contains("drain") && f.message.contains("fx/worker.rs:5"),
        "prints the blocking path: {}",
        f.message
    );
}

#[test]
fn no_blocking_clean_fixture_is_silent() {
    let sums = vec![
        summarize_fixture("no_blocking_clean/evloop.rs", "fx/evloop.rs"),
        summarize_fixture("no_blocking_clean/worker.rs", "fx/worker.rs"),
    ];
    let g = stage_lint::graph::Graph::build(&sums);
    let findings = rules::no_blocking::check_graph(&g);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}
