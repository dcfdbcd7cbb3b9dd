//! A token-tree view of one lexed source file: `fn` items (with their
//! `impl` container and arity), the call sites inside each body, and the
//! rule-relevant facts the interprocedural passes consume — explicit panic
//! sites, blocking calls, and the taint events (`let` bindings, bounds
//! guards, allocation sinks) that `bounds-before-alloc` replays.
//!
//! The output, [`FileSummary`], is deliberately self-contained and flat:
//! the whole-workspace passes in [`crate::graph`] run on summaries alone,
//! so anything a rule needs at report time (pragma suppression, direct
//! lexical findings) lives here too.
//!
//! This is a heuristic single-pass scanner over the blanked token stream,
//! not a real Rust parser. Known approximations are documented in
//! DESIGN.md §14; they are all chosen so that *missing* structure degrades
//! toward fewer edges (unsound, documented) rather than phantom findings.

use crate::rules;
use crate::source::SourceFile;

/// Everything the workspace passes need to know about one file.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FileSummary {
    /// Workspace-relative path with forward slashes (stable across hosts).
    pub rel: String,
    /// Module name heuristic: the file stem (`sync` for `.../sync.rs`),
    /// with `mod`/`lib`/`main` treated as opaque.
    pub stem: String,
    /// Every non-test `fn` item, in source order (nested fns flattened).
    pub fns: Vec<FnDef>,
    /// Direct (intra-file) findings from the lexical rules, unfiltered by
    /// pragmas: `(rule, line, message)`.
    pub direct: Vec<(String, usize, String)>,
    /// Well-formed `lint:allow` pragmas, for suppression without re-lexing.
    pub pragmas: Vec<PragmaRec>,
    /// Lines carrying malformed pragmas (always reported).
    pub malformed: Vec<usize>,
    /// Type-ish names visible in this file: every ident mentioned in a
    /// `use` declaration plus locally defined `struct`/`enum`/`trait`/
    /// `type`/`union` names. Sorted and deduplicated. The call graph uses
    /// this to narrow unqualified method-call resolution: a `.finish()`
    /// in a file that imports `SectionWriter` but never names
    /// `PlanBuilder` resolves to the former only.
    pub visible: Vec<String>,
}

/// A well-formed `lint:allow` pragma.
#[derive(Debug, Clone, PartialEq)]
pub struct PragmaRec {
    /// 1-indexed line of the pragma comment.
    pub line: usize,
    /// Rule id it allows.
    pub rule: String,
    /// Whether the pragma's own line has no code (a comment-only line,
    /// which also covers the line below it).
    pub code_free: bool,
}

/// One `fn` item.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// `impl` type name (`""` for free functions).
    pub container: String,
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Parameter count, excluding `self`.
    pub argc: usize,
    /// 1-indexed header line.
    pub start: usize,
    /// 1-indexed line of the closing body brace.
    pub end: usize,
    /// Defined under `#[cfg(test)]`: kept for span accounting but excluded
    /// from the call graph.
    pub in_test: bool,
    /// Call sites in the body (including inside closures).
    pub calls: Vec<CallSite>,
    /// Explicit panic constructs not suppressed by a pragma.
    pub panics: Vec<Site>,
    /// Calls that block the current thread (see [`BLOCKING_CALLS`]).
    pub blocking: Vec<Site>,
    /// Ordered taint events for `bounds-before-alloc`.
    pub taint: Vec<TaintEvent>,
    /// Body mentions `from_le_bytes`-style raw decoding (taint source).
    pub reads_raw: bool,
    /// Body contains at least one bounds-comparison guard.
    pub guards: usize,
}

/// A line-anchored fact with a short description.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    pub line: usize,
    pub what: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// 1-indexed line.
    pub line: usize,
    /// Callee name (final path segment).
    pub name: String,
    /// Last path qualifier (`wire` for `wire::decode`, `Cur` for
    /// `Cur::new`, the impl type for `Self::f` / `self.f`), else `""`.
    pub qual: String,
    /// Method-call syntax (`recv.name(...)`).
    pub method: bool,
    /// Argument count (top-level commas; `self` not included).
    pub argc: usize,
}

/// Taint events, replayed in line order by `bounds-before-alloc`.
#[derive(Debug, Clone, PartialEq)]
pub enum TaintEvent {
    /// `let <vars> = <rhs>;`
    Let {
        line: usize,
        vars: Vec<String>,
        rhs_vars: Vec<String>,
        rhs_calls: Vec<String>,
    },
    /// `if <cond-with-comparison> {`: every ident in the condition is
    /// treated as bounds-checked from here on.
    Guard { line: usize, vars: Vec<String> },
    /// An allocation sink whose size argument mentions `vars` / `calls`.
    Alloc {
        line: usize,
        kind: String,
        vars: Vec<String>,
        calls: Vec<String>,
    },
}

/// Calls that block the calling thread: `(name, min_argc, max_argc,
/// description)`. Arity disambiguates overloaded names (`path.join(x)` is
/// not `handle.join()`). Deliberately absent: plain socket/file writes and
/// `lock()` — the event loop's drain-flush and in-loop shard dispatch are
/// sanctioned design decisions (see DESIGN.md §14).
pub const BLOCKING_CALLS: &[(&str, usize, usize, &str)] = &[
    ("sleep", 1, 1, "thread::sleep"),
    ("park", 0, 0, "thread::park"),
    ("join", 0, 0, "JoinHandle::join"),
    ("wait", 1, 2, "condvar wait"),
    ("wait_timeout", 2, 3, "condvar wait"),
    ("wait_while", 2, 3, "condvar wait"),
    ("recv", 0, 0, "channel recv"),
    ("recv_timeout", 1, 1, "channel recv"),
    ("accept", 0, 0, "listener accept"),
];

/// Raw-byte decoders that originate taint.
pub const RAW_DECODE: &[&str] = &["from_le_bytes", "from_be_bytes", "from_ne_bytes"];

/// Allocation sinks: method/assoc-fn names whose size argument must be
/// bounds-checked when tainted.
const ALLOC_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact", "resize"];

/// Keywords that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "in", "move", "as", "ref", "mut",
    "box", "dyn", "where", "async", "await", "break", "continue", "use", "mod", "pub", "crate",
    "super", "unsafe", "else", "impl", "fn", "struct", "enum", "trait", "union", "type", "const",
    "static", "yield",
];

impl FileSummary {
    /// Pragma suppression without the `SourceFile`: same semantics as
    /// [`SourceFile::allowed`].
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.pragmas
            .iter()
            .any(|p| p.rule == rule && (p.line == line || (p.code_free && p.line + 1 == line)))
    }
}

/// One lexed token with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident { line: usize, text: String },
    Punct { line: usize, ch: char },
}

impl Tok {
    fn line(&self) -> usize {
        match self {
            Tok::Ident { line, .. } | Tok::Punct { line, .. } => *line,
        }
    }
    fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident { text, .. } => Some(text),
            Tok::Punct { .. } => None,
        }
    }
    fn punct(&self) -> Option<char> {
        match self {
            Tok::Punct { ch, .. } => Some(*ch),
            Tok::Ident { .. } => None,
        }
    }
    fn is(&self, c: char) -> bool {
        self.punct() == Some(c)
    }
}

/// Splits the blanked code of every line (test lines included, so brace
/// balance stays intact) into identifier and punct tokens.
fn tokenize(file: &SourceFile) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        let ln = i + 1;
        let mut word = String::new();
        for c in line.code.chars() {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
            } else {
                if !word.is_empty() {
                    toks.push(Tok::Ident {
                        line: ln,
                        text: std::mem::take(&mut word),
                    });
                }
                if !c.is_whitespace() {
                    toks.push(Tok::Punct { line: ln, ch: c });
                }
            }
        }
        if !word.is_empty() {
            toks.push(Tok::Ident {
                line: ln,
                text: word,
            });
        }
    }
    toks
}

/// Parses `file` into a [`FileSummary`]. `rel` is the workspace-relative
/// path used in reports and for module-name resolution.
pub fn summarize(file: &SourceFile, rel: &str) -> FileSummary {
    let stem = std::path::Path::new(rel)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("")
        .to_string();
    let toks = tokenize(file);
    let mut fns = Vec::new();
    collect_items(file, &toks, 0, toks.len(), "", &mut fns, 0);
    fns.sort_by_key(|f| f.start);

    let mut direct = Vec::new();
    for f in crate::rules::no_panic::check(file)
        .into_iter()
        .chain(crate::rules::determinism::check(file))
        .chain(crate::rules::unsafe_seam::check(file))
    {
        direct.push((f.rule.to_string(), f.line, f.message));
    }

    let pragmas = file
        .pragmas()
        .into_iter()
        .map(|p| PragmaRec {
            code_free: file
                .lines
                .get(p.line - 1)
                .is_some_and(|l| l.code.trim().is_empty()),
            line: p.line,
            rule: p.rule,
        })
        .collect();

    FileSummary {
        rel: rel.to_string(),
        stem,
        fns,
        direct,
        pragmas,
        malformed: file.malformed_pragmas(),
        visible: collect_visible(&toks),
    }
}

/// Collects the file's visible type-ish names (see
/// [`FileSummary::visible`]). Deliberately over-approximate: module path
/// segments of `use` declarations are kept too — extra names only make
/// the resolution narrowing *less* aggressive, never wrong-er.
fn collect_visible(toks: &[Tok]) -> Vec<String> {
    let mut vis = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        match toks[i].ident() {
            Some("use") => {
                i += 1;
                while i < toks.len() && !toks[i].is(';') {
                    if let Some(id) = toks[i].ident() {
                        if !matches!(id, "self" | "crate" | "super" | "as" | "pub") {
                            vis.insert(id.to_string());
                        }
                    }
                    i += 1;
                }
            }
            Some("struct" | "enum" | "trait" | "type" | "union") => {
                if let Some(id) = toks.get(i + 1).and_then(|t| t.ident()) {
                    vis.insert(id.to_string());
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
    vis.into_iter().collect()
}

/// Scans `toks[lo..hi]` for `impl` blocks and `fn` items, recursing into
/// bodies so nested fns are flattened out.
fn collect_items(
    file: &SourceFile,
    toks: &[Tok],
    lo: usize,
    hi: usize,
    container: &str,
    out: &mut Vec<FnDef>,
    depth: u32,
) {
    if depth > 32 {
        return; // hostile nesting: stop descending
    }
    let mut i = lo;
    while i < hi {
        match toks[i].ident() {
            Some("impl") => {
                if let Some((ty, body_open)) = parse_impl_header(toks, i, hi) {
                    let body_close = matching_brace(toks, body_open, hi);
                    collect_items(file, toks, body_open + 1, body_close, &ty, out, depth + 1);
                    i = body_close + 1;
                    continue;
                }
                i += 1;
            }
            Some("fn") => {
                if let Some((def, body, next)) = parse_fn(file, toks, i, hi, container) {
                    out.push(def);
                    if let Some((blo, bhi)) = body {
                        // Nested fn items become standalone defs (their
                        // spans are skipped by the outer body scan).
                        collect_items(file, toks, blo, bhi, "", out, depth + 1);
                    }
                    i = next;
                    continue;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Index of the `}` matching the `{` at `open` (or `hi - 1` if ragged).
fn matching_brace(toks: &[Tok], open: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(hi).skip(open) {
        match t.punct() {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    hi.saturating_sub(1)
}

/// Parses `impl [<..>] Type {` / `impl [<..>] Trait for Type {`, returning
/// the container type name and the index of the body `{`.
fn parse_impl_header(toks: &[Tok], at: usize, hi: usize) -> Option<(String, usize)> {
    let mut j = at + 1;
    // Skip the generic parameter list, minding `->` inside bounds.
    if toks.get(j)?.is('<') {
        j = skip_angle_group(toks, j, hi)?;
    }
    // Collect tokens to the body `{` (impl headers have no other braces).
    let mut brace = None;
    for (k, t) in toks.iter().enumerate().take(hi).skip(j) {
        if t.is('{') {
            brace = Some(k);
            break;
        }
        if t.is(';') {
            return None; // `impl Trait for Type;` — no body
        }
    }
    let brace = brace?;
    let mut header = &toks[j..brace];
    if let Some(w) = header.iter().position(|t| t.ident() == Some("where")) {
        header = &header[..w];
    }
    if let Some(f) = header.iter().rposition(|t| t.ident() == Some("for")) {
        header = &header[f + 1..];
    }
    // Type path: last ident before any generic argument list.
    let mut name = None;
    for t in header {
        if t.is('<') {
            break;
        }
        if let Some(id) = t.ident() {
            name = Some(id.to_string());
        }
    }
    Some((name?, brace))
}

/// Skips a balanced `<...>` group starting at `open`; returns the index
/// after the closing `>`. Treats the `>` of `->` as plain punctuation.
fn skip_angle_group(toks: &[Tok], open: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = open;
    while j < hi {
        if toks[j].is('<') {
            depth += 1;
        } else if toks[j].is('>') && !(j > 0 && toks[j - 1].is('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// What [`parse_fn`] yields: the def, the body token range (for
/// nested-fn collection), and the token index to resume scanning at.
type ParsedFn = (FnDef, Option<(usize, usize)>, usize);

/// Parses one `fn` item starting at the `fn` keyword.
fn parse_fn(
    file: &SourceFile,
    toks: &[Tok],
    at: usize,
    hi: usize,
    container: &str,
) -> Option<ParsedFn> {
    let name = toks.get(at + 1)?.ident()?.to_string();
    let start = toks[at].line();
    let mut j = at + 2;
    if toks.get(j)?.is('<') {
        j = skip_angle_group(toks, j, hi)?;
    }
    if !toks.get(j)?.is('(') {
        return None;
    }
    let (argc, has_self, params_end) = parse_params(toks, j, hi)?;
    // Skip the return type / where clause to the body `{` or a decl `;`.
    let mut k = params_end + 1;
    let mut body_open = None;
    while k < hi {
        if toks[k].is('{') {
            body_open = Some(k);
            break;
        }
        if toks[k].is(';') {
            // Trait method declaration: no body, nothing to summarize.
            return Some((
                FnDef {
                    name,
                    container: container.to_string(),
                    has_self,
                    argc,
                    start,
                    end: toks[k].line(),
                    in_test: in_test_line(file, start),
                    ..FnDef::default()
                },
                None,
                k + 1,
            ));
        }
        if toks[k].is('<') {
            if let Some(next) = skip_angle_group(toks, k, hi) {
                k = next;
                continue;
            }
        }
        k += 1;
    }
    let body_open = body_open?;
    let body_close = matching_brace(toks, body_open, hi);
    let end = toks[body_close].line();
    let in_test = in_test_line(file, start);

    let mut def = FnDef {
        name,
        container: container.to_string(),
        has_self,
        argc,
        start,
        end,
        in_test,
        ..FnDef::default()
    };

    if !in_test {
        scan_body(file, toks, body_open + 1, body_close, container, &mut def);
        attach_line_facts(file, &mut def);
    }
    Some((def, Some((body_open + 1, body_close)), body_close + 1))
}

/// Whether 1-indexed `line` is inside a `#[cfg(test)]` region.
fn in_test_line(file: &SourceFile, line: usize) -> bool {
    file.in_test.get(line - 1).copied().unwrap_or(false)
}

/// Parses a parameter list starting at `(`; returns (argc-excluding-self,
/// has_self, index of the closing `)`).
fn parse_params(toks: &[Tok], open: usize, hi: usize) -> Option<(usize, bool, usize)> {
    let mut depth = 0i64;
    let mut commas = 0usize;
    let mut any = false;
    let mut has_self = false;
    let mut close = None;
    let mut j = open;
    while j < hi {
        let t = &toks[j];
        match t.punct() {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            Some(',') if depth == 1 => commas += 1,
            _ => {}
        }
        if depth == 1 && j > open {
            if let Some(id) = t.ident() {
                // `self` anywhere in the first parameter (`&self`,
                // `&mut self`, `self: Box<Self>`) makes this a method.
                if commas == 0 && id == "self" {
                    has_self = true;
                }
                any = true;
            }
        }
        j += 1;
    }
    let close = close?;
    let mut argc = if any { commas + 1 } else { 0 };
    // Trailing comma produces an empty last group.
    if any && toks.get(close.wrapping_sub(1)).is_some_and(|t| t.is(',')) {
        argc = argc.saturating_sub(1);
    }
    if has_self {
        argc = argc.saturating_sub(1);
    }
    Some((argc, has_self, close))
}

/// Walks a fn body extracting call sites, taint events, and blocking
/// calls. Nested `fn` items are skipped (they are collected separately).
fn scan_body(
    file: &SourceFile,
    toks: &[Tok],
    lo: usize,
    hi: usize,
    container: &str,
    def: &mut FnDef,
) {
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        let Some(id) = t.ident() else {
            i += 1;
            continue;
        };
        // Skip a nested fn item's entire span.
        if id == "fn" {
            if let Some(open) = (i..hi).find(|&k| toks[k].is('{') || toks[k].is(';')) {
                i = if toks[open].is(';') {
                    open + 1
                } else {
                    matching_brace(toks, open, hi) + 1
                };
                continue;
            }
            break;
        }
        if id == "let" {
            if let Some((ev, next)) = parse_let(toks, i, hi) {
                def.taint.push(ev);
                // Do not skip: the rhs tokens still get call-site scanning.
                let _ = next;
            }
            i += 1;
            continue;
        }
        if id == "if" {
            if let Some(ev) = parse_guard(toks, i, hi) {
                def.guards += 1;
                def.taint.push(ev);
            }
            i += 1;
            continue;
        }
        if RAW_DECODE.contains(&id) {
            def.reads_raw = true;
        }
        if id == "vec" && toks.get(i + 1).is_some_and(|t| t.is('!')) {
            if let Some(ev) = parse_vec_repeat(toks, i, hi) {
                def.taint.push(ev);
            }
            i += 1;
            continue;
        }
        // Call site: ident [::<..>] ( ...
        if !KEYWORDS.contains(&id) {
            let mut after = i + 1;
            if toks.get(after).is_some_and(|t| t.is(':'))
                && toks.get(after + 1).is_some_and(|t| t.is(':'))
                && toks.get(after + 2).is_some_and(|t| t.is('<'))
            {
                if let Some(next) = skip_angle_group(toks, after + 2, hi) {
                    after = next;
                }
            }
            let is_macro = toks.get(after).is_some_and(|t| t.is('!'));
            if !is_macro && toks.get(after).is_some_and(|t| t.is('(')) {
                let (argc, arg_vars, arg_calls) = parse_args(toks, after, hi);
                let method = i >= 1 && toks[i - 1].is('.');
                let qual = call_qualifier(toks, i, container, method);
                let line = t.line();
                for &(bname, min, max, desc) in BLOCKING_CALLS {
                    if bname == id && (min..=max).contains(&argc) {
                        def.blocking.push(Site {
                            line,
                            what: desc.to_string(),
                        });
                    }
                }
                if ALLOC_SINKS.contains(&id) {
                    // For `resize`, only the first argument is a length.
                    let (vars, calls) = if id == "resize" {
                        first_arg_idents(toks, after, hi)
                    } else {
                        (arg_vars.clone(), arg_calls.clone())
                    };
                    def.taint.push(TaintEvent::Alloc {
                        line,
                        kind: format!("{id}()"),
                        vars,
                        calls,
                    });
                }
                def.calls.push(CallSite {
                    line,
                    name: id.to_string(),
                    qual,
                    method,
                    argc,
                });
            }
        }
        i += 1;
    }
    let _ = file;
}

/// Counts top-level args of the call whose `(` is at `open`, and collects
/// the identifiers inside: plain idents vs idents directly followed by `(`
/// (call names). The `|` toggle approximates closure parameter lists.
fn parse_args(toks: &[Tok], open: usize, hi: usize) -> (usize, Vec<String>, Vec<String>) {
    let mut depth = 0i64;
    let mut commas = 0usize;
    let mut any = false;
    let mut in_pipes = false;
    let mut vars = Vec::new();
    let mut calls = Vec::new();
    let mut j = open;
    let cap = hi.min(open + 4000);
    while j < cap {
        let t = &toks[j];
        match t.punct() {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Some('|') if depth == 1 => in_pipes = !in_pipes,
            Some(',') if depth == 1 && !in_pipes => commas += 1,
            _ => {}
        }
        if j > open && depth >= 1 {
            if let Some(id) = t.ident() {
                any = true;
                if KEYWORDS.contains(&id) {
                    // not an expression ident
                } else if toks.get(j + 1).is_some_and(|t| t.is('(')) {
                    calls.push(id.to_string());
                } else {
                    vars.push(id.to_string());
                }
            } else if !t.is(',') || depth > 1 {
                any = true;
            }
        }
        j += 1;
    }
    let argc = if any { commas + 1 } else { 0 };
    (argc, vars, calls)
}

/// Identifiers of only the first argument (up to the first top-level
/// comma) of the call whose `(` is at `open`.
fn first_arg_idents(toks: &[Tok], open: usize, hi: usize) -> (Vec<String>, Vec<String>) {
    let mut depth = 0i64;
    let mut vars = Vec::new();
    let mut calls = Vec::new();
    let mut j = open;
    let cap = hi.min(open + 4000);
    while j < cap {
        let t = &toks[j];
        match t.punct() {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Some(',') if depth == 1 => break,
            _ => {}
        }
        if j > open {
            if let Some(id) = t.ident() {
                if KEYWORDS.contains(&id) {
                    // skip
                } else if toks.get(j + 1).is_some_and(|t| t.is('(')) {
                    calls.push(id.to_string());
                } else {
                    vars.push(id.to_string());
                }
            }
        }
        j += 1;
    }
    (vars, calls)
}

/// The last path qualifier of the call at token index `i`, mapping `Self`
/// and `self.` receivers to the impl container.
fn call_qualifier(toks: &[Tok], i: usize, container: &str, method: bool) -> String {
    if method {
        // `self.f(..)` pins the candidate set to the impl container.
        if i >= 2 && toks[i - 2].ident() == Some("self") {
            return container.to_string();
        }
        return String::new();
    }
    // `a::b::f(` — qualifier is `b`.
    if i >= 3 && toks[i - 1].is(':') && toks[i - 2].is(':') {
        if let Some(q) = toks[i - 3].ident() {
            if q == "Self" {
                return container.to_string();
            }
            return q.to_string();
        }
    }
    String::new()
}

/// Parses `let <pat> [: ty] = <rhs>;` into a taint event.
fn parse_let(toks: &[Tok], at: usize, hi: usize) -> Option<(TaintEvent, usize)> {
    let line = toks[at].line();
    let cap = hi.min(at + 400);
    // Bound vars: idents between `let` and the assignment `=`, stopping at
    // a top-level `:` (type annotation).
    let mut vars = Vec::new();
    let mut depth = 0i64;
    let mut eq = None;
    let mut in_ty = false;
    let mut j = at + 1;
    while j < cap {
        let t = &toks[j];
        match t.punct() {
            Some('(') | Some('[') | Some('{') | Some('<') => depth += 1,
            Some(')') | Some(']') | Some('}') | Some('>') => {
                if toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is('-')) {
                    // `->` in a closure type annotation
                } else {
                    depth -= 1;
                }
            }
            Some(':') if depth == 0 => {
                if toks.get(j + 1).is_some_and(|t| t.is(':')) {
                    j += 2; // path separator inside a pattern
                    continue;
                }
                in_ty = true;
            }
            Some('=') if depth == 0 && !toks.get(j + 1).is_some_and(|t| t.is('=')) => {
                eq = Some(j);
                break;
            }
            Some(';') if depth == 0 => return None, // `let x;`
            _ => {}
        }
        if !in_ty && depth >= 0 {
            if let Some(id) = t.ident() {
                if !matches!(id, "mut" | "ref") {
                    vars.push(id.to_string());
                }
            }
        }
        j += 1;
    }
    let eq = eq?;
    // RHS idents up to the terminating `;`.
    let mut rhs_vars = Vec::new();
    let mut rhs_calls = Vec::new();
    let mut depth = 0i64;
    let mut j = eq + 1;
    while j < cap {
        let t = &toks[j];
        match t.punct() {
            // A `{` at depth 0 ends the scan: `if let`/`while let` have no
            // `;`, and struct-literal field taint is not tracked.
            Some('{') if depth == 0 => break,
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some(';') if depth <= 0 => break,
            _ => {}
        }
        if let Some(id) = t.ident() {
            if KEYWORDS.contains(&id) {
                // skip
            } else if toks.get(j + 1).is_some_and(|t| t.is('(')) {
                rhs_calls.push(id.to_string());
            } else {
                rhs_vars.push(id.to_string());
            }
        }
        j += 1;
    }
    if vars.is_empty() {
        return None;
    }
    Some((
        TaintEvent::Let {
            line,
            vars,
            rhs_vars,
            rhs_calls,
        },
        j,
    ))
}

/// Parses an `if` condition; a comparison operator makes every condition
/// ident a bounds-checked var from this line on.
fn parse_guard(toks: &[Tok], at: usize, hi: usize) -> Option<TaintEvent> {
    let line = toks[at].line();
    let cap = hi.min(at + 200);
    let mut vars = Vec::new();
    let mut has_cmp = false;
    let mut depth = 0i64;
    for j in at + 1..cap {
        let t = &toks[j];
        match t.punct() {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') if depth == 0 => break,
            Some('<') | Some('>') => {
                // Comparison, not `->`, `::<`, or a shift.
                let arrow = toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is('-'));
                let turbofish = toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is(':'));
                if !arrow && !turbofish {
                    has_cmp = true;
                }
            }
            Some('=') if toks.get(j + 1).is_some_and(|t| t.is('=')) => has_cmp = true,
            Some('!') if toks.get(j + 1).is_some_and(|t| t.is('=')) => has_cmp = true,
            _ => {}
        }
        if let Some(id) = t.ident() {
            if !KEYWORDS.contains(&id) {
                vars.push(id.to_string());
            }
        }
    }
    if !has_cmp || vars.is_empty() {
        return None;
    }
    Some(TaintEvent::Guard { line, vars })
}

/// Parses `vec![expr; len]` into an alloc event on the `len` expression.
fn parse_vec_repeat(toks: &[Tok], at: usize, hi: usize) -> Option<TaintEvent> {
    let line = toks[at].line();
    let open = at + 2;
    if !toks.get(open).is_some_and(|t| t.is('[') || t.is('(')) {
        return None;
    }
    let cap = hi.min(open + 2000);
    let mut depth = 0i64;
    let mut semi = None;
    let mut close = None;
    for (j, tok) in toks.iter().enumerate().take(cap).skip(open) {
        match tok.punct() {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            Some(';') if depth == 1 => semi = Some(j),
            _ => {}
        }
    }
    let (semi, close) = (semi?, close?);
    let mut vars = Vec::new();
    let mut calls = Vec::new();
    for j in semi + 1..close {
        if let Some(id) = toks[j].ident() {
            if KEYWORDS.contains(&id) {
                // skip
            } else if toks.get(j + 1).is_some_and(|t| t.is('(')) {
                calls.push(id.to_string());
            } else {
                vars.push(id.to_string());
            }
        }
    }
    Some(TaintEvent::Alloc {
        line,
        kind: "vec![..; n]".to_string(),
        vars,
        calls,
    })
}

/// Fills in line-anchored facts that are easier to read off the lexed
/// lines than the token stream: explicit panic sites.
fn attach_line_facts(file: &SourceFile, def: &mut FnDef) {
    for (line, what) in rules::no_panic::explicit_panics(file, def.start, def.end) {
        if !file.allowed(rules::RULE_NO_PANIC, line) {
            def.panics.push(Site { line, what });
        }
    }
    // Pragma-allowed blocking sites don't propagate either: a justified
    // sleep (deliberate chaos injection, error backoff) is not a hazard
    // for the callers of this fn.
    def.blocking
        .retain(|s| !file.allowed(rules::RULE_BLOCKING, s.line));
    def.taint.sort_by_key(|e| match e {
        TaintEvent::Let { line, .. }
        | TaintEvent::Guard { line, .. }
        | TaintEvent::Alloc { line, .. } => *line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn summarize_src(text: &str) -> FileSummary {
        let file = SourceFile::parse(Path::new("mem.rs"), text);
        summarize(&file, "crates/x/src/mem.rs")
    }

    #[test]
    fn extracts_free_and_impl_fns_with_arity() {
        let s = summarize_src(
            "fn free(a: u32, b: &str) -> u32 { a }\n\
             struct T;\n\
             impl T {\n\
                 fn method(&self, x: u32) -> u32 { x }\n\
                 fn assoc() -> T { T }\n\
             }\n",
        );
        let names: Vec<(&str, &str, usize, bool)> = s
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.container.as_str(), f.argc, f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", "", 2, false),
                ("method", "T", 1, true),
                ("assoc", "T", 0, false),
            ]
        );
    }

    #[test]
    fn call_sites_carry_qualifier_and_argc() {
        let s = summarize_src(
            "impl T {\n\
                 fn go(&self) {\n\
                     helper(1, 2);\n\
                     wire::decode(buf);\n\
                     self.step();\n\
                     other.run(a, b, c);\n\
                     Self::fix();\n\
                 }\n\
             }\n",
        );
        let f = &s.fns[0];
        let calls: Vec<(&str, &str, bool, usize)> = f
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qual.as_str(), c.method, c.argc))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("helper", "", false, 2),
                ("decode", "wire", false, 1),
                ("step", "T", true, 0),
                ("run", "", true, 3),
                ("fix", "T", false, 0),
            ]
        );
    }

    #[test]
    fn blocking_calls_respect_arity() {
        let s = summarize_src(
            "fn go(p: &Path, h: Handle) {\n\
                 let q = p.join(\"x\");\n\
                 h.join();\n\
                 thread::sleep(d);\n\
             }\n",
        );
        let f = &s.fns[0];
        let what: Vec<&str> = f.blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(what, vec!["JoinHandle::join", "thread::sleep"]);
    }

    #[test]
    fn taint_events_extracted_in_order() {
        let s = summarize_src(
            "fn read(c: &mut Cur) -> R {\n\
                 let n = c.u32()? as usize;\n\
                 if n > MAX {\n\
                     return Err(e());\n\
                 }\n\
                 let v = Vec::with_capacity(n);\n\
                 let w = vec![0u8; n];\n\
                 v\n\
             }\n",
        );
        let f = &s.fns[0];
        let kinds: Vec<&str> = f
            .taint
            .iter()
            .map(|e| match e {
                TaintEvent::Let { .. } => "let",
                TaintEvent::Guard { .. } => "guard",
                TaintEvent::Alloc { .. } => "alloc",
            })
            .collect();
        assert_eq!(kinds, vec!["let", "guard", "let", "alloc", "let", "alloc"]);
        assert_eq!(f.guards, 1);
    }

    #[test]
    fn nested_and_test_fns_are_separated() {
        let s = summarize_src(
            "fn outer() {\n\
                 fn inner(x: u32) -> u32 { x }\n\
                 inner(1);\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { x.unwrap(); }\n\
             }\n",
        );
        let outer = s.fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
        assert!(
            !outer.calls.iter().any(|c| c.name == "unwrap"),
            "test-mod body must not leak into outer"
        );
        let inner = s.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.argc, 1);
        let t = s.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.in_test);
    }

    #[test]
    fn pragma_suppression_via_summary() {
        let s = summarize_src(
            "fn f() {\n\
                 // lint:allow(no-panic): checked by caller\n\
                 x.unwrap();\n\
                 y.unwrap(); // lint:allow(no-panic): same line\n\
                 z.unwrap();\n\
             }\n",
        );
        assert!(s.allowed("no-panic", 3));
        assert!(s.allowed("no-panic", 4));
        assert!(!s.allowed("no-panic", 5));
        let f = &s.fns[0];
        assert_eq!(f.panics.len(), 1, "only the unsuppressed unwrap remains");
        assert_eq!(f.panics[0].line, 5);
    }
}
