//! A lexical model of one Rust source file: per-line *code* with comment
//! and string-literal contents blanked to spaces (so rules never match
//! inside prose or message strings), per-line *comments* (so `lint:allow`
//! pragmas can be parsed), and a mask of lines that belong to test-only
//! `#[cfg(...)]` items.
//!
//! Blanking is **offset-preserving**: every input character contributes
//! exactly one character to the code line at the same column (non-code
//! characters become a single space). Column positions reported by the
//! parser therefore point at the original source, and for ASCII input the
//! byte offsets are identical too. The parser layer
//! ([`crate::parser`]) relies on this to attribute call sites to lines.
//!
//! This is a hand-rolled mini-lexer, not a parser: it understands exactly
//! the token classes that can hide rule-trigger text — line comments,
//! nested block comments, string/byte-string literals, raw strings with
//! arbitrary `#` fences, and char literals (disambiguated from lifetimes)
//! — and nothing more. That keeps the linter std-only and fast enough to
//! run on every check.

use std::path::{Path, PathBuf};

/// One source line after lexing.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code with comment and string-literal contents blanked to spaces
    /// (delimiters retained so tokens don't merge across a blanked
    /// literal). Same character count as the raw input line.
    pub code: String,
    /// Concatenated line-comment text on this line (block-comment text is
    /// dropped; pragmas must be line comments).
    pub comment: String,
}

/// A lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path the file was read from (reported in findings).
    pub path: PathBuf,
    /// Lines, 0-indexed (finding line numbers are 1-indexed).
    pub lines: Vec<Line>,
    /// `in_test[i]` is true when line `i` is inside a test-only item: one
    /// gated by `#[cfg(test)]`, `#[cfg(all(test, ...))]`, or any other cfg
    /// expression that cannot be satisfied without `test`.
    pub in_test: Vec<bool>,
}

/// A parsed `// lint:allow(rule): reason` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-indexed line the pragma comment sits on.
    pub line: usize,
    /// Rule id being allowed.
    pub rule: String,
    /// Mandatory human justification.
    pub reason: String,
}

impl SourceFile {
    /// Reads and lexes `path`.
    pub fn read(path: &Path) -> std::io::Result<Self> {
        Ok(Self::parse(path, &std::fs::read_to_string(path)?))
    }

    /// Lexes in-memory source (used by the fixture tests).
    pub fn parse(path: &Path, text: &str) -> Self {
        let lines = lex(text);
        let in_test = test_mask(&lines);
        Self {
            path: path.to_path_buf(),
            lines,
            in_test,
        }
    }

    /// 1-indexed iteration over non-test code lines.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.in_test.get(*i).copied().unwrap_or(false))
            .map(|(i, l)| (i + 1, l.code.as_str()))
    }

    /// All well-formed `lint:allow` pragmas in the file.
    pub fn pragmas(&self) -> Vec<Pragma> {
        let mut out = Vec::new();
        for (i, line) in self.lines.iter().enumerate() {
            if let Some(PragmaParse::Ok { rule, reason }) = parse_pragma(&line.comment) {
                out.push(Pragma {
                    line: i + 1,
                    rule,
                    reason,
                });
            }
        }
        out
    }

    /// Whether a finding of `rule` at 1-indexed `line` is suppressed by a
    /// pragma on the same line (trailing comment) or a comment-only pragma
    /// on the line directly above. A *trailing* pragma covers only its own
    /// line — it must not leak onto the next statement.
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        let ok = |l: &Line| matches!(parse_pragma(&l.comment), Some(PragmaParse::Ok { rule: r, .. }) if r == rule);
        if line >= 1 && self.lines.get(line - 1).is_some_and(ok) {
            return true;
        }
        line >= 2
            && self
                .lines
                .get(line - 2)
                .is_some_and(|l| l.code.trim().is_empty() && ok(l))
    }

    /// Lines whose comment *looks like* a pragma but is malformed (missing
    /// rule or empty reason). Reported as rule `pragma` findings so typos
    /// never silently allow anything.
    pub fn malformed_pragmas(&self) -> Vec<usize> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(parse_pragma(&l.comment), Some(PragmaParse::Malformed)))
            .map(|(i, _)| i + 1)
            .collect()
    }
}

enum PragmaParse {
    Ok { rule: String, reason: String },
    Malformed,
}

/// Parses `lint:allow(<rule>): <reason>` out of a comment string.
///
/// A comment is only *treated* as a pragma when it contains `lint:allow`
/// immediately followed by an opening parenthesis, or starts with
/// `lint:allow` (catching the missing-paren typo). Prose that merely
/// mentions `` `lint:allow` `` mid-sentence — rule documentation, for
/// instance — is neither a pragma nor malformed.
fn parse_pragma(comment: &str) -> Option<PragmaParse> {
    let idx = match comment.find("lint:allow(") {
        Some(i) => i,
        None => {
            let trimmed = comment.trim_start();
            if !trimmed.starts_with("lint:allow") {
                return None;
            }
            comment.len() - trimmed.len()
        }
    };
    let rest = &comment[idx + "lint:allow".len()..];
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(PragmaParse::Malformed);
    };
    let Some(close) = rest.find(')') else {
        return Some(PragmaParse::Malformed);
    };
    let rule = rest[..close].trim();
    let after = &rest[close + 1..];
    let Some(reason) = after.strip_prefix(':') else {
        return Some(PragmaParse::Malformed);
    };
    if rule.is_empty() || reason.trim().is_empty() {
        return Some(PragmaParse::Malformed);
    }
    Some(PragmaParse::Ok {
        rule: rule.to_string(),
        reason: reason.trim().to_string(),
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Normal,
    /// Inside `/* ... */`, tracking nesting depth.
    Block(u32),
    /// Inside a `"..."` (or `b"..."`) literal.
    Str,
    /// Inside `r"..."` / `r#"..."#` with the given fence size.
    RawStr(u32),
}

/// Splits `text` into per-line code/comment, per the module docs. Every
/// non-newline input character produces exactly one code character at the
/// same column.
fn lex(text: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let bytes: Vec<char> = text.chars().collect();
    let mut state = State::Normal;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            // A line comment ends at the newline; everything else carries
            // its state across lines.
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Line comment: capture text for pragma parsing; the
                    // code column gets spaces so offsets are preserved.
                    let start = i + 2;
                    let end = bytes[start..]
                        .iter()
                        .position(|&b| b == '\n')
                        .map_or(bytes.len(), |p| start + p);
                    cur.comment
                        .push_str(&bytes[start..end].iter().collect::<String>());
                    for _ in i..end {
                        cur.code.push(' ');
                    }
                    i = end;
                } else if c == '/' && next == Some('*') {
                    state = State::Block(1);
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&cur.code) {
                    // Possible raw/byte string start: r", br", b", r#",...
                    let mut j = i + 1;
                    if c == 'b' && bytes.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') && (c != 'b' || j > i + 1 || hashes == 0) {
                        let raw = c == 'r' || bytes.get(i + 1) == Some(&'r');
                        // Keep the prefix and opening quote verbatim.
                        cur.code.extend(&bytes[i..=j]);
                        state = if raw {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: '\...' or 'x' (closing
                    // quote two chars on) is a literal; 'ident is not.
                    if bytes.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: blank to the closing quote
                        // on this line (a raw newline can't appear inside
                        // a char literal in valid code; stop at one so
                        // hostile input can't swallow lines).
                        let mut j = i + 2;
                        if bytes.get(j) == Some(&'\\') || bytes.get(j) == Some(&'\'') {
                            j += 1;
                        }
                        while j < bytes.len() && bytes[j] != '\'' && bytes[j] != '\n' {
                            j += 1;
                        }
                        let closed = bytes.get(j) == Some(&'\'');
                        let end = if closed { j + 1 } else { j };
                        cur.code.push('\'');
                        // Blank everything between the quotes; when the
                        // literal never closes, blank every consumed char
                        // so the column count still matches the source.
                        let blanks_end = if closed { end - 1 } else { end };
                        for _ in i + 1..blanks_end {
                            cur.code.push(' ');
                        }
                        if closed {
                            cur.code.push('\'');
                        }
                        i = end;
                    } else if bytes.get(i + 2) == Some(&'\'') && bytes.get(i + 1) != Some(&'\n') {
                        cur.code.push('\'');
                        cur.code.push(' ');
                        cur.code.push('\'');
                        i += 3;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::Block(depth) => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::Block(depth - 1)
                    };
                    cur.code.push_str("  ");
                    i += 2;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Escapes: `\"` and `\\` consume two characters; a
                    // backslash before a newline (line continuation) must
                    // not swallow the newline, so it consumes only itself
                    // and the next loop iteration handles what follows.
                    match bytes.get(i + 1) {
                        Some('"') | Some('\\') => {
                            cur.code.push_str("  ");
                            i += 2;
                        }
                        _ => {
                            cur.code.push(' ');
                            i += 1;
                        }
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    cur.code.push(' '); // literal contents are blanked
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && bytes.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        state = State::Normal;
                        i = j;
                    } else {
                        cur.code.push(' ');
                        i += 1;
                    }
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    // A trailing newline already pushed its line; don't add a phantom one.
    if !text.is_empty() && !text.ends_with('\n') {
        lines.push(cur);
    }
    lines
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Whether a `cfg` expression (the tokens inside `#[cfg(...)]`, whitespace
/// removed) can only be satisfied when the `test` cfg is active:
///
/// - `test` requires test;
/// - `all(e1, .., en)` requires test when any operand does;
/// - `any(e1, .., en)` requires test when *every* operand does;
/// - `not(..)` and anything else (features, target options) never do.
///
/// Conservative on purpose: a cfg that merely *mentions* `test` (for
/// example `not(test)` or `any(test, feature = "bench")`) gates code that
/// can be live in production builds, so it is not masked.
fn cfg_requires_test(expr: &str) -> bool {
    fn eval(expr: &str, depth: u32) -> bool {
        if depth > 32 {
            return false; // hostile nesting: fail open (don't mask)
        }
        let expr = expr.trim_matches(|c: char| c.is_whitespace());
        if expr == "test" {
            return true;
        }
        for (comb, all_mode) in [("all(", true), ("any(", false)] {
            if let Some(inner) = expr.strip_prefix(comb).and_then(|r| r.strip_suffix(')')) {
                let operands = split_top_level(inner);
                if operands.is_empty() {
                    return false;
                }
                return if all_mode {
                    operands.iter().any(|op| eval(op, depth + 1))
                } else {
                    operands.iter().all(|op| eval(op, depth + 1))
                };
            }
        }
        false
    }

    /// Splits on top-level commas, honouring parenthesis nesting.
    fn split_top_level(s: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut start = 0;
        for (i, c) in s.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                ',' if depth == 0 => {
                    out.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        out.push(&s[start..]);
        out
    }

    eval(expr, 0)
}

/// Extracts every `cfg(...)` argument from an attribute line (whitespace
/// already squashed) and reports whether any of them requires `test`.
fn line_has_test_cfg(squashed: &str) -> bool {
    let mut rest = squashed;
    while let Some(pos) = rest.find("cfg(") {
        // Only attribute positions count: `#[cfg(`, `#![cfg(`, or a
        // `cfg(..)` nested in e.g. `#[cfg_attr(..)]` is skipped — the
        // latter gates attributes, not compilation, so it never masks.
        let attr_pos = rest[..pos].ends_with("#[") || rest[..pos].ends_with("#![");
        let body = &rest[pos + "cfg(".len()..];
        // Find the matching close paren.
        let mut depth = 1i32;
        let mut end = None;
        for (i, c) in body.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        match end {
            Some(e) => {
                if attr_pos && cfg_requires_test(&body[..e]) {
                    return true;
                }
                rest = &body[e + 1..];
            }
            None => return false, // unterminated: fail open
        }
    }
    false
}

/// Marks lines inside test-only `#[cfg(..)]` items (the attribute line
/// itself, the item header, and the brace-balanced body; for a braceless
/// item, through its terminating `;`).
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let squashed: String = lines[i].code.split_whitespace().collect();
        if line_has_test_cfg(&squashed) {
            // Everything from here through the end of the next
            // brace-balanced block is test code.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                let mut item_ends_here = false;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        // A `;` at depth 0 after the attribute line closes
                        // a braceless item (`#[cfg(test)] use ...;`).
                        ';' if !opened && depth == 0 && j > i => item_ends_here = true,
                        _ => {}
                    }
                }
                if (opened && depth <= 0) || item_ends_here {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(Path::new("mem.rs"), text)
    }

    #[test]
    fn comments_and_strings_are_blanked_from_code() {
        let raw = "let x = \"unwrap() inside\"; // .unwrap() in comment\n";
        let f = parse(raw);
        assert_eq!(
            f.lines[0].code,
            "let x = \"               \";                        "
        );
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains(".unwrap()"));
        // Offset preservation: same char count, and the `;` stays put.
        let raw_line = raw.trim_end_matches('\n');
        assert_eq!(f.lines[0].code.chars().count(), raw_line.chars().count());
        assert_eq!(
            f.lines[0].code.find(';'),
            raw_line.find(';'),
            "code columns must match source columns"
        );
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let raw = "let s = r#\"panic!(\"x\")\"#; let c = '\\n'; let l: &'static str = s;\n";
        let f = parse(raw);
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[0].code.contains("&'static str"));
        let raw_line = raw.trim_end_matches('\n');
        assert_eq!(f.lines[0].code.chars().count(), raw_line.chars().count());
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let f = parse("a /* x /* y */ still comment\nmore */ b\n");
        assert_eq!(f.lines[0].code.trim(), "a");
        assert_eq!(f.lines[1].code.trim(), "b");
    }

    #[test]
    fn deeply_nested_block_comment_does_not_unblank_tail() {
        // Close-markers inside the nested comment must pop one level at a
        // time; `x.unwrap()` after only two `*/` is still comment text.
        let f = parse("/* /* /* inner */ x.unwrap() */ still */ code()\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("code()"));
    }

    #[test]
    fn multiline_strings_stay_strings() {
        let f = parse("let s = \"line one\nline .unwrap() two\";\nx.unwrap();\n");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("unwrap"));
    }

    #[test]
    fn string_line_continuation_preserves_line_numbers() {
        // `\` before a newline must not swallow the newline: the file has
        // three lines and the `unwrap` on line 3 keeps its line number.
        let f = parse("let s = \"abc\\\ndef\";\nx.unwrap();\n");
        assert_eq!(f.lines.len(), 3);
        assert!(f.lines[2].code.contains("unwrap"));
    }

    #[test]
    fn cfg_test_blocks_are_masked() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let f = parse(text);
        assert_eq!(f.in_test, vec![false, true, true, true, true, false]);
        let visible: Vec<usize> = f.code_lines().map(|(n, _)| n).collect();
        assert_eq!(visible, vec![1, 6]);
    }

    #[test]
    fn cfg_all_test_is_masked_but_not_test_is_not() {
        let text = concat!(
            "#[cfg(all(test, feature = \"slow\"))]\n",
            "mod slow_tests {\n",
            "    fn t() { x.unwrap(); }\n",
            "}\n",
            "#[cfg(not(test))]\n",
            "fn prod_only() { y.unwrap(); }\n",
            "#[cfg(any(test, feature = \"bench\"))]\n",
            "fn maybe_live() { z.unwrap(); }\n",
        );
        let f = parse(text);
        assert_eq!(
            f.in_test,
            vec![true, true, true, true, false, false, false, false],
            "all(test,..) masks; not(test) and any(test, feature) stay live"
        );
    }

    #[test]
    fn cfg_requires_test_evaluator() {
        assert!(cfg_requires_test("test"));
        assert!(cfg_requires_test("all(test,unix)"));
        assert!(cfg_requires_test("all(unix,all(test,windows))"));
        assert!(cfg_requires_test("any(test,all(test,unix))"));
        assert!(!cfg_requires_test("not(test)"));
        assert!(!cfg_requires_test("any(test,unix)"));
        assert!(!cfg_requires_test("feature=\"test\""));
        assert!(!cfg_requires_test("testing"));
        assert!(!cfg_requires_test("all()"));
    }

    #[test]
    fn cfg_test_on_braceless_item_masks_only_that_item() {
        let text = "#[cfg(test)]\nuse foo::bar;\nfn live() { x.unwrap(); }\n";
        let f = parse(text);
        assert_eq!(f.in_test, vec![true, true, false]);
    }

    #[test]
    fn pragmas_parse_and_suppress() {
        let text = "// lint:allow(no-panic): boot-time contract\nassert!(x);\ny.unwrap(); // lint:allow(no-panic): checked above\nz.unwrap(); // lint:allow(no-panic):\n";
        let f = parse(text);
        assert!(f.allowed("no-panic", 2), "own-line pragma covers next line");
        assert!(f.allowed("no-panic", 3), "trailing pragma covers its line");
        assert!(!f.allowed("no-panic", 4), "empty reason is not a pragma");
        assert!(!f.allowed("unsafe-seam", 2), "rule ids must match");
        assert_eq!(f.malformed_pragmas(), vec![4]);
        assert_eq!(f.pragmas().len(), 2);
    }

    #[test]
    fn blanking_preserves_char_counts_on_every_line() {
        let text = concat!(
            "fn f() { /* c1 /* c2 */ end */ let s = \"str\"; } // tail\n",
            "let r = r##\"raw \"# content\"##; let c = '\\u{41}';\n",
            "let b = b\"bytes\"; let t = 'x'; let lt: &'a str = q;\n",
        );
        let f = parse(text);
        for (raw, lexed) in text.lines().zip(&f.lines) {
            assert_eq!(
                raw.chars().count(),
                lexed.code.chars().count(),
                "line {raw:?} vs {:?}",
                lexed.code
            );
        }
    }
}
