//! The workspace invariant rules. The lexical rules are pure functions
//! from lexed source to raw findings; the interprocedural rules
//! (`transitive` passes here plus [`bounds_alloc`] and [`no_blocking`])
//! run over the whole-workspace call graph built in [`crate::graph`].
//! Pragma suppression and malformed-pragma reporting are applied
//! uniformly by the driver in `lib.rs`.

pub mod bounds_alloc;
pub mod determinism;
pub mod no_blocking;
pub mod no_panic;
pub mod protocol;
pub mod unsafe_seam;

/// Stable rule identifiers (used in findings and pragmas).
pub const RULE_NO_PANIC: &str = "no-panic";
/// See [`determinism`].
pub const RULE_DETERMINISM: &str = "no-nondeterminism";
/// See [`protocol`].
pub const RULE_PROTOCOL: &str = "protocol-exhaustive";
/// See [`unsafe_seam`].
pub const RULE_UNSAFE: &str = "unsafe-seam";
/// See [`bounds_alloc`].
pub const RULE_BOUNDS: &str = "bounds-before-alloc";
/// See [`no_blocking`].
pub const RULE_BLOCKING: &str = "no-blocking-in-evloop";
/// Malformed `lint:allow` pragmas (never suppressible).
pub const RULE_PRAGMA: &str = "pragma";

/// Every invariant rule the workspace pass runs ([`RULE_PRAGMA`] polices
/// the suppression syntax itself and is not one of them).
pub const RULES: [&str; 6] = [
    RULE_NO_PANIC,
    RULE_DETERMINISM,
    RULE_PROTOCOL,
    RULE_UNSAFE,
    RULE_BOUNDS,
    RULE_BLOCKING,
];

/// Splits `code` into identifier-ish words with their byte offsets.
pub(crate) fn idents(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in code.char_indices() {
        if c.is_alphanumeric() || c == '_' {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            out.push((s, &code[s..i]));
        }
    }
    if let Some(s) = start {
        out.push((s, &code[s..]));
    }
    out
}

/// The last non-space char before byte offset `at`, with its offset.
pub(crate) fn prev_nonspace(code: &str, at: usize) -> Option<(usize, char)> {
    code[..at]
        .char_indices()
        .rev()
        .find(|(_, c)| !c.is_whitespace())
}

/// The first non-space char at-or-after byte offset `at`.
pub(crate) fn next_nonspace(code: &str, at: usize) -> Option<char> {
    code[at..].chars().find(|c| !c.is_whitespace())
}
