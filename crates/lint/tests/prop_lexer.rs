//! Property tests for the lexer/parser stack: arbitrary byte soup must
//! never panic anywhere in the pipeline (lex → summarize), and on ASCII
//! input the blanking must preserve byte
//! offsets and line numbers *exactly* — every non-blanked character of
//! `Line::code` sits at the same byte offset as in the raw source, and
//! every blanked one is a space.

use proptest::prelude::*;
use std::path::Path;

use stage_lint::parser::summarize;
use stage_lint::source::SourceFile;

/// An alphabet biased toward the lexer's tricky state transitions:
/// comment openers/closers, string and raw-string delimiters, char
/// literals vs lifetimes, escapes, and pragma text.
const ALPHA: &[u8] = b"ab_x09 \t\n\"'/*#!\\rb(){}[]<>=:;,.lint:alow-";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The whole pipeline — lexing, pragma parsing, token-tree
    /// summarizing — digests arbitrary (possibly invalid-UTF-8) byte soup
    /// without panicking.
    #[test]
    fn pipeline_never_panics_on_byte_soup(bytes in proptest::collection::vec(0u8..=255u8, 0usize..512)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let file = SourceFile::parse(Path::new("soup.rs"), &text);
        let _ = file.pragmas();
        let _ = file.malformed_pragmas();
        let _ = summarize(&file, "soup.rs");
    }

    /// Same property on soup drawn from the lexer-hostile alphabet, which
    /// hits comment/string/raw-string state machinery far more often than
    /// uniform bytes do.
    #[test]
    fn pipeline_never_panics_on_hostile_ascii(idx in proptest::collection::vec(0usize..ALPHA.len(), 0usize..512)) {
        let text: String = idx.iter().map(|&i| ALPHA[i] as char).collect();
        let file = SourceFile::parse(Path::new("soup.rs"), &text);
        let _ = file.pragmas();
        let _ = file.malformed_pragmas();
        let _ = summarize(&file, "soup.rs");
    }

    /// Blanking is offset- and line-exact on ASCII input: the lexed file
    /// has exactly one `Line` per raw line, each `code` string is
    /// byte-for-byte as long as its raw line, and every position either
    /// carries the original character or a blanking space.
    #[test]
    fn blanking_preserves_byte_offsets_and_line_numbers(idx in proptest::collection::vec(0usize..ALPHA.len(), 0usize..512)) {
        let text: String = idx.iter().map(|&i| ALPHA[i] as char).collect();
        let file = SourceFile::parse(Path::new("soup.rs"), &text);
        // The lexer follows the `str::lines` convention: a trailing
        // newline terminates the last line rather than opening an empty
        // one.
        let raw_lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(file.lines.len(), raw_lines.len());
        for (line, raw) in file.lines.iter().zip(&raw_lines) {
            prop_assert_eq!(line.code.len(), raw.len());
            for (i, (c, r)) in line.code.bytes().zip(raw.bytes()).enumerate() {
                prop_assert!(
                    c == r || c == b' ',
                    "offset {i}: code byte {c:?} is neither raw {r:?} nor a blank (raw line {raw:?})"
                );
            }
        }
        // Line numbers survive too: every parsed pragma points at a raw
        // line that really contains its `lint:allow` text.
        for p in file.pragmas() {
            prop_assert!(raw_lines[p.line - 1].contains("lint:al"));
        }
    }
}
