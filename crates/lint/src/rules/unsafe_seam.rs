//! Rule `unsafe-seam`: every `unsafe` token on a hardened path must carry
//! an explicit justification. The workspace's only sanctioned use is one
//! thin FFI seam (`poll(2)` in stage-serve's `evloop.rs`); it is required
//! to state, in a `// lint:allow(unsafe-seam): <reason>` pragma, why its
//! invariants hold — so a new `unsafe` block cannot slip into the serving
//! or persistence layer without a reviewable argument attached to it.

use crate::rules::{idents, RULE_UNSAFE};
use crate::source::SourceFile;
use crate::Finding;

/// Runs the rule over one file: flags each `unsafe` keyword in non-test
/// code. Suppression via the pragma on the same/previous line is applied
/// uniformly by the driver, like every other rule.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (line_no, code) in file.code_lines() {
        for (_, word) in idents(code) {
            if word == "unsafe" {
                findings.push(Finding::new(
                    RULE_UNSAFE,
                    &file.path,
                    line_no,
                    "unsafe on a hardened path — justify the seam with \
                     `// lint:allow(unsafe-seam): <why the invariants hold>`"
                        .to_string(),
                ));
            }
        }
    }
    findings
}
