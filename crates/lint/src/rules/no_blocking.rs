//! Rule `no-blocking-in-evloop`: the poll-based event loop multiplexes
//! every connection on one thread — any transitive callee that blocks
//! (`thread::sleep`, condvar waits, channel `recv`, `JoinHandle::join`,
//! listener `accept`) stalls *all* sessions, not one. Roots are detected
//! structurally: any fn that calls `poll_fds` directly is an event-loop
//! driver, and its whole call tree is checked through the workspace call
//! graph.
//!
//! Deliberately *not* banned: socket writes (`write_all` — the drain
//! flush flips a connection to blocking with a bounded timeout by
//! design), `connect` (shutdown self-wake), and `lock()` (in-loop shard
//! dispatch holds ordered locks by design; the debug-build rank detector
//! in `stage_core::sync` guards those). See DESIGN.md §14.

use std::collections::HashSet;
use std::path::Path;

use crate::graph::Graph;
use crate::rules::RULE_BLOCKING;
use crate::Finding;

/// Runs the rule over the whole graph. Findings anchor in the root fn:
/// directly at a blocking call in its body, or at the call site whose
/// subtree reaches one (shortest path printed).
pub fn check_graph(g: &Graph<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen = HashSet::new();
    for root in g.callers_of_name("poll_fds") {
        let fi = g.file_of(root);
        let sum = &g.files[fi];
        let def = g.def(root);
        for site in &def.blocking {
            if sum.allowed(RULE_BLOCKING, site.line) || !seen.insert((root, site.line, root)) {
                continue;
            }
            findings.push(Finding::new(
                RULE_BLOCKING,
                Path::new(&sum.rel),
                site.line,
                format!(
                    "{} blocks the event loop — every connection on this thread stalls; hand \
                     the work to another thread or use the poll timeout",
                    site.what
                ),
            ));
        }
        for call in &def.calls {
            if call.name == "poll_fds" {
                continue;
            }
            let best = g
                .resolve(fi, call)
                .iter()
                .filter_map(|&c| g.block_reach(c).map(|r| (r.depth, c)))
                .min_by_key(|&(depth, c)| (depth, g.def(c).name.clone(), c));
            let Some((_, callee)) = best else {
                continue;
            };
            if !seen.insert((root, call.line, callee)) {
                continue;
            }
            if sum.allowed(RULE_BLOCKING, call.line) {
                continue;
            }
            let path = g.describe(callee, |f| g.block_reach(f).cloned());
            findings.push(Finding::new(
                RULE_BLOCKING,
                Path::new(&sum.rel),
                call.line,
                format!(
                    "call into `{}` can block the event loop: {path}",
                    g.def(callee).name
                ),
            ));
        }
    }
    findings
}
