//! The workspace call graph, built from [`crate::parser::FileSummary`]s,
//! plus the transitive facts the interprocedural rules consume:
//!
//! - `panic_reach`: can this fn (transitively) hit an explicit,
//!   unsuppressed panic construct, and via which shortest path;
//! - `block_reach`: same for blocking calls (sleep / condvar / recv /
//!   accept / join);
//! - `producer` / `sanitizer`: taint classification for
//!   `bounds-before-alloc` (a producer returns data derived from raw
//!   wire/store bytes; a sanitizer is a producer that bounds-checks
//!   before returning — the `count()` / `checked_count()` shape).
//!
//! Call resolution is name-based with arity matching (DESIGN.md §14):
//! a qualified call (`wire::f`, `Cur::f`, `self.f`, `Self::f`) restricts
//! candidates to the matching impl container or module file stem; a
//! method call matches any workspace method of that name and arity; a
//! free call matches free fns of that name and arity. Calls that resolve
//! to nothing (std, vendored deps) contribute no edges — unsound by
//! design, and the reason the panic/blocking *sources* are detected
//! lexically in every workspace fn rather than through std.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::parser::{CallSite, FileSummary, FnDef};

/// Index of one fn in the graph: (file index, fn index within file).
pub type FnId = usize;

/// A shortest path to a transitive fact, as parent-pointer links.
#[derive(Debug, Clone, PartialEq)]
pub struct Reach {
    /// Next hop toward the site (`None` when the site is in this fn).
    pub via: Option<FnId>,
    /// File index of the site.
    pub file: usize,
    /// 1-indexed line of the site.
    pub line: usize,
    /// What is there (`.unwrap()`, `thread::sleep`, ...).
    pub what: String,
    /// Hop count to the site (0 = in this fn).
    pub depth: u32,
}

/// The materialized graph. Lifetimes are avoided by indexing into the
/// caller-owned summary slice.
pub struct Graph<'a> {
    pub files: &'a [FileSummary],
    /// Flat fn table: `fns[fid] = (file_idx, fn_idx)`.
    pub fns: Vec<(usize, usize)>,
    /// Callee fn ids per fn (deduped, sorted).
    pub edges: Vec<Vec<FnId>>,
    free_idx: HashMap<(String, usize), Vec<FnId>>,
    method_idx: HashMap<(String, usize), Vec<FnId>>,
    qual_idx: HashMap<(String, String, usize), Vec<FnId>>,
    /// Per file: [`FileSummary::visible`] extended with the containers of
    /// the file's own `impl` blocks (an `impl Foo` in the file proves
    /// `Foo` is in scope even without a `use`).
    vis_sets: Vec<HashSet<&'a str>>,
    panic_reach: Vec<Option<Reach>>,
    block_reach: Vec<Option<Reach>>,
    producer: Vec<bool>,
    sanitizer: Vec<bool>,
}

impl<'a> Graph<'a> {
    /// Builds the graph and computes every transitive fact.
    pub fn build(files: &'a [FileSummary]) -> Self {
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, def) in f.fns.iter().enumerate() {
                if !def.in_test {
                    fns.push((fi, gi));
                }
            }
        }
        let mut g = Graph {
            files,
            fns,
            edges: Vec::new(),
            free_idx: HashMap::new(),
            method_idx: HashMap::new(),
            qual_idx: HashMap::new(),
            vis_sets: files
                .iter()
                .map(|f| {
                    f.visible
                        .iter()
                        .map(String::as_str)
                        .chain(
                            f.fns
                                .iter()
                                .filter(|d| !d.container.is_empty())
                                .map(|d| d.container.as_str()),
                        )
                        .collect()
                })
                .collect(),
            panic_reach: Vec::new(),
            block_reach: Vec::new(),
            producer: Vec::new(),
            sanitizer: Vec::new(),
        };
        for fid in 0..g.fns.len() {
            let def = g.def(fid);
            let (fi, _) = g.fns[fid];
            let key = (def.name.clone(), def.argc);
            if def.container.is_empty() {
                g.free_idx.entry(key.clone()).or_default().push(fid);
            }
            if def.has_self {
                g.method_idx.entry(key.clone()).or_default().push(fid);
            }
            // Qualified lookup: by impl container and by module (file stem).
            if !def.container.is_empty() {
                g.qual_idx
                    .entry((def.container.clone(), def.name.clone(), def.argc))
                    .or_default()
                    .push(fid);
            }
            let stem = &files[fi].stem;
            if !stem.is_empty() {
                g.qual_idx
                    .entry((stem.clone(), def.name.clone(), def.argc))
                    .or_default()
                    .push(fid);
            }
        }
        g.edges = (0..g.fns.len())
            .map(|fid| {
                let fi = g.file_of(fid);
                let mut callees: Vec<FnId> = g
                    .def(fid)
                    .calls
                    .iter()
                    .flat_map(|c| g.resolve(fi, c))
                    .collect();
                callees.sort_unstable();
                callees.dedup();
                callees
            })
            .collect();
        g.panic_reach = g.propagate(|def| def.panics.first().map(|s| (s.line, s.what.clone())));
        g.block_reach = g.propagate(|def| def.blocking.first().map(|s| (s.line, s.what.clone())));
        g.classify_taint();
        g
    }

    /// The fn def behind a [`FnId`].
    pub fn def(&self, fid: FnId) -> &'a FnDef {
        let (fi, gi) = self.fns[fid];
        &self.files[fi].fns[gi]
    }

    /// File index of a fn.
    pub fn file_of(&self, fid: FnId) -> usize {
        self.fns[fid].0
    }

    /// Candidate definitions for one call site made from a fn in
    /// `caller_file`.
    ///
    /// Unqualified calls resolve through two narrowing tiers, each a
    /// cheap proxy for real type-driven method resolution:
    ///
    /// 1. *Locality* — when any candidate is defined in the caller's own
    ///    file, resolution is restricted to those. This keeps
    ///    `writer.finish()` in a file that defines its own `finish` from
    ///    aliasing every other `finish` in the workspace.
    /// 2. *Import visibility* (method calls only) — otherwise a candidate
    ///    survives only if its container type is named in the caller
    ///    file's `use` declarations, local type definitions, or `impl`
    ///    blocks ([`FileSummary::visible`]). A `.finish()` in a file
    ///    importing `SectionWriter` but never naming `PlanBuilder`
    ///    resolves to `SectionWriter::finish` alone — and a `.pop()` on a
    ///    plain `Vec` in a file that never names `StageQueue` resolves to
    ///    nothing at all, rather than aliasing the queue's condvar wait.
    ///
    /// Tier 2 is deliberately *exclusive*: calling an inherent method
    /// requires the receiver type to be nameable at the call site in
    /// practice, so an invisible container is strong evidence the call
    /// targets std or a generic bound, not the workspace fn. This follows
    /// the parser's documented bias (DESIGN.md §14): missing structure
    /// degrades toward fewer edges, never phantom findings. Free calls
    /// keep the over-approximating fallback — they carry no receiver
    /// evidence to narrow on.
    pub fn resolve(&self, caller_file: usize, call: &CallSite) -> Vec<FnId> {
        static EMPTY: &[FnId] = &[];
        let key = (call.name.clone(), call.argc);
        let cands: &[FnId] = if !call.qual.is_empty() {
            self.qual_idx
                .get(&(call.qual.clone(), call.name.clone(), call.argc))
                .map_or(EMPTY, |v| v)
        } else if call.method {
            self.method_idx.get(&key).map_or(EMPTY, |v| v)
        } else {
            self.free_idx.get(&key).map_or(EMPTY, |v| v)
        };
        if call.qual.is_empty() {
            let local: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&c| self.file_of(c) == caller_file)
                .collect();
            if !local.is_empty() {
                return local;
            }
            if call.method {
                let vis = &self.vis_sets[caller_file];
                return cands
                    .iter()
                    .copied()
                    .filter(|&c| vis.contains(self.def(c).container.as_str()))
                    .collect();
            }
        }
        cands.to_vec()
    }

    pub fn panic_reach(&self, fid: FnId) -> Option<&Reach> {
        self.panic_reach[fid].as_ref()
    }

    pub fn block_reach(&self, fid: FnId) -> Option<&Reach> {
        self.block_reach[fid].as_ref()
    }

    /// Taint-producing call names (workspace fns returning raw-derived
    /// data without a bounds check), for `bounds-before-alloc`.
    pub fn producer_names(&self) -> HashSet<&'a str> {
        (0..self.fns.len())
            .filter(|&f| self.producer[f])
            .map(|f| self.def(f).name.as_str())
            .collect()
    }

    /// Sanitizing call names (raw-derived but bounds-checked before
    /// returning — `count()` / `checked_count()` shapes).
    pub fn sanitizer_names(&self) -> HashSet<&'a str> {
        (0..self.fns.len())
            .filter(|&f| self.sanitizer[f])
            .map(|f| self.def(f).name.as_str())
            .collect()
    }

    /// Multi-source BFS over reverse edges: every fn with a direct site
    /// (per `site_of`) seeds the search; callers inherit the shortest
    /// path. Deterministic: sources and adjacency are index-ordered.
    fn propagate<F: Fn(&FnDef) -> Option<(usize, String)>>(
        &self,
        site_of: F,
    ) -> Vec<Option<Reach>> {
        let n = self.fns.len();
        let mut reach: Vec<Option<Reach>> = vec![None; n];
        let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); n];
        for (caller, callees) in self.edges.iter().enumerate() {
            for &c in callees {
                rev[c].push(caller);
            }
        }
        let mut queue = VecDeque::new();
        for (fid, slot) in reach.iter_mut().enumerate() {
            if let Some((line, what)) = site_of(self.def(fid)) {
                *slot = Some(Reach {
                    via: None,
                    file: self.file_of(fid),
                    line,
                    what,
                    depth: 0,
                });
                queue.push_back(fid);
            }
        }
        while let Some(fid) = queue.pop_front() {
            let next_depth = reach[fid].as_ref().map_or(0, |r| r.depth) + 1;
            let (file, line, what) = {
                let r = reach[fid].as_ref().unwrap_or_else(|| unreachable_state());
                (r.file, r.line, r.what.clone())
            };
            for &caller in &rev[fid] {
                if reach[caller].is_none() {
                    reach[caller] = Some(Reach {
                        via: Some(fid),
                        file,
                        line,
                        what: what.clone(),
                        depth: next_depth,
                    });
                    queue.push_back(caller);
                }
            }
        }
        reach
    }

    /// Fixpoint for taint producers: a fn produces taint when it decodes
    /// raw bytes itself or calls a producer, *unless* it also contains a
    /// bounds-comparison guard — that shape (derive + check) is a
    /// sanitizer and stops propagation.
    fn classify_taint(&mut self) {
        let n = self.fns.len();
        let mut produces = vec![false; n];
        for (fid, slot) in produces.iter_mut().enumerate() {
            *slot = self.def(fid).reads_raw && self.def(fid).guards == 0;
        }
        loop {
            let mut changed = false;
            for fid in 0..n {
                if produces[fid] || self.def(fid).guards > 0 {
                    continue;
                }
                if self.edges[fid].iter().any(|&c| produces[c]) {
                    produces[fid] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut sanitizes = vec![false; n];
        for (fid, slot) in sanitizes.iter_mut().enumerate() {
            let def = self.def(fid);
            let derives_raw = def.reads_raw || self.edges[fid].iter().any(|&c| produces[c]);
            *slot = def.guards > 0 && derives_raw;
        }
        self.producer = produces;
        self.sanitizer = sanitizes;
    }

    /// Renders the call path from `first` (a direct callee) to its site:
    /// `a -> b (what at file.rs:7)`.
    pub fn describe(&self, first: FnId, reach_of: impl Fn(FnId) -> Option<Reach>) -> String {
        let mut names = Vec::new();
        let mut cur = first;
        let mut hops = 0;
        let site = loop {
            names.push(self.def(cur).name.clone());
            let Some(r) = reach_of(cur) else {
                break None;
            };
            match r.via {
                Some(next) if hops < 64 => {
                    cur = next;
                    hops += 1;
                }
                _ => break Some(r),
            }
        };
        let path = names.join(" -> ");
        match site {
            Some(r) => format!(
                "{path} ({} at {}:{})",
                r.what, self.files[r.file].rel, r.line
            ),
            None => path,
        }
    }

    /// Fns whose bodies call `name` directly (used for event-loop root
    /// discovery).
    pub fn callers_of_name(&self, name: &str) -> Vec<FnId> {
        (0..self.fns.len())
            .filter(|&fid| self.def(fid).calls.iter().any(|c| c.name == name))
            .collect()
    }
}

/// Placeholder for a state the BFS invariant rules out (queued fns always
/// have a reach); kept non-panicking so the linter obeys its own rules.
fn unreachable_state() -> &'static Reach {
    static FALLBACK: std::sync::OnceLock<Reach> = std::sync::OnceLock::new();
    FALLBACK.get_or_init(|| Reach {
        via: None,
        file: 0,
        line: 0,
        what: String::new(),
        depth: 0,
    })
}

/// Builds summaries into a lookup from workspace-relative path to file
/// index, for scope checks.
pub fn index_by_rel(files: &[FileSummary]) -> BTreeMap<&str, usize> {
    files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel.as_str(), i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::summarize;
    use crate::source::SourceFile;
    use std::path::Path;

    fn files(srcs: &[(&str, &str)]) -> Vec<FileSummary> {
        srcs.iter()
            .map(|(rel, text)| summarize(&SourceFile::parse(Path::new(rel), text), rel))
            .collect()
    }

    #[test]
    fn panic_reach_crosses_files_with_shortest_path() {
        let sums = files(&[
            ("crates/a/src/a.rs", "pub fn top() { mid(1); }\n"),
            (
                "crates/b/src/b.rs",
                "pub fn mid(x: u32) -> u32 { leaf(x) }\n",
            ),
            (
                "crates/c/src/c.rs",
                "pub fn leaf(x: u32) -> u32 { x.unwrap() }\n",
            ),
        ]);
        let g = Graph::build(&sums);
        let top = (0..g.fns.len()).find(|&f| g.def(f).name == "top").unwrap();
        let r = g.panic_reach(top).expect("top reaches a panic");
        assert_eq!(r.depth, 2);
        let mid = r.via.unwrap();
        let path = g.describe(mid, |f| g.panic_reach(f).cloned());
        assert_eq!(path, "mid -> leaf (.unwrap() at crates/c/src/c.rs:1)");
    }

    #[test]
    fn pragma_allowed_panics_do_not_propagate() {
        let sums = files(&[
            ("a.rs", "pub fn top() { helper(); }\n"),
            (
                "b.rs",
                "pub fn helper() {\n    x.unwrap(); // lint:allow(no-panic): justified\n}\n",
            ),
        ]);
        let g = Graph::build(&sums);
        let top = (0..g.fns.len()).find(|&f| g.def(f).name == "top").unwrap();
        assert!(g.panic_reach(top).is_none());
    }

    #[test]
    fn arity_mismatch_prunes_candidates() {
        let sums = files(&[
            ("a.rs", "pub fn top(v: &V) { v.get(1); }\n"),
            (
                "b.rs",
                "impl Cache { pub fn get(&self, a: u32, b: u32) -> u32 { x.unwrap() } }\n",
            ),
        ]);
        let g = Graph::build(&sums);
        let top = (0..g.fns.len()).find(|&f| g.def(f).name == "top").unwrap();
        assert!(
            g.panic_reach(top).is_none(),
            "2-arg Cache::get must not match 1-arg .get()"
        );
    }

    #[test]
    fn taint_classification_finds_producers_and_sanitizers() {
        let sums = files(&[(
            "wire.rs",
            "impl Cur {\n\
                 fn u32(&mut self) -> u32 { u32::from_le_bytes(b) }\n\
                 fn count(&mut self, min: usize) -> u32 {\n\
                     let n = self.u32();\n\
                     if n as usize > self.rem { return 0; }\n\
                     n\n\
                 }\n\
             }\n",
        )]);
        let g = Graph::build(&sums);
        let producers = g.producer_names();
        let sanitizers = g.sanitizer_names();
        assert!(producers.contains("u32"));
        assert!(!producers.contains("count"));
        assert!(sanitizers.contains("count"));
    }
}
