//! In-memory span recorder for the traced run.
//!
//! The harness — not the program under test — records a span around each
//! call it makes into a layer's public functions. Spans stay in memory and
//! are written out once, after the run. A span's *self time* is its
//! duration minus the part its child spans cover.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// All spans of one query share this.
    pub query_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = own.get_mut(span.parent as usize) {
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    query_id: u32,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            query_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to query `id`.
    pub fn set_query(&mut self, id: u32) {
        self.query_id = id;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query_id: self.query_id,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and returns
    /// its duration in ns.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Times `f` as a leaf span; returns its result and duration in ns.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Renames the most recently opened span — for calls whose layer
    /// metric is only known from their result (which tier answered).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes the spans as compact JSON: a name table plus one
    /// `[name, start_ns, end_ns, parent, query_id]` row per span (`parent`
    /// is −1 for a root).
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut rows = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            rows.push((name, s));
        }
        write!(out, "{{\"names\":[")?;
        for (i, n) in names.iter().enumerate() {
            write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
        }
        write!(
            out,
            "],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"query_id\"],\"spans\":["
        )?;
        for (i, (name, s)) in rows.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{}[{name},{},{},{parent},{}]",
                if i > 0 { ",\n" } else { "\n" },
                s.start_ns,
                s.end_ns,
                s.query_id
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            query_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // root 0..100 ─ a 10..60 ─ b 20..30
        //             └ c 70..90
        let spans = vec![
            span(0, 100, NO_PARENT),
            span(10, 60, 0),
            span(20, 30, 1),
            span(70, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_tags_queries() {
        let mut t = Tracer::new(8);
        t.set_query(7);
        let root = t.enter("query");
        let (v, _) = t.leaf("layer.call", || 41 + 1);
        assert_eq!(v, 42);
        t.rename_last("layer.renamed");
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].name, "layer.renamed");
        assert!(spans.iter().all(|s| s.query_id == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations("layer.renamed").len(), 1);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_harness_bug() {
        let mut t = Tracer::new(2);
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
