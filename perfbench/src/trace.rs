//! Spans recorded by the benchmark around its calls into each layer. Spans
//! stay in memory and are written as JSON lines when the run ends. A span's
//! self time is its duration minus the part of it its children cover, so
//! parallel children (trials on two workers) are not counted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, `layer.call`.
    pub name: &'static str,
    /// The trial, request or round this span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace's epoch.
    pub start: u64,
    /// Nanoseconds since the trace's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time, duration and count of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Σ self time, ns.
    pub self_ns: u64,
    /// Σ duration, ns.
    pub wall_ns: u64,
    /// Spans.
    pub count: u64,
}

/// An in-memory span recorder. Worker threads record into a
/// [`Tracer::fork`] of the main tracer (same epoch) that the main thread
/// later [`Tracer::adopt`]s.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty trace sharing this trace's epoch.
    pub fn fork(&self) -> Self {
        Self {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, id, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Appends a forked trace's spans; its root spans become children of
    /// `parent`.
    pub fn adopt(&mut self, other: Tracer, parent: usize) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.ns() - covered.min(s.ns())
            })
            .collect()
    }

    /// Per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.self_ns += own;
            t.wall_ns += s.ns();
            t.count += 1;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.id, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = tracer(vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("a.x", Some(1), 15, 20),
        ]);
        assert_eq!(t.self_ns(), vec![50, 15, 30, 5]);
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["a"].wall_ns, 20);
        // Self times of a tree add up to the root's duration.
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let t = tracer(vec![
            span("root", None, 0, 100),
            span("w1", Some(0), 0, 60),
            span("w2", Some(0), 20, 80),
            span("late", Some(0), 90, 120),
        ]);
        assert_eq!(t.self_ns()[0], 10);
    }

    #[test]
    fn adopt_reparents_roots_and_shifts_links() {
        let mut main = Tracer::new();
        let root = main.open("root", 0, None);
        let mut worker = main.fork();
        let trial = worker.open("trial", 3, None);
        worker.leaf("step", 3, Some(trial), || ());
        worker.close(trial);
        main.adopt(worker, root);
        main.close(root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].id, 3);
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
