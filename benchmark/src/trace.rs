//! In-memory spans recorded around the calls into each layer.
//!
//! Spans are kept in a `Vec` while the traced phase runs and written out
//! as JSON lines when the benchmark ends. A span's *self time* is its
//! duration minus the part of its interval that its children cover, so
//! overlapping children are not double-counted.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.trunk`.
    pub name: &'static str,
    /// Operation (request, step, batch) the span belongs to.
    pub trace: u64,
    /// Span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, trace: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.record(name, trace, parent, start, start)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id].end = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Adds a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.spans.push(Span { name, trace, parent, start, end });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration() as f64 / 1e6).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (id, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.trace, span.name, span.start, span.end
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start.max(parent.start);
            let end = span.end.min(parent.end);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut open: Option<(u64, u64)> = None;
            for &(s, e) in intervals.iter() {
                match open {
                    Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
                    Some((os, oe)) => {
                        covered += oe - os;
                        open = Some((s, e));
                    }
                    None => open = Some((s, e)),
                }
            }
            if let Some((os, oe)) = open {
                covered += oe - os;
            }
            span.duration() - covered
        })
        .collect()
}

/// Share of the total duration of spans called `name` not covered by
/// their children.
pub fn self_fraction(spans: &[Span], name: &str) -> f64 {
    let own = self_times(spans);
    let (mut total, mut alone) = (0u64, 0u64);
    for (span, s) in spans.iter().zip(own) {
        if span.name == name {
            total += span.duration();
            alone += s;
        }
    }
    alone as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span { name, trace: 0, parent, start, end }
    }

    /// request [0, 100)
    /// ├── encode [10, 20)
    /// ├── trunk  [20, 70)
    /// │   └── gemm [30, 60)
    /// ├── combine [65, 80)   overlaps trunk by 5
    /// └── late [95, 130)     runs past its parent's end
    fn tree() -> Vec<Span> {
        vec![
            span("request", None, 0, 100),
            span("encode", Some(0), 10, 20),
            span("trunk", Some(0), 20, 70),
            span("gemm", Some(2), 30, 60),
            span("combine", Some(0), 65, 80),
            span("late", Some(0), 95, 130),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let own = self_times(&tree());
        // Children cover [10, 80) and [95, 100): 75 of 100.
        assert_eq!(own[0], 25);
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 15);
        assert_eq!(own[5], 35);
    }

    #[test]
    fn self_fraction_sums_over_same_named_spans() {
        let mut spans = tree();
        // A second request with no children is all self time.
        spans.push(span("request", None, 200, 300));
        assert_eq!(self_fraction(&spans, "request"), (25.0 + 100.0) / 200.0);
        assert_eq!(self_fraction(&spans, "trunk"), 20.0 / 50.0);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.begin("step", 7, None);
        let inner = tracer.time("forward", 7, Some(root), || 41 + 1);
        tracer.end(root);
        assert_eq!(inner, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
