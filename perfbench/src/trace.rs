//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each span carries a name, start, end, parent span and query id. At the
//! end of a run the spans are written as Chrome trace-event JSON, which
//! chrome://tracing and Perfetto open offline.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub query: u64,
    /// Recording thread, shown as one track per client in the viewer.
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe span log with a common time origin.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        query: u64,
        tid: u64,
    ) -> SpanId {
        let start_ns = self.now();
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            query,
            tid,
        });
        spans.len() - 1
    }

    /// Close a span now.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now();
        self.spans.lock().expect("a tracing thread panicked")[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        query: u64,
        tid: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, query, tid);
        let r = f();
        self.end(id);
        r
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .clone()
    }
}

/// Total length covered by a set of half-open intervals, overlaps
/// counted once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span), so children that ran in
/// parallel are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, c)| s.dur_ns().saturating_sub(union_len(c)))
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, microsecond times).
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.end_ns >= s.start_ns && s.end_ns > 0)
        .map(|(i, s)| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"query\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.query
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 0,
            tid: 0,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&mut [(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(&mut [(0, 100), (10, 20), (30, 40)]), 100);
        assert_eq!(union_len(&mut [(0, 10), (10, 20)]), 20);
    }

    #[test]
    fn self_time_with_overlapping_parallel_children() {
        // A round of 100 ns whose two client queries ran in parallel over
        // [10, 60) and [40, 90): their union is 80 ns, so the round's own
        // time is 20 ns, not 100 - 50 - 50 = 0.
        let spans = vec![
            span("round", 0, 100, None),
            span("query", 10, 60, Some(0)),
            span("query", 40, 90, Some(0)),
            // Sequential grandchildren of the first query.
            span("sql.parse", 10, 20, Some(1)),
            span("core.run", 20, 55, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![20, 5, 50, 10, 35]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("a", 10, 20, None), span("b", 0, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_records_nested_spans_and_writes_json() {
        let t = Tracer::default();
        let outer = t.begin("query", None, 7, 1);
        t.span("sql.parse", Some(outer), 7, 1, || ());
        t.end(outer);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_json(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"sql.parse\",\"cat\":\"sql\",\"ph\":\"X\""));
        assert!(json.contains("\"query\":7"));
    }
}
