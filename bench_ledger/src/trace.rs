//! In-memory spans recorded from the benchmark's own files, around its calls
//! into each layer. A span is a name, a start, an end, the span that caused
//! it and a request id; spans stay in memory and are written out once, when
//! the run ends. A disabled tracer runs the same closures and records
//! nothing, so one workload loop serves traced and untraced runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// A second tracer on the same clock and switch, for another thread;
    /// hand its spans back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer { enabled: self.enabled, epoch: self.epoch, ..Tracer::new(false) }
    }

    /// Append a forked tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    /// Every span opened from now on carries request id `id`.
    pub fn begin_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Run `f` inside a span called `name`, nested under whichever span is
    /// open. `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, request: self.request });
        self.open.push(index);
        // The clock is read last on the way in and first on the way out, so
        // the tracer's own bookkeeping falls outside the span.
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`, in record order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// The trace as one JSON document: `{"spans": [{...}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans cover. Children of one parent never overlap here (one thread,
/// closures nest), so covered time is the sum of child durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Total self time per span name, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

/// Sum of all self times over the sum of root-span durations. Exactly 1 when
/// every child lies inside its parent; the run fails if it strays past 5 %.
pub fn self_time_coverage(spans: &[Span]) -> f64 {
    let roots: u64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum();
    if roots == 0 {
        return 1.0;
    }
    self_times_ns(spans).iter().sum::<u64>() as f64 / roots as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("walk", 30, 90, Some(0)),
            span("score", 40, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 40, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], 20);
        assert_eq!(by_name["walk"], 40);
        assert_eq!(self_time_coverage(&spans), 1.0);
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let mut tracer = Tracer::new(true);
        tracer.begin_request(1);
        let out = tracer.span("outer", |t| {
            t.span("inner", |_| 7);
            t.span("inner", |_| 8)
        });
        assert_eq!(out, 8);
        tracer.begin_request(2);
        tracer.span("outer", |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].request, spans[2].request, spans[3].request), (1, 1, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.durations_us("inner").len(), 2);
        let coverage = self_time_coverage(spans);
        assert!((coverage - 1.0).abs() < 1e-9, "{coverage}");
        assert!(tracer.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |_| ());
        let mut fork = tracer.fork();
        fork.begin_request(9);
        fork.span("outer", |t| t.span("inner", |_| ()));
        tracer.absorb(fork);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (None, Some(1)));
        assert_eq!(spans[2].request, 9);
        assert!(spans[0].end_ns <= spans[1].start_ns, "forks share the parent's clock");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(tracer.spans().is_empty());
    }
}
