//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (see README.md): name, start, end, parent span and request id. A root
//! span opens a new request; nested spans inherit its request and circuit.
//! Counts (messages reused, bytes, ...) are recorded at the same
//! boundaries. A disabled tracer records nothing, so the untraced run pays
//! one branch per call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub circuit: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// Indices of the spans currently open, innermost last.
    stack: RefCell<Vec<usize>>,
    next_request: Cell<u64>,
    counts: RefCell<BTreeMap<(usize, &'static str), f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_request: Cell::new(0),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Runs `f` inside a root span: a new request about `circuit`.
    pub fn request<T>(&self, name: &'static str, circuit: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let request = self.next_request.get();
        self.next_request.set(request + 1);
        self.record(name, None, request, circuit, f)
    }

    /// Runs `f` inside a span nested in the innermost open span. Outside
    /// any request it opens its own.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let top = self.stack.borrow().last().copied();
        match top {
            Some(parent) => {
                let (request, circuit) = {
                    let spans = self.spans.borrow();
                    (spans[parent].request, spans[parent].circuit)
                };
                self.record(name, Some(parent), request, circuit, f)
            }
            None => self.request(name, usize::MAX, f),
        }
    }

    fn record<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        circuit: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
                circuit,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Adds `value` to the named count of `circuit`.
    pub fn count(&self, circuit: usize, name: &'static str, value: f64) {
        if self.enabled() {
            *self
                .counts
                .borrow_mut()
                .entry((circuit, name))
                .or_insert(0.0) += value;
        }
    }

    /// Raises the named count of `circuit` to at least `value`.
    pub fn count_max(&self, circuit: usize, name: &'static str, value: f64) {
        if self.enabled() {
            let mut counts = self.counts.borrow_mut();
            let slot = counts.entry((circuit, name)).or_insert(value);
            *slot = slot.max(value);
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Counts keyed by circuit and name.
    pub fn counts(&self) -> BTreeMap<(usize, &'static str), f64> {
        self.counts.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = end;
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in seconds, keyed by circuit index.
pub fn self_seconds_by_circuit(spans: &[Span]) -> BTreeMap<(usize, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry((span.circuit, span.name)).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Total self time per span name, in seconds.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for ((_, name), secs) in self_seconds_by_circuit(spans) {
        *out.entry(name).or_insert(0.0) += secs;
    }
    out
}

/// Spans as JSON lines, circuit indices resolved through `circuits`.
pub fn spans_jsonl(spans: &[Span], circuits: &[String]) -> String {
    let mut out = String::new();
    for span in spans {
        let circuit = circuits.get(span.circuit).map_or("", String::as_str);
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"circuit\":\"{}\"}}",
            span.name, span.start_ns, span.end_ns, parent, span.request, circuit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            circuit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 10: the union of children is [10, 50).
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild only reduces its own parent.
            span("d", 62, 65, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 7, 3]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_interval() {
        let spans = [span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn self_seconds_sums_by_name() {
        let spans = [
            span("x", 0, 1_000_000_000, None),
            span("y", 0, 250_000_000, Some(0)),
            span("y", 500_000_000, 750_000_000, Some(0)),
        ];
        let by_name = self_seconds(&spans);
        assert!((by_name["x"] - 0.5).abs() < 1e-12);
        assert!((by_name["y"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_share_request_and_circuit() {
        let tracer = Tracer::new(true);
        tracer.request("outer", 3, || {
            tracer.span("inner", || ());
        });
        tracer.span("lonely", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].request, spans[1].circuit), (0, 3));
        assert_eq!((spans[2].parent, spans[2].request), (None, 1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.request("outer", 0, || 7), 7);
        tracer.count(0, "n", 1.0);
        assert!(tracer.spans().is_empty());
        assert!(tracer.counts().is_empty());
    }
}
