//! In-memory span recorder for the traced run.
//!
//! Spans wrap calls from the benchmark's own files into one layer's
//! public functions. They are kept in a preallocated vector and
//! summarised when the run ends. A disabled tracer only calls the
//! closure, so untraced runs pay nothing for it.

use std::cell::RefCell;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.function` name, e.g. `builder.build`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<u32>,
}

impl Span {
    /// Wall time of the span, seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; a pass-through otherwise.
///
/// Single-threaded by design (every workload runs one worker thread), so
/// interior mutability lets a policy wrapper open tick spans while the
/// enclosing `sim.run` span is still open.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

/// Spans preallocated so the hot tick path does not grow the vector.
const SPAN_CAPACITY: usize = 1 << 17;

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 })),
            open: RefCell::new(Vec::with_capacity(8)),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            u32::try_from(spans.len() - 1).expect("span count fits in u32")
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        let end_ns = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx as usize].end_ns = end_ns;
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Summaries over a finished run's spans.
#[derive(Debug)]
pub struct SpanSummary {
    spans: Vec<Span>,
    /// Per span, the wall time its direct children cover, seconds.
    child_s: Vec<f64>,
}

impl SpanSummary {
    /// Indexes `spans` for the queries below.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut child_s = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_s[p as usize] += s.seconds();
            }
        }
        SpanSummary { spans, child_s }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Summed wall time of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name)
            .map(|(_, s)| s.seconds())
            .fold(0.0, |a, b| a + b)
    }

    /// Longest span called `name`, seconds (0 when there is none).
    pub fn max_s(&self, name: &str) -> f64 {
        self.named(name)
            .map(|(_, s)| s.seconds())
            .fold(0.0, f64::max)
    }

    /// Spans called `name` longer than `limit_s`.
    pub fn count_over(&self, name: &str, limit_s: f64) -> usize {
        self.named(name)
            .filter(|(_, s)| s.seconds() > limit_s)
            .count()
    }

    /// Self time of the spans called `name`: their wall time minus the
    /// part their child spans cover, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.named(name)
            .map(|(i, s)| s.seconds() - self.child_s[i])
            .fold(0.0, |a, b| a + b)
    }

    /// Summed wall time of the top-level spans, seconds.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::seconds)
            .fold(0.0, |a, b| a + b)
    }

    /// `(name, count, total_s, self_s)` per span name, in first-seen order.
    pub fn table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|n| (n, self.named(n).count(), self.total_s(n), self.self_s(n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let sum = SpanSummary::new(spans);
        assert!(sum.total_s("inner") >= 0.002);
        assert!(sum.self_s("outer") < sum.total_s("outer"));
        assert_eq!(sum.top_level_s(), sum.total_s("outer"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
