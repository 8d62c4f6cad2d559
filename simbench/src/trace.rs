//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and how many layer API calls
//! it covered; every span of one workload run carries the same run id.
//! Nothing is written until the run ends, when [`Tracer::chrome_json`]
//! renders the spans as Chrome trace-event JSON (readable by Perfetto and
//! `chrome://tracing`). A disabled tracer records nothing, so the untraced
//! run pays only a branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the tracer's origin, in nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer API calls made inside the span.
    pub calls: u64,
}

/// Aggregate of every span sharing one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Layer API calls they covered.
    pub calls: u64,
    /// Summed wall time, seconds.
    pub total_s: f64,
    /// Summed wall time minus the part covered by child spans, seconds.
    pub self_s: f64,
}

/// Handle of an open span; closing a disabled tracer's handle is a no-op.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans under `run_id`.
    pub fn on(run_id: u64) -> Self {
        Tracer {
            enabled: true,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on(0)
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            calls: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, crediting it with `calls` layer API calls.
    ///
    /// # Panics
    /// Panics if `span` is not the innermost open span.
    pub fn close(&mut self, span: Open, calls: u64) {
        let Open(Some(idx)) = span else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].calls = calls;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, self time included, in name order.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.calls += s.calls;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Summed wall time of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_s)
    }

    /// Nanoseconds per API call over every span named `name` (0 when the
    /// spans covered no calls).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        match self.totals().get(name) {
            Some(t) if t.calls > 0 => t.total_s * 1e9 / t.calls as f64,
            _ => 0.0,
        }
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event per
    /// span, timestamps in microseconds, with the span id, parent id, run id
    /// and call count under `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{},\"calls\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.run_id,
                s.calls,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_calls_add_up() {
        let mut t = Tracer::on(7);
        let outer = t.open("outer");
        let inner = t.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(inner, 3);
        let inner = t.open("inner");
        t.close(inner, 2);
        t.close(outer, 0);
        let totals = t.totals();
        let inner = &totals["inner"];
        let outer = &totals["outer"];
        assert_eq!((inner.spans, inner.calls), (2, 5));
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        let json = t.chrome_json("w");
        assert!(json.contains("\"run\":7") && json.contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let x = t.open("x");
        t.close(x, 1);
        assert!(t.spans().is_empty());
        assert_eq!(t.ns_per_call("x"), 0.0);
    }
}
