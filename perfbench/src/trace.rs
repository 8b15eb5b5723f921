//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public API; nothing inside the program is
//! instrumented. A span has a name, a start, an end and the span that
//! was open when it began (its parent). Spans stay in memory until the
//! run ends, when they are exported as Chrome trace-event JSON (which
//! Perfetto opens) and folded into a per-layer self-time summary.
//!
//! A disabled tracer records nothing and costs one branch per span, so
//! the untraced runs that give the end-to-end metrics pay nothing for
//! the hooks.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index (into [`Tracer::spans`]) of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under whatever span
    /// is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every closed span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the part its children
    /// cover. Children never overlap (one thread), so this is the
    /// duration minus the children's durations.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect()
    }

    /// Self time summed per layer, in nanoseconds.
    #[must_use]
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *by_layer.entry(span.layer()).or_insert(0) += ns;
        }
        by_layer
    }

    /// Total time of the root spans (those without a parent).
    #[must_use]
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// `true` when the per-layer self times add up to the root spans'
    /// total exactly — the check that no time is counted twice or lost.
    #[must_use]
    pub fn self_times_balance(&self) -> bool {
        self.self_time_by_layer().values().sum::<u64>() == self.root_total_ns()
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond
    /// timestamps), loadable in Perfetto or `chrome://tracing`.
    #[must_use]
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::obj().with("id", i);
                if let Some(p) = s.parent {
                    args.push("parent", p);
                }
                Json::obj()
                    .with("name", s.name)
                    .with("cat", s.layer())
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.dur_ns() as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with("args", args)
            })
            .collect::<Vec<_>>();
        Json::obj()
            .with("traceEvents", events)
            .with("displayTimeUnit", "ms")
    }

    /// The per-layer self-time summary: seconds per layer, the root
    /// total and the balance check.
    #[must_use]
    pub fn summary(&self) -> Json {
        let mut layers = Json::obj();
        for (layer, ns) in self.self_time_by_layer() {
            layers.push(layer, ns as f64 / 1e9);
        }
        Json::obj()
            .with("spans", self.spans.len())
            .with("self_s", layers)
            .with("root_total_s", self.root_total_ns() as f64 / 1e9)
            .with("self_times_balance", self.self_times_balance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_balance() {
        let mut t = Tracer::new(true);
        t.span("service.job", |t| {
            t.span("sim.step", |_| std::hint::black_box(1 + 1));
            t.span("sim.step", |_| ());
        });
        t.span("durability.append", |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(t.self_times_balance());
        let layers = t.self_time_by_layer();
        assert_eq!(
            layers.keys().copied().collect::<Vec<_>>(),
            ["durability", "service", "sim"]
        );
        let trace = t.chrome_trace().render();
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("engine.step", |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.self_times_balance());
    }
}
