//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded **from the benchmark's side of each layer boundary**
//! (one per `caharness::run_*` call, one per micro batch of ≥10 000 calls —
//! never one per simulated event), kept in memory, and written out once at
//! exit. Tracing inside the program is a later change. A disabled tracer
//! records nothing, and end-to-end metrics are only ever taken with it
//! disabled.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call[detail]`, e.g. `caharness.run_set[hp]`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Span recorder for one workload run.
pub struct Tracer {
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; `enabled = false` makes every call a no-op.
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off (the traced run alternates traced and
    /// untraced passes to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span nested inside the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span; spans close innermost-first.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let r = f(self);
        self.end(id);
        r
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as one JSON document: every span with its self time.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::obj([
            ("workload", Json::str(&self.workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(selfs)
                        .map(|(s, self_ns)| {
                            Json::obj([
                                ("name", Json::str(&s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("workload", Json::str(&self.workload)),
                                ("self_ns", Json::Num(self_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of each span: its duration minus the part of that interval its
/// direct children cover. Children never overlap (one thread records them,
/// innermost-first), so their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("caharness.run_set[ca]", 10, 40, Some(0)),
            span("caharness.run_set[hp]", 50, 90, Some(0)),
            span("inner", 55, 60, Some(2)),
        ];
        // pass: 100 - 30 - 40; the grandchild only reduces its own parent.
        assert_eq!(self_times(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", true);
        t.span("outer", |t| {
            t.span("a", |_| ());
            t.set_enabled(false);
            t.span("untraced", |_| ());
            t.set_enabled(true);
            t.span("b", |_| ());
        });
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(names, [("outer", None), ("a", Some(0)), ("b", Some(0))]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let doc = t.to_json();
        let first = &doc.get("spans").unwrap().as_arr().unwrap()[1];
        assert_eq!(first.get("workload").unwrap().as_str(), Some("w"));
        assert_eq!(first.get("parent").unwrap().as_f64(), Some(0.0));

        let mut off = Tracer::new("w", false);
        off.span("x", |_| ());
        assert!(off.spans().is_empty());
    }
}
