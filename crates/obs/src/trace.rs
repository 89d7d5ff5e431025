//! Per-query lifecycle tracing: RAII spans recorded into [`QueryTrace`]s.
//!
//! A [`TraceHandle`] is either live (backed by shared mutable state) or
//! inert (`None` inside) — spans entered on an inert handle are free, so
//! the same instrumentation code serves both the enabled and the no-op
//! path. Spans time themselves with [`Instant`] and close on `Drop`,
//! which keeps nesting balanced even on early returns.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One closed (or still-open) span inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name, e.g. `"plan"`, `"scatter"`, `"finish"`.
    pub name: String,
    /// Nesting depth at the time the span was entered (0 = top level).
    pub depth: usize,
    /// Offset from the trace origin, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds (0 while still open).
    pub duration_ns: u64,
}

#[derive(Debug)]
struct TraceInner {
    label: String,
    algorithm: String,
    origin: Instant,
    spans: Vec<SpanRecord>,
    /// Stack of indices into `spans` for spans not yet closed.
    open: Vec<usize>,
    attrs: BTreeMap<String, String>,
}

/// A finished, immutable copy of one query's lifecycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Caller-supplied label (e.g. a query index or description).
    pub label: String,
    /// Algorithm that served the query.
    pub algorithm: String,
    /// Recorded spans, in entry order.
    pub spans: Vec<SpanRecord>,
    /// Free-form attributes (sampled silo, LSR level, rescale factor…).
    pub attrs: BTreeMap<String, String>,
    /// Number of spans still open when the trace was finished; 0 for a
    /// balanced trace.
    pub open_spans: usize,
}

impl QueryTrace {
    /// Whether every entered span was closed before the trace finished.
    pub fn is_balanced(&self) -> bool {
        self.open_spans == 0 && self.spans.iter().all(|s| s.duration_ns > 0)
    }

    /// Duration of the first span named `name`, if present.
    pub fn span_duration_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.duration_ns)
    }
}

/// A handle to one query's trace; cheap to clone, inert when disabled.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Option<Arc<Mutex<TraceInner>>>);

impl TraceHandle {
    /// An inert handle: spans and attributes recorded through it vanish.
    #[inline]
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A live handle with the given label and algorithm name.
    pub fn new(label: &str, algorithm: &str) -> Self {
        TraceHandle(Some(Arc::new(Mutex::new(TraceInner {
            label: label.to_string(),
            algorithm: algorithm.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            attrs: BTreeMap::new(),
        }))))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a free-form attribute (last write wins).
    pub fn attr(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.attrs.insert(key.to_string(), value.to_string());
        }
    }

    /// Copies the current state out as a [`QueryTrace`].
    ///
    /// Spans still open (guards not yet dropped) are reported via
    /// [`QueryTrace::open_spans`].
    pub fn capture(&self) -> Option<QueryTrace> {
        self.0.as_ref().map(|inner| {
            let inner = inner.lock().unwrap_or_else(PoisonError::into_inner);
            QueryTrace {
                label: inner.label.clone(),
                algorithm: inner.algorithm.clone(),
                spans: inner.spans.clone(),
                attrs: inner.attrs.clone(),
                open_spans: inner.open.len(),
            }
        })
    }
}

/// An RAII guard for one timed phase; closes (and records its duration)
/// on `Drop`.
///
/// Inert spans carry no state at all — not even a start timestamp — so
/// entering one on a disabled trace costs a branch, not a clock read.
#[must_use = "a span records its duration when dropped; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct Span {
    slot: Option<(Arc<Mutex<TraceInner>>, usize, Instant)>,
}

impl Span {
    /// Enters a span named `name` on `trace`; free if the handle is
    /// inert.
    #[inline]
    pub fn enter(trace: &TraceHandle, name: &str) -> Span {
        let slot = trace.0.as_ref().map(|arc| {
            let started = Instant::now();
            let mut inner = arc.lock().unwrap_or_else(PoisonError::into_inner);
            let depth = inner.open.len();
            let start_ns = inner.origin.elapsed().as_nanos() as u64;
            let index = inner.spans.len();
            inner.spans.push(SpanRecord {
                name: name.to_string(),
                depth,
                start_ns,
                duration_ns: 0,
            });
            inner.open.push(index);
            (Arc::clone(arc), index, started)
        });
        Span { slot }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some((arc, index, started)) = self.slot.take() {
            let duration = started.elapsed().as_nanos() as u64;
            let mut inner = arc.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(record) = inner.spans.get_mut(index) {
                // Clamp to ≥ 1 ns so "closed" is distinguishable from
                // "never closed" in a captured trace.
                record.duration_ns = duration.max(1);
            }
            inner.open.retain(|&i| i != index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_balance() {
        let trace = TraceHandle::new("q0", "test");
        {
            let _outer = Span::enter(&trace, "outer");
            {
                let _inner = Span::enter(&trace, "inner");
            }
        }
        let captured = trace.capture().expect("live handle");
        assert!(captured.is_balanced());
        assert_eq!(captured.spans.len(), 2);
        assert_eq!(captured.spans[0].name, "outer");
        assert_eq!(captured.spans[0].depth, 0);
        assert_eq!(captured.spans[1].depth, 1);
        assert!(captured.span_duration_ns("outer").unwrap() >= 1);
    }

    #[test]
    fn open_span_is_reported_unbalanced() {
        let trace = TraceHandle::new("q0", "test");
        let _held = Span::enter(&trace, "still-open");
        let captured = trace.capture().expect("live handle");
        assert_eq!(captured.open_spans, 1);
        assert!(!captured.is_balanced());
    }

    #[test]
    fn disabled_handle_is_inert() {
        let trace = TraceHandle::disabled();
        let _span = Span::enter(&trace, "ghost");
        trace.attr("k", "v");
        assert!(trace.capture().is_none());
        assert!(!trace.is_enabled());
    }

    #[test]
    fn attrs_are_recorded() {
        let trace = TraceHandle::new("q1", "IID-est");
        trace.attr("silo", 3);
        trace.attr("level", 2);
        let captured = trace.capture().expect("live handle");
        assert_eq!(captured.attrs["silo"], "3");
        assert_eq!(captured.attrs["level"], "2");
        assert_eq!(captured.algorithm, "IID-est");
    }
}
