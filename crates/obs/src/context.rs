//! The observability handle threaded through the execution API.

use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::catalog::Metric;
use crate::comm::{CommCounters, CommSnapshot};
use crate::export;
use crate::handles::{Metrics, Series};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, Primitive};
use crate::trace::{QueryTrace, TraceHandle};

/// Default cap on retained [`QueryTrace`]s (oldest evicted first).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

fn noop_context() -> &'static ObsContext {
    static NOOP: OnceLock<ObsContext> = OnceLock::new();
    NOOP.get_or_init(|| ObsContext {
        enabled: false,
        registry: Arc::new(MetricsRegistry::new()),
        metrics: Metrics::new(None),
        comm: Arc::new(CommCounters::with_overhead(0)),
        traces: Mutex::new(VecDeque::new()),
        trace_capacity: 0,
    })
}

/// A shared observability context: one metrics registry, one mirror of
/// the communication counters, and a bounded ring of finished
/// [`QueryTrace`]s.
///
/// Instrumented code takes `&ObsContext` and records through the
/// pre-built handles of [`ObsContext::metrics`]; callers that do not care
/// pass [`ObsContext::noop`], which is permanently disabled — every
/// recording is then a single branch, so the uninstrumented path stays
/// within noise of the pre-observability code.
#[derive(Debug)]
pub struct ObsContext {
    enabled: bool,
    registry: Arc<MetricsRegistry>,
    metrics: Metrics,
    comm: Arc<CommCounters>,
    traces: Mutex<VecDeque<QueryTrace>>,
    trace_capacity: usize,
}

impl Default for ObsContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsContext {
    /// A fresh, enabled context.
    ///
    /// The comm mirror uses zero per-message overhead: the transport's
    /// own counters have already charged the envelope overhead, and the
    /// engine mirrors their deltas verbatim so the totals match the
    /// legacy accounting bit-for-bit.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        Self {
            enabled: true,
            metrics: Metrics::new(Some(&registry)),
            registry,
            comm: Arc::new(CommCounters::with_overhead(0)),
            traces: Mutex::new(VecDeque::new()),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// The shared disabled context: recording through it does nothing.
    pub fn noop() -> &'static ObsContext {
        noop_context()
    }

    /// Whether this context records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metrics registry.
    #[inline]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The handles every provider-side recording goes through (inert when
    /// the context is disabled).
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A handle on `metric` at one label `value` the catalog does not fix
    /// (a scheduler's class names): built once, registered on first use.
    pub fn labeled<T: Primitive>(
        &self,
        metric: &'static Metric<T>,
        value: impl Display,
    ) -> Series<T> {
        let registry = self.enabled.then_some(&self.registry);
        Series::labeled(metric, registry, value)
    }

    /// The communication counters mirrored from the transport.
    #[inline]
    pub fn comm(&self) -> &CommCounters {
        &self.comm
    }

    /// Starts a per-query trace; inert when the context is disabled.
    #[inline]
    pub fn start_trace(&self, label: &str, algorithm: &str) -> TraceHandle {
        if self.enabled {
            TraceHandle::new(label, algorithm)
        } else {
            TraceHandle::disabled()
        }
    }

    /// Finishes a trace: records each span's duration into the
    /// `fedra_span_ns{name="…"}` histograms and retains the trace in the
    /// bounded ring.
    pub fn finish_trace(&self, trace: &TraceHandle) {
        if !self.enabled {
            return;
        }
        if let Some(captured) = trace.capture() {
            for span in &captured.spans {
                self.metrics
                    .span_ns
                    .observe(span.name.as_str(), span.duration_ns);
            }
            let mut ring = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
            if ring.len() >= self.trace_capacity && self.trace_capacity > 0 {
                ring.pop_front();
            }
            if self.trace_capacity > 0 {
                ring.push_back(captured);
            }
        }
    }

    /// Copies the retained traces out (oldest first).
    pub fn traces(&self) -> Vec<QueryTrace> {
        self.traces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// A point-in-time copy of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The mirrored communication totals.
    pub fn comm_snapshot(&self) -> CommSnapshot {
        self.comm.snapshot()
    }

    /// Renders the current state as a stable JSON document.
    pub fn export_json(&self) -> String {
        export::render_json(&self.snapshot(), &self.comm_snapshot())
    }

    /// Renders the current state in Prometheus text format.
    pub fn export_prometheus(&self) -> String {
        export::render_prometheus(&self.snapshot(), &self.comm_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    #[test]
    fn noop_records_nothing() {
        let obs = ObsContext::noop();
        obs.metrics().queries.add(5);
        obs.metrics().batch_mre.set(1.0);
        obs.metrics().query_rounds.observe(10);
        obs.labeled(&crate::catalog::SHED_TOTAL, "rt").inc();
        let trace = obs.start_trace("q", "test");
        let _span = Span::enter(&trace, "plan");
        obs.finish_trace(&trace);
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(obs.traces().is_empty());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn finish_trace_records_span_histograms() {
        let obs = ObsContext::new();
        let trace = obs.start_trace("q0", "test");
        {
            let _plan = Span::enter(&trace, "plan");
        }
        obs.finish_trace(&trace);
        let traces = obs.traces();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].is_balanced());
        let snap = obs.snapshot();
        assert_eq!(snap.histograms["fedra_span_ns{name=\"plan\"}"].count, 1);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let obs = ObsContext::new();
        for i in 0..(DEFAULT_TRACE_CAPACITY + 10) {
            let trace = obs.start_trace(&format!("q{i}"), "test");
            obs.finish_trace(&trace);
        }
        let traces = obs.traces();
        assert_eq!(traces.len(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(traces[0].label, "q10");
    }

    #[test]
    fn comm_mirror_has_zero_overhead() {
        let obs = ObsContext::new();
        assert_eq!(obs.comm().overhead(), 0);
        obs.comm().add_delta(&CommSnapshot {
            bytes_up: 3,
            bytes_down: 4,
            rounds: 1,
        });
        assert_eq!(obs.comm_snapshot().total_bytes(), 7);
    }

    #[test]
    fn exporters_cover_live_context() {
        let obs = ObsContext::new();
        obs.metrics().queries.add(2);
        let text = obs.export_prometheus();
        assert!(text.contains("fedra_queries_total 2"));
        let json = obs.export_json();
        assert!(json.contains("\"fedra_queries_total\": 2"));
    }
}
