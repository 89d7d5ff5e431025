//! The harness's own spans, recorded from outside the program around the
//! calls into each layer: name, start, end, parent, query id. Kept in
//! memory while a run measures; written out once at the end.

use std::time::Instant;

use crate::json::Json;

/// Index of a span inside its [`SpanLog`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Spans of one operation share this id (pool index or batch number).
    pub query: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> f64 {
        self.end.duration_since(self.start).as_nanos() as f64
    }
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<SpanRecord>,
}

impl SpanLog {
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        query: u64,
    ) -> SpanId {
        self.spans.push(SpanRecord {
            name,
            start,
            end,
            parent,
            query,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, query);
        out
    }

    /// Opens a root span whose end is set by [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, query: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, None, query)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end = Instant::now();
    }

    /// Appends another thread's log, re-basing its parent links.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::duration_ns)
            .collect()
    }

    /// Self time of every span called `name`: its duration minus the part
    /// of it its child spans cover.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.duration_ns() - c).max(0.0))
            .collect()
    }

    /// When the first recorded span started.
    pub fn first_start(&self) -> Option<Instant> {
        self.spans.first().map(|s| s.start)
    }

    /// The first `limit` spans as a JSON array, times in nanoseconds
    /// since `origin`.
    pub fn to_json(&self, origin: Instant, limit: usize) -> Json {
        let ns = |t: Instant| Json::Num(t.saturating_duration_since(origin).as_nanos() as f64);
        Json::Arr(
            self.spans
                .iter()
                .take(limit)
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", ns(s.start)),
                        ("end_ns", ns(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("query", Json::Num(s.query as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_spans() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut log = SpanLog::default();
        let root = log.record("query", at(0), at(100), None, 7);
        log.record("plan", at(0), at(30), Some(root), 7);
        log.record("call", at(30), at(90), Some(root), 7);
        assert_eq!(log.durations_ns("query"), vec![100_000.0]);
        assert_eq!(log.self_times_ns("query"), vec![10_000.0]);
        assert_eq!(log.self_times_ns("call"), vec![60_000.0]);
        assert!(log.durations_ns("absent").is_empty());
    }

    #[test]
    fn merge_rebases_parent_links() {
        let t0 = Instant::now();
        let mut a = SpanLog::default();
        a.record("query", t0, t0, None, 1);
        let mut b = SpanLog::default();
        let root = b.record("query", t0, t0, None, 2);
        b.record("plan", t0, t0, Some(root), 2);
        a.merge(b);
        assert_eq!(a.len(), 3);
        let json = a.to_json(t0, usize::MAX).encode();
        assert!(json.contains(r#""name": "plan", "start_ns": 0, "end_ns": 0, "parent": 1"#));
        assert_eq!(a.to_json(t0, 2).as_arr().map(<[Json]>::len), Some(2));
        assert_eq!(a.first_start(), Some(t0));
    }
}
