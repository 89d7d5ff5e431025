//! Stable exporters: JSON snapshot and Prometheus text format.
//!
//! Both renderers work from [`MetricsSnapshot`] + [`CommSnapshot`], so
//! they are deterministic for a deterministic workload (BTreeMap key
//! order, no timestamps). The communication counters are injected as
//! three ordinary counters (`fedra_comm_bytes_up_total`,
//! `fedra_comm_bytes_down_total`, `fedra_comm_rounds_total`) so one
//! document carries everything. The Prometheus text describes itself:
//! each family opens with its `# HELP` line from the [catalog](crate::catalog)
//! and its `# TYPE` line.
//!
//! [`parse_prometheus`] parses the text format back into a flat
//! name → value map; tests use it to prove the exporters round-trip.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::{self, Kind, COMM_BYTES_DOWN_TOTAL, COMM_BYTES_UP_TOTAL, COMM_ROUNDS_TOTAL};
use crate::comm::CommSnapshot;
use crate::metrics::MetricsSnapshot;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn counters_with_comm(snapshot: &MetricsSnapshot, comm: &CommSnapshot) -> BTreeMap<String, u64> {
    let mut counters = snapshot.counters.clone();
    for (metric, value) in [
        (&COMM_BYTES_UP_TOTAL, comm.bytes_up),
        (&COMM_BYTES_DOWN_TOTAL, comm.bytes_down),
        (&COMM_ROUNDS_TOTAL, comm.rounds),
    ] {
        counters.insert(metric.def().name().to_string(), value);
    }
    counters
}

/// Renders a metrics + comm snapshot as a stable JSON document.
///
/// Keys are sorted (BTreeMap order); histograms list only non-empty
/// buckets as `[upper_bound, count]` pairs, with `"inf"` standing in for
/// the unbounded bucket.
pub fn render_json(snapshot: &MetricsSnapshot, comm: &CommSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {");
    let counters = counters_with_comm(snapshot, comm);
    let mut first = true;
    for (name, value) in &counters {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", json_escape(name), value);
    }
    out.push_str("\n  },\n  \"gauges\": {");
    first = true;
    for (name, value) in &snapshot.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", json_escape(name), fmt_f64(*value));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    first = true;
    for (name, hist) in &snapshot.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
            json_escape(name),
            hist.count,
            hist.sum
        );
        let mut first_bucket = true;
        for (bound, count) in hist.nonzero_buckets() {
            if !first_bucket {
                out.push_str(", ");
            }
            first_bucket = false;
            match bound {
                Some(b) => {
                    let _ = write!(out, "[{b}, {count}]");
                }
                None => {
                    let _ = write!(out, "[\"inf\", {count}]");
                }
            }
        }
        out.push_str("]}");
    }
    out.push_str("\n  }\n}\n");
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        // Integral gauges print without a fraction so JSON stays tidy.
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Base metric name: the part before any `{label="…"}` suffix.
fn base_name(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// Splices `suffix` before the label braces and appends an `le` label:
/// `("x_ns{name=\"plan\"}", "_bucket", "1024")` →
/// `x_ns_bucket{name="plan",le="1024"}`.
fn with_suffix_and_le(name: &str, suffix: &str, le: &str) -> String {
    match name.find('{') {
        Some(i) => format!(
            "{}{}{{{},le=\"{}\"}}",
            &name[..i],
            suffix,
            &name[i + 1..name.len() - 1],
            le
        ),
        None => format!("{name}{suffix}{{le=\"{le}\"}}"),
    }
}

/// Splices `suffix` before the label braces: `("x_ns{a=\"b\"}", "_sum")`
/// → `x_ns_sum{a="b"}`.
fn with_suffix(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{}{}", &name[..i], suffix, &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// Opens the family of series `name` when it differs from the previous
/// one: its `# HELP` line (when the catalog declares it) and `# TYPE`.
fn open_family<'a>(out: &mut String, last: &mut &'a str, name: &'a str, kind: Kind) {
    let family = base_name(name);
    if family == *last {
        return;
    }
    if let Some(def) = catalog::lookup(family) {
        let _ = writeln!(out, "# HELP {family} {}", def.help());
    }
    let _ = writeln!(out, "# TYPE {family} {}", kind.as_str());
    *last = family;
}

/// Renders a metrics + comm snapshot in the Prometheus text exposition
/// format (`# HELP` and `# TYPE` lines per metric family, cumulative
/// histogram buckets, no timestamps).
pub fn render_prometheus(snapshot: &MetricsSnapshot, comm: &CommSnapshot) -> String {
    let mut out = String::new();
    let counters = counters_with_comm(snapshot, comm);
    let mut last_family = "";
    for (name, value) in &counters {
        open_family(&mut out, &mut last_family, name, Kind::Counter);
        let _ = writeln!(out, "{name} {value}");
    }
    last_family = "";
    for (name, value) in &snapshot.gauges {
        open_family(&mut out, &mut last_family, name, Kind::Gauge);
        let _ = writeln!(out, "{name} {}", fmt_f64(*value));
    }
    last_family = "";
    for (name, hist) in &snapshot.histograms {
        open_family(&mut out, &mut last_family, name, Kind::Histogram);
        let mut cumulative = 0u64;
        for (bound, count) in hist.nonzero_buckets() {
            cumulative += count;
            let le = match bound {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(
                out,
                "{} {}",
                with_suffix_and_le(name, "_bucket", &le),
                cumulative
            );
        }
        if hist.buckets.last().copied().unwrap_or(0) == 0 {
            // Prometheus requires a closing +Inf bucket even when empty.
            let _ = writeln!(
                out,
                "{} {}",
                with_suffix_and_le(name, "_bucket", "+Inf"),
                cumulative
            );
        }
        let _ = writeln!(out, "{} {}", with_suffix(name, "_sum"), hist.sum);
        let _ = writeln!(out, "{} {}", with_suffix(name, "_count"), hist.count);
    }
    out
}

/// Parses Prometheus text format back into a flat `name → value` map
/// (comments and blank lines skipped). Histogram series appear under
/// their `_bucket`/`_sum`/`_count` sample names.
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(split) = line.rfind(' ') {
            let (name, value) = line.split_at(split);
            if let Ok(v) = value.trim().parse::<f64>() {
                out.insert(name.trim().to_string(), v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ACCURACY_EPSILON, DEGRADED_TOTAL, SCHED_SUBMITTED_TOTAL, SPAN_NS};
    use crate::metrics::MetricsRegistry;

    fn sample() -> (MetricsSnapshot, CommSnapshot) {
        let reg = MetricsRegistry::new();
        reg.series(&SCHED_SUBMITTED_TOTAL, &[&"IID-est"]).add(250);
        reg.series(&DEGRADED_TOTAL, &[]).inc();
        reg.series(&ACCURACY_EPSILON, &[]).set(0.1);
        reg.series(&SPAN_NS, &[&"plan"]).observe(900);
        reg.series(&SPAN_NS, &[&"plan"]).observe(1500);
        let comm = CommSnapshot {
            bytes_up: 1234,
            bytes_down: 5678,
            rounds: 250,
        };
        (reg.snapshot(), comm)
    }

    #[test]
    fn prometheus_round_trips_counters() {
        let (snap, comm) = sample();
        let text = render_prometheus(&snap, &comm);
        let parsed = parse_prometheus(&text);
        assert_eq!(
            parsed["fedra_sched_submitted_total{class=\"IID-est\"}"],
            250.0
        );
        assert_eq!(parsed["fedra_degraded_total"], 1.0);
        assert_eq!(parsed["fedra_comm_bytes_up_total"], 1234.0);
        assert_eq!(parsed["fedra_comm_bytes_down_total"], 5678.0);
        assert_eq!(parsed["fedra_comm_rounds_total"], 250.0);
        assert_eq!(parsed["fedra_accuracy_epsilon"], 0.1);
        assert_eq!(parsed["fedra_span_ns_count{name=\"plan\"}"], 2.0);
        assert_eq!(parsed["fedra_span_ns_sum{name=\"plan\"}"], 2400.0);
        // 900 → bucket le=1024; 1500 → le=2048; cumulative.
        assert_eq!(
            parsed["fedra_span_ns_bucket{name=\"plan\",le=\"1024\"}"],
            1.0
        );
        assert_eq!(
            parsed["fedra_span_ns_bucket{name=\"plan\",le=\"2048\"}"],
            2.0
        );
    }

    #[test]
    fn prometheus_describes_every_family_once() {
        let (snap, comm) = sample();
        let text = render_prometheus(&snap, &comm);
        assert!(text.contains("# TYPE fedra_sched_submitted_total counter"));
        assert!(text.contains("# TYPE fedra_accuracy_epsilon gauge"));
        assert!(text.contains("# TYPE fedra_span_ns histogram"));
        assert!(text.contains(
            "# HELP fedra_span_ns Duration of one traced query phase, in nanoseconds.\n\
             # TYPE fedra_span_ns histogram\n"
        ));
        // One HELP and one TYPE per family, each HELP right before its TYPE.
        let lines: Vec<&str> = text.lines().collect();
        let helps = lines.iter().filter(|l| l.starts_with("# HELP ")).count();
        let types = lines.iter().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!((helps, types), (7, 7), "{text}");
        for (i, line) in lines.iter().enumerate() {
            if let Some(help) = line.strip_prefix("# HELP ") {
                let family = help.split(' ').next().unwrap();
                assert!(lines[i + 1].starts_with(&format!("# TYPE {family} ")));
            }
        }
    }

    #[test]
    fn json_is_stable_and_contains_everything() {
        let (snap, comm) = sample();
        let a = render_json(&snap, &comm);
        let b = render_json(&snap, &comm);
        assert_eq!(a, b);
        assert!(a.contains("\"fedra_sched_submitted_total{class=\\\"IID-est\\\"}\": 250"));
        assert!(a.contains("\"fedra_comm_bytes_up_total\": 1234"));
        assert!(a.contains("\"fedra_accuracy_epsilon\": 0.1"));
        assert!(a.contains("\"count\": 2, \"sum\": 2400"));
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = MetricsSnapshot::default();
        let comm = CommSnapshot::default();
        let text = render_prometheus(&snap, &comm);
        assert!(text.contains("fedra_comm_rounds_total 0"));
        let json = render_json(&snap, &comm);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
