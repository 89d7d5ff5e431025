//! The metric names and units this harness emits. `BENCHMARK.json` lists
//! the same names; a unit test keeps the two in step.

/// End-to-end metrics, emitted by every `--trace 0` run of every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("comm_bytes_per_query", "B"),
    ("index_mem_mb", "MiB"),
];

/// Value a per-layer metric takes when it was not measured: the layer is
/// not on this workload's path, or the `fedra_*` series it reads is absent.
/// No measured metric here can be negative.
pub const NOT_MEASURED: f64 = -1.0;

/// Per-layer metrics, emitted by every `--trace 1` run of every workload.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("host.spin_ms", "ms"),
    ("workload.generate_s", "s"),
    ("index.rtree_build_s", "s"),
    ("index.lsr_build_s", "s"),
    ("index.rtree_probe_ns", "ns"),
    ("index.lsr_probe_ns", "ns"),
    ("index.lsr_level_mean", "level"),
    ("core.plan_ns", "ns"),
    ("core.finish_ns", "ns"),
    ("federation.wire.encode_ns", "ns"),
    ("federation.wire.decode_ns", "ns"),
    ("federation.wire.request_bytes", "B"),
    ("federation.wire.response_bytes", "B"),
    ("federation.transport.ping_rtt_ns", "ns"),
    ("federation.transport.frames_per_query", "count"),
    ("federation.transport.bytes_up_per_query", "B"),
    ("federation.transport.bytes_down_per_query", "B"),
    ("federation.silo.call_ns", "ns"),
    ("federation.silo.handle_est_ns", "ns"),
    ("federation.silo.served_imbalance", "ratio"),
    ("core.framework.batch_wall_ns", "ns"),
    ("core.framework.rounds_per_batch", "count"),
    ("core.framework.vs_sequential_ratio", "ratio"),
    ("core.scheduler.submit_ns", "ns"),
    ("core.scheduler.engine_ratio", "ratio"),
    ("core.scheduler.queue_wait_ns", "ns"),
    ("core.scheduler.riders_per_frame", "count"),
    ("core.scheduler.ticks_per_query", "count"),
    ("obs.span_plan_ns", "ns"),
    ("obs.span_remote_ns", "ns"),
    ("obs.span_finish_ns", "ns"),
    ("core.retries_total", "count"),
    ("core.hedges_total", "count"),
    ("obs.overhead_pct", "%"),
    ("chain.query_self_ns", "ns"),
    ("share.ping_rtt_pct", "%"),
    ("share.silo_call_pct", "%"),
    ("e2e.qps_untraced", "1/s"),
    ("e2e.qps_traced", "1/s"),
    ("e2e.latency_p95_us", "us"),
    ("e2e.latency_p99_us", "us"),
    ("e2e.mre_pct", "%"),
    ("e2e.failed_share", "ratio"),
    ("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let spec = spec();
        assert_eq!(names_and_units(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&spec, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_setup_has_the_widest_bound() {
        let spec = spec();
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        let bounds: Vec<(String, f64)> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        assert!(bounds.iter().all(|(_, b)| *b <= setup && *b <= 0.25));
    }
}
