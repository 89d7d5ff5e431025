//! The `--trace 1` run: every per-layer metric, measured from outside.
//!
//! Three sources, none of them inside the program:
//! 1. a *hand-pumped chain* — the check queries driven one by one through
//!    `plan_with` → `Wire::to_bytes` → `SiloChannel::call` /
//!    `Federation::broadcast` → `Wire::from_bytes` → `finish_with`, with a
//!    harness span around each call;
//! 2. direct calls into `fedra::index` on silo 0's partition;
//! 3. the program's existing public snapshots (`query_comm`,
//!    `served_per_silo`, a live `ObsContext`) read around a traced window
//!    of the workload's own closed loop, next to an untraced window of the
//!    same length — their difference is `obs.overhead_pct`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedra::core::{QueryPlan, RemotePlan};
use fedra::federation::wire::Wire;
use fedra::federation::{LocalMode, Request, Response};
use fedra::index::lsr::LsrForest;
use fedra::index::rtree::{RTree, RTreeConfig};
use fedra::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::e2e::{self, Outcome, WARMUP};
use crate::inputs::{Inputs, CHECK_QUERIES};
use crate::json::Json;
use crate::spec::{NOT_MEASURED, PER_LAYER};
use crate::stats;
use crate::trace::{SpanId, SpanLog};
use crate::workloads::{self, Driver, Observe, Workload};

/// Pings per run for `federation.transport.ping_rtt_ns`.
const PINGS: usize = 2000;
/// Window spans written to the trace file (the scheduler workloads record
/// two per query — hundreds of thousands; the file keeps the first ones
/// and says how many there were).
const SPANS_WRITTEN: usize = 20_000;

/// A fixed arithmetic kernel, timed: how fast this host is right now. The
/// shared 2-core hosts this runs on drift by ±10 % over minutes, so a
/// per-layer number that moved together with this one did not move.
fn host_spin_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// The per-layer values of one run, checked against the declared names.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Median of `samples`, or not-measured when there are none.
    fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, stats::median(samples).unwrap_or(NOT_MEASURED));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(NOT_MEASURED)
    }
}

/// Mean of a `fedra_*` histogram; not-measured when the series is absent
/// or empty (a later PR may rename it — that must not fail the run).
fn histogram_mean(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .histograms
        .get(name)
        .filter(|h| h.count > 0)
        .map_or(NOT_MEASURED, |h| h.sum as f64 / h.count as f64)
}

/// A `fedra_*` counter; an absent counter was never incremented.
fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counters.get(name).map_or(0.0, |&c| c as f64)
}

/// `fedra::index` timed directly on silo 0's partition: both builds, then
/// one probe per check query.
fn index_layer(inputs: &Inputs, tallies: &[(f64, f64)], layers: &mut Layers) {
    let partition = &inputs.partitions[0];
    let objects = partition.clone();
    let started = Instant::now();
    let rtree = RTree::bulk_load(objects, RTreeConfig::default());
    layers.set("index.rtree_build_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let forest = LsrForest::build(
        partition,
        RTreeConfig::default(),
        &mut StdRng::seed_from_u64(inputs.seeds.lsr),
    );
    layers.set("index.lsr_build_s", started.elapsed().as_secs_f64());

    let queries = &inputs.pool[..CHECK_QUERIES];
    let mut rtree_ns = Vec::with_capacity(queries.len());
    let mut lsr_ns = Vec::with_capacity(queries.len());
    let mut levels = 0usize;
    for (query, &(count, _)) in queries.iter().zip(tallies) {
        let started = Instant::now();
        black_box(rtree.aggregate(black_box(&query.range)));
        rtree_ns.push(started.elapsed().as_nanos() as f64);
        // sum₀ is the federation-wide COUNT, as the provider would send it.
        let started = Instant::now();
        let (_, level) = black_box(forest.query(black_box(&query.range), 0.1, 0.01, count));
        lsr_ns.push(started.elapsed().as_nanos() as f64);
        levels += level;
    }
    layers.set_median("index.rtree_probe_ns", &rtree_ns);
    layers.set_median("index.lsr_probe_ns", &lsr_ns);
    layers.set("index.lsr_level_mean", levels as f64 / queries.len() as f64);
}

/// What the hand-pumped chain produced.
struct Chain {
    answers: Vec<f64>,
    failed: u64,
    spans: SpanLog,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

/// Re-encodes `response` and times decoding it back: the harness only
/// ever receives decoded responses, so this is the one way to time
/// `Wire::from_bytes` on the exact bytes that travelled.
fn timed_decode(
    chain: &mut Chain,
    response: &Response,
    root: SpanId,
    query: u64,
) -> Result<Response, FraError> {
    let bytes = response.to_bytes();
    chain.response_bytes.push(bytes.len() as f64);
    chain
        .spans
        .time("federation.wire.decode", Some(root), query, || {
            Response::from_bytes(bytes)
        })
        .map_err(|e| FraError::Internal {
            message: format!("response does not round-trip the wire: {e}"),
        })
}

/// One query through an estimator's plan/finish split.
fn pump_planned(
    chain: &mut Chain,
    algorithm: &dyn FraAlgorithm,
    federation: &Federation,
    query: &FraQuery,
    root: SpanId,
    id: u64,
) -> Result<QueryResult, FraError> {
    let noop = ObsContext::noop();
    let plan = chain.spans.time("core.plan", Some(root), id, || {
        algorithm.plan_with(federation, query, noop)
    });
    let RemotePlan { order, request } = match plan {
        QueryPlan::Ready(outcome) => return outcome,
        QueryPlan::SingleSilo(remote) => remote,
    };
    // Timed for its own sake: `call` below encodes the request again.
    let frame = chain
        .spans
        .time("federation.wire.encode", Some(root), id, || {
            request.to_bytes()
        });
    chain.request_bytes.push(frame.len() as f64);
    let silo = order[0];
    let response = chain
        .spans
        .time("federation.silo.call", Some(root), id, || {
            federation.channel(silo).call(&request)
        })
        .map_err(FraError::SiloFailed)?;
    let decoded = timed_decode(chain, &response, root, id)?;
    chain.spans.time("core.finish", Some(root), id, || {
        algorithm.finish_with(federation, query, silo, decoded, 1, noop)
    })
}

/// One query through EXACT's fan-out: one request, every silo, merge.
fn pump_fanout(
    chain: &mut Chain,
    federation: &Federation,
    query: &FraQuery,
    root: SpanId,
    id: u64,
) -> Result<QueryResult, FraError> {
    let request = chain
        .spans
        .time("core.plan", Some(root), id, || Request::Aggregate {
            range: query.range,
            mode: LocalMode::Exact,
        });
    let frame = chain
        .spans
        .time("federation.wire.encode", Some(root), id, || {
            request.to_bytes()
        });
    chain.request_bytes.push(frame.len() as f64);
    let replies = chain
        .spans
        .time("federation.silo.call", Some(root), id, || {
            federation.broadcast(&request)
        });
    let mut partials = Vec::with_capacity(replies.len());
    for (silo, reply) in replies.into_iter().enumerate() {
        let response = reply.map_err(FraError::SiloFailed)?;
        match timed_decode(chain, &response, root, id)? {
            Response::Agg(partial) => partials.push(partial),
            _ => {
                return Err(FraError::ProtocolViolation {
                    silo,
                    expected: "Agg",
                })
            }
        }
    }
    Ok(chain.spans.time("core.finish", Some(root), id, || {
        let mut total = Aggregate::ZERO;
        for partial in &partials {
            total.merge_in(partial);
        }
        QueryResult::from_aggregate(total, query.func)
    }))
}

/// Drives the check queries through the layer chain by hand, with the
/// check pass's seeds — so its answers must equal the check pass's bit
/// for bit, which is what shows the spans time the same work.
fn pump_chain(workload: &Workload, inputs: &Inputs, federation: &Federation) -> Chain {
    let mut chain = Chain {
        answers: Vec::with_capacity(CHECK_QUERIES),
        failed: 0,
        spans: SpanLog::default(),
        request_bytes: Vec::new(),
        response_bytes: Vec::new(),
    };
    // The scheduler builds one estimator per submission; the other two
    // drivers run the whole stream through one instance.
    let shared = (workload.driver != Driver::Scheduler)
        .then(|| workload.algo.instance(inputs.seeds.algorithm));
    for (i, query) in inputs.pool[..CHECK_QUERIES].iter().enumerate() {
        let fresh;
        let algorithm: &dyn FraAlgorithm = match &shared {
            Some(algorithm) => algorithm.as_ref(),
            None => {
                fresh = workload.algo.instance(inputs.seeds.query(i));
                fresh.as_ref()
            }
        };
        let id = i as u64;
        let root = chain.spans.open("chain.query", id);
        let outcome = if algorithm.supports_planning() {
            pump_planned(&mut chain, algorithm, federation, query, root, id)
        } else {
            pump_fanout(&mut chain, federation, query, root, id)
        };
        chain.spans.close(root);
        match outcome {
            Ok(result) if result.coverage.is_none() => chain.answers.push(result.value),
            _ => {
                chain.failed += 1;
                chain.answers.push(f64::NAN);
            }
        }
    }
    chain
}

/// Round trips of `Request::Ping` through the workload's backend, spread
/// over the silos: the transport's floor under any request.
fn ping_rtts_ns(federation: &Federation) -> (Vec<f64>, u64) {
    let mut failed = 0;
    let rtts = (0..PINGS)
        .filter_map(|i| {
            let channel = federation.channel(i % federation.num_silos());
            let started = Instant::now();
            let reply = channel.call(&Request::Ping);
            let rtt = started.elapsed().as_nanos() as f64;
            if reply.is_err() {
                failed += 1;
            }
            reply.ok().map(|_| rtt)
        })
        .collect();
    (rtts, failed)
}

fn print_table(workload: &Workload, layers: &Layers) {
    println!(
        "{}: per-layer metrics ({} = not on this workload's path, or series absent)",
        workload.name, NOT_MEASURED
    );
    for (name, unit) in PER_LAYER {
        println!("  {name:<44} {:>16.3} {unit}", layers.get(name));
    }
}

pub fn run(workload: &Workload, inputs: &Inputs, seconds: f64) -> Outcome {
    let mut layers = Layers(BTreeMap::new());
    let mut spins = vec![host_spin_ms()];
    layers.set("workload.generate_s", inputs.generate_s);
    let tallies = e2e::tallies(inputs);
    let truth = e2e::truth(inputs, &tallies);
    index_layer(inputs, &tallies, &mut layers);

    let (federation, _) = workloads::stand_up(inputs, workload.backend);
    let pass = workloads::check_pass(workload, inputs, &federation);
    let mut attempted = CHECK_QUERIES as u64;
    let mut failed = pass.failed;

    // 1. The hand-pumped chain.
    let chain = pump_chain(workload, inputs, &federation);
    attempted += CHECK_QUERIES as u64;
    failed += chain.failed;
    for (metric, span) in [
        ("core.plan_ns", "core.plan"),
        ("core.finish_ns", "core.finish"),
        ("federation.wire.encode_ns", "federation.wire.encode"),
        ("federation.wire.decode_ns", "federation.wire.decode"),
        ("federation.silo.call_ns", "federation.silo.call"),
    ] {
        layers.set_median(metric, &chain.spans.durations_ns(span));
    }
    layers.set_median(
        "chain.query_self_ns",
        &chain.spans.self_times_ns("chain.query"),
    );
    layers.set_median("federation.wire.request_bytes", &chain.request_bytes);
    layers.set_median("federation.wire.response_bytes", &chain.response_bytes);
    let (pings, ping_failures) = ping_rtts_ns(&federation);
    attempted += PINGS as u64;
    failed += ping_failures;
    layers.set_median("federation.transport.ping_rtt_ns", &pings);
    let (call, ping) = (
        layers.get("federation.silo.call_ns"),
        layers.get("federation.transport.ping_rtt_ns"),
    );
    if call >= 0.0 && ping >= 0.0 {
        layers.set("federation.silo.handle_est_ns", (call - ping).max(0.0));
    }

    spins.push(host_spin_ms());

    // 2. The workload's own loop: untraced, then traced, same length.
    let slice = |share: f64| Duration::from_secs_f64(seconds * share);
    workloads::run_window(workload, inputs, &federation, WARMUP, 0, &Observe::Off);
    let untraced =
        workloads::run_window(workload, inputs, &federation, slice(0.35), 0, &Observe::Off);
    spins.push(host_spin_ms());
    let obs = Arc::new(ObsContext::new());
    let comm_before = federation.query_comm();
    let served_before = federation.served_per_silo();
    let traced = workloads::run_window(
        workload,
        inputs,
        &federation,
        slice(0.35),
        0,
        &Observe::Traced(Arc::clone(&obs)),
    );
    let comm = federation.query_comm().since(&comm_before);
    let served: Vec<f64> = federation
        .served_per_silo()
        .iter()
        .zip(&served_before)
        .map(|(after, before)| (after - before) as f64)
        .collect();
    let snapshot = obs.snapshot();
    spins.push(host_spin_ms());
    attempted += untraced.queries + traced.queries;
    failed += untraced.failed + traced.failed;

    let per_query = |total: u64| total as f64 / traced.queries.max(1) as f64;
    layers.set(
        "federation.transport.frames_per_query",
        per_query(comm.rounds),
    );
    layers.set(
        "federation.transport.bytes_up_per_query",
        per_query(comm.bytes_up),
    );
    layers.set(
        "federation.transport.bytes_down_per_query",
        per_query(comm.bytes_down),
    );
    let served_mean = served.iter().sum::<f64>() / served.len() as f64;
    if served_mean > 0.0 {
        let served_max = served.iter().copied().fold(0.0, f64::max);
        layers.set("federation.silo.served_imbalance", served_max / served_mean);
    }
    layers.set("e2e.qps_untraced", untraced.qps());
    layers.set("e2e.qps_traced", traced.qps());
    layers.set(
        "obs.overhead_pct",
        100.0 * (untraced.qps() - traced.qps()) / untraced.qps(),
    );
    for (metric, p) in [("e2e.latency_p95_us", 95.0), ("e2e.latency_p99_us", 99.0)] {
        let tail = stats::percentile(&untraced.latencies_us, p);
        layers.set(metric, tail.unwrap_or(NOT_MEASURED));
    }
    for (metric, span) in [
        ("obs.span_plan_ns", "plan"),
        ("obs.span_remote_ns", "remote"),
        ("obs.span_finish_ns", "finish"),
    ] {
        let series = format!("fedra_span_ns{{name=\"{span}\"}}");
        layers.set(metric, histogram_mean(&snapshot, &series));
    }
    layers.set(
        "core.retries_total",
        counter(&snapshot, "fedra_retries_total"),
    );
    layers.set(
        "core.hedges_total",
        counter(&snapshot, "fedra_hedges_fired_total"),
    );
    let per_query_ns = 1e9 / untraced.qps();
    if ping >= 0.0 {
        layers.set("share.ping_rtt_pct", 100.0 * ping / per_query_ns);
    }
    if call >= 0.0 {
        layers.set("share.silo_call_pct", 100.0 * call / per_query_ns);
    }

    // 3. What only one driver has, and the driver it is compared with.
    match workload.driver {
        Driver::Batch => {
            layers.set(
                "core.framework.batch_wall_ns",
                histogram_mean(&snapshot, "fedra_batch_wall_ns"),
            );
            let batches = traced.latencies_us.len().max(1) as f64;
            layers.set(
                "core.framework.rounds_per_batch",
                comm.rounds as f64 / batches,
            );
            let sequential = workloads::single_window(
                workload,
                inputs,
                &federation,
                slice(0.15),
                inputs.seeds.algorithm,
                &Observe::Off,
            );
            attempted += sequential.queries;
            failed += sequential.failed;
            layers.set(
                "core.framework.vs_sequential_ratio",
                untraced.qps() / sequential.qps(),
            );
        }
        Driver::Scheduler => {
            layers.set_median(
                "core.scheduler.submit_ns",
                &traced.spans.durations_ns("sched.submit"),
            );
            layers.set(
                "core.scheduler.queue_wait_ns",
                histogram_mean(&snapshot, "fedra_sched_queue_wait_ns"),
            );
            layers.set(
                "core.scheduler.riders_per_frame",
                histogram_mean(&snapshot, "fedra_sched_frame_riders"),
            );
            if let Some(&ticks) = snapshot.counters.get("fedra_sched_ticks_total") {
                layers.set("core.scheduler.ticks_per_query", per_query(ticks));
            }
            let engine = workloads::batch_window(
                workload,
                inputs,
                &federation,
                slice(0.15),
                inputs.seeds.algorithm,
                &Observe::Off,
            );
            attempted += engine.queries;
            failed += engine.failed;
            layers.set("core.scheduler.engine_ratio", untraced.qps() / engine.qps());
        }
        Driver::Single => {}
    }

    spins.push(host_spin_ms());
    layers.set_median("host.spin_ms", &spins);

    // The gate, with the chain as one more replay of the check pass.
    let chain_replay = [(
        "hand-pumped plan → call → finish chain".to_string(),
        chain.answers,
    )];
    let (violations, mre_pct) = e2e::judge(workload, &pass, &truth, &chain_replay, failed);
    layers.set("e2e.mre_pct", mre_pct);
    layers.set("e2e.failed_share", failed as f64 / attempted as f64);
    let spans_total = chain.spans.len() + traced.spans.len();
    layers.set("trace.spans", spans_total as f64);
    print_table(workload, &layers);

    let origin = chain.spans.first_start().unwrap_or_else(Instant::now);
    let detail = Json::obj([
        ("spans_recorded", Json::Num(spans_total as f64)),
        ("chain_spans", chain.spans.to_json(origin, usize::MAX)),
        ("window_spans", traced.spans.to_json(origin, SPANS_WRITTEN)),
        (
            "untraced_latency_samples",
            Json::Num(untraced.latencies_us.len() as f64),
        ),
    ]);
    Outcome {
        attempted,
        failed,
        violations,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name)))
            .collect(),
        detail,
    }
}
