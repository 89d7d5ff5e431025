//! Sustained-load harness for the concurrent query scheduler.
//!
//! Drives the [`QueryScheduler`] two ways and writes the numbers to
//! `BENCH_load.json` at the repo root (referenced from EXPERIMENTS.md):
//!
//! 1. **Closed loop**: 8 client threads submit-and-wait back to back —
//!    the scheduler's multi-client throughput against the serialized
//!    single-engine baseline on the same federation. The speedup is
//!    bounded by `host_cores` (recorded in the artifact).
//! 2. **Open loop**: paced submitters offer load at multiples of the
//!    baseline capacity (0.5×–4×) under a deadline class; past
//!    saturation the admission queue overflows and queued queries expire,
//!    so the shed rate climbs while p99 stays bounded by the deadline —
//!    the qps × p50/p95/p99 × shed-rate curve.
//!
//! The run ends with a determinism audit (scheduled answers replayed
//! serially must match bit for bit — the scheduler adds *zero*
//! approximation, so any drift is an ε violation) and a breaker-leak
//! check, both grepped by `ci.sh`'s load smoke.
//!
//! ```text
//! FEDRA_LOAD_MS=400 cargo run --release -p fedra-bench --example ab_load
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedra_core::{
    ClassPolicy, FraAlgorithm, FraQuery, IidEst, QueryEngine, QueryScheduler, SchedulerConfig,
};
use fedra_federation::{Federation, FederationBuilder};
use fedra_index::AggFunc;
use fedra_obs::ObsContext;
use fedra_workload::{QueryGenerator, WorkloadSpec};

const CLIENTS: usize = 8;
const SEED: u64 = 51;

/// One measured point of the open-loop curve.
struct LoadPoint {
    offered_qps: f64,
    achieved_qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    shed_rate: f64,
    submitted: usize,
    shed: usize,
}

fn stand_up() -> (Arc<Federation>, Vec<FraQuery>) {
    let spec = WorkloadSpec::default()
        .with_total_objects(60_000)
        .with_silos(6)
        .with_seed(SEED);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let bounds = dataset.bounds();
    let federation = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .lsr_seed(SEED ^ 0x15AF)
        .build(dataset.into_partitions());
    let mut generator = QueryGenerator::new(&all, SEED ^ 0x9E37);
    let queries = generator
        .circles(2.0, 512)
        .into_iter()
        .map(|range| FraQuery::new(range, AggFunc::Count))
        .collect();
    (Arc::new(federation), queries)
}

fn factory(seed: u64) -> Box<dyn FraAlgorithm> {
    Box::new(IidEst::new(seed))
}

/// Per-query seed: a fixed function of the query index, so the
/// determinism audit can replay any submission serially.
fn query_seed(i: usize) -> u64 {
    0x51ED_0000 + i as u64
}

/// ns → ms for the histogram percentiles (`None` before any observation).
fn pct_ms(hist: Option<&fedra_obs::HistogramSnapshot>, q: f64) -> f64 {
    hist.and_then(|h| h.quantile(q))
        .map_or(f64::NAN, |ns| ns as f64 / 1e6)
}

/// One open-loop point: `CLIENTS` paced submitters offer `offered_qps`
/// for `window`; every ticket is then drained and sheds counted.
fn run_open_loop(
    federation: &Arc<Federation>,
    queries: &[FraQuery],
    offered_qps: f64,
    window: Duration,
) -> LoadPoint {
    let obs = Arc::new(ObsContext::new());
    let config = SchedulerConfig {
        classes: vec![ClassPolicy::with_deadline(
            "rt",
            1024,
            Duration::from_millis(50),
        )],
        ..SchedulerConfig::default()
    };
    let sched = Arc::new(QueryScheduler::start(
        Arc::clone(federation),
        factory,
        config,
        Arc::clone(&obs),
    ));
    let queue_full = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut results: Vec<Result<(), ()>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..CLIENTS {
            let sched = Arc::clone(&sched);
            let queue_full = Arc::clone(&queue_full);
            let rate = offered_qps / CLIENTS as f64;
            handles.push(scope.spawn(move || {
                // Slot pacing: fire the slot's quota, sleep the remainder
                // of the slot — sleep granularity stops mattering.
                const SLOT: Duration = Duration::from_millis(5);
                let per_slot = (rate * SLOT.as_secs_f64()).max(1.0) as usize;
                let mut tickets = Vec::new();
                let mut cursor = client; // interleave the query list
                let begun = Instant::now();
                while begun.elapsed() < window {
                    let slot_end = Instant::now() + SLOT;
                    for _ in 0..per_slot {
                        let q = queries[cursor % queries.len()];
                        match sched.submit(q, query_seed(cursor), 0) {
                            Ok(t) => tickets.push(t),
                            Err(_) => {
                                queue_full.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        cursor += CLIENTS;
                    }
                    if let Some(nap) = slot_end.checked_duration_since(Instant::now()) {
                        std::thread::sleep(nap);
                    }
                }
                tickets
                    .into_iter()
                    .map(|t| t.wait().map(|_| ()).map_err(|_| ()))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            results.extend(h.join().expect("client thread"));
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let accepted = results.len();
    let completed = results.iter().filter(|r| r.is_ok()).count();
    let shed = accepted - completed + queue_full.load(Ordering::Relaxed);
    let submitted = accepted + queue_full.load(Ordering::Relaxed);
    let snap = obs.registry().snapshot();
    let hist = snap.histograms.get("fedra_sched_latency_ns");
    LoadPoint {
        offered_qps,
        achieved_qps: completed as f64 / elapsed,
        p50_ms: pct_ms(hist, 0.50),
        p95_ms: pct_ms(hist, 0.95),
        p99_ms: pct_ms(hist, 0.99),
        shed_rate: shed as f64 / submitted.max(1) as f64,
        submitted,
        shed,
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Duration::from_millis(
        std::env::var("FEDRA_LOAD_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1200),
    );
    let (federation, queries) = stand_up();

    // Serialized-engine baseline: one engine, one worker, the whole batch
    // back to back. Warm once, keep the best of three.
    let alg = IidEst::new(SEED ^ 0x33);
    let engine = QueryEngine::with_workers(&alg, 1);
    engine.execute_batch(&federation, &queries);
    let baseline_qps = (0..3)
        .map(|_| engine.execute_batch(&federation, &queries).throughput_qps)
        .fold(0.0f64, f64::max);
    println!("serialized baseline: {baseline_qps:.0} q/s on {cores} core(s)");

    // Closed loop: 8 clients, submit-and-wait, deadline-free.
    let obs = Arc::new(ObsContext::new());
    let sched = Arc::new(QueryScheduler::start(
        Arc::clone(&federation),
        factory,
        SchedulerConfig::default(),
        Arc::clone(&obs),
    ));
    let per_client = queries.len() / CLIENTS;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let sched = Arc::clone(&sched);
            let queries = &queries;
            scope.spawn(move || {
                for i in 0..per_client {
                    let idx = client * per_client + i;
                    let t = sched
                        .submit(queries[idx], query_seed(idx), 0)
                        .expect("deadline-free class admits");
                    t.wait().expect("closed-loop query answers");
                }
            });
        }
    });
    let closed_qps = (per_client * CLIENTS) as f64 / started.elapsed().as_secs_f64();
    let speedup = closed_qps / baseline_qps.max(1e-9);
    println!(
        "closed loop ({CLIENTS} clients): {closed_qps:.0} q/s ({speedup:.2}x baseline, bound: {cores} core(s))"
    );

    // Open loop: offered load from half capacity to 4x capacity.
    let mut curve = Vec::new();
    for mult in [0.5, 1.0, 2.0, 4.0] {
        let point = run_open_loop(&federation, &queries, baseline_qps * mult, window);
        println!(
            "offered {:>7.0} q/s: achieved {:>7.0} q/s, p50 {:>7.2} ms, p95 {:>7.2} ms, p99 {:>7.2} ms, shed {:>5.1} % ({}/{})",
            point.offered_qps,
            point.achieved_qps,
            point.p50_ms,
            point.p95_ms,
            point.p99_ms,
            point.shed_rate * 100.0,
            point.shed,
            point.submitted,
        );
        curve.push(point);
    }
    let total_shed: usize = curve.iter().map(|p| p.shed).sum();
    println!("shed total: {total_shed}");

    // Determinism audit: every scheduled answer must be bit-identical to
    // serial execution of the same (query, seed) — the scheduler adds no
    // approximation of its own, so any drift is an ε violation.
    let audit_obs = Arc::new(ObsContext::new());
    let audit = QueryScheduler::start(
        Arc::clone(&federation),
        factory,
        SchedulerConfig::default(),
        audit_obs,
    );
    let audit_n = 64.min(queries.len());
    let tickets: Vec<_> = (0..audit_n)
        .map(|i| {
            audit
                .submit(queries[i], query_seed(i), 0)
                .expect("audit submit")
        })
        .collect();
    let mut violations = 0usize;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().expect("audit query answers");
        let alg = factory(query_seed(i));
        let serial = QueryEngine::with_workers(alg.as_ref(), 1).execute_batch_with(
            &federation,
            &queries[i..=i],
            &ObsContext::new(),
        );
        let want = serial.results[0].as_ref().expect("serial query answers");
        if got.value.to_bits() != want.value.to_bits() {
            violations += 1;
        }
    }
    println!("load ε violations: {violations}");
    println!("breaker leaks: {}", federation.health().non_closed().len());

    let curve_json = curve
        .iter()
        .map(|p| {
            format!(
                "{{\"offered_qps\": {:.1}, \"achieved_qps\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"shed_rate\": {:.4}, \"submitted\": {}, \"shed\": {}}}",
                p.offered_qps,
                p.achieved_qps,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                p.shed_rate,
                p.submitted,
                p.shed
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"ab_load\",\n  \"host_cores\": {cores},\n  \"point\": {{\"data_size\": 60000, \"num_silos\": 6, \"radius_km\": 2.0, \"window_ms\": {}}},\n  \"baseline_qps\": {baseline_qps:.1},\n  \"closed_loop\": {{\"clients\": {CLIENTS}, \"qps\": {closed_qps:.1}, \"speedup\": {speedup:.3}, \"note\": \"speedup is bounded by host_cores; on a single-core runner the scheduler cannot beat the serialized engine, and the ratio measures scheduling overhead (tick loop, per-query algorithm construction, ticket wake-ups) instead of concurrency\"}},\n  \"curve\": [\n    {curve_json}\n  ],\n  \"shed_total\": {total_shed},\n  \"epsilon_violations\": {violations}\n}}\n",
        window.as_millis(),
    );
    // FEDRA_LOAD_OUT redirects the artifact (ci.sh archives a short-window
    // smoke run under target/ci/ without touching the committed JSON).
    let path = std::env::var("FEDRA_LOAD_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_load.json").to_string()
    });
    std::fs::write(&path, json).expect("write BENCH_load.json");
    println!("wrote {path}");
}
