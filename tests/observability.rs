//! Observability-layer integration tests: span balance under silo-side
//! panic degradation, metric determinism across pool sizes, exporter
//! round-trips, and the instrumented-batch acceptance run (nQ = 250,
//! m = 6, IID-est) whose comm mirror must match the transport's own
//! accounting bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};

use fedra::core::{QueryPlan, RemotePlan};
use fedra::federation::{LocalMode, Request, Response};
use fedra::prelude::*;

fn build(
    silos: usize,
    objects: usize,
    seed: u64,
    threads: usize,
) -> (Federation, Vec<SpatialObject>) {
    let spec = WorkloadSpec::default()
        .with_total_objects(objects)
        .with_silos(silos)
        .with_seed(seed);
    let dataset = spec.generate();
    let all = dataset.all_objects();
    let fed = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .lsr_seed(99)
        .silo_threads(threads)
        .build(dataset.into_partitions());
    (fed, all)
}

fn count_queries(all: &[SpatialObject], n: usize, seed: u64) -> Vec<FraQuery> {
    let mut generator = QueryGenerator::new(all, seed);
    generator
        .circles(2.0, n)
        .into_iter()
        .map(|r| FraQuery::new(r, AggFunc::Count))
        .collect()
}

fn counter_sum_with_prefix(snapshot: &MetricsSnapshot, prefix: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// A planning algorithm whose every second query ships a request every
/// silo refuses (`Setup` with a negative cell length, which the spec's
/// decoder refuses before any handler runs). The refusal comes back as a
/// per-item `Response::Error`, the engine resamples down the candidate
/// order, and — both candidates refusing — degrades to the grid
/// estimate. Traces must stay balanced through all of it.
struct PanicEverySecond {
    tick: AtomicUsize,
}

impl FraAlgorithm for PanicEverySecond {
    fn name(&self) -> &'static str {
        "panic-mix"
    }

    fn plan_with(
        &self,
        federation: &Federation,
        query: &FraQuery,
        _obs: &fedra::obs::ObsContext,
    ) -> QueryPlan {
        let i = self.tick.fetch_add(1, Ordering::SeqCst);
        let m = federation.num_silos();
        let request = if i.is_multiple_of(2) {
            Request::Aggregate {
                range: query.range,
                mode: LocalMode::Exact,
            }
        } else {
            Request::Setup(SiloSpec {
                cell_len: -1.0,
                ..FederationBuilder::new(federation.bounds()).silo_spec(0)
            })
        };
        QueryPlan::SingleSilo(RemotePlan {
            order: vec![i % m, (i + 1) % m],
            request,
        })
    }

    fn finish_with(
        &self,
        _federation: &Federation,
        query: &FraQuery,
        silo: SiloId,
        response: Response,
        rounds: u64,
        _obs: &fedra::obs::ObsContext,
    ) -> Result<QueryResult, FraError> {
        match response {
            Response::Agg(a) => Ok(QueryResult::from_aggregate(a, query.func)
                .with_silo(silo)
                .with_rounds(rounds)),
            _ => Err(FraError::ProtocolViolation {
                silo,
                expected: "Agg",
            }),
        }
    }
}

#[test]
fn spans_stay_balanced_under_batch_panic_degradation() {
    let (fed, all) = build(3, 6_000, 101, 2);
    let queries = count_queries(&all, 12, 7);
    let alg = PanicEverySecond {
        tick: AtomicUsize::new(0),
    };
    let obs = ObsContext::new();
    let engine = QueryEngine::per_silo(&alg, &fed);
    let batch = engine.execute_batch_with(&fed, &queries, &obs);

    // Degradation, not failure: panicking queries fall back to the grid
    // estimate.
    assert_eq!(batch.failures(), 0);
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.counters["fedra_degraded_total"], 6);
    // Each odd query burns both candidates (2 resamples each).
    assert_eq!(snapshot.counters["fedra_resamples_total"], 12);

    // Every trace closed every span, even on the degraded path.
    let traces = obs.traces();
    assert_eq!(traces.len(), 12);
    for trace in &traces {
        assert!(trace.is_balanced(), "unbalanced trace: {trace:?}");
        assert!(trace.span_duration_ns("plan").is_some());
        assert!(trace.span_duration_ns("remote").is_some());
    }
    // Exactly the successful half record a finish span.
    let finished = traces
        .iter()
        .filter(|t| t.span_duration_ns("finish").is_some())
        .count();
    assert_eq!(finished, 6);

    // No silo panicked: each odd query's rider was refused by the codec
    // on 2 silos (the 12 resamples above), before any handler ran.
    let silo_panics: u64 = (0..fed.num_silos())
        .map(|k| {
            counter_sum_with_prefix(
                &fed.silo_metrics(k).snapshot(),
                "fedra_silo_batch_panics_total",
            )
        })
        .sum();
    assert_eq!(silo_panics, 0);
}

#[test]
fn metrics_are_deterministic_across_pool_sizes() {
    let run = |threads: usize| {
        let (fed, all) = build(4, 20_000, 23, threads);
        let queries = count_queries(&all, 60, 31);
        let alg = IidEstLsr::new(5, AccuracyParams::default());
        let obs = ObsContext::new();
        QueryEngine::per_silo(&alg, &fed).execute_batch_with(&fed, &queries, &obs);
        let snapshot = obs.snapshot();
        // Strip timing histograms: wall-clock is the one thing allowed to
        // vary with the pool size.
        let histograms: Vec<(String, Vec<u64>)> = snapshot
            .histograms
            .iter()
            .filter(|(name, _)| !name.contains("_ns"))
            .map(|(name, h)| (name.clone(), h.buckets.clone()))
            .collect();
        let comm = obs.comm_snapshot();
        (
            snapshot.counters,
            snapshot.gauges,
            histograms,
            (comm.bytes_up, comm.bytes_down, comm.rounds),
        )
    };
    let reference = run(1);
    assert_eq!(run(4), reference, "metrics diverged across pool sizes");
}

#[test]
fn prometheus_export_round_trips() {
    let (fed, all) = build(3, 8_000, 47, 2);
    let queries = count_queries(&all, 20, 11);
    let alg = IidEst::new(9);
    let obs = ObsContext::new();
    QueryEngine::per_silo(&alg, &fed).execute_batch_with(&fed, &queries, &obs);

    let text = obs.export_prometheus();
    let parsed = fedra::obs::parse_prometheus(&text);
    let snapshot = obs.snapshot();

    // Every counter (including labeled ones) round-trips exactly.
    assert!(!snapshot.counters.is_empty());
    for (name, value) in &snapshot.counters {
        assert_eq!(
            parsed.get(name).copied(),
            Some(*value as f64),
            "counter {name} lost in round-trip"
        );
    }
    // The comm mirror is exported as the three comm counters.
    let comm = obs.comm_snapshot();
    assert_eq!(parsed["fedra_comm_bytes_up_total"], comm.bytes_up as f64);
    assert_eq!(
        parsed["fedra_comm_bytes_down_total"],
        comm.bytes_down as f64
    );
    assert_eq!(parsed["fedra_comm_rounds_total"], comm.rounds as f64);
    // Histogram counts survive the `_count`-inside-braces splice.
    assert_eq!(
        parsed["fedra_query_rounds_count"],
        snapshot.histograms["fedra_query_rounds"].count as f64
    );
    assert_eq!(
        parsed["fedra_span_ns_count{name=\"plan\"}"],
        snapshot.histograms["fedra_span_ns{name=\"plan\"}"].count as f64
    );

    // The JSON exporter carries the same totals.
    let json = obs.export_json();
    assert!(json.contains("\"fedra_queries_total\": 20"));
    assert!(json.contains("\"fedra_comm_bytes_up_total\""));
}

#[test]
fn acceptance_run_mirrors_comm_and_accounts_every_query() {
    // The PR's acceptance scenario: nQ = 250, m = 6, IID-est, fixed seed.
    let (fed, all) = build(6, 30_000, 0xACCE, 0);
    let queries = count_queries(&all, 250, 17);
    assert_eq!(queries.len(), 250);
    let alg = IidEst::new(42);
    let obs = ObsContext::new();
    fed.reset_query_comm();
    let batch = QueryEngine::per_silo(&alg, &fed).execute_batch_with(&fed, &queries, &obs);
    assert_eq!(batch.failures(), 0);

    let snapshot = obs.snapshot();
    // Every query planned remote and was answered on the first attempt:
    // per-silo request counts and the sampled-silo distribution both sum
    // to nQ.
    assert_eq!(snapshot.counters["fedra_plan_remote_total"], 250);
    assert!(!snapshot.counters.contains_key("fedra_plan_ready_total"));
    assert_eq!(
        counter_sum_with_prefix(&snapshot, "fedra_silo_requests_total"),
        250
    );
    assert_eq!(
        counter_sum_with_prefix(&snapshot, "fedra_sampled_silo_total"),
        250
    );
    // Uniform sampling: no silo is starved.
    for k in 0..6 {
        let count = snapshot
            .counters
            .get(&format!("fedra_sampled_silo_total{{silo=\"{k}\"}}"))
            .copied()
            .unwrap_or(0);
        assert!(count > 10, "silo {k} sampled only {count} of 250");
    }
    assert_eq!(snapshot.counters["fedra_queries_total"], 250);

    // The comm mirror matches the transport's own counters bit for bit.
    let mirrored = obs.comm_snapshot();
    let transport = fed.query_comm();
    assert_eq!(mirrored.bytes_up, transport.bytes_up);
    assert_eq!(mirrored.bytes_down, transport.bytes_down);
    assert_eq!(mirrored.rounds, transport.rounds);
    assert!(mirrored.total_bytes() > 0);

    // Per-phase latency histograms cover every query.
    for phase in ["plan", "remote", "finish"] {
        let hist = &snapshot.histograms[&format!("fedra_span_ns{{name=\"{phase}\"}}")];
        assert_eq!(hist.count, 250, "phase {phase}");
        assert!(hist.sum > 0);
    }
    // All 250 traces fit in the ring, balanced.
    let traces = obs.traces();
    assert_eq!(traces.len(), 250);
    assert!(traces.iter().all(|t| t.is_balanced()));
}

#[test]
fn lsr_variants_record_level_selection() {
    let (fed, all) = build(4, 20_000, 71, 2);
    let queries = count_queries(&all, 80, 13);
    let alg = IidEstLsr::new(3, AccuracyParams::default());
    let obs = ObsContext::new();
    let batch = QueryEngine::per_silo(&alg, &fed).execute_batch_with(&fed, &queries, &obs);
    assert_eq!(batch.failures(), 0);

    let snapshot = obs.snapshot();
    // The accuracy contract the estimator planned with.
    assert_eq!(snapshot.gauges["fedra_accuracy_epsilon"], 0.10);
    assert_eq!(snapshot.gauges["fedra_accuracy_delta"], 0.01);
    assert!(snapshot.histograms["fedra_sum0_count"].count >= 80);

    // Provider-side level-selection histogram: one sample per finished
    // query, and the rescale gauge holds the last 2^l factor.
    let finished = counter_sum_with_prefix(&snapshot, "fedra_sampled_silo_total");
    assert_eq!(
        counter_sum_with_prefix(&snapshot, "fedra_lsr_level_total"),
        finished
    );
    let rescale = snapshot.gauges["fedra_lsr_rescale_factor"];
    assert!(rescale >= 1.0 && rescale.log2().fract() == 0.0);

    // The sampled silos saw LSR-mode descents and recorded the level
    // they served from.
    let silo_levels: u64 = (0..fed.num_silos())
        .map(|k| {
            counter_sum_with_prefix(
                &fed.silo_metrics(k).snapshot(),
                "fedra_silo_lsr_level_total",
            )
        })
        .sum();
    assert!(
        silo_levels >= finished,
        "silo-side levels {silo_levels} < {finished}"
    );
}
