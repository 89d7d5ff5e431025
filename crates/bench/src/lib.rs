//! Shared harness for the paper-reproduction experiments.
//!
//! Every `fig*_*` bench target builds on the same recipe:
//!
//! 1. take a [`ParamPoint`] from the Tab. 2 sweep ([`SweepConfig`]),
//! 2. generate the workload and stand up a federation,
//! 3. run the same `nQ`-query batch through all six algorithms,
//! 4. record the paper's four metrics — MRE, total running time,
//!    total communication cost, and index memory,
//! 5. print one table per metric (the series of the corresponding figure)
//!    and append machine-readable rows to `crates/bench/results/<figure>.csv`.
//!
//! Scale is governed by `FEDRA_SCALE` (default 0.2 → 600 k objects at the
//! default point; set 1.0 for the paper's 3 × 10⁶).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::io::Write as _;
use std::time::{Duration, Instant};

use fedra_core::{
    AccuracyParams, Exact, FraAlgorithm, FraQuery, IidEst, IidEstLsr, NonIidEst, NonIidEstLsr,
    Opta, QueryEngine,
};
use fedra_federation::{Federation, FederationBuilder};
use fedra_index::AggFunc;
use fedra_workload::{ParamPoint, QueryGenerator, WorkloadSpec};

pub use fedra_workload::SweepConfig;

/// The six compared algorithms, in the paper's legend order.
pub const ALGORITHM_NAMES: [&str; 6] = [
    "EXACT",
    "OPTA",
    "IID-est",
    "IID-est+LSR",
    "NonIID-est",
    "NonIID-est+LSR",
];

/// One algorithm's measurements at one sweep point.
#[derive(Debug, Clone)]
pub struct AlgoMetrics {
    /// Algorithm display name.
    pub name: &'static str,
    /// Mean relative error over the batch, in percent.
    pub mre_percent: f64,
    /// Total running time for the batch, in milliseconds.
    pub time_ms: f64,
    /// Communication cost of the batch's queries executed one at a time
    /// (the paper's per-query protocol), in kilobytes.
    pub comm_kb: f64,
    /// Index memory attributable to this algorithm, in megabytes.
    pub memory_mb: f64,
    /// Batch throughput, queries per second.
    pub throughput_qps: f64,
}

/// One sweep point's results: the x-axis value plus per-algorithm metrics.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Human-readable x-axis value ("1.5", "600000", …).
    pub x: String,
    /// Metrics for each algorithm, in [`ALGORITHM_NAMES`] order.
    pub algos: Vec<AlgoMetrics>,
}

/// A standing federation plus the raw objects (for query anchoring).
///
/// Sweeps that do not change the data or the grid (radius, nQ, ε, δ)
/// reuse one testbed across points; the others rebuild per point.
pub struct Testbed {
    /// The running federation.
    pub federation: Federation,
    /// Every object, flattened (query centers are drawn from these).
    pub all_objects: Vec<fedra_geo::SpatialObject>,
}

/// Builds the workload and federation for a sweep point.
pub fn build_testbed(point: &ParamPoint, seed: u64) -> Testbed {
    let spec = WorkloadSpec::default()
        .with_total_objects(point.data_size)
        .with_silos(point.num_silos)
        .with_seed(seed);
    let dataset = spec.generate();
    let all_objects = dataset.all_objects();
    let bounds = dataset.bounds();
    let federation = FederationBuilder::new(bounds)
        .grid_cell_len(point.grid_len_km)
        .lsr_seed(seed ^ 0x15AF)
        .build(dataset.into_partitions());
    Testbed {
        federation,
        all_objects,
    }
}

/// Builds the federation and query batch for a sweep point and runs all
/// six algorithms over it.
pub fn run_point(point: &ParamPoint, seed: u64) -> PointResult {
    let testbed = build_testbed(point, seed);
    run_algorithms(&testbed, point, seed)
}

/// Runs the six-algorithm comparison on an existing testbed.
pub fn run_algorithms(testbed: &Testbed, point: &ParamPoint, seed: u64) -> PointResult {
    let federation = &testbed.federation;
    let mut generator = QueryGenerator::new(&testbed.all_objects, seed ^ 0x9E37);
    let queries: Vec<FraQuery> = generator
        .circles(point.radius_km, point.num_queries)
        .into_iter()
        .map(|range| FraQuery::new(range, AggFunc::Count))
        .collect();

    // Ground truth once per point.
    let exact_alg = Exact::new();
    let exact_values: Vec<f64> = {
        let engine = QueryEngine::per_silo(&exact_alg, federation);
        let batch = engine.execute_batch(federation, &queries);
        batch
            .results
            .iter()
            .map(|r| r.as_ref().expect("exact query").value)
            .collect()
    };

    let params = AccuracyParams::new(point.epsilon, point.delta);
    let algorithms: Vec<Box<dyn FraAlgorithm>> = vec![
        Box::new(Exact::new()),
        Box::new(Opta::new()),
        Box::new(IidEst::new(seed ^ 0x11)),
        Box::new(IidEstLsr::new(seed ^ 0x22, params)),
        Box::new(NonIidEst::new(seed ^ 0x33)),
        Box::new(NonIidEstLsr::new(seed ^ 0x44, params)),
    ];

    let algos = algorithms
        .iter()
        .map(|alg| measure_algorithm(alg.as_ref(), federation, &queries, &exact_values))
        .collect();

    PointResult {
        x: String::new(),
        algos,
    }
}

/// Runs one algorithm over the batch and collects the four paper metrics.
pub fn measure_algorithm(
    algorithm: &dyn FraAlgorithm,
    federation: &Federation,
    queries: &[FraQuery],
    exact_values: &[f64],
) -> AlgoMetrics {
    let engine = QueryEngine::per_silo(algorithm, federation);
    let batch = engine.execute_batch(federation, queries);
    // Figs. 3c–9c report the paper's protocol cost — every query its own
    // message pair per silo it contacts (Alg. 4 runs queries in parallel,
    // it does not merge their messages) — so communication is read from a
    // query-for-query pass, the same for all six algorithms. The engine's
    // cross-query frame coalescing is this repo's extension; `bench/` and
    // `micro_transport` measure it.
    let before = federation.query_comm();
    for query in queries {
        let _ = algorithm.try_execute(federation, query);
    }
    let comm = federation.query_comm().since(&before);
    AlgoMetrics {
        name: leak_name(algorithm.name()),
        mre_percent: batch.mean_relative_error(exact_values) * 100.0,
        time_ms: batch.wall_time.as_secs_f64() * 1e3,
        comm_kb: comm.total_bytes() as f64 / 1024.0,
        memory_mb: algorithm_memory_bytes(algorithm.name(), federation) as f64 / (1024.0 * 1024.0),
        throughput_qps: batch.throughput_qps,
    }
}

fn leak_name(name: &str) -> &'static str {
    ALGORITHM_NAMES
        .iter()
        .find(|n| **n == name)
        .copied()
        .unwrap_or("?")
}

/// Index memory attributable to an algorithm (Figs. 3d–9d): each algorithm
/// only pays for the indexes it actually uses.
///
/// * EXACT — silo aggregate R-trees;
/// * OPTA — silo histograms;
/// * IID-est / NonIID-est — silo R-trees + the provider's grid machinery
///   (per-silo grids, `g₀`, cumulative arrays) + silo grids;
/// * +LSR variants — additionally the LSR-Forest's extra levels.
pub fn algorithm_memory_bytes(name: &str, federation: &Federation) -> u64 {
    let reports = federation.silo_memory_reports();
    let rtrees: u64 = reports.iter().map(|r| r.rtree).sum();
    let lsr_extra: u64 = reports.iter().map(|r| r.lsr_extra).sum();
    let silo_grids: u64 = reports.iter().map(|r| r.grid).sum();
    let histograms: u64 = reports.iter().map(|r| r.histogram).sum();
    let provider = federation.provider_memory_bytes();
    match name {
        "EXACT" => rtrees,
        "OPTA" => histograms,
        "IID-est" | "NonIID-est" => rtrees + silo_grids + provider,
        "IID-est+LSR" | "NonIID-est+LSR" => rtrees + lsr_extra + silo_grids + provider,
        _ => rtrees + lsr_extra + silo_grids + histograms + provider,
    }
}

/// Extracts one metric from an [`AlgoMetrics`] row.
pub type MetricFn = fn(&AlgoMetrics) -> f64;

/// The four figure panels, in the paper's (a)–(d) order.
pub const METRICS: [(&str, MetricFn); 4] = [
    ("MRE (%)", |m| m.mre_percent),
    ("running time (ms)", |m| m.time_ms),
    ("communication (KB)", |m| m.comm_kb),
    ("index memory (MB)", |m| m.memory_mb),
];

/// Prints the four metric tables for one figure and writes the CSV.
pub fn report(figure: &str, title: &str, x_label: &str, points: &[PointResult]) {
    println!();
    println!("=== {figure}: {title} ===");
    for (metric_name, extract) in METRICS {
        println!();
        println!(
            "--- {figure}{}: {metric_name} ---",
            panel_letter(metric_name)
        );
        print!("{x_label:>10}");
        for name in ALGORITHM_NAMES {
            print!("  {name:>14}");
        }
        println!();
        for p in points {
            print!("{:>10}", p.x);
            for m in &p.algos {
                let v = extract(m);
                // MRE for EXACT is identically 0; show it plainly.
                print!("  {v:>14.3}");
            }
            println!();
        }
    }
    write_csv(figure, x_label, points);
    println!();
}

fn panel_letter(metric: &str) -> &'static str {
    match metric {
        "MRE (%)" => "a",
        "running time (ms)" => "b",
        "communication (KB)" => "c",
        _ => "d",
    }
}

/// Appends machine-readable rows under `crates/bench/results/<figure>.csv`.
pub fn write_csv(figure: &str, x_label: &str, points: &[PointResult]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{figure}.csv"));
    let Ok(mut f) = std::fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(
        f,
        "{x_label},algorithm,mre_percent,time_ms,comm_kb,memory_mb,throughput_qps"
    );
    for p in points {
        for m in &p.algos {
            let _ = writeln!(
                f,
                "{},{},{:.6},{:.3},{:.3},{:.3},{:.3}",
                p.x, m.name, m.mre_percent, m.time_ms, m.comm_kb, m.memory_mb, m.throughput_qps
            );
        }
    }
    println!("[csv] wrote {}", path.display());
}

/// Stopwatch helper for bench mains.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[time] {label}: {:?}", start.elapsed());
    out
}

/// Pretty `Duration` for logs.
pub fn human(duration: Duration) -> String {
    format!("{:.2}s", duration.as_secs_f64())
}
