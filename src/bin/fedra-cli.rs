//! `fedra-cli` — poke a synthetic spatial data federation from the shell.
//!
//! ```text
//! fedra-cli demo                      # build a federation, show a comparison table
//! fedra-cli query --x 0 --y -95 --radius 2 --func count --algo noniid
//! fedra-cli stats                     # federation + index statistics
//! fedra-cli obs --chaos 7             # instrumented batch: metrics, traces, silo health
//! fedra-cli help
//! ```
//!
//! Global options: `--objects N` (default 60000), `--silos M` (default 6),
//! `--seed S`, `--grid-len KM`, `--iid` (IID partitions instead of
//! company-skewed). A numeric option whose value does not parse is an
//! error naming the flag, never a silent default; so is a negative or
//! non-finite `--radius` and a non-finite `--x` / `--y`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use fedra::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, options)) = parse(&args) else {
        eprintln!("error: malformed arguments (expected --key value pairs)");
        print_help();
        return ExitCode::FAILURE;
    };
    if let Err(message) = check_geometry(&options) {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }
    match command.as_str() {
        "demo" => demo(&options),
        "query" => query(&options),
        "stats" => stats(&options),
        "obs" => obs(&options),
        "help" | "" => {
            print_help();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            print_help();
            ExitCode::FAILURE
        }
    }
}

type Options = HashMap<String, String>;

fn parse(args: &[String]) -> Option<(String, Options)> {
    let mut command = String::new();
    let mut options = Options::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(key) = arg.strip_prefix("--") {
            if key == "iid" {
                options.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args.get(i + 1)?;
                options.insert(key.to_string(), value.clone());
                i += 2;
            }
        } else if command.is_empty() {
            command = arg.clone();
            i += 1;
        } else {
            // Stray positional words are ignored.
            i += 1;
        }
    }
    Some((command, options))
}

/// The value of `--key` parsed as `T`, or `None` when the flag is absent.
/// A value that does not parse ends the process with an error naming the
/// flag: `--radius 2km` must not quietly answer for radius 2.
fn flag<T: std::str::FromStr>(options: &Options, key: &str) -> Option<T> {
    let value = options.get(key)?;
    Some(value.parse().unwrap_or_else(|_| {
        eprintln!("error: --{key}: cannot parse '{value}'");
        std::process::exit(1);
    }))
}

fn opt<T: std::str::FromStr>(options: &Options, key: &str, default: T) -> T {
    flag(options, key).unwrap_or(default)
}

/// Refuses geometry no circle has, before any federation is built: a
/// `--radius` that is negative or not finite (`Circle::new` would clamp it
/// to a point query) and an `--x` / `--y` that is not finite. Radius 0 is
/// a legal point query.
fn check_geometry(options: &Options) -> Result<(), String> {
    for key in ["x", "y", "radius"] {
        let Some(value) = flag::<f64>(options, key) else {
            continue;
        };
        if !value.is_finite() {
            return Err(format!("--{key}: must be finite, got {value}"));
        }
        if key == "radius" && value < 0.0 {
            return Err(format!("--radius: must not be negative, got {value}"));
        }
    }
    Ok(())
}

/// `--chaos SEED` turns the build into a resilience drill: one slow silo,
/// one flapping silo, a deadline/hedging call policy and an active
/// circuit breaker — all deterministic from the seed.
fn apply_resilience(builder: FederationBuilder, options: &Options) -> FederationBuilder {
    let Some(seed) = flag::<u64>(options, "chaos") else {
        return builder;
    };
    let slow = opt(options, "slow-silo", 0usize);
    let flappy = opt(options, "flappy-silo", 1usize);
    eprintln!("chaos mode: seed {seed}, slow silo {slow}, flapping silo {flappy}");
    builder
        .fault_plan(
            FaultPlan::seeded(seed)
                .slow_silo(slow, Duration::from_millis(40))
                .flapping_silo(flappy, 4, 2),
        )
        .call_policy(CallPolicy {
            deadline: Some(Duration::from_millis(250)),
            hedge_after: Some(Duration::from_millis(10)),
        })
        .health_config(HealthConfig::enabled())
}

fn build_federation(options: &Options) -> (Federation, Vec<SpatialObject>) {
    let dataset = match options.get("data") {
        Some(path) => {
            eprintln!("loading dataset from {path} ...");
            fedra::workload::read_csv(path, 1.0).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            })
        }
        None => {
            let spec = WorkloadSpec::default()
                .with_total_objects(opt(options, "objects", 60_000))
                .with_silos(opt(options, "silos", 6))
                .with_seed(opt(options, "seed", 0xC11u64))
                .with_distribution(if options.contains_key("iid") {
                    Distribution::Iid
                } else {
                    Distribution::CompanySkewed
                });
            eprintln!(
                "building federation: {} objects, {} silos ...",
                spec.total_objects, spec.num_silos
            );
            spec.generate()
        }
    };
    let all = dataset.all_objects();
    let federation = apply_resilience(
        FederationBuilder::new(dataset.bounds()).grid_cell_len(opt(options, "grid-len", 1.0)),
        options,
    )
    .try_build(dataset.into_partitions())
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    (federation, all)
}

fn algorithms(seed: u64) -> Vec<Box<dyn FraAlgorithm>> {
    let params = AccuracyParams::default();
    vec![
        Box::new(Exact::new()),
        Box::new(Opta::new()),
        Box::new(IidEst::new(seed)),
        Box::new(IidEstLsr::new(seed ^ 1, params)),
        Box::new(NonIidEst::new(seed ^ 2)),
        Box::new(NonIidEstLsr::new(seed ^ 3, params)),
    ]
}

fn demo(options: &Options) -> ExitCode {
    let (federation, all) = build_federation(options);
    let mut generator = QueryGenerator::new(&all, opt(options, "seed", 0xC11u64) ^ 7);
    let n = opt(options, "queries", 50usize);
    let radius = opt(options, "radius", 2.0);
    let queries: Vec<FraQuery> = generator
        .circles(radius, n)
        .into_iter()
        .map(|r| FraQuery::new(r, AggFunc::Count))
        .collect();

    let exact = Exact::new();
    let engine = QueryEngine::per_silo(&exact, &federation);
    let truth: Vec<f64> = engine.execute_batch(&federation, &queries).values();

    println!("\n{} COUNT queries, radius {radius} km:\n", queries.len());
    println!(
        "{:>16} {:>10} {:>12} {:>12} {:>12}",
        "algorithm", "MRE", "time (ms)", "q/s", "comm (KB)"
    );
    for alg in algorithms(opt(options, "seed", 0xC11u64)) {
        federation.reset_query_comm();
        let engine = QueryEngine::per_silo(alg.as_ref(), &federation);
        let batch = engine.execute_batch(&federation, &queries);
        println!(
            "{:>16} {:>9.2}% {:>12.2} {:>12.0} {:>12.1}",
            alg.name(),
            batch.mean_relative_error(&truth) * 100.0,
            batch.wall_time.as_secs_f64() * 1e3,
            batch.throughput_qps,
            batch.comm.total_bytes() as f64 / 1024.0,
        );
    }
    ExitCode::SUCCESS
}

fn query(options: &Options) -> ExitCode {
    let x = opt(options, "x", 0.0);
    let y = opt(options, "y", -95.0);
    let radius = opt(options, "radius", 2.0);
    let func = match options.get("func").map(String::as_str).unwrap_or("count") {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "sum_sqr" => AggFunc::SumSqr,
        "avg" => AggFunc::Avg,
        "stdev" => AggFunc::Stdev,
        other => {
            eprintln!("error: unknown --func `{other}` (count|sum|sum_sqr|avg|stdev)");
            return ExitCode::FAILURE;
        }
    };
    let q = FraQuery::circle(Point::new(x, y), radius, func);
    let seed = opt(options, "seed", 0xC11u64);
    let (federation, _) = build_federation(options);
    let result = match options.get("algo").map(String::as_str).unwrap_or("noniid") {
        "exact" => Exact::new().try_execute(&federation, &q),
        "opta" => Opta::new().try_execute(&federation, &q),
        "iid" => IidEst::new(seed).try_execute(&federation, &q),
        "iid-lsr" => IidEstLsr::new(seed, AccuracyParams::default()).try_execute(&federation, &q),
        "noniid" => NonIidEst::new(seed).try_execute(&federation, &q),
        "noniid-lsr" => {
            NonIidEstLsr::new(seed, AccuracyParams::default()).try_execute(&federation, &q)
        }
        other => {
            eprintln!("error: unknown --algo `{other}` (exact|opta|iid|iid-lsr|noniid|noniid-lsr)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(r) => {
            println!("query : {q}");
            println!("answer: {}", r.value);
            if let Some(silo) = r.sampled_silo {
                println!("silo  : {silo}");
            }
            if let Some(level) = r.lsr_level {
                println!("level : {level}");
            }
            let comm = federation.query_comm();
            println!(
                "comm  : {} rounds, {} bytes",
                comm.rounds,
                comm.total_bytes()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn stats(options: &Options) -> ExitCode {
    let (federation, _) = build_federation(options);
    println!("\nfederation statistics");
    println!("  silos            : {}", federation.num_silos());
    println!("  objects          : {}", federation.total_objects());
    println!("  bounds           : {}", federation.bounds());
    let spec = federation.merged_grid().spec();
    println!(
        "  grid             : {}x{} cells of {} km",
        spec.nx(),
        spec.ny(),
        spec.cell_len()
    );
    println!(
        "  setup traffic    : {:.1} KB over {} rounds",
        federation.setup_comm().total_bytes() as f64 / 1024.0,
        federation.setup_comm().rounds
    );
    println!(
        "  provider indexes : {:.2} MB",
        federation.provider_memory_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!("\nper-silo index memory (MB):");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "silo", "r-tree", "lsr extra", "grid", "histogram"
    );
    for (k, r) in federation.silo_memory_reports().iter().enumerate() {
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        println!(
            "{:>6} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            k,
            mb(r.rtree),
            mb(r.lsr_extra),
            mb(r.grid),
            mb(r.histogram)
        );
    }
    ExitCode::SUCCESS
}

fn obs(options: &Options) -> ExitCode {
    let (federation, all) = build_federation(options);
    let seed = opt(options, "seed", 0xC11u64);
    let mut generator = QueryGenerator::new(&all, seed ^ 7);
    let n = opt(options, "queries", 250usize);
    let radius = opt(options, "radius", 2.0);
    // --cache K: wrap the algorithm in the answer cache and cycle the
    // batch over K hot ranges so hits actually occur; the cache's
    // `fedra_cache_*` counters then show up in every export format.
    let hot: Option<usize> = flag(options, "cache");
    let ranges = generator.circles(radius, n);
    let queries: Vec<FraQuery> = match hot {
        Some(k) => {
            let k = k.clamp(1, ranges.len());
            (0..n)
                .map(|i| FraQuery::new(ranges[i % k], AggFunc::Count))
                .collect()
        }
        None => ranges
            .into_iter()
            .map(|r| FraQuery::new(r, AggFunc::Count))
            .collect(),
    };

    fn maybe_cache<A: FraAlgorithm + 'static>(algo: A, cached: bool) -> Box<dyn FraAlgorithm> {
        if cached {
            Box::new(AnswerCache::with_defaults(algo))
        } else {
            Box::new(algo)
        }
    }
    let params = AccuracyParams::default();
    let wrap = hot.is_some();
    let algo: Box<dyn FraAlgorithm> = match options.get("algo").map(String::as_str).unwrap_or("iid")
    {
        "exact" => maybe_cache(Exact::new(), wrap),
        "opta" => maybe_cache(Opta::new(), wrap),
        "iid" => maybe_cache(IidEst::new(seed), wrap),
        "iid-lsr" => maybe_cache(IidEstLsr::new(seed, params), wrap),
        "noniid" => maybe_cache(NonIidEst::new(seed), wrap),
        "noniid-lsr" => maybe_cache(NonIidEstLsr::new(seed, params), wrap),
        other => {
            eprintln!("error: unknown --algo `{other}` (exact|opta|iid|iid-lsr|noniid|noniid-lsr)");
            return ExitCode::FAILURE;
        }
    };

    let obs = ObsContext::new();
    federation.reset_query_comm();
    let engine = QueryEngine::per_silo(algo.as_ref(), &federation);
    let batch = engine.execute_batch_with(&federation, &queries, &obs);

    // Breaker state as gauges so every export format carries it
    // (0 = closed, 1 = half-open, 2 = open).
    for s in federation.health().snapshot() {
        let state = match s.state {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        };
        obs.metrics().breaker_state.set(s.silo, state);
        if let Some(ewma) = s.latency_ewma_us {
            obs.metrics().silo_latency_ewma_us.set(s.silo, ewma);
        }
    }

    match options.get("format").map(String::as_str).unwrap_or("text") {
        "prom" => print!("{}", obs.export_prometheus()),
        "json" => println!("{}", obs.export_json()),
        "text" => {
            eprintln!(
                "{} queries via {} in {:.2} ms ({} failures)\n",
                queries.len(),
                algo.name(),
                batch.wall_time.as_secs_f64() * 1e3,
                batch.failures()
            );
            println!("--- silo health ---");
            println!(
                "{:>6} {:>10} {:>9} {:>9} {:>12} {:>8} {:>8}",
                "silo", "state", "ok", "failed", "ewma (µs)", "opened", "closed"
            );
            for s in federation.health().snapshot() {
                println!(
                    "{:>6} {:>10} {:>9} {:>9} {:>12} {:>8} {:>8}",
                    s.silo,
                    s.state.label(),
                    s.successes_total,
                    s.failures_total,
                    s.latency_ewma_us
                        .map_or_else(|| "-".into(), |e| format!("{e:.0}")),
                    s.opened_total,
                    s.closed_total
                );
            }
            println!("--- prometheus ---");
            print!("{}", obs.export_prometheus());
            println!("--- json ---");
            println!("{}", obs.export_json());
            println!("--- last traces ---");
            for trace in obs.traces().iter().rev().take(3) {
                println!(
                    "{} [{}]{}",
                    trace.label,
                    trace.algorithm,
                    if trace.is_balanced() {
                        ""
                    } else {
                        " UNBALANCED"
                    }
                );
                for span in &trace.spans {
                    println!(
                        "  {:indent$}{} {} ns",
                        "",
                        span.name,
                        span.duration_ns,
                        indent = span.depth * 2
                    );
                }
                for (key, value) in &trace.attrs {
                    println!("  @{key} = {value}");
                }
            }
        }
        other => {
            eprintln!("error: unknown --format `{other}` (text|prom|json)");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn print_help() {
    println!(
        "fedra-cli — approximate range aggregation over a spatial data federation

USAGE:
  fedra-cli <command> [options]

COMMANDS:
  demo     run a query batch through all six algorithms, print the comparison
  query    answer one circular query (--x --y --radius --func --algo)
  stats    print federation and index statistics
  obs      run an instrumented batch, dump metrics + traces + silo health
             (--queries N, --algo A, --format text|prom|json, --cache K to
              wrap the algorithm in the answer cache over K hot ranges —
              fedra_cache_* counters appear in the metric dump)
  help     this text

RESILIENCE OPTIONS (any command):
  --chaos SEED    inject deterministic faults: one slow silo (--slow-silo,
                  default 0) and one flapping silo (--flappy-silo, default
                  1), with a deadline/hedging call policy and an active
                  circuit breaker; retry/hedge/breaker counters show up in
                  `obs` output

GLOBAL OPTIONS (a numeric value that does not parse is an error, and so
is a negative or non-finite --radius or a non-finite --x / --y):
  --data FILE     load a CSV dataset (silo,x_km,y_km,measure) instead of
                  generating one (ignores --objects/--silos/--iid)
  --objects N     total objects (default 60000)
  --silos M       number of silos (default 6)
  --seed S        RNG seed, decimal (default 3089)
  --grid-len KM   grid cell length in km (default 1.0)
  --iid           IID partitions instead of company-skewed

QUERY OPTIONS:
  --x KM --y KM   circle center in projected km (default CBD: 0, -95)
  --radius KM     circle radius (default 2.0)
  --func F        count|sum|sum_sqr|avg|stdev (default count)
  --algo A        exact|opta|iid|iid-lsr|noniid|noniid-lsr (default noniid)

DEMO OPTIONS:
  --queries N     batch size (default 50)
  --radius KM     query radius (default 2.0)"
    );
}
