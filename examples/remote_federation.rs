//! A federation spanning PROCESSES: silos hosted by standalone
//! `fedra-silo serve` processes, joined via
//! `FederationBuilder::connect_remote`.
//!
//! Three modes, designed so the local and remote runs print
//! byte-identical `ANSWER` lines (ci.sh diffs them):
//!
//! ```text
//! # 1. Export the workload: one CSV per silo + the federation bounds.
//! cargo run --release --example remote_federation -- export /tmp/fedra
//!
//! # 2. Reference run, silos in-process:
//! cargo run --release --example remote_federation -- local
//!
//! # 3. Start one fedra-silo per CSV, then query them remotely:
//! fedra-silo serve --addr unix:/tmp/fedra/s0.sock --data /tmp/fedra/silo0.csv \
//!     --silo-id 0 &
//! ... (silo 1, silo 2) ...
//! cargo run --release --example remote_federation -- remote \
//!     /tmp/fedra/bounds.txt unix:/tmp/fedra/s0.sock unix:/tmp/fedra/s1.sock \
//!     unix:/tmp/fedra/s2.sock
//! ```
//!
//! Identical answers need identical silo state. The partition comes from
//! the CSV; everything else a silo indexes by (the grid, the fanout, the
//! histogram, its LSR seed) arrives in the provider's setup round, so
//! a remote silo is set up exactly as an in-process one.

use std::process::ExitCode;

use fedra::prelude::*;
use fedra::workload::write_csv;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("export") => export(args.get(1).map(String::as_str).unwrap_or("/tmp/fedra")),
        Some("local") | None => local(),
        Some("remote") => remote(&args[1..]),
        Some(other) => {
            eprintln!("error: unknown mode `{other}` (export | local | remote)");
            ExitCode::FAILURE
        }
    }
}

/// The shared workload: deterministic by seed, so every mode sees the
/// same objects.
fn dataset() -> Dataset {
    WorkloadSpec::small().generate()
}

/// Writes one CSV per silo plus `bounds.txt` (the federation bounds the
/// `remote` provider reads; the silos learn them from its setup round).
fn export(dir: &str) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: could not create {dir}: {e}");
        return ExitCode::FAILURE;
    }
    let dataset = dataset();
    let bounds = dataset.bounds();
    let partitions = dataset.into_partitions();
    let num_silos = partitions.len();
    for (k, objects) in partitions.into_iter().enumerate() {
        // A dataset holding only silo k's rows: write_csv keeps the silo
        // column, so `fedra-silo --silo-id k` recovers the partition.
        let mut sparse: Vec<Vec<SpatialObject>> = vec![Vec::new(); k + 1];
        sparse[k] = objects;
        let single = Dataset::from_partitions(bounds, sparse);
        let path = format!("{dir}/silo{k}.csv");
        if let Err(e) = write_csv(&single, &path) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let bounds_spec = format!(
        "{},{},{},{}",
        bounds.min.x, bounds.min.y, bounds.max.x, bounds.max.y
    );
    if let Err(e) = std::fs::write(format!("{dir}/bounds.txt"), &bounds_spec) {
        eprintln!("error: could not write bounds.txt: {e}");
        return ExitCode::FAILURE;
    }
    println!("exported {num_silos} silo CSVs + bounds.txt to {dir}");
    println!("bounds: {bounds_spec}");
    ExitCode::SUCCESS
}

/// Reference run: the same federation, silos in-process.
fn local() -> ExitCode {
    let dataset = dataset();
    let federation = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .build(dataset.into_partitions());
    run_queries(&federation)
}

/// `remote <bounds.txt> <addr>...` — every silo is a `fedra-silo`
/// process; the provider only ever sees bytes on sockets.
fn remote(args: &[String]) -> ExitCode {
    let [bounds_file, addrs @ ..] = args else {
        eprintln!("usage: remote_federation remote <bounds.txt> <addr>...");
        return ExitCode::FAILURE;
    };
    if addrs.is_empty() {
        eprintln!("error: at least one silo address is required");
        return ExitCode::FAILURE;
    }
    let bounds = match read_bounds(bounds_file) {
        Some(bounds) => bounds,
        None => {
            eprintln!("error: {bounds_file} does not hold x0,y0,x1,y1");
            return ExitCode::FAILURE;
        }
    };
    let mut builder = FederationBuilder::new(bounds).grid_cell_len(1.0);
    for addr in addrs {
        builder = builder.connect_remote(addr);
    }
    match builder.try_build(Vec::new()) {
        Ok(federation) => run_queries(&federation),
        Err(e) => {
            eprintln!("error: remote federation setup failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_bounds(path: &str) -> Option<Rect> {
    let text = std::fs::read_to_string(path).ok()?;
    let parts: Vec<f64> = text
        .trim()
        .split(',')
        .map(|p| p.trim().parse().ok())
        .collect::<Option<_>>()?;
    match parts[..] {
        [x0, y0, x1, y1] => Some(Rect::new(Point::new(x0, y0), Point::new(x1, y1))),
        _ => None,
    }
}

/// The quickstart query, six ways. The `ANSWER` lines are the diffable
/// contract: local and remote runs must print them byte-identically.
fn run_queries(federation: &Federation) -> ExitCode {
    println!(
        "federation up: {} silos, {} objects",
        federation.num_silos(),
        federation.total_objects()
    );
    let query = FraQuery::circle(Point::new(0.0, -95.0), 2.0, AggFunc::Count);
    let params = AccuracyParams::default();
    let algorithms: Vec<Box<dyn FraAlgorithm>> = vec![
        Box::new(Exact::new()),
        Box::new(Opta::new()),
        Box::new(IidEst::new(1)),
        Box::new(IidEstLsr::new(2, params)),
        Box::new(NonIidEst::new(3)),
        Box::new(NonIidEstLsr::new(4, params)),
    ];
    for alg in &algorithms {
        federation.reset_query_comm();
        let r = alg.execute(federation, &query);
        let comm = federation.query_comm();
        println!(
            "ANSWER {} {} bytes={}",
            alg.name(),
            r.value,
            comm.total_bytes()
        );
    }
    ExitCode::SUCCESS
}
