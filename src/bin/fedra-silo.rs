//! `fedra-silo` — host ONE data silo as a standalone process.
//!
//! A provider built with `FederationBuilder::connect_remote(addr)` talks
//! to this process over the length-prefixed socket protocol
//! (DESIGN.md §5h): same wire payloads, same deadline shedding, same
//! fault injection as the in-process backends, so a federation can span
//! processes and machines like the paper's 4–16-node cluster. The silo
//! loads its partition and waits: the provider's setup round (one `[Setup,
//! BuildGrid]` frame) tells it the federation grid, fanout, histogram
//! config and its LSR seed, and it indexes by them exactly as an
//! in-process silo does.
//!
//! ```text
//! fedra-silo serve --addr unix:/tmp/silo0.sock --data silo0.csv
//! fedra-silo serve --addr tcp:127.0.0.1:7401 --data silo1.csv --silo-id 1
//! ```
//!
//! Options for `serve`:
//! `--addr A` (required; `tcp:host:port`, `unix:/path`, or `host:port`),
//! `--data F` (required; `silo,x_km,y_km,measure` CSV, as written by
//! `fedra_workload::write_csv`), `--silo-id K` (serve partition `K` of
//! the CSV; default: every row in the file), `--threads N` (intra-silo
//! build pool; 0 = auto), `--snapshot-dir DIR`, and a deterministic
//! fault spec — the `FaultPlan` the in-process backends take, for this
//! one silo:
//! `--fault-seed S --fault-transient P --fault-drop P`
//! `--fault-crash-after N --fault-latency-ms L --fault-flap P:D`.
//!
//! Every flag is checked before the data is read: an unknown flag, or a
//! value that does not parse (or a probability outside `[0, 1]`, or a
//! flap that is not `P:D` with `0 < D <= P`) exits 1 naming the flag,
//! never serves a default.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use fedra::federation::{FaultPlan, Silo, SiloAddr, SiloSocketServer, SocketServerConfig};
use fedra::federation::{FlapSchedule, SiloFaultSpec};
use fedra::geo::SpatialObject;
use fedra::workload::read_csv;

/// Every flag `serve` reads; any other exits 1.
const FLAGS: [&str; 11] = [
    "addr",
    "data",
    "silo-id",
    "threads",
    "snapshot-dir",
    "fault-seed",
    "fault-transient",
    "fault-drop",
    "fault-crash-after",
    "fault-latency-ms",
    "fault-flap",
];

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        "serve"
    } else if args.iter().any(|a| a == "--help") || args.is_empty() {
        print_help();
        return ExitCode::SUCCESS;
    } else {
        eprintln!("error: unknown command (only `serve` is supported)");
        print_help();
        return ExitCode::FAILURE;
    };
    debug_assert_eq!(command, "serve");
    let Some(options) = parse(&args) else {
        eprintln!("error: malformed arguments (expected --key value pairs)");
        print_help();
        return ExitCode::FAILURE;
    };
    if options.contains_key("help") {
        print_help();
        return ExitCode::SUCCESS;
    }
    if let Some(key) = options.keys().find(|key| !FLAGS.contains(&key.as_str())) {
        eprintln!("error: unknown flag --{key}");
        return ExitCode::FAILURE;
    }
    serve(&options)
}

type Options = BTreeMap<String, String>;

fn parse(args: &[String]) -> Option<Options> {
    let mut options = Options::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--")?;
        if key == "help" {
            options.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            let value = args.get(i + 1)?;
            options.insert(key.to_string(), value.clone());
            i += 2;
        }
    }
    Some(options)
}

/// Ends the process with an error naming the flag and its value.
fn bad_flag(key: &str, value: &str, expected: &str) -> ! {
    eprintln!("error: --{key}: cannot parse '{value}'{expected}");
    std::process::exit(1);
}

/// The value of `--key` parsed as `T`, or `None` when the flag is absent.
/// A value that does not parse ends the process with an error naming the
/// flag: `--silo-id one` must not quietly serve silo 0.
fn flag<T: std::str::FromStr>(options: &Options, key: &str) -> Option<T> {
    let value = options.get(key)?;
    Some(value.parse().unwrap_or_else(|_| bad_flag(key, value, "")))
}

fn opt<T: std::str::FromStr>(options: &Options, key: &str, default: T) -> T {
    flag(options, key).unwrap_or(default)
}

/// A probability flag: absent is 0, anything outside `[0, 1]` is an error.
fn probability(options: &Options, key: &str) -> f64 {
    let p = opt(options, key, 0.0);
    if !(0.0..=1.0).contains(&p) {
        bad_flag(key, &options[key], " (expected a probability in [0, 1])");
    }
    p
}

fn print_help() {
    println!(
        "fedra-silo — host one data silo behind a socket\n\n\
         usage: fedra-silo serve --addr ADDR --data FILE.csv\n\
                [--silo-id K] [--threads N] [--snapshot-dir DIR]\n\
                [--fault-seed S] [--fault-transient P] [--fault-drop P]\n\
                [--fault-crash-after N] [--fault-latency-ms L] [--fault-flap P:D]\n\n\
         ADDR is tcp:host:port, unix:/path, or bare host:port. The CSV\n\
         columns are silo,x_km,y_km,measure (the workload crate's CSV).\n\
         The silo indexes its partition when the provider sets it up:\n\
         the provider's grid (bounds and cell length), fanout, histogram\n\
         and LSR seed arrive in its Setup request, so remote answers are\n\
         identical to a local run.\n\
         --snapshot-dir persists that setup and the built grid\n\
         (checksummed) to DIR/silo-K.grid after every BuildGrid; a\n\
         respawned silo rebuilds its indexes from it before it serves,\n\
         so a crashed silo rejoins without the provider or re-binning.\n\
         The --fault-* flags inject seeded faults into every request:\n\
         P is a probability in [0, 1]; --fault-flap P:D refuses the\n\
         last D of every P requests (0 < D <= P)."
    );
}

/// `--fault-flap P:D`: refuse the last `D` of every `P` requests.
fn flap(options: &Options) -> Option<FlapSchedule> {
    let value = options.get("fault-flap")?;
    let schedule = value
        .split_once(':')
        .and_then(|(period, down)| {
            Some(FlapSchedule {
                period: period.parse().ok()?,
                down: down.parse().ok()?,
                phase: 0,
            })
        })
        .filter(|f| 0 < f.down && f.down <= f.period);
    Some(
        schedule
            .unwrap_or_else(|| bad_flag("fault-flap", value, " (expected P:D with 0 < D <= P)")),
    )
}

fn fault_config(options: &Options, silo_id: usize) -> Option<FaultPlan> {
    // Parsed even when no fault is set: a malformed seed is never ignored.
    let seed = opt(options, "fault-seed", 0);
    let spec = SiloFaultSpec {
        latency: flag(options, "fault-latency-ms").map(Duration::from_millis),
        drop_prob: probability(options, "fault-drop"),
        transient_prob: probability(options, "fault-transient"),
        crash_after: flag(options, "fault-crash-after"),
        flap: flap(options),
    };
    if spec == SiloFaultSpec::default() {
        return None;
    }
    Some(FaultPlan::seeded(seed).with_spec(silo_id, spec))
}

fn serve(options: &Options) -> ExitCode {
    let Some(addr_spec) = options.get("addr") else {
        eprintln!("error: --addr is required");
        return ExitCode::FAILURE;
    };
    let addr = match SiloAddr::parse(addr_spec) {
        Ok(addr) => addr,
        Err(reason) => {
            eprintln!("error: bad --addr: {reason}");
            return ExitCode::FAILURE;
        }
    };
    let Some(data) = options.get("data") else {
        eprintln!("error: --data is required");
        return ExitCode::FAILURE;
    };
    // Every flag is parsed before the data is read.
    let silo_id: Option<usize> = flag(options, "silo-id");
    let threads = opt(options, "threads", 0);
    let fault_plan = fault_config(options, silo_id.unwrap_or(0));
    let dataset = match read_csv(data, 0.0) {
        Ok(dataset) => dataset,
        Err(e) => {
            eprintln!("error: could not load {data}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let objects: Vec<SpatialObject> = match silo_id {
        Some(k) => match dataset.partitions().get(k) {
            Some(partition) => partition.clone(),
            None => {
                eprintln!("error: {data} has no partition {k}");
                return ExitCode::FAILURE;
            }
        },
        None => dataset.all_objects(),
    };
    let silo_id = silo_id.unwrap_or(0);
    let num_objects = objects.len();
    let silo = Silo::new(silo_id, objects, threads);
    // Crash recovery (DESIGN.md §5i): with --snapshot-dir, the setup spec
    // and the grid built by the provider's BuildGrid are checksummed to
    // disk after every build, and a respawned process sets itself up
    // from that file — it serves queries before any provider's Setup, and
    // the next BuildGrid answers from the restored grid.
    let snapshot_path = match options.get("snapshot-dir") {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!(
                    "error: could not create --snapshot-dir {}: {e}",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
            Some(dir.join(format!("silo-{silo_id}.grid")))
        }
        None => None,
    };
    if let Some(path) = &snapshot_path {
        match silo.load_grid_snapshot(path) {
            Ok(true) => println!(
                "fedra-silo: silo {silo_id} loaded grid snapshot from {}",
                path.display()
            ),
            Ok(false) => {}
            Err(e) => {
                // Corrupt snapshot: refuse to guess — start cold and let
                // the provider's next setup round rebuild and overwrite it.
                eprintln!(
                    "warning: ignoring corrupt grid snapshot {}: {e}",
                    path.display()
                );
            }
        }
    }
    let faults = fault_plan.and_then(|plan| {
        // Standalone faults arm immediately — there is no provider-side
        // setup phase to protect in this process.
        plan.injector_for(silo_id, Arc::new(AtomicBool::new(true)))
    });
    let server_config = SocketServerConfig {
        faults,
        snapshot_path,
    };
    let server = match SiloSocketServer::spawn(silo, &addr, server_config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: could not serve on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "fedra-silo: serving silo {silo_id} ({num_objects} objects) on {}",
        server.addr()
    );
    server.join();
    ExitCode::SUCCESS
}
