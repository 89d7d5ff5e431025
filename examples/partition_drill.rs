//! The ci.sh partition-smoke driver (DESIGN.md §5i): a federation of
//! `fedra-silo` processes survives a SIGKILL mid-query-stream, answers
//! from the reachable subset with an honest `Coverage` record, and
//! returns to bit-identical answers once the silo respawns from its
//! grid snapshot.
//!
//! Two modes, designed so `ANSWER`/`FINAL` lines diff clean against the
//! in-process reference:
//!
//! ```text
//! # Reference run, silos in-process (prints ANSWER lines):
//! cargo run --release --example partition_drill -- local
//!
//! # The drill (ci.sh orchestrates the kill/respawn around it):
//! cargo run --release --example partition_drill -- drive DIR bounds.txt \
//!     unix:DIR/s0.sock unix:DIR/s1.sock unix:DIR/s2.sock
//! ```
//!
//! The drive protocol, synchronized with the supervisor (ci.sh) through
//! stdout markers and a `DIR/killed` touch-file:
//!
//! 1. healthy `ANSWER` lines, then `PHASE-A-DONE`;
//! 2. a query stream that keeps running while the supervisor SIGKILLs
//!    silo 2 (it touches `DIR/killed` after); every coverage-annotated
//!    answer is checked against the phase-1 EXACT truth within its own
//!    inflated bound `ε′·SUM₀(R)`, then `PHASE-B-DONE` (the supervisor
//!    respawns the silo from its snapshot);
//! 3. estimator queries until the breaker closes again (`RECOVERED`),
//!    then `FINAL` lines that must bit-match the `ANSWER` lines;
//! 4. a stale-reply drill through a [`ChaosProxy`] that severs the
//!    client mid-call: the reply lands on the next connection and must
//!    be fenced by epoch (`FENCED n`, n > 0), never delivered;
//! 5. `breaker leaks: <n>` — the gate expects 0.

use std::process::ExitCode;
use std::time::Duration;

use fedra::core::helpers;
use fedra::federation::protocol::{Request, Response};
use fedra::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("local") | None => local(),
        Some("drive") => drive(&args[1..]),
        Some(other) => {
            eprintln!("error: unknown mode `{other}` (local | drive)");
            ExitCode::FAILURE
        }
    }
}

/// The same workload `remote_federation -- export` writes, so the drill
/// attaches to the CSVs ci.sh already exported.
fn dataset() -> Dataset {
    WorkloadSpec::small().generate()
}

fn drill_query() -> FraQuery {
    FraQuery::circle(Point::new(0.0, -95.0), 2.0, AggFunc::Count)
}

/// The diffable contract: one line per algorithm, identical across the
/// in-process reference (`ANSWER`), the healthy remote phase (`ANSWER`),
/// and the post-recovery remote phase (`FINAL`). Fresh algorithm
/// instances each call keep the sampling streams independent of however
/// many soak queries ran in between.
fn print_answers(federation: &Federation, prefix: &str) -> Result<(), String> {
    let query = drill_query();
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
        let r = alg
            .try_execute(federation, &query)
            .map_err(|e| format!("{prefix} {} failed: {e}", alg.name()))?;
        if r.coverage.is_some() {
            return Err(format!("{prefix} {} answer is degraded", alg.name()));
        }
        let comm = federation.query_comm();
        println!(
            "{prefix} {} {} bytes={}",
            alg.name(),
            r.value,
            comm.total_bytes()
        );
    }
    Ok(())
}

/// Reference run: the same federation, silos in-process, FailFast.
fn local() -> ExitCode {
    let data = dataset();
    let federation = FederationBuilder::new(data.bounds())
        .grid_cell_len(1.0)
        .build(data.into_partitions());
    match print_answers(&federation, "ANSWER") {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
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

fn drive(args: &[String]) -> ExitCode {
    match try_drive(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn try_drive(args: &[String]) -> Result<(), String> {
    let [dir, bounds_file, addrs @ ..] = args else {
        return Err("usage: partition_drill drive DIR bounds.txt ADDR...".into());
    };
    if addrs.len() < 2 {
        return Err("need at least two silo addresses (the last one gets killed)".into());
    }
    let bounds =
        read_bounds(bounds_file).ok_or_else(|| format!("{bounds_file}: not x0,y0,x1,y1"))?;
    let mut builder = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .degrade_policy(DegradePolicy::Partial {
            min_silos: 1,
            min_coverage: 0.2,
        })
        .call_policy(CallPolicy {
            deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        })
        .health_config(HealthConfig::enabled());
    for addr in addrs {
        builder = builder.connect_remote(addr);
    }
    let fed = builder
        .try_build(Vec::new())
        .map_err(|e| format!("remote federation setup failed: {e}"))?;

    // Phase 1: healthy answers (the supervisor diffs them vs `local`).
    print_answers(&fed, "ANSWER")?;
    let query = drill_query();
    let exact = Exact::new();
    let truth = exact
        .try_execute(&fed, &query)
        .map_err(|e| format!("truth query failed: {e}"))?
        .value;
    println!("PHASE-A-DONE");

    // Phase 2: keep the query stream running while the supervisor
    // SIGKILLs the last silo. Every degraded answer must honor its own
    // coverage-inflated bound against the healthy truth.
    let killed_marker = std::path::Path::new(dir).join("killed");
    let sum0 = helpers::sum0(&fed, &query.range).count;
    let mut degraded = 0u32;
    let mut last_cov: Option<Coverage> = None;
    for _ in 0..3_000 {
        let r = exact
            .try_execute(&fed, &query)
            .map_err(|e| format!("EXACT must degrade, not fail, under Partial: {e}"))?;
        if let Some(cov) = r.coverage {
            if cov.responding >= cov.total || !(0.0..=1.0).contains(&cov.mass_fraction) {
                return Err(format!("dishonest coverage record: {cov:?}"));
            }
            let miss = (r.value - truth).abs();
            if miss > cov.epsilon * sum0 + 1e-9 {
                return Err(format!(
                    "degraded bound violated: |{} - {truth}| > {} * {sum0}",
                    r.value, cov.epsilon
                ));
            }
            degraded += 1;
            last_cov = Some(cov);
        }
        if killed_marker.exists() && degraded >= 5 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let cov = last_cov.ok_or("the kill never surfaced as a coverage record")?;
    println!(
        "DEGRADED count={degraded} responding={}/{} coverage={:.4} epsilon={:.4}",
        cov.responding, cov.total, cov.mass_fraction, cov.epsilon
    );
    println!("PHASE-B-DONE");

    // Phase 3: the supervisor respawns the silo from its snapshot; the
    // next send probes the dead channel and the breaker's half-open
    // probe closes on the first success.
    let est = NonIidEst::new(99);
    let mut recovered = false;
    for _ in 0..1_500 {
        let _ = est.try_execute(&fed, &query);
        if fed.health().non_closed().is_empty() {
            if let Ok(r) = exact.try_execute(&fed, &query) {
                if r.coverage.is_none() {
                    recovered = true;
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if !recovered {
        return Err(format!(
            "silo never rejoined (breakers: {:?})",
            fed.health().non_closed()
        ));
    }
    println!("RECOVERED");
    print_answers(&fed, "FINAL")?;

    // Phase 4: stale-reply fencing through a chaos proxy that severs the
    // client between request and reply — the reply lands on the next
    // connection with a stale epoch and must be discarded, not matched.
    let upstream = SiloAddr::parse(&addrs[0]).map_err(|e| format!("bad addr: {e}"))?;
    let mut proxy =
        ChaosProxy::spawn(&upstream).map_err(|e| format!("chaos proxy spawn failed: {e}"))?;
    let fenced = {
        let fed2 = FederationBuilder::new(bounds)
            .grid_cell_len(1.0)
            .degrade_policy(DegradePolicy::Partial {
                min_silos: 0,
                min_coverage: 0.0,
            })
            .connect_remote(proxy.addr().to_string())
            .try_build(Vec::new())
            .map_err(|e| format!("fencing federation setup failed: {e}"))?;
        if fed2.call(0, &Request::Ping) != Ok(Response::Pong) {
            return Err("fencing drill: healthy ping failed".into());
        }
        proxy.drop_client_after_next_request();
        let mut fenced = 0;
        for _ in 0..50 {
            let _ = fed2.call(0, &Request::Ping);
            fenced = fed2
                .silo_metrics(0)
                .snapshot()
                .counters
                .get("fedra_epoch_fenced_replies_total")
                .copied()
                .unwrap_or(0);
            if fenced > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if fed2.call(0, &Request::Ping) != Ok(Response::Pong) {
            return Err("fencing drill: post-fence ping failed".into());
        }
        fenced
    };
    proxy.stop();
    if fenced == 0 {
        return Err("no stale reply was ever fenced".into());
    }
    println!("FENCED {fenced}");

    println!("breaker leaks: {}", fed.health().non_closed().len());
    Ok(())
}
