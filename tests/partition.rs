//! Partition-tolerance soak (DESIGN.md §5i): a federation of socket
//! silos behind seeded [`ChaosProxy`]s must survive hard partitions,
//! silo crashes, and stale-epoch replies — answering with *honest*
//! coverage records whose inflated ε bound is never violated, recovering
//! to bit-identical full answers once the network heals, and leaving no
//! breaker stuck half-open.
//!
//! Four contracts are pinned here:
//!
//! * **Invisibility**: under `DegradePolicy::FailFast` with calm (fault-
//!   free) proxies, answers and payload byte accounting are bit-identical
//!   to the in-memory backend on the same partitions.
//! * **Honesty**: under `DegradePolicy::Partial`, every answer that
//!   carries a [`Coverage`] record satisfies
//!   `|answer − truth| ≤ ε′ · sum₀(R)` — zero violations across the soak.
//! * **Recovery**: a crashed silo respawned from its checksummed grid
//!   snapshot rejoins (breaker probe → Closed) and the federation's
//!   answers return to the healthy-path bits; `non_closed()` is empty at
//!   soak end ("breaker leaks: 0").
//! * **Fencing**: a reply that crosses a connection drop is discarded by
//!   epoch (`fedra_epoch_fenced_replies_total` > 0), never delivered to
//!   a fresh call.

use std::time::Duration;

use fedra::core::helpers;
use fedra::federation::protocol::{Request, Response};
use fedra::prelude::*;

/// Unique scratch directory per test (sockets + snapshots).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fedra-part-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const LSR_SEED: u64 = 0xF00D;
const CELL_LEN: f64 = 1.0;

fn dataset(seed: u64, silos: usize) -> fedra::workload::Dataset {
    WorkloadSpec::default()
        .with_total_objects(9_000)
        .with_silos(silos)
        .with_seed(seed)
        .generate()
}

/// Servers + calm proxies for every partition; returns (servers, proxies).
/// Each silo is set up by the setup round of the federation that
/// connects to it.
fn spawn_proxied_silos(
    dataset: &fedra::workload::Dataset,
    dir: &std::path::Path,
) -> (Vec<SiloSocketServer>, Vec<ChaosProxy>) {
    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    for (k, objects) in dataset.partitions().iter().enumerate() {
        let silo = Silo::new(k, objects.clone(), 1);
        let addr = SiloAddr::Unix(dir.join(format!("silo-{k}.sock")));
        let server = SiloSocketServer::spawn(silo, &addr, SocketServerConfig::default())
            .expect("spawn server");
        let proxy = ChaosProxy::spawn(server.addr()).expect("spawn proxy");
        servers.push(server);
        proxies.push(proxy);
    }
    (servers, proxies)
}

fn remote_builder(bounds: Rect, proxies: &[ChaosProxy]) -> FederationBuilder {
    let mut builder = FederationBuilder::new(bounds)
        .grid_cell_len(CELL_LEN)
        .lsr_seed(LSR_SEED);
    for proxy in proxies {
        builder = builder.connect_remote(proxy.addr().to_string());
    }
    builder
}

fn count_queries(all: &[SpatialObject], n: usize, seed: u64) -> Vec<FraQuery> {
    QueryGenerator::new(all, seed)
        .circles(2.0, n)
        .into_iter()
        .map(|r| FraQuery::new(r, AggFunc::Count))
        .collect()
}

/// The degraded-answer contract: `|answer − truth| ≤ ε′·sum₀(R)`, with
/// `sum₀` read from the healthy local twin.
fn assert_bound(twin: &Federation, q: &FraQuery, r: &QueryResult, truth: f64, label: &str) {
    let Some(cov) = r.coverage else { return };
    assert!(cov.responding <= cov.total, "{label}: {cov:?}");
    assert!(
        (0.0..=1.0).contains(&cov.mass_fraction) && (0.0..=1.0).contains(&cov.epsilon),
        "{label}: {cov:?}"
    );
    let sum0 = helpers::sum0(twin, &q.range).count;
    let miss = (r.value - truth).abs();
    assert!(
        miss <= cov.epsilon * sum0 + 1e-9,
        "{label}: |{} - {truth}| = {miss} exceeds eps {} * sum0 {sum0}",
        r.value,
        cov.epsilon
    );
}

// ---------------------------------------------------------------------
// Invisibility: FailFast + calm proxies == in-memory backend
// ---------------------------------------------------------------------

#[test]
fn failfast_through_calm_proxies_matches_the_in_memory_backend() {
    let dir = scratch("calm");
    let data = dataset(0xAB5E, 3);
    let all = data.all_objects();
    let queries = count_queries(&all, 40, 11);

    let twin = FederationBuilder::new(data.bounds())
        .grid_cell_len(CELL_LEN)
        .lsr_seed(LSR_SEED)
        .transport_backend(TransportBackend::InMemory)
        .build(data.partitions().to_vec());

    let (servers, proxies) = spawn_proxied_silos(&data, &dir);
    let fed = remote_builder(data.bounds(), &proxies).build(vec![]);
    assert_eq!(fed.num_silos(), 3);

    // EXACT and the NonIID estimator, bit for bit, plus identical payload
    // byte accounting — the proxy and the socket hop must be invisible.
    twin.reset_query_comm();
    fed.reset_query_comm();
    let exact = Exact::new();
    for q in &queries {
        let reference = exact.execute(&twin, q);
        let got = exact.execute(&fed, q);
        assert_eq!(got.value.to_bits(), reference.value.to_bits());
        assert!(got.coverage.is_none(), "FailFast must never annotate");
    }
    let est_twin = NonIidEst::new(41);
    let est_fed = NonIidEst::new(41);
    for q in &queries {
        let reference = est_twin.execute(&twin, q);
        let got = est_fed.execute(&fed, q);
        assert_eq!(got.value.to_bits(), reference.value.to_bits());
        assert_eq!(got.sampled_silo, reference.sampled_silo, "candidate order");
    }
    let (t, f) = (twin.query_comm(), fed.query_comm());
    assert_eq!(f.bytes_up, t.bytes_up);
    assert_eq!(f.bytes_down, t.bytes_down);
    assert_eq!(f.rounds, t.rounds);

    drop(fed);
    for mut p in proxies {
        p.stop();
    }
    for s in &servers {
        s.stop();
    }
}

// ---------------------------------------------------------------------
// Honesty + recovery: hard partition mid-soak, heal, breaker leaks: 0
// ---------------------------------------------------------------------

#[test]
fn partitioned_silo_degrades_honestly_and_rejoins_after_heal() {
    let dir = scratch("soak");
    let data = dataset(0x50AC, 3);
    let all = data.all_objects();
    let queries = count_queries(&all, 30, 23);

    let twin = FederationBuilder::new(data.bounds())
        .grid_cell_len(CELL_LEN)
        .lsr_seed(LSR_SEED)
        .transport_backend(TransportBackend::InMemory)
        .build(data.partitions().to_vec());
    let exact_truths: Vec<f64> = queries
        .iter()
        .map(|q| Exact::new().execute(&twin, q).value)
        .collect();

    let (servers, proxies) = spawn_proxied_silos(&data, &dir);
    let fed = remote_builder(data.bounds(), &proxies)
        .degrade_policy(DegradePolicy::Partial {
            min_silos: 1,
            min_coverage: 0.2,
        })
        .call_policy(CallPolicy {
            deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        })
        .health_config(HealthConfig::enabled())
        .build(vec![]);

    // Healthy phase: full answers, no coverage annotation even under
    // Partial (the policy only kicks in when silos are missing).
    let exact = Exact::new();
    for (q, truth) in queries.iter().zip(&exact_truths) {
        let r = exact.try_execute(&fed, q).expect("healthy");
        assert_eq!(r.value.to_bits(), truth.to_bits());
        assert!(r.coverage.is_none());
    }

    // Hard-partition silo 2 and soak. EXACT degrades to a coverage-
    // annotated answer (grid fill-in for the missing silo); the estimator
    // resamples around the dead silo and, when stranded, degrades to the
    // provider grid — every coverage record must honor its own ε′.
    proxies[2].partition_for(Duration::from_secs(600));
    let obs = ObsContext::new();
    let est = NonIidEst::new(41);
    let mut degraded = 0u32;
    for (q, truth) in queries.iter().zip(&exact_truths) {
        match exact.try_execute_with(&fed, q, &obs) {
            Ok(r) => {
                if r.coverage.is_some() {
                    degraded += 1;
                }
                assert_bound(&twin, q, &r, *truth, "EXACT under partition");
            }
            Err(e) => panic!("EXACT must degrade, not fail, under Partial: {e}"),
        }
        if let Ok(r) = est.try_execute_with(&fed, q, &obs) {
            assert_bound(&twin, q, &r, *truth, "NonIID under partition");
        }
    }
    assert!(degraded > 0, "the partition never surfaced in coverage");
    let snap = obs.snapshot();
    let noted = snap
        .counters
        .get("fedra_degraded_answers_total")
        .copied()
        .unwrap_or(0);
    assert!(noted >= u64::from(degraded), "coverage metric undercounts");
    assert!(
        snap.gauges.contains_key("fedra_coverage_ppm"),
        "degraded answers must export their mass fraction"
    );
    assert_eq!(
        fed.health().non_closed(),
        vec![2],
        "the partitioned silo's breaker must open"
    );

    // Heal. The next EXACT fan-outs reach silo 2 again; the estimator's
    // candidate checks admit a half-open probe whose success closes the
    // breaker. Loop (bounded) until the breaker state drains.
    proxies[2].partition_for(Duration::ZERO);
    let mut healed = false;
    for round in 0..400 {
        let q = &queries[round % queries.len()];
        let _ = est.try_execute(&fed, q);
        if fed.health().non_closed().is_empty() {
            healed = true;
            break;
        }
    }
    assert!(healed, "breaker leak: {:?}", fed.health().non_closed());
    // Back to bit-identical full answers.
    for (q, truth) in queries.iter().zip(&exact_truths) {
        let r = exact.try_execute(&fed, q).expect("healed");
        assert_eq!(r.value.to_bits(), truth.to_bits());
        assert!(r.coverage.is_none(), "healed answers carry no coverage");
    }

    drop(fed);
    for mut p in proxies {
        p.stop();
    }
    for s in &servers {
        s.stop();
    }
}

// ---------------------------------------------------------------------
// Crash recovery: SIGKILL-equivalent stop, respawn from grid snapshot
// ---------------------------------------------------------------------

#[test]
fn crashed_silo_rejoins_from_its_grid_snapshot() {
    let dir = scratch("crash");
    let data = dataset(0xC8A5, 2);
    let all = data.all_objects();
    let queries = count_queries(&all, 15, 31);
    let bounds = data.bounds();

    let twin = FederationBuilder::new(bounds)
        .grid_cell_len(CELL_LEN)
        .lsr_seed(LSR_SEED)
        .transport_backend(TransportBackend::InMemory)
        .build(data.partitions().to_vec());
    let truths: Vec<f64> = queries
        .iter()
        .map(|q| Exact::new().execute(&twin, q).value)
        .collect();

    // Silo 1 serves directly (no proxy) with snapshot persistence.
    let addr0 = SiloAddr::Unix(dir.join("silo-0.sock"));
    let addr1 = SiloAddr::Unix(dir.join("silo-1.sock"));
    let snapshot1 = dir.join("silo-1.grid");
    let server0 = SiloSocketServer::spawn(
        Silo::new(0, data.partitions()[0].clone(), 1),
        &addr0,
        SocketServerConfig::default(),
    )
    .expect("silo 0");
    let server1 = SiloSocketServer::spawn(
        Silo::new(1, data.partitions()[1].clone(), 1),
        &addr1,
        SocketServerConfig {
            snapshot_path: Some(snapshot1.clone()),
            ..Default::default()
        },
    )
    .expect("silo 1");

    let fed = FederationBuilder::new(bounds)
        .grid_cell_len(CELL_LEN)
        .lsr_seed(LSR_SEED)
        .connect_remote(addr0.to_string())
        .connect_remote(addr1.to_string())
        .degrade_policy(DegradePolicy::Partial {
            min_silos: 1,
            min_coverage: 0.2,
        })
        .call_policy(CallPolicy {
            deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        })
        .build(vec![]);

    // Setup's BuildGrid persisted silo 1's grid.
    assert!(snapshot1.exists(), "BuildGrid must write the snapshot");

    let exact = Exact::new();
    for (q, truth) in queries.iter().zip(&truths) {
        let r = exact.try_execute(&fed, q).expect("healthy");
        assert_eq!(r.value.to_bits(), truth.to_bits());
    }

    // Crash silo 1: stop severs every live connection at its next frame
    // and refuses reconnects once the listener drops (the in-process
    // stand-in for SIGKILL; ci.sh kills a real fedra-silo process).
    server1.stop();
    drop(server1);
    let mut saw_degraded = false;
    for (q, truth) in queries.iter().zip(&truths) {
        let r = exact
            .try_execute(&fed, q)
            .expect("Partial answers through the crash");
        if let Some(cov) = r.coverage {
            saw_degraded = true;
            assert_eq!(cov.responding, 1);
            assert_eq!(cov.total, 2);
            assert_bound(&twin, q, &r, *truth, "EXACT through crash");
        }
    }
    assert!(saw_degraded, "the crash never surfaced in coverage");

    // Respawn from the snapshot: a fresh Silo sets itself up from disk
    // (the persisted spec, a bit-identical grid, no re-binning) and the
    // probe-on-send client reconnects on the next call.
    let respawned = Silo::new(1, data.partitions()[1].clone(), 1);
    assert!(
        respawned
            .load_grid_snapshot(&snapshot1)
            .expect("snapshot intact"),
        "the persisted snapshot must warm-start the respawn"
    );
    let server1b = SiloSocketServer::spawn(
        respawned,
        &addr1,
        SocketServerConfig {
            snapshot_path: Some(snapshot1.clone()),
            ..Default::default()
        },
    )
    .expect("respawn silo 1");

    // Recovery: answers return to the healthy-path bits, no coverage.
    let mut recovered = false;
    for _ in 0..50 {
        if let Ok(r) = exact.try_execute(&fed, &queries[0]) {
            if r.coverage.is_none() {
                recovered = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(recovered, "the respawned silo never rejoined");
    for (q, truth) in queries.iter().zip(&truths) {
        let r = exact.try_execute(&fed, q).expect("recovered");
        assert_eq!(r.value.to_bits(), truth.to_bits());
        assert!(r.coverage.is_none());
    }

    drop(fed);
    server0.stop();
    server1b.stop();
}

// ---------------------------------------------------------------------
// Epoch fencing end to end: a stale reply crosses a reconnect
// ---------------------------------------------------------------------

#[test]
fn stale_replies_across_reconnects_are_fenced_not_answered() {
    let dir = scratch("fence");
    let data = dataset(0xFE2C, 1);
    let bounds = data.bounds();
    let server = SiloSocketServer::spawn(
        Silo::new(0, data.partitions()[0].clone(), 1),
        &SiloAddr::Unix(dir.join("silo-0.sock")),
        SocketServerConfig::default(),
    )
    .expect("server");
    let proxy = ChaosProxy::spawn(server.addr()).expect("proxy");

    let fed = FederationBuilder::new(bounds)
        .grid_cell_len(CELL_LEN)
        .lsr_seed(LSR_SEED)
        .connect_remote(proxy.addr().to_string())
        .degrade_policy(DegradePolicy::Partial {
            min_silos: 0,
            min_coverage: 0.0,
        })
        .call_policy(CallPolicy {
            deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        })
        .build(vec![]);

    let fenced = |fed: &Federation| {
        fed.silo_metrics(0)
            .snapshot()
            .counters
            .get("fedra_epoch_fenced_replies_total")
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(fed.call(0, &Request::Ping), Ok(Response::Pong));
    assert_eq!(fenced(&fed), 0);

    // The proxy forwards the next request upstream but severs the client
    // first: the reply comes back on the persistent upstream connection
    // and is delivered to the RECONNECTED client — stamped with the dead
    // connection's epoch, so the reader must fence it.
    proxy.drop_client_after_next_request();
    let mut fenced_seen = 0;
    for _ in 0..50 {
        let _ = fed.call(0, &Request::Ping);
        fenced_seen = fenced(&fed);
        if fenced_seen > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(fenced_seen > 0, "the stale-epoch reply was never fenced");
    // The channel still answers correctly after fencing.
    let pong = fed.call(0, &Request::Ping).expect("post-fence call");
    assert_eq!(pong, Response::Pong);

    drop(fed);
    let mut proxy = proxy;
    proxy.stop();
    server.stop();
}
