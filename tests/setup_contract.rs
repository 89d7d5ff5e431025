//! The setup contract (Alg. 1): every silo, in-process or a `fedra-silo`
//! process, indexes its partition by the one `Setup` the provider sends
//! it, so a remote federation at any grid length serves the trees an
//! in-process one does. A repeated equal `Setup` is a no-op, another is
//! refused, a query before it is refused, and a spec whose grid could not
//! travel in one frame is refused before the silo allocates it — each a
//! typed error on both backends, after which the silo keeps serving.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedra::federation::transport::socket::spawn_silo_socket;
use fedra::federation::transport::spawn_silo;
use fedra::federation::{LocalMode, Request, Response, SetupError, SiloChannel};
use fedra::index::histogram::MinSkewConfig;
use fedra::index::rtree::RTreeConfig;
use fedra::prelude::*;
use fedra::workload::{write_csv, MeasureModel};

/// A grid length other than the builder's default of 1 km.
const CELL_LEN: f64 = 0.5;

/// Three silos with a continuous measure: a sum's last bit shows how a
/// silo's trees were packed.
fn dataset() -> Dataset {
    WorkloadSpec {
        measure: MeasureModel::Speed,
        ..WorkloadSpec::default()
            .with_total_objects(60_000)
            .with_silos(3)
            .with_seed(0x5E7)
    }
    .generate()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedra-setup-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `fedra-silo serve` processes, killed when dropped.
struct SiloProcesses(Vec<Child>);

impl Drop for SiloProcesses {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One `fedra-silo serve` per partition of `csv`, on Unix sockets in
/// `dir`, started with no flag about the grid. Returns once every socket
/// exists.
fn spawn_silo_processes(csv: &Path, dir: &Path, silos: usize) -> (SiloProcesses, Vec<String>) {
    let mut processes = SiloProcesses(Vec::new());
    let mut addrs = Vec::new();
    for k in 0..silos {
        let socket = dir.join(format!("s{k}.sock"));
        let child = Command::new(env!("CARGO_BIN_EXE_fedra-silo"))
            .arg("serve")
            .arg("--addr")
            .arg(format!("unix:{}", socket.display()))
            .arg("--data")
            .arg(csv)
            .args(["--silo-id", &k.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fedra-silo");
        processes.0.push(child);
        addrs.push(format!("unix:{}", socket.display()));
    }
    let started = Instant::now();
    while !(0..silos).all(|k| dir.join(format!("s{k}.sock")).exists()) {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "fedra-silo never listened"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    (processes, addrs)
}

#[test]
fn remote_silos_serve_the_in_process_trees_at_a_non_default_cell_length() {
    let dir = scratch("remote");
    let data = dataset();
    let csv = dir.join("silos.csv");
    write_csv(&data, &csv).expect("write csv");
    let (processes, addrs) = spawn_silo_processes(&csv, &dir, data.partitions().len());

    let twin = FederationBuilder::new(data.bounds())
        .grid_cell_len(CELL_LEN)
        .transport_backend(TransportBackend::InMemory)
        .build(data.partitions().to_vec());
    let mut builder = FederationBuilder::new(data.bounds()).grid_cell_len(CELL_LEN);
    for addr in &addrs {
        builder = builder.connect_remote(addr.clone());
    }
    let remote = builder.build(vec![]);

    // Node for node: the same forests and histograms.
    assert_eq!(remote.silo_memory_reports(), twin.silo_memory_reports());
    let queries: Vec<FraQuery> = QueryGenerator::new(&data.all_objects(), 17)
        .circles(2.0, 40)
        .into_iter()
        .map(|range| FraQuery::new(range, AggFunc::Sum))
        .collect();
    let exact = Exact::new();
    let (est_twin, est_remote) = (NonIidEst::new(41), NonIidEst::new(41));
    for q in &queries {
        let (want, got) = (exact.execute(&twin, q), exact.execute(&remote, q));
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "EXACT {q}");
        let (want, got) = (est_twin.execute(&twin, q), est_remote.execute(&remote, q));
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "NonIID-est {q}");
    }
    drop(remote);
    drop(processes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Silo 0 of `data`, not set up, behind `backend`.
fn spawn(backend: TransportBackend, data: &Dataset) -> SiloChannel {
    let silo = Silo::new(0, data.partitions()[0].clone(), 1);
    let stats = Arc::new(CommCounters::default());
    let spawned = match backend {
        TransportBackend::InMemory => spawn_silo(silo, stats, None),
        TransportBackend::Socket => spawn_silo_socket(silo, stats, None),
    };
    spawned.expect("spawn silo").0
}

/// The silo's refusal of `request`, which must be typed and name `why`.
fn refusal(channel: &SiloChannel, request: &Request, why: &str) {
    match channel.call(request) {
        Err(TransportError::Remote { silo: 0, message }) => {
            assert!(message.contains(why), "{message}")
        }
        other => panic!("{request:?} answered {other:?}"),
    }
    assert_eq!(channel.call(&Request::Ping), Ok(Response::Pong));
}

#[test]
fn a_silo_is_set_up_once_and_refuses_queries_before_and_other_specs_after_on_both_backends() {
    let data = dataset();
    let builder = FederationBuilder::new(data.bounds()).grid_cell_len(CELL_LEN);
    let spec = builder.silo_spec(0);
    let query = Request::Aggregate {
        range: Range::circle(Point::new(0.0, -95.0), 2.0),
        mode: LocalMode::Exact,
    };
    for backend in [TransportBackend::InMemory, TransportBackend::Socket] {
        let channel = spawn(backend, &data);
        for request in [
            query.clone(),
            Request::HistogramEstimate {
                range: Range::circle(Point::new(0.0, -95.0), 2.0),
            },
            Request::BuildGrid { return_cells: true },
        ] {
            refusal(&channel, &request, "not set up");
        }
        let Ok(Response::Memory(first)) = channel.call(&Request::Setup(spec)) else {
            panic!("{backend:?}: Setup answers the memory report");
        };
        assert!(first.rtree > 0 && first.grid == 0, "{backend:?}: {first:?}");
        let grid = channel.call(&Request::BuildGrid { return_cells: true });
        assert!(matches!(grid, Ok(Response::Grid { .. })), "{backend:?}");
        // A restarted provider's equal Setup is a no-op.
        let Ok(Response::Memory(again)) = channel.call(&Request::Setup(spec)) else {
            panic!("{backend:?}: an equal Setup answers the report");
        };
        assert_eq!(
            (again.rtree, again.lsr_extra),
            (first.rtree, first.lsr_extra)
        );
        assert!(again.grid > 0, "{backend:?}: the grid stays retained");
        for other in [
            FederationBuilder::new(data.bounds()).silo_spec(0),
            builder.silo_spec(1),
        ] {
            refusal(&channel, &Request::Setup(other), "another spec");
        }
        assert!(matches!(channel.call(&query), Ok(Response::Agg(_))));
        assert_eq!(
            channel.call(&Request::BuildGrid { return_cells: true }),
            grid
        );
    }
}

#[test]
fn a_grid_too_large_for_a_frame_is_refused_typed_on_both_backends() {
    let data = dataset();
    // ≈ 16 km / 1e-6 km per side: some 10¹⁴ cells, whose allocation
    // would abort the silo's process.
    let hostile = FederationBuilder::new(data.bounds()).grid_cell_len(1e-6);
    for backend in [TransportBackend::InMemory, TransportBackend::Socket] {
        let channel = spawn(backend, &data);
        refusal(
            &channel,
            &Request::Setup(hostile.silo_spec(0)),
            "does not fit",
        );
        let spec = FederationBuilder::new(data.bounds()).silo_spec(0);
        assert!(matches!(
            channel.call(&Request::Setup(spec)),
            Ok(Response::Memory(_))
        ));

        let err = hostile
            .clone()
            .transport_backend(backend)
            .try_build(data.partitions().to_vec())
            .expect_err("the silos refuse the grid");
        match err {
            SetupError::Transport(TransportError::Remote { silo: 0, message }) => {
                assert!(message.contains("does not fit"), "{backend:?}: {message}")
            }
            other => panic!("{backend:?}: {other:?}"),
        }
    }
}

#[test]
fn a_spec_no_silo_could_index_is_refused_typed_and_a_valid_one_served_on_both_backends() {
    let data = dataset();
    let spec = FederationBuilder::new(data.bounds()).silo_spec(0);
    let mut hostile: Vec<(SiloSpec, &str)> = [-1.0, 0.0, f64::NAN, f64::INFINITY]
        .map(|cell_len| (SiloSpec { cell_len, ..spec }, "silo spec grid"))
        .to_vec();
    for corner in [Point::new(f64::NAN, 0.0), Point::new(f64::INFINITY, 0.0)] {
        let bounds = Rect::from_corners(corner, spec.bounds.max);
        hostile.push((SiloSpec { bounds, ..spec }, "silo spec grid"));
    }
    for max_entries in [0, 1] {
        let rtree = RTreeConfig { max_entries };
        hostile.push((SiloSpec { rtree, ..spec }, "silo spec R-tree fanout"));
    }
    for (resolution, budget) in [(0, 16), (16, 0)] {
        let histogram = MinSkewConfig { resolution, budget };
        hostile.push((SiloSpec { histogram, ..spec }, "silo spec histogram"));
    }
    for backend in [TransportBackend::InMemory, TransportBackend::Socket] {
        let channel = spawn(backend, &data);
        for (bad, why) in &hostile {
            refusal(&channel, &Request::Setup(*bad), why);
        }
        assert!(
            matches!(channel.call(&Request::Setup(spec)), Ok(Response::Memory(_))),
            "{backend:?}: the valid Setup is served"
        );
    }
}
