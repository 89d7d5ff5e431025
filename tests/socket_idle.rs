//! An idle socket federation wakes no thread (DESIGN.md §5h): there is no
//! client reader thread — a waiting caller reads its own reply — and each
//! silo's accept loop blocks in `accept` instead of polling a stop flag.
//!
//! Linux-only: it reads per-thread counters from `/proc`. Alone in its
//! binary, so no other test's traffic wakes the threads it watches.

#![cfg(target_os = "linux")]

use std::time::Duration;

use fedra::federation::TransportBackend;
use fedra::prelude::*;

/// `(name, tid)` of every thread of this process.
fn threads() -> Vec<(String, String)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list threads");
    tasks
        .filter_map(|task| {
            let tid = task.ok()?.file_name().into_string().ok()?;
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            Some((comm.trim_end().to_string(), tid))
        })
        .collect()
}

/// How often thread `tid` has gone to sleep of its own accord.
fn voluntary_switches(tid: &str) -> u64 {
    let status =
        std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).expect("thread status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("voluntary_ctxt_switches")
}

#[test]
fn an_idle_socket_federation_wakes_no_thread() {
    let dataset = WorkloadSpec::small().generate();
    let federation = FederationBuilder::new(dataset.bounds())
        .grid_cell_len(1.0)
        .transport_backend(TransportBackend::Socket)
        .build(dataset.partitions().to_vec());
    let query = FraQuery::circle(Point::new(0.0, 0.0), 2.0, AggFunc::Count);
    for seed in 0..8 {
        NonIidEst::new(seed).execute(&federation, &query);
    }

    let threads = threads();
    // Thread names are cut to 15 bytes in `comm`.
    assert!(
        !threads
            .iter()
            .any(|(name, _)| name.starts_with("fedra-sock-rx")),
        "a client reader thread exists: {threads:?}"
    );
    let acceptors: Vec<&str> = threads
        .iter()
        .filter(|(name, _)| name.starts_with("fedra-silo-srv"))
        .map(|(_, tid)| tid.as_str())
        .collect();
    assert_eq!(acceptors.len(), federation.num_silos(), "{threads:?}");
    let before: Vec<u64> = acceptors
        .iter()
        .map(|tid| voluntary_switches(tid))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    for (tid, before) in acceptors.iter().zip(before) {
        let woke = voluntary_switches(tid) - before;
        assert!(
            woke < 3,
            "accept thread {tid} woke {woke} times in 200 ms idle"
        );
    }
}
