//! Fixture tests: each lint fires on a seeded violation and stays quiet on
//! the repaired equivalent.

use fedra_lint::registry::Registry;
use fedra_lint::scan::SourceFile;
use fedra_lint::workspace::Workspace;

fn run(files: &[SourceFile]) -> Vec<fedra_lint::diagnostics::Diagnostic> {
    Registry::with_default_lints().run(&Workspace::from_files(files.to_vec()))
}

fn file(path: &str, source: &str) -> SourceFile {
    SourceFile::new(path.to_string(), source)
}

// ---------------------------------------------------------------- federation-safety

#[test]
fn federation_safety_flags_location_types_in_response() {
    let src = "
pub enum Response {
    Rows(Vec<SpatialObject>),
    Where(Point),
    Measures(Vec<f64>),
    Agg(Aggregate),
}
";
    let diags = run(&[file("crates/federation/src/protocol.rs", src)]);
    let safety: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == "federation-safety")
        .collect();
    assert_eq!(safety.len(), 3, "{safety:?}");
    assert!(safety[0].message.contains("SpatialObject"));
    assert!(safety[1].message.contains("Point"));
    assert!(safety[2].message.contains("Vec<f64>") || safety[2].message.contains("measure"));
}

#[test]
fn federation_safety_accepts_aggregate_only_responses() {
    let src = "
pub enum Response {
    Agg(Aggregate),
    Memory(SiloMemoryReport),
    Error(String),
}
";
    let diags = run(&[file("crates/federation/src/protocol.rs", src)]);
    assert!(
        diags.iter().all(|d| d.lint != "federation-safety"),
        "{diags:?}"
    );
}

#[test]
fn federation_safety_ignores_request_payloads_and_other_crates() {
    // Requests legitimately carry provider-chosen coordinates to silos.
    let request_side = "
pub enum Request {
    Aggregate { range: Range, center: Point },
}
";
    let diags = run(&[file("crates/federation/src/protocol.rs", request_side)]);
    assert!(diags.iter().all(|d| d.lint != "federation-safety"));
    // A Response enum outside crates/federation is out of scope.
    let elsewhere = "pub enum Response { Raw(Vec<SpatialObject>) }";
    let diags = run(&[file("crates/workload/src/gen.rs", elsewhere)]);
    assert!(diags.iter().all(|d| d.lint != "federation-safety"));
}

// ---------------------------------------------------------------- panic-discipline

#[test]
fn panic_discipline_flags_unwrap_expect_and_macros() {
    let src = "
fn hot(rx: Receiver<u8>) -> u8 {
    let a = rx.recv().unwrap();
    let b = rx.recv().expect(\"reply\");
    if a == b {
        panic!(\"equal\");
    }
    unreachable!()
}
";
    let diags = run(&[file("crates/federation/src/transport.rs", src)]);
    let panics: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == "panic-discipline")
        .collect();
    assert_eq!(panics.len(), 4, "{panics:?}");
}

#[test]
fn panic_discipline_exempts_test_code() {
    let src = "
fn hot() {}

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() {
        make().unwrap();
        panic!(\"fine in tests\");
    }
}
";
    let diags = run(&[file("crates/federation/src/transport.rs", src)]);
    assert!(
        diags.iter().all(|d| d.lint != "panic-discipline"),
        "{diags:?}"
    );
}

#[test]
fn panic_discipline_honors_inline_allow() {
    let src = "
fn convenience() -> u8 {
    fallible().unwrap() // fedra-lint: allow(panic-discipline)
}

fn above() -> u8 {
    // fedra-lint: allow(panic-discipline)
    fallible().unwrap()
}
";
    let diags = run(&[file("crates/federation/src/transport.rs", src)]);
    assert!(
        diags.iter().all(|d| d.lint != "panic-discipline"),
        "{diags:?}"
    );
}

#[test]
fn panic_discipline_scopes_to_federation_and_engine_paths() {
    let src = "fn helper() { thing().unwrap(); }";
    // theory.rs holds diagnostics, not the hot path.
    let diags = run(&[file("crates/core/src/theory.rs", src)]);
    assert!(diags.iter().all(|d| d.lint != "panic-discipline"));
    // The engine files are in scope.
    let diags = run(&[file("crates/core/src/framework.rs", src)]);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.lint == "panic-discipline")
            .count(),
        1
    );
}

#[test]
fn panic_discipline_covers_the_health_tracker() {
    // The circuit breaker (new with the fault-injection work) lives on
    // the hot candidate-selection path, so it must be in lint scope like
    // the rest of crates/federation.
    let src = "
fn allows(&self, silo: SiloId) -> bool {
    self.silos.get(silo).unwrap().lock().state == BreakerState::Closed
}
";
    let diags = run(&[file("crates/federation/src/health.rs", src)]);
    let panics: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == "panic-discipline")
        .collect();
    assert_eq!(panics.len(), 1, "{panics:?}");
}

#[test]
fn panic_discipline_ignores_strings_and_comments() {
    let src = "
// explains why x.unwrap() would be wrong here
fn hot() {
    log(\"never call unwrap() on the reply\");
}
";
    let diags = run(&[file("crates/federation/src/transport.rs", src)]);
    assert!(
        diags.iter().all(|d| d.lint != "panic-discipline"),
        "{diags:?}"
    );
}

#[test]
fn panic_discipline_gates_the_chaos_proxy_write_path() {
    // The chaos proxy builds reply frames into a Vec before corrupting
    // them; `.expect("vec write")` there would kill the proxy thread
    // mid-soak. The typed match the product code uses must pass, the
    // shortcut must not.
    let panicky = r#"
fn pump(stream: &mut TcpStream) {
    let mut buf = Vec::new();
    write_reply_frame(&mut buf, corr, epoch, &payload).expect("vec write");
    stream.write_all(&buf).ok();
}
"#;
    let diags = run(&[file("crates/federation/src/transport/chaos.rs", panicky)]);
    let panics: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == "panic-discipline")
        .collect();
    assert_eq!(panics.len(), 1, "{panics:?}");

    let typed = r#"
fn pump(stream: &mut TcpStream) {
    let mut buf = Vec::new();
    let outcome = match write_reply_frame(&mut buf, corr, epoch, &payload) {
        Ok(()) => stream.write_all(&buf),
        Err(e) => Err(e),
    };
    let _ = outcome;
}
"#;
    let diags = run(&[file("crates/federation/src/transport/chaos.rs", typed)]);
    assert!(
        diags.iter().all(|d| d.lint != "panic-discipline"),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------- lock-discipline

#[test]
fn lock_discipline_flags_blocking_send_under_a_guard() {
    let src = "
fn pump(pool: &Mutex<Vec<u8>>, tx: &Sender<u8>) {
    let pairs = pool.lock();
    let _ = tx.send(1);
}
";
    let diags = run(&[file("crates/core/src/theory.rs", src)]);
    let locks: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == "lock-discipline")
        .collect();
    assert_eq!(locks.len(), 1, "{locks:?}");
    assert!(locks[0].message.contains("pairs"));
    assert!(locks[0].message.contains("send"));
}

#[test]
fn lock_discipline_flags_recv_and_join_and_guard_variants() {
    let src = "
fn a(m: &RwLock<u8>, rx: &Receiver<u8>) {
    let g = m.read();
    let _ = rx.recv();
}
fn b(m: &RwLock<u8>, h: JoinHandle<()>) {
    let g = m.write();
    let _ = h.join();
}
fn c(m: &Mutex<u8>, rx: &Receiver<u8>) {
    let g = m.lock().unwrap();
    let _ = rx.recv_timeout(t);
}
fn d(m: &Mutex<u8>, tx: &Sender<u8>) {
    let g = m.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = tx.send(1);
}
";
    let diags = run(&[file("crates/core/src/theory.rs", src)]);
    assert_eq!(
        diags.iter().filter(|d| d.lint == "lock-discipline").count(),
        4,
        "{diags:?}"
    );
}

#[test]
fn lock_discipline_accepts_drop_before_blocking() {
    let src = "
fn pump(pool: &Mutex<Vec<u8>>, tx: &Sender<u8>) {
    let pairs = pool.lock();
    drop(pairs);
    let _ = tx.send(1);
}
";
    let diags = run(&[file("crates/core/src/theory.rs", src)]);
    assert!(
        diags.iter().all(|d| d.lint != "lock-discipline"),
        "{diags:?}"
    );
}

#[test]
fn lock_discipline_accepts_scoped_guards_and_temporaries() {
    let src = "
fn scoped(pool: &Mutex<Vec<u8>>, tx: &Sender<u8>) {
    {
        let pairs = pool.lock();
        pairs.push(1);
    }
    let _ = tx.send(1);
}
fn temporary(pool: &Mutex<Vec<u8>>, tx: &Sender<u8>) {
    pool.lock().push(1);
    let _ = tx.send(2);
}
fn consumed(pool: &Mutex<Vec<u8>>, tx: &Sender<u8>) {
    let top = pool.lock().pop();
    let _ = tx.send(3);
}
";
    let diags = run(&[file("crates/core/src/theory.rs", src)]);
    assert!(
        diags.iter().all(|d| d.lint != "lock-discipline"),
        "{diags:?}"
    );
}

#[test]
fn lock_discipline_flags_scoped_worker_join_under_a_guard() {
    // The worker-pool idiom: scoped threads joined while a lock guard is
    // still live deadlocks as surely as a bare `JoinHandle::join` —
    // the scoped spawn must not launder the blocking call.
    let src = "
fn reduce(state: &Mutex<Vec<u8>>) {
    std::thread::scope(|scope| {
        let guard = state.lock();
        let handle = scope.spawn(|| 1u8);
        let _ = handle.join();
    });
}
";
    let diags = run(&[file("crates/core/src/theory.rs", src)]);
    let locks: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == "lock-discipline")
        .collect();
    assert_eq!(locks.len(), 1, "{locks:?}");
    assert!(locks[0].message.contains("guard"));
    assert!(locks[0].message.contains("join"));
}

#[test]
fn lock_discipline_accepts_guard_dropped_before_scoped_join() {
    let src = "
fn reduce(state: &Mutex<Vec<u8>>) {
    std::thread::scope(|scope| {
        let guard = state.lock();
        let handle = scope.spawn(|| 1u8);
        drop(guard);
        let _ = handle.join();
    });
}
";
    let diags = run(&[file("crates/core/src/theory.rs", src)]);
    assert!(
        diags.iter().all(|d| d.lint != "lock-discipline"),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------- determinism-discipline

#[test]
fn determinism_flags_unordered_iteration_in_a_region() {
    let src = "
fn merge(results: HashMap<u64, f64>) -> f64 {
    let mut total = 0.0;
    for v in results.values() {
        total += v;
    }
    total
}
";
    let diags = run(&[file("crates/core/src/sampling.rs", src)]);
    let det: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == "determinism-discipline")
        .collect();
    assert_eq!(det.len(), 1, "{det:?}");
    assert!(det[0].message.contains("results"));
}

#[test]
fn determinism_flags_for_loops_over_unordered_containers() {
    let src = "
fn export(seen: HashSet<u64>) {
    for id in &seen {
        emit(id);
    }
}
";
    let diags = run(&[file("crates/core/src/sampling.rs", src)]);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.lint == "determinism-discipline")
            .count(),
        1,
        "{diags:?}"
    );
}

#[test]
fn determinism_flags_clock_thread_identity_and_float_order() {
    let src = "
fn schedule(rx: &Receiver<f64>) -> f64 {
    let t0 = Instant::now();
    let stamp = SystemTime::now();
    let me = thread::current().id();
    let total: f64 = rx.try_iter().sum();
    total
}
fn rank(mut xs: Vec<f64>) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
";
    let diags = run(&[file("crates/core/src/sampling.rs", src)]);
    let det: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == "determinism-discipline")
        .collect();
    // Instant::now, SystemTime::now, thread id, completion-order sum,
    // partial_cmp comparator.
    assert_eq!(det.len(), 5, "{det:?}");
}

#[test]
fn determinism_is_quiet_outside_regions_and_in_tests() {
    let src = "
fn merge(results: HashMap<u64, f64>) -> f64 {
    results.values().sum()
}
";
    // theory.rs is not a deterministic region.
    let diags = run(&[file("crates/core/src/theory.rs", src)]);
    assert!(diags.iter().all(|d| d.lint != "determinism-discipline"));
    // Test modules inside a region file are exempt.
    let test_src = "
fn pure() {}

#[cfg(test)]
mod tests {
    #[test]
    fn order_free() {
        let m: HashMap<u64, f64> = make();
        let _ = m.values().count();
        let _ = Instant::now();
    }
}
";
    let diags = run(&[file("crates/core/src/sampling.rs", test_src)]);
    assert!(
        diags.iter().all(|d| d.lint != "determinism-discipline"),
        "{diags:?}"
    );
}

#[test]
fn determinism_accepts_ordered_containers_and_total_cmp() {
    let src = "
fn merge(results: BTreeMap<u64, f64>) -> f64 {
    results.values().sum()
}
fn rank(mut xs: Vec<f64>) {
    xs.sort_by(f64::total_cmp);
}
";
    let diags = run(&[file("crates/core/src/sampling.rs", src)]);
    assert!(
        diags.iter().all(|d| d.lint != "determinism-discipline"),
        "{diags:?}"
    );
}

#[test]
fn determinism_honors_region_markers_and_inline_allows() {
    // A file outside the built-in region list opts in with the marker.
    let marked = "
// fedra-lint: deterministic-region
fn merge(results: HashMap<u64, f64>) -> f64 {
    results.values().sum()
}
";
    let diags = run(&[file("crates/workload/src/gen.rs", marked)]);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.lint == "determinism-discipline")
            .count(),
        1,
        "{diags:?}"
    );
    // An allow directive suppresses a justified finding.
    let allowed = "
fn merge(results: HashMap<u64, f64>) -> f64 {
    // Feeds a commutative integer max, order cannot escape.
    // fedra-lint: allow(determinism-discipline)
    results.values().fold(0.0, f64::max)
}
";
    let diags = run(&[file("crates/core/src/sampling.rs", allowed)]);
    assert!(
        diags.iter().all(|d| d.lint != "determinism-discipline"),
        "{diags:?}"
    );
}
