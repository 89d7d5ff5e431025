//! A silo's accept loop survives a failed accept (DESIGN.md §5h). With
//! the process out of file descriptors, `accept` fails with `EMFILE` and
//! the pending connection stays queued; the loop counts the failure in
//! `fedra_silo_accept_errors_total`, backs off, retries, and serves the
//! connection once descriptors are free again — `fedra-silo serve` must
//! not exit over it.
//!
//! Linux-only, and alone in its binary: it uses up the process's
//! descriptors.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fedra::federation::transport::socket::{read_reply_frame, write_request_frame, DEADLINE_NONE};
use fedra::federation::wire::Wire;
use fedra::federation::{Request, Response, Silo, SiloAddr, SiloSocketServer, SocketServerConfig};
use fedra::obs::catalog::SILO_ACCEPT_ERRORS_TOTAL;
use fedra::prelude::*;

/// The descriptor limit this test runs under: small enough to use up
/// quickly.
const FD_LIMIT: u64 = 1024;

/// `EMFILE`: the process is out of file descriptors.
const EMFILE: i32 = 24;

/// The soft limit on open descriptors (`None`: unlimited or unreadable).
fn open_file_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[test]
fn a_failed_accept_is_retried_and_the_connection_served() {
    if open_file_limit().is_none_or(|limit| limit > FD_LIMIT) {
        // Using up a large limit is slow and pins kernel memory: run this
        // test again, alone, in a child process under a lower limit.
        let exe = std::env::current_exe().expect("test binary path");
        let rerun = std::process::Command::new("sh")
            .arg("-c")
            .arg(format!("ulimit -n {FD_LIMIT} && exec \"$0\" \"$@\""))
            .arg(exe)
            .args([
                "--exact",
                "a_failed_accept_is_retried_and_the_connection_served",
                "--test-threads=1",
            ])
            .output()
            .expect("rerun under a lower descriptor limit");
        assert!(
            rerun.status.success(),
            "the rerun failed ({}):\n{}{}",
            rerun.status,
            String::from_utf8_lossy(&rerun.stdout),
            String::from_utf8_lossy(&rerun.stderr)
        );
        return;
    }

    let bounds = Rect::new(Point::new(-4.0, -2.0), Point::new(4.0, 2.0));
    let objects = (0..50)
        .map(|i| SpatialObject::at(-4.0 + 0.16 * i as f64, -1.0 + 0.04 * i as f64, 1.0))
        .collect();
    let silo = Silo::new(0, objects, 1);
    let spec = FederationBuilder::new(bounds)
        .grid_cell_len(1.0)
        .lsr_seed(7)
        .silo_spec(0);
    assert!(matches!(
        silo.handle(Request::Setup(spec)),
        Response::Memory(_)
    ));
    let failures = silo.metrics().series(&SILO_ACCEPT_ERRORS_TOTAL, &[&0]);
    let server = SiloSocketServer::spawn(
        silo,
        &SiloAddr::Tcp("127.0.0.1:0".into()),
        SocketServerConfig::default(),
    )
    .expect("spawn server");
    let SiloAddr::Tcp(addr) = server.addr().clone() else {
        panic!("expected a TCP address");
    };

    // Use up every descriptor but one, and connect with that one: the
    // kernel completes the handshake, the server's accept has no
    // descriptor left to hand the connection.
    let mut hoard = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => hoard.push(file),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break,
            Err(e) => panic!("unexpected open failure: {e}"),
        }
    }
    hoard.pop();
    let mut client = TcpStream::connect(&addr).expect("connect with the last descriptor");
    let patience = Instant::now() + Duration::from_secs(10);
    while failures.get() == 0 {
        assert!(Instant::now() < patience, "no failed accept was counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(hoard);

    // The queued connection is accepted on a retry and served.
    write_request_frame(&mut client, 1, 0, DEADLINE_NONE, &Request::Ping.to_bytes())
        .expect("send a ping");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let (corr, _, payload) = read_reply_frame(&mut client).expect("the ping is answered");
    assert_eq!(corr, 1);
    assert_eq!(Response::from_bytes(payload), Ok(Response::Pong));
}
