//! Black-box tests of the `fedra-cli` binary: exit codes, output shape,
//! and argument validation.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fedra-cli"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = cli().arg("help").output().expect("run fedra-cli");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("demo"));
    assert!(text.contains("--algo"));
}

#[test]
fn no_arguments_shows_help() {
    let out = cli().output().expect("run fedra-cli");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = cli().arg("frobnicate").output().expect("run fedra-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn mistyped_transport_backend_fails_the_build() {
    // A typo must not quietly run the in-memory backend and pass.
    let out = cli()
        .env("FEDRA_TRANSPORT", "sokcet")
        .args(["stats", "--objects", "2000", "--silos", "2"])
        .output()
        .expect("run fedra-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("names no transport backend"));
}

#[test]
fn unknown_algo_fails_cleanly() {
    let out = cli()
        .args([
            "query",
            "--objects",
            "2000",
            "--silos",
            "2",
            "--algo",
            "magic",
        ])
        .output()
        .expect("run fedra-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --algo"));
}

#[test]
fn query_count_prints_answer_and_comm() {
    let out = cli()
        .args([
            "query",
            "--objects",
            "5000",
            "--silos",
            "2",
            "--x",
            "0",
            "--y",
            "-95",
            "--radius",
            "3",
            "--func",
            "count",
            "--algo",
            "exact",
        ])
        .output()
        .expect("run fedra-cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("answer:"));
    assert!(text.contains("comm"));
}

#[test]
fn demo_prints_all_six_algorithms() {
    let out = cli()
        .args([
            "demo",
            "--objects",
            "6000",
            "--silos",
            "3",
            "--queries",
            "5",
        ])
        .output()
        .expect("run fedra-cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "EXACT",
        "OPTA",
        "IID-est",
        "IID-est+LSR",
        "NonIID-est",
        "NonIID-est+LSR",
    ] {
        assert!(text.contains(name), "missing {name} in demo output");
    }
}

#[test]
fn stats_reports_grid_and_memory() {
    let out = cli()
        .args([
            "stats",
            "--objects",
            "4000",
            "--silos",
            "2",
            "--grid-len",
            "2.0",
        ])
        .output()
        .expect("run fedra-cli");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("silos            : 2"));
    assert!(text.contains("grid"));
    assert!(text.contains("per-silo index memory"));
}

#[test]
fn malformed_flags_fail() {
    let out = cli()
        .args(["demo", "--objects"]) // missing value
        .output()
        .expect("run fedra-cli");
    assert!(!out.status.success());
}

#[test]
fn csv_data_drives_the_cli() {
    let dir = std::env::temp_dir().join("fedra-cli-csv-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.csv");
    // A tiny 2-silo fleet around the origin.
    let mut csv = String::from("silo,x_km,y_km,measure\n");
    for i in 0..200 {
        csv.push_str(&format!(
            "{},{},{},1\n",
            i % 2,
            (i % 20) as f64 * 0.1,
            (i / 20) as f64 * 0.1
        ));
    }
    std::fs::write(&path, csv).unwrap();
    let out = cli()
        .args([
            "query",
            "--data",
            path.to_str().unwrap(),
            "--x",
            "1",
            "--y",
            "0.5",
            "--radius",
            "5",
            "--algo",
            "exact",
        ])
        .output()
        .expect("run fedra-cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // All 200 objects are within 5 km of (1, 0.5).
    assert!(text.contains("answer: 200"), "got: {text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn csv_errors_are_reported_with_context() {
    let dir = std::env::temp_dir().join("fedra-cli-csv-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.csv");
    std::fs::write(&path, "0,oops,1,1\n").unwrap();
    let out = cli()
        .args(["stats", "--data", path.to_str().unwrap()])
        .output()
        .expect("run fedra-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unparsable_numeric_flags_fail_naming_the_flag() {
    // A value that does not parse must not fall back to the default.
    let cases: [(&[&str], &str, &str); 4] = [
        (
            &["query", "--silos", "2", "--radius", "2km"],
            "radius",
            "2km",
        ),
        (
            &["stats", "--silos", "2", "--objects", "5k"],
            "objects",
            "5k",
        ),
        (
            &["obs", "--objects", "2000", "--cache", "abc"],
            "cache",
            "abc",
        ),
        (
            &["stats", "--objects", "2000", "--chaos", "x"],
            "chaos",
            "x",
        ),
    ];
    for (args, flag, value) in cases {
        let out = cli().args(args).output().expect("run fedra-cli");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: --{flag}: cannot parse '{value}'")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn out_of_range_geometry_fails_naming_the_flag() {
    // Each parses, but names no circle: it must not be clamped or answered.
    let cases: [(&[&str], &str); 6] = [
        (&["query", "--silos", "2", "--radius", "-5"], "radius"),
        (&["query", "--silos", "2", "--radius", "NaN"], "radius"),
        (
            &["query", "--silos", "2", "--x", "NaN", "--algo", "noniid"],
            "x",
        ),
        (&["query", "--silos", "2", "--y", "inf"], "y"),
        (&["stats", "--silos", "2", "--radius", "-3"], "radius"),
        (&["obs", "--silos", "2", "--radius", "inf"], "radius"),
    ];
    for (args, flag) in cases {
        let out = cli().args(args).output().expect("run fedra-cli");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: --{flag}: ")),
            "{args:?}: {stderr}"
        );
        // Refused before the federation is built.
        assert!(
            !stderr.contains("building federation"),
            "{args:?}: {stderr}"
        );
    }
    // Radius 0 stays a point query.
    let out = cli()
        .args([
            "query",
            "--objects",
            "2000",
            "--silos",
            "2",
            "--radius",
            "0",
        ])
        .output()
        .expect("run fedra-cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("answer:"));
}

#[test]
fn a_fault_plan_naming_no_local_silo_fails_the_build() {
    // Silo 9 does not exist in a 6-silo federation: the drill would
    // silently inject nothing.
    let out = cli()
        .args([
            "stats",
            "--objects",
            "2000",
            "--chaos",
            "7",
            "--slow-silo",
            "9",
            "--flappy-silo",
            "42",
        ])
        .output()
        .expect("run fedra-cli");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: the fault plan names silo 9"),
        "{stderr}"
    );
}

#[test]
fn fedra_silo_rejects_unparsable_flags_naming_the_flag() {
    // The data file does not exist: a flag that were read after it would
    // report "could not load" instead of naming the flag.
    let missing = std::env::temp_dir().join("fedra-silo-flag-test-missing.csv");
    // `Some(why)`: the value does not parse; `None`: the flag is unknown
    // (the provider's Setup carries the LSR seed, so `--lsr-seed` is gone).
    let cases: [(&str, &str, Option<&str>); 11] = [
        ("silo-id", "one", Some("")),
        ("lsr-seed", "0xBEEF", None),
        ("threads", "-1", Some("")),
        ("fault-seed", "s", Some("")),
        ("fault-latency-ms", "2ms", Some("")),
        ("fault-crash-after", "ten", Some("")),
        ("fault-drop", "10%", Some("")),
        (
            "fault-transient",
            "1.5",
            Some(" (expected a probability in [0, 1])"),
        ),
        ("fault-flap", "4", Some(" (expected P:D with 0 < D <= P)")),
        ("fault-flap", "2:3", Some(" (expected P:D with 0 < D <= P)")),
        ("fault-flap", "4:0", Some(" (expected P:D with 0 < D <= P)")),
    ];
    for (flag, value, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fedra-silo"))
            .args(["serve", "--addr", "tcp:127.0.0.1:0", "--data"])
            .arg(&missing)
            .args([format!("--{flag}"), value.to_string()])
            .output()
            .expect("run fedra-silo");
        assert_eq!(out.status.code(), Some(1), "--{flag} {value} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = match expected {
            Some(why) => format!("error: --{flag}: cannot parse '{value}'{why}"),
            None => format!("error: unknown flag --{flag}"),
        };
        assert!(stderr.contains(&want), "--{flag} {value}: {stderr}");
    }
}
