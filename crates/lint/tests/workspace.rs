//! End-to-end checks: the lint scope covers every product crate, and a
//! seeded violation fails a check of a scratch tree. That the real
//! workspace is clean is the root package's `tests/lint.rs`.

use std::path::{Path, PathBuf};

use fedra_lint::registry::Registry;
use fedra_lint::workspace::{collect_workspace, run_check};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

/// The observability crate is product source and must stay in lint
/// scope — its lock use and federation-safety matter as much as the
/// engine's.
#[test]
fn the_obs_crate_is_in_scope() {
    let ws = collect_workspace(&repo_root()).expect("workspace is readable");
    let obs: Vec<&str> = ws
        .files
        .iter()
        .map(|f| f.path.as_str())
        .filter(|p| p.starts_with("crates/obs/src/"))
        .collect();
    assert!(
        obs.len() >= 6,
        "expected the six fedra-obs modules in scope, got {obs:?}"
    );
    for module in [
        "context.rs",
        "metrics.rs",
        "trace.rs",
        "comm.rs",
        "export.rs",
    ] {
        assert!(
            obs.iter().any(|p| p.ends_with(module)),
            "missing crates/obs/src/{module} from lint scope"
        );
    }
}

/// Builds a scratch tree shaped like the workspace, with one seeded
/// violation, and checks it end to end through `run_check`: the finding
/// fails the run, and fixing the code (or allowing the site) clears it.
#[test]
fn a_seeded_violation_fails_a_scratch_tree() {
    let root = std::env::temp_dir().join(format!("fedra-lint-fixture-{}", std::process::id()));
    let src_dir = root.join("crates/federation/src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    let check = |source: &str| {
        std::fs::write(src_dir.join("transport.rs"), source).expect("write fixture");
        run_check(&root, &Registry::with_default_lints()).expect("scratch readable")
    };

    let report = check("fn hot(rx: Receiver<u8>) -> u8 { rx.recv().unwrap() }\n");
    assert_eq!(report.files_checked, 1);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let d = &report.findings[0];
    assert_eq!(d.lint, "panic-discipline");
    assert_eq!(d.file, "crates/federation/src/transport.rs");
    assert_eq!((d.line, d.col), (1, 44));

    let report = check(
        "// fedra-lint: allow(panic-discipline)\n\
         fn hot(rx: Receiver<u8>) -> u8 { rx.recv().unwrap() }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    let report = check("fn hot(rx: Receiver<u8>) -> Result<u8, RecvError> { rx.recv() }\n");
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    std::fs::remove_dir_all(&root).ok();
}
