//! Tier-1 gate: the workspace must pass `fedra-lint` with no findings.
//!
//! This is the same pass as `cargo run -p fedra-lint -- check`, wired
//! into the root package's test suite so plain `cargo test` enforces it.

use fedra_lint::registry::Registry;
use fedra_lint::workspace::run_check;

#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run_check(root, &Registry::with_default_lints()).expect("workspace is readable");
    assert!(report.files_checked > 30, "suspiciously few files scanned");
    assert!(
        report.findings.is_empty(),
        "lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
