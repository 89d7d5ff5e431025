//! The `fedra-lint` command-line interface.
//!
//! ```text
//! cargo run -p fedra-lint -- check                 # fail on any finding
//! cargo run -p fedra-lint -- check --root DIR      # analyze another tree
//! cargo run -p fedra-lint -- list                  # show registered lints
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fedra_lint::registry::Registry;
use fedra_lint::workspace::run_check;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("check");
    let root = args
        .iter()
        .position(|a| a == "--root")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(default_root);

    match command {
        "check" => check(&root),
        "list" => list(),
        other => {
            eprintln!("fedra-lint: unknown command `{other}` (try: check, list)");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn check(root: &Path) -> ExitCode {
    let report = match run_check(root, &Registry::with_default_lints()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "fedra-lint: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    for d in &report.findings {
        println!("{d}");
    }
    println!(
        "fedra-lint: {} files checked, {} finding(s)",
        report.files_checked,
        report.findings.len(),
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() -> ExitCode {
    for (name, description) in Registry::with_default_lints().lints() {
        println!("{name:22} {description}");
    }
    ExitCode::SUCCESS
}
