//! The `fedra-lint` command-line interface.
//!
//! ```text
//! cargo run -p fedra-lint -- check                 # fail on non-baselined findings
//! cargo run -p fedra-lint -- check --root DIR      # analyze another tree
//! cargo run -p fedra-lint -- check --format json   # machine-readable (also: sarif)
//! cargo run -p fedra-lint -- baseline              # regenerate the baseline file
//! cargo run -p fedra-lint -- list                  # show registered lints
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fedra_lint::diagnostics::Baseline;
use fedra_lint::output::{render_json, render_sarif};
use fedra_lint::registry::Registry;
use fedra_lint::workspace::{collect_workspace, run_check, BASELINE_PATH};

/// Output format for `check`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("check");
    let root = args
        .iter()
        .position(|a| a == "--root")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(default_root);
    let format = match args
        .iter()
        .position(|a| a == "--format")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None => Format::Human,
        Some("json") => Format::Json,
        Some("sarif") => Format::Sarif,
        Some(other) => {
            eprintln!("fedra-lint: unknown format `{other}` (try: json, sarif)");
            return ExitCode::from(2);
        }
    };

    match command {
        "check" => check(&root, format),
        "baseline" => baseline(&root),
        "list" => list(),
        other => {
            eprintln!("fedra-lint: unknown command `{other}` (try: check, baseline, list)");
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

fn check(root: &Path, format: Format) -> ExitCode {
    let registry = Registry::with_default_lints();
    let report = match run_check(root, &registry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "fedra-lint: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    match format {
        Format::Human => {
            for d in &report.warnings {
                println!("{d}");
            }
            for d in &report.failing {
                println!("{d}");
            }
            for entry in &report.stale_baseline {
                println!(
                    "stale baseline entry (finding fixed — delete it from {BASELINE_PATH}): {}",
                    entry.replace('\t', " ")
                );
            }
            println!(
                "fedra-lint: {} files checked — {} failing, {} warnings, {} baselined, {} stale",
                report.files_checked,
                report.failing.len(),
                report.warnings.len(),
                report.baselined.len(),
                report.stale_baseline.len(),
            );
        }
        Format::Json => print!("{}", render_json(&report, &registry.lints())),
        Format::Sarif => print!("{}", render_sarif(&report, &registry.lints())),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn baseline(root: &Path) -> ExitCode {
    let registry = Registry::with_default_lints();
    let workspace = match collect_workspace(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "fedra-lint: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let diags = registry.run(&workspace);
    let path = root.join(BASELINE_PATH);
    if let Err(e) = std::fs::write(&path, Baseline::render(&diags)) {
        eprintln!("fedra-lint: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "fedra-lint: wrote {} entries to {}",
        diags.len(),
        path.display()
    );
    ExitCode::SUCCESS
}

fn list() -> ExitCode {
    for (name, description, level) in Registry::with_default_lints().lints() {
        println!("{level:5} {name:20} {description}");
    }
    ExitCode::SUCCESS
}
