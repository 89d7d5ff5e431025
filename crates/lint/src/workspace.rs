//! Workspace collection and the check entry point.

use std::path::{Path, PathBuf};

use crate::diagnostics::{Baseline, Diagnostic, Level};
use crate::registry::Registry;
use crate::scan::SourceFile;

/// Where the committed baseline lives, relative to the repo root.
pub const BASELINE_PATH: &str = "crates/lint/baseline.txt";

/// Everything a lint sees on one run: the lexed Rust sources.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Lexed `.rs` sources, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// A workspace holding only the given sources (fixture helper).
    pub fn from_files(files: Vec<SourceFile>) -> Workspace {
        Workspace { files }
    }
}

/// Outcome of one check run.
#[derive(Debug)]
pub struct Report {
    /// Findings that fail the run (deny level, not baselined).
    pub failing: Vec<Diagnostic>,
    /// Findings printed but tolerated (warn level).
    pub warnings: Vec<Diagnostic>,
    /// Findings covered by the committed baseline.
    pub baselined: Vec<Diagnostic>,
    /// Baseline entries whose finding no longer exists (should be pruned).
    pub stale_baseline: Vec<String>,
    /// Number of files analyzed.
    pub files_checked: usize,
}

impl Report {
    /// Whether the run passes (nothing failing, no stale baseline).
    pub fn is_clean(&self) -> bool {
        self.failing.is_empty() && self.stale_baseline.is_empty()
    }

    /// Every reported finding in location order, tagged with whether the
    /// committed baseline suppresses it. This is the sequence the
    /// machine-readable formats emit — stable across runs by construction
    /// (the registry sorts, and the baseline flag is a pure function of
    /// the finding).
    pub fn all_findings(&self) -> Vec<(&Diagnostic, bool)> {
        let mut all: Vec<(&Diagnostic, bool)> = self
            .failing
            .iter()
            .map(|d| (d, false))
            .chain(self.warnings.iter().map(|d| (d, false)))
            .chain(self.baselined.iter().map(|d| (d, true)))
            .collect();
        all.sort_by(|(a, _), (b, _)| {
            (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
        });
        all
    }
}

/// Collects every `.rs` file under `<root>/src` and `<root>/crates/*/src`.
///
/// Shims (`shims/*`), tests, benches and examples directories are not
/// product source and are deliberately out of scope; test *modules* inside
/// product sources are handled per-lint via the test-region map.
pub fn collect_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut dirs: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path().join("src"))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        dirs.extend(crate_dirs);
    }
    let mut paths = Vec::new();
    for dir in dirs {
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let files = paths
        .iter()
        .map(|p| SourceFile::load(root, p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Workspace { files })
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs `registry` over the workspace at `root`, splitting findings
/// against the baseline at `<root>/`[`BASELINE_PATH`].
pub fn run_check(root: &Path, registry: &Registry) -> std::io::Result<Report> {
    let workspace = collect_workspace(root)?;
    let baseline = Baseline::load(&root.join(BASELINE_PATH));
    let diags = registry.run(&workspace);
    let stale_baseline = baseline
        .stale(&diags)
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut report = Report {
        failing: Vec::new(),
        warnings: Vec::new(),
        baselined: Vec::new(),
        stale_baseline,
        files_checked: workspace.files.len(),
    };
    for d in diags {
        if baseline.covers(&d) {
            report.baselined.push(d);
        } else if d.level == Level::Warn {
            report.warnings.push(d);
        } else {
            report.failing.push(d);
        }
    }
    Ok(report)
}
