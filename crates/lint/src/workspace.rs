//! Workspace collection and the check entry point.

use std::path::{Path, PathBuf};

use crate::diagnostics::Diagnostic;
use crate::registry::Registry;
use crate::scan::SourceFile;

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
    /// Every finding, in location order; any one fails the run.
    pub findings: Vec<Diagnostic>,
    /// Number of files analyzed.
    pub files_checked: usize,
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

/// Runs `registry` over the workspace at `root`.
pub fn run_check(root: &Path, registry: &Registry) -> std::io::Result<Report> {
    let workspace = collect_workspace(root)?;
    Ok(Report {
        findings: registry.run(&workspace),
        files_checked: workspace.files.len(),
    })
}
