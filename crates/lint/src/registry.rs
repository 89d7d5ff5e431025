//! The lint registry: which lints run.

use crate::diagnostics::Diagnostic;
use crate::workspace::Workspace;

/// One static-analysis rule.
///
/// A lint sees the **whole workspace** on every run — all lexed sources;
/// per-file lints simply loop over `ws.files`.
///
/// To add a lint: implement this trait in `src/lints/`, give it a unique
/// kebab-case `name`, and add it to [`Registry::with_default_lints`].
pub trait Lint {
    /// Unique kebab-case name (used in `allow(…)`).
    fn name(&self) -> &'static str;
    /// One-line rationale shown by `fedra-lint list`.
    fn description(&self) -> &'static str;
    /// Emits findings over the workspace.
    fn check(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>);
}

/// An ordered set of lints; every finding of every lint fails a run.
pub struct Registry {
    lints: Vec<Box<dyn Lint>>,
}

impl Registry {
    /// The four fedra lints.
    pub fn with_default_lints() -> Registry {
        Registry {
            lints: vec![
                Box::new(crate::lints::FederationSafety),
                Box::new(crate::lints::PanicDiscipline),
                Box::new(crate::lints::LockDiscipline),
                Box::new(crate::lints::DeterminismDiscipline),
            ],
        }
    }

    /// Registered `(name, description)` pairs.
    pub fn lints(&self) -> Vec<(&'static str, &'static str)> {
        self.lints
            .iter()
            .map(|lint| (lint.name(), lint.description()))
            .collect()
    }

    /// Runs every lint over `ws`, applies inline `allow` directives, and
    /// returns the surviving findings sorted by location.
    pub fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for lint in &self.lints {
            let mut found = Vec::new();
            lint.check(ws, &mut found);
            diags.extend(found.into_iter().filter(|d| {
                !ws.files
                    .iter()
                    .find(|f| f.path == d.file)
                    .is_some_and(|f| d.is_allowed_by(&f.lexed.allows))
            }));
        }
        diags.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
        });
        diags
    }
}
