//! The lint registry: which lints run, at which level.

use crate::diagnostics::{Diagnostic, Level};
use crate::workspace::Workspace;

/// One static-analysis rule.
///
/// A lint sees the **whole workspace** on every run — all lexed sources —
/// so cross-file rules (wire-exhaustiveness pairs `protocol.rs` with
/// `silo.rs`) need no special machinery; per-file lints simply loop over
/// `ws.files`.
///
/// To add a lint: implement this trait in `src/lints/`, give it a unique
/// kebab-case `name`, and push it in [`Registry::with_default_lints`].
/// Findings should be pushed with [`Level::Deny`]; the registry rewrites
/// the level to whatever the lint is registered at.
pub trait Lint {
    /// Unique kebab-case name (used in `allow(…)` and the baseline).
    fn name(&self) -> &'static str;
    /// One-line rationale shown by `fedra-lint list`.
    fn description(&self) -> &'static str;
    /// Emits findings over the workspace.
    fn check(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>);
}

/// An ordered set of lints with per-lint levels.
pub struct Registry {
    lints: Vec<(Box<dyn Lint>, Level)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry { lints: Vec::new() }
    }

    /// The seven fedra lints, all at [`Level::Deny`].
    pub fn with_default_lints() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(crate::lints::FederationSafety), Level::Deny);
        r.register(Box::new(crate::lints::PanicDiscipline), Level::Deny);
        r.register(Box::new(crate::lints::LockDiscipline), Level::Deny);
        r.register(Box::new(crate::lints::WireExhaustiveness), Level::Deny);
        r.register(Box::new(crate::lints::DeterminismDiscipline), Level::Deny);
        r.register(Box::new(crate::lints::LockOrder), Level::Deny);
        r.register(Box::new(crate::lints::ObsExhaustiveness), Level::Deny);
        r
    }

    /// Adds a lint at `level`.
    pub fn register(&mut self, lint: Box<dyn Lint>, level: Level) {
        self.lints.push((lint, level));
    }

    /// Reconfigures the level of the lint called `name` (no-op when the
    /// name is unknown).
    pub fn set_level(&mut self, name: &str, level: Level) {
        for (lint, l) in &mut self.lints {
            if lint.name() == name {
                *l = level;
            }
        }
    }

    /// Registered `(name, description, level)` triples.
    pub fn lints(&self) -> Vec<(&'static str, &'static str, Level)> {
        self.lints
            .iter()
            .map(|(lint, level)| (lint.name(), lint.description(), *level))
            .collect()
    }

    /// Runs every enabled lint over `ws`, applies registered levels and
    /// inline `allow` directives, and returns the surviving findings
    /// sorted by location.
    pub fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for (lint, level) in &self.lints {
            if *level == Level::Allow {
                continue;
            }
            let mut found = Vec::new();
            lint.check(ws, &mut found);
            for mut d in found {
                d.level = *level;
                let allowed = ws
                    .files
                    .iter()
                    .find(|f| f.path == d.file)
                    .is_some_and(|f| d.is_allowed_by(&f.lexed.allows));
                if !allowed {
                    diags.push(d);
                }
            }
        }
        diags.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
        });
        diags
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_default_lints()
    }
}
