//! Findings, severity levels, inline suppression and the baseline file.
//!
//! A finding travels through three gates before it fails a check run:
//!
//! 1. **level** — a lint registered at [`Level::Allow`] never reports;
//! 2. **inline allow** — a `// fedra-lint: allow(<lint>)` comment on the
//!    finding's line, or the line directly above it, suppresses the
//!    finding at that site (the escape hatch for deliberate, documented
//!    exceptions — e.g. an API whose contract *is* "panics on error");
//! 3. **baseline** — a committed file of pre-existing findings; anything
//!    listed there is reported as baselined, not failing. New code must
//!    not grow the baseline: `check` fails on any non-baselined finding.

use std::fmt;
use std::path::Path;

use crate::lexer::AllowDirective;

/// Severity of a lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The lint is disabled.
    Allow,
    /// Findings are printed but never fail the run.
    Warn,
    /// Findings fail the run unless baselined or inline-allowed.
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Allow => write!(f, "allow"),
            Level::Warn => write!(f, "warn"),
            Level::Deny => write!(f, "deny"),
        }
    }
}

/// One finding: a lint fired at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired (its registry name, e.g. `panic-discipline`).
    pub lint: &'static str,
    /// Severity it was registered at.
    pub level: Level,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The stable identity used for baseline matching: everything except
    /// the exact line/column, so unrelated edits above a baselined finding
    /// do not resurrect it.
    pub fn baseline_key(&self) -> String {
        format!("{}\t{}\t{}", self.lint, self.file, self.message)
    }

    /// Whether an inline allow directive covers this finding (same line or
    /// the line directly above).
    pub fn is_allowed_by(&self, allows: &[AllowDirective]) -> bool {
        allows
            .iter()
            .any(|a| a.lint == self.lint && (a.line == self.line || a.line + 1 == self.line))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}] {}",
            self.file, self.line, self.col, self.level, self.lint, self.message
        )
    }
}

/// The committed set of pre-existing findings.
///
/// Format: one finding per line, tab-separated `lint<TAB>file<TAB>message`,
/// `#`-comments and blank lines ignored. Line/column are deliberately not
/// part of the key — baselines must survive unrelated edits.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: Vec<String>,
}

impl Baseline {
    /// Parses baseline text.
    pub fn parse(text: &str) -> Baseline {
        Baseline {
            entries: text
                .lines()
                .map(str::trim_end)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect(),
        }
    }

    /// Loads a baseline file; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Baseline {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text),
            Err(_) => Baseline::default(),
        }
    }

    /// Whether `diag` is covered by this baseline.
    pub fn covers(&self, diag: &Diagnostic) -> bool {
        let key = diag.baseline_key();
        self.entries.contains(&key)
    }

    /// Entries with no matching current finding (stale entries — the bug
    /// they tracked was fixed, so they should be deleted).
    pub fn stale<'a>(&'a self, diags: &[Diagnostic]) -> Vec<&'a str> {
        self.entries
            .iter()
            .filter(|e| !diags.iter().any(|d| d.baseline_key() == **e))
            .map(String::as_str)
            .collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders a baseline file covering `diags`.
    pub fn render(diags: &[Diagnostic]) -> String {
        let mut out = String::from(
            "# fedra-lint baseline: pre-existing findings grandfathered in.\n\
             # One finding per line: lint<TAB>file<TAB>message.\n\
             # Regenerate with `cargo run -p fedra-lint -- baseline`.\n",
        );
        let mut keys: Vec<String> = diags.iter().map(Diagnostic::baseline_key).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            out.push_str(&key);
            out.push('\n');
        }
        out
    }
}
