//! Findings and inline suppression.
//!
//! Every finding fails a check run unless a `// fedra-lint: allow(<lint>)`
//! comment on the finding's line, or the line directly above it,
//! suppresses it at that site — the escape hatch for deliberate,
//! documented exceptions (e.g. an API whose contract *is* "panics on
//! error").

use std::fmt;

use crate::lexer::AllowDirective;

/// One finding: a lint fired at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired (its registry name, e.g. `panic-discipline`).
    pub lint: &'static str,
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
            "{}:{}:{}: error[{}] {}",
            self.file, self.line, self.col, self.lint, self.message
        )
    }
}
