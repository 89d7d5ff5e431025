//! `obs-exhaustiveness`: every `Response` variant must be byte-counted.
//!
//! Every `Response` variant must be mentioned in `encoded_len` of
//! `impl Wire for Response`. `wire-exhaustiveness` covers `Request`; this
//! closes the reply direction, where a new variant with a `_ => 0`
//! catch-all silently skews `CommCounters` — the paper's communication
//! metric. (Metric names need no lint: a metric outside the
//! `fedra_obs::catalog` does not compile.)

use crate::diagnostics::{Diagnostic, Level};
use crate::registry::Lint;
use crate::scan::{enum_body, enum_variants, fn_body, impl_body, mentions_variant};
use crate::workspace::Workspace;

/// See the module docs.
pub struct ObsExhaustiveness;

impl Lint for ObsExhaustiveness {
    fn name(&self) -> &'static str {
        "obs-exhaustiveness"
    }

    fn description(&self) -> &'static str {
        "every Response variant is byte-counted in encoded_len"
    }

    fn check(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
        self.check_response_accounting(ws, diags);
    }
}

impl ObsExhaustiveness {
    fn check_response_accounting(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
        let Some(protocol) = ws
            .files
            .iter()
            .find(|f| f.path.ends_with("federation/src/protocol.rs"))
        else {
            return;
        };
        let tokens = protocol.tokens();
        let Some(body) = enum_body(tokens, "Response") else {
            return;
        };
        let encoded_len = impl_body(tokens, "Wire", "Response")
            .and_then(|range| fn_body(tokens, range, "encoded_len"));
        let Some(range) = encoded_len else {
            return; // wire-exhaustiveness-style structural absence, not ours
        };
        for (variant, idx) in enum_variants(tokens, body) {
            if !mentions_variant(tokens, range, "Response", &variant) {
                let at = &tokens[idx];
                diags.push(Diagnostic {
                    lint: self.name(),
                    level: Level::Deny,
                    file: protocol.path.clone(),
                    line: at.line,
                    col: at.col,
                    message: format!(
                        "`Response::{variant}` is not byte-counted in `encoded_len` of \
                         `impl Wire for Response`; an uncounted reply variant silently \
                         skews CommCounters, the paper's communication metric"
                    ),
                });
            }
        }
    }
}
