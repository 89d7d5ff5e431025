//! `federation-safety`: raw rows must never cross the silo boundary.
//!
//! The paper's federation model (Sec. 2) grants the provider a *query
//! interface only* — per-object data stays inside the silo, and only
//! aggregates travel silo → provider. Privacy-preserving follow-ups show
//! this boundary is exactly where federated systems fail, and in code it
//! is one careless `Response` variant away from being violated.
//!
//! The lint therefore bans location-bearing / per-object types from the
//! silo → provider direction: no `SpatialObject`, `Point`, `GeoPoint`, or
//! raw measure vector (`Vec<f64>`) may appear in any `Response` enum
//! declared under `crates/federation/src` (`protocol.rs`, `wire.rs`, or
//! wherever the enum migrates). Requests are exempt — query ranges
//! legitimately carry provider-chosen coordinates *to* the silos.

use crate::diagnostics::Diagnostic;
use crate::registry::Lint;
use crate::scan::{enum_body, SourceFile};
use crate::workspace::Workspace;

/// Types that identify or locate individual objects.
const FORBIDDEN_TYPES: &[&str] = &["SpatialObject", "Point", "GeoPoint", "Circle"];

/// See the module docs.
pub struct FederationSafety;

impl Lint for FederationSafety {
    fn name(&self) -> &'static str {
        "federation-safety"
    }

    fn description(&self) -> &'static str {
        "no per-object or location-bearing types in silo→provider Response payloads"
    }

    fn check(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
        let files: &[SourceFile] = &ws.files;
        for file in files {
            if !file.path.contains("crates/federation/src/") {
                continue;
            }
            let tokens = file.tokens();
            let Some(body) = enum_body(tokens, "Response") else {
                continue;
            };
            let (start, end) = body;
            for i in start..end {
                let t = &tokens[i];
                if FORBIDDEN_TYPES.iter().any(|f| t.is_ident(f)) {
                    diags.push(Diagnostic {
                        lint: self.name(),
                        file: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "location-bearing type `{}` in a silo→provider `Response` \
                             payload; only aggregate types may cross the federation boundary",
                            t.text
                        ),
                    });
                }
                // A raw measure vector: `Vec<f64>` leaks one value per
                // object, which identifies rows as surely as coordinates.
                if t.is_ident("Vec")
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('<'))
                    && tokens.get(i + 2).is_some_and(|t| t.is_ident("f64"))
                {
                    diags.push(Diagnostic {
                        lint: self.name(),
                        file: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        message: "raw measure vector `Vec<f64>` in a silo→provider \
                                  `Response` payload; ship an `Aggregate` instead"
                            .to_string(),
                    });
                }
            }
        }
    }
}
