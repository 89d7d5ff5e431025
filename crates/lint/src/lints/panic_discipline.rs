//! `panic-discipline`: the federation runtime and the query engine must
//! not panic on runtime failures.
//!
//! A panicking silo worker takes its channel down and turns one failed
//! request into a dead federation member; a panicking engine worker
//! poisons a whole batch. The production north star (heavy traffic,
//! graceful silo-failure handling) requires `Result`-based error flow in
//! these paths, so `unwrap` / `expect` / `panic!` / `unreachable!` are
//! banned in non-test code under `crates/federation/src` and the
//! `crates/core` engine files.
//!
//! Findings here are meant to be **fixed** (convert the call site to a
//! typed error — `TransportError`, `SetupError`, `FraError`). The inline
//! `allow` escape hatch is reserved for APIs whose
//! documented contract is to panic (e.g. a `build()` convenience wrapper
//! whose `try_build` twin carries the real error path).

use crate::diagnostics::Diagnostic;
use crate::registry::Lint;
use crate::scan::SourceFile;
use crate::workspace::Workspace;

/// Engine files in `fedra-core`: everything on the query execution path.
/// (`theory.rs` and `helpers.rs` are diagnostics and shared helpers, not
/// the hot path.)
pub(super) const CORE_ENGINE_FILES: &[&str] = &[
    "crates/core/src/framework.rs",
    "crates/core/src/algorithm.rs",
    "crates/core/src/exact.rs",
    "crates/core/src/sampling.rs",
    "crates/core/src/opta.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/query.rs",
];

/// `.method()` calls that panic on failure.
const PANICKING_METHODS: &[&str] = &["unwrap", "expect"];

/// `macro!` invocations that unconditionally panic.
const PANICKING_MACROS: &[&str] = &["panic", "unreachable"];

/// See the module docs.
pub struct PanicDiscipline;

fn applies_to(path: &str) -> bool {
    path.contains("crates/federation/src/") || CORE_ENGINE_FILES.iter().any(|f| path.ends_with(f))
}

impl Lint for PanicDiscipline {
    fn name(&self) -> &'static str {
        "panic-discipline"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/unreachable! in non-test federation or engine code"
    }

    fn check(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
        let files: &[SourceFile] = &ws.files;
        for file in files {
            if !applies_to(&file.path) {
                continue;
            }
            let tokens = file.tokens();
            for i in 0..tokens.len() {
                if file.in_test_code(i) {
                    continue;
                }
                let t = &tokens[i];
                let method_call = PANICKING_METHODS.iter().any(|m| t.is_ident(m))
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
                let macro_call = PANICKING_MACROS.iter().any(|m| t.is_ident(m))
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
                if method_call || macro_call {
                    let rendered = if macro_call {
                        format!("{}!", t.text)
                    } else {
                        format!(".{}()", t.text)
                    };
                    diags.push(Diagnostic {
                        lint: self.name(),
                        file: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "`{rendered}` in non-test federation/engine code; a runtime \
                             failure here kills a silo worker or a whole batch — return a \
                             typed error (`TransportError`/`SetupError`/`FraError`) instead"
                        ),
                    });
                }
            }
        }
    }
}
