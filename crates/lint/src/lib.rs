//! `fedra-lint` — workspace static analysis for the fedra federation.
//!
//! The paper's core constraint — raw rows never leave a silo, only
//! aggregates cross the wire — plus the runtime's panic, locking and
//! determinism discipline are invariants no compiler or test checks.
//! This crate checks them mechanically: a hand-rolled [`lexer`] (no
//! `syn`: the build environment is offline) feeds token streams to a
//! [`registry::Registry`] of four fedra-specific [`lints`], with
//! `file:line:col` [`diagnostics`] and an inline
//! `// fedra-lint: allow(<lint>)` escape hatch.
//!
//! Run it as `cargo run -p fedra-lint -- check`; the same pass runs as
//! the root package's tier-1 test `tests/lint.rs`, so CI fails on any
//! finding. See `README.md` § Static analysis.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diagnostics;
pub mod lexer;
pub mod lints;
pub mod registry;
pub mod scan;
pub mod workspace;
