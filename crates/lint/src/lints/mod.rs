//! The fedra-specific lints.
//!
//! Each lint encodes one invariant the paper or the transport design
//! depends on; see the individual modules for the full rationale.

mod determinism;
mod federation_safety;
mod lock_discipline;
mod panic_discipline;

pub use determinism::DeterminismDiscipline;
pub use federation_safety::FederationSafety;
pub use lock_discipline::LockDiscipline;
pub use panic_discipline::PanicDiscipline;
