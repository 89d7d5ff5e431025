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

#[cfg(test)]
mod tests {
    #[test]
    fn every_listed_path_exists() {
        // A deleted file must leave the path lists with it: an entry that
        // names nothing silently matches nothing.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let listed = super::determinism::DEFAULT_REGIONS
            .iter()
            .chain(super::panic_discipline::CORE_ENGINE_FILES);
        for path in listed {
            assert!(root.join(path).exists(), "{path} is listed but missing");
        }
    }
}
