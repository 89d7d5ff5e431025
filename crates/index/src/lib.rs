//! Spatial indexes for the `fedra` data federation.
//!
//! One crate, four index families — everything the paper's query pipeline
//! needs, each with the aggregate triple `(COUNT, SUM, SUM_SQR)` baked into
//! its nodes so a single traversal answers any aggregation function:
//!
//! * [`grid`] — the grid index of Alg. 1: per-silo cell aggregates, the
//!   merged federation index `g₀`, cell classification against a query
//!   range (covered vs boundary cells), and a 2-D cumulative array
//!   ([`grid::PrefixGrid`]) implementing the O(1) rectangle-sum remark of
//!   Sec. 4.2.1;
//! * [`rtree`] — an aggregate R-tree (STR bulk-loaded) giving exact local
//!   range aggregation in O(log n): the substrate of the EXACT baseline
//!   and of every LSR-Forest level;
//! * [`lsr`] — the LSR-Forest of Sec. 5: a forest of level-sampled
//!   aggregate R-trees with the Lemma-1 level-selection rule, reducing the
//!   expected local query cost to O(log 1/ε);
//! * [`histogram`] — equi-width and MinSkew-style adaptive histograms:
//!   the substrate of the OPTA baseline.
//!
//! [`pool`] is the scoped worker pool their builds share. The [`Aggregate`]
//! monoid and [`AggFunc`] live at the crate root, as does the
//! [`IndexMemory`] trait backing the paper's "memory of indices"
//! experiment metric (Figs. 3d–9d).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod agg;
pub mod grid;
pub mod histogram;
pub mod lsr;
pub mod pool;
pub mod rtree;

pub use agg::{ratio_reads, AggFunc, Aggregate, Moments};

/// Memory accounting for the "memory of indices" metric (Figs. 3d–9d).
///
/// Implementations report the *resident* size of the index: the struct
/// itself plus every heap allocation it owns. The numbers are estimates
/// (capacity-based, like `Vec::capacity × size_of::<T>`), which is exactly
/// what the paper reports — index footprint, not allocator overhead.
pub trait IndexMemory {
    /// Estimated resident bytes of the index.
    fn memory_bytes(&self) -> usize;
}
