//! # ctk-baselines
//!
//! The three published competitors the paper evaluates against (§IV), each
//! implemented from the defining idea of its reference:
//!
//! * [`Rta`] — Haghani, Michel, Aberer, *"The gist of everything new"*
//!   (CIKM 2010): impact-ordered lists + threshold-algorithm descent.
//! * [`SortQuer`] — Vouzoukidou, Amann, Christophides (CIKM 2012):
//!   weight-ordered lists, term-at-a-time accumulation with tail-potential
//!   cutoffs and candidate filtering.
//! * [`Tps`] — Shraer, Gurevich, Fontoura, Josifovski, *"Top-k
//!   publish-subscribe for social annotation of news"* (PVLDB 2013):
//!   WAND-style skipping over ID-ordered lists with per-list raw-weight
//!   maxima and one global threshold bound — the same paradigm as RIO but
//!   with coarser (weight/threshold-decoupled) bounds.
//!
//! All three implement [`ctk_core::ContinuousTopK`] and are verified to be
//! result-identical to the exhaustive oracle in the workspace integration
//! tests (`tests/equivalence.rs`). They are evaluation code: `ctk-bench`
//! builds them by report name for the paper's Figure 1, and the product
//! (`MonitorBuilder`, the daemon) never does.

pub mod catalog;
pub mod rta;
pub mod sortquer;
pub mod tps;

pub use rta::Rta;
pub use sortquer::SortQuer;
pub use tps::Tps;
