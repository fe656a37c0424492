//! # ctk-index
//!
//! Query-side inverted-index substrate for continuous top-k monitoring.
//!
//! The paper's key design decision (§III) is to index the *queries* and probe
//! each arriving document against that index. This crate provides every index
//! structure the algorithms need:
//!
//! * [`postings`] — ID-ordered postings lists with galloping cursors (the
//!   "identifier-ordering paradigm" the paper adapts to query indexing);
//! * [`query_index`] — the registry mapping terms → lists and queries →
//!   their postings, with tombstone deletion and compaction;
//! * [`growth`] — the one growth rule of every per-list and per-query
//!   table: doubling up to a small chunk, then whole chunks;
//! * [`store`] — the postings-storage seam: the [`PostingsStore`] trait
//!   with plain (uncompressed slices) and compressed (sealed blocks) backends
//!   selected by [`StorageConfig`];
//! * [`max_tracker`] — exact per-list maxima of `w/S_k` under lazy
//!   (versioned-heap) maintenance, used by RIO's global bounds (Eq. 2);
//! * [`segment_tree`], [`block_max`], [`suffix_max`] — the three alternative
//!   implementations of MRIO's local zone bounds (Eq. 3, TKDE §5.2);
//! * [`impact_lists`] — impact-ordered (`w/S_k` descending) snapshot lists
//!   for the RTA baseline and weight-ordered lists for SortQuer.
//!
//! Nothing in this crate knows about scores or decay; it stores weights and
//! caller-computed bound values (`u = w/S_k`), keeping the index reusable by
//! every algorithm in `ctk-core` and `ctk-baselines`.

pub mod block_max;
mod directory;
pub mod growth;
pub mod impact_lists;
pub mod max_tracker;
pub mod postings;
pub mod query_index;
pub mod segment_tree;
pub mod store;
pub mod suffix_max;
pub mod zone;

pub use block_max::BlockMax;
/// The compressed backend's list type, which [`ListRef::Compressed`] hands out.
pub use ctk_storage::CompressedList;
pub use impact_lists::{ImpactList, WeightOrderedList};
pub use max_tracker::VersionedMaxTracker;
pub use postings::{Posting, PostingsList};
pub use query_index::{EntryView, QueryIndex, QueryRecord, QueryWeights, RecordEntry, RecordRef};
pub use segment_tree::MaxSegTree;
pub use store::{
    BlockScratch, ListRef, PostingsStorage, PostingsStore, StorageConfig, StorageStats,
};
pub use suffix_max::SuffixMax;
pub use zone::ZoneMax;
