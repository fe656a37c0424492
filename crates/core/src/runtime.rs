//! The seam between the one front-end and the runtimes that do the work.
//!
//! [`crate::FrontEnd`] owns everything the application sees — the public
//! query-id space, the stream clock, the lifecycle layer, snapshots. A
//! [`Runtime`] is what is left: somewhere to place queries and score
//! each stamped publish, synchronously and whole. Two plug in: the
//! in-thread engine (`monitor`) and the query-sharded workers (`sharded`).
//! The trait is `pub` only so the public aliases can name it; this module
//! is private, so nothing outside the crate can.

use crate::backend::PublishReceipt;
use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc, Timestamp};
use ctk_index::StorageStats;

/// What a [`crate::FrontEnd`] needs from the machinery behind it. Every id
/// is a **slot**: the front-end maps each public query id onto one, and
/// guarantees `place` sees slots `0, 1, 2, …` in order and
/// `remove`/`forget`/`seed`/`results` only see live ones.
pub trait Runtime {
    /// Host a new query in the next slot.
    fn place(&mut self, qid: QueryId, spec: &QuerySpec);

    /// Drop a live query (tombstone now, compaction later).
    fn remove(&mut self, qid: QueryId);

    /// Drop many live queries at once and force a compaction, so the index
    /// sheds their postings now instead of waiting for the ratio policy.
    fn forget(&mut self, qids: &[QueryId]);

    /// Current top-k of a live query, best first.
    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>>;

    /// Warm-start a live query's result set with pre-scored history.
    fn seed(&mut self, qid: QueryId, seeds: &[ScoredDoc]);

    /// Score stamped documents (ids allocated, arrivals monotone), writing
    /// per-document stats and every result change into `receipt`. The call
    /// returns with the whole batch scored: nothing stays in flight.
    fn ingest(&mut self, docs: Vec<Document>, receipt: &mut PublishReceipt);

    fn lambda(&self) -> f64;

    /// One decay landmark per snapshot section this runtime writes.
    fn landmarks(&self) -> Vec<Timestamp>;

    /// The snapshot section a live query belongs to.
    fn section_of(&self, _qid: QueryId) -> usize {
        0
    }

    /// Adopt a captured landmark; only sound before any seeding.
    fn restore_landmark(&mut self, landmark: Timestamp);

    fn storage_stats(&self) -> StorageStats;

    fn shards(&self) -> usize {
        1
    }
}
