//! The common interface every continuous top-k algorithm implements.
//!
//! RIO, MRIO, the naive oracle and the three published baselines all expose
//! the same contract, which is what the equivalence tests, the monitor
//! front-end and the benchmark harness program against.

use crate::stats::{CumulativeStats, EventStats};
use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc, Timestamp};
use ctk_index::StorageStats;
use serde::{Deserialize, Serialize};

/// A change to one query's result set caused by a stream event.
///
/// Serializes with serde — this is the payload the HTTP server's change
/// stream pushes per subscriber, so the wire shape is the struct itself:
/// `{"query": q, "inserted": {"doc": d, "score": s}, "evicted": ... |
/// null}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResultChange {
    pub query: QueryId,
    /// The document that entered the top-k.
    pub inserted: ScoredDoc,
    /// The entry that fell out, if the set was already full.
    pub evicted: Option<ScoredDoc>,
}

/// A continuous top-k monitoring algorithm over a document stream.
///
/// ## Contract
///
/// * `process` must be called with non-decreasing `Document::arrival`
///   timestamps (stale timestamps are clamped to the current landmark).
/// * After any sequence of `register` / `unregister` / `process` calls, the
///   result set of every live query must equal — score for score, document
///   for document — the result of exhaustively scoring every processed
///   document against the query (this is checked against [`crate::Naive`]
///   in the cross-algorithm equivalence tests).
/// * `last_changes` reports the result-set deltas of the most recent
///   `process` call, in unspecified order.
pub trait ContinuousTopK {
    /// Short algorithm name used in reports ("RIO", "MRIO-seg", ...).
    fn name(&self) -> &'static str;

    /// Register a CTQD; returns its id. Ids are unique and increasing.
    fn register(&mut self, spec: QuerySpec) -> QueryId;

    /// Remove a query. Returns false when the id is unknown or removed.
    fn unregister(&mut self, qid: QueryId) -> bool;

    /// Process one stream event, refreshing all affected results.
    fn process(&mut self, doc: &Document) -> EventStats;

    /// Process a batch of stream events (arrival timestamps non-decreasing
    /// across the whole batch, like repeated `process` calls), appending
    /// every result change of the batch — in document order — to
    /// `changes_out`. Returns per-document work counters.
    ///
    /// This is the throughput entry point: callers that ingest at high
    /// stream rates (the monitor's publish path, the bench harness)
    /// amortize per-event overhead here. The default implementation loops
    /// over [`ContinuousTopK::process`]; engines may override it to reuse
    /// working sets and hoist steady-state checks (e.g. the decay
    /// renormalization test) out of the inner loop, but must stay
    /// bit-identical to the looped form.
    ///
    /// Changes carry their document id (`ResultChange::inserted`), so the
    /// flat `changes_out` remains fully attributable per document.
    fn process_batch_into(
        &mut self,
        docs: &[Document],
        changes_out: &mut Vec<ResultChange>,
    ) -> Vec<EventStats> {
        let mut stats = Vec::with_capacity(docs.len());
        for doc in docs {
            stats.push(self.process(doc));
            changes_out.extend_from_slice(self.last_changes());
        }
        stats
    }

    /// [`ContinuousTopK::process_batch_into`] for callers that do not need
    /// the result changes.
    fn process_batch(&mut self, docs: &[Document]) -> Vec<EventStats> {
        let mut sink = Vec::new();
        self.process_batch_into(docs, &mut sink)
    }

    /// Warm-start a query's result set with pre-scored history (e.g. from a
    /// snapshot of a long-running deployment, or the benchmark harness's
    /// steady-state emulation). Implementations must refresh their bound
    /// structures to reflect the new `S_k`. Seeds are offered through the
    /// normal insertion path, so exactness w.r.t. the seeded history holds.
    fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]);

    /// Current results of a live query, best first.
    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>>;

    /// Current `S_k(q)` (0.0 while the query has fewer than k results).
    fn threshold(&self, qid: QueryId) -> Option<f64>;

    /// Number of live queries.
    fn num_queries(&self) -> usize;

    /// Result deltas produced by the last `process` call.
    fn last_changes(&self) -> &[ResultChange];

    /// Lifetime work counters.
    fn cumulative(&self) -> &CumulativeStats;

    /// The decay parameter the instance was built with.
    fn lambda(&self) -> f64;

    /// The current decay landmark: the timestamp all stored scores are
    /// expressed relative to. Advances on every landmark renormalization,
    /// so it is part of any durable capture of engine state.
    fn landmark(&self) -> Timestamp;

    /// Adopt a landmark captured from another instance (snapshot restore).
    /// Must be called on a fresh engine *before* seeding any scores:
    /// snapshot scores are expressed in the snapshot's landmark frame, and
    /// mixing frames corrupts thresholds as soon as decay math runs.
    fn restore_landmark(&mut self, landmark: Timestamp);

    /// Fraction of dead (tombstoned) postings in the engine's query index,
    /// `0.0` for engines without one. Cheap enough to probe per batch.
    fn tombstone_ratio(&self) -> f64 {
        0.0
    }

    /// Compact dead postings out of the engine's index and rebuild the
    /// bound structures of exactly the lists that changed. Returns the
    /// number of lists compacted (0 for engines without an index).
    ///
    /// Only sound **between events** — front-ends call it at batch
    /// boundaries when the tombstone ratio crosses their configured
    /// threshold. Results are unaffected; only the index layout changes.
    fn compact_index(&mut self) -> usize {
        0
    }

    /// Point-in-time storage counters of the engine's query index (RAM
    /// footprint and block decodes); all-zero for engines without one.
    fn storage_stats(&self) -> StorageStats {
        StorageStats::default()
    }
}
