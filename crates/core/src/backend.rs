//! The unified application-facing API over every monitor front-end.
//!
//! The paper's system model is **one** server front-end hosting millions of
//! CTQDs; deployments should not care whether that front-end runs a single
//! engine or shards the work across worker threads. This module defines the
//! contract; [`crate::FrontEnd`] is its one implementation, over two
//! runtimes:
//!
//! * [`crate::Monitor`] — one engine, zero threads;
//! * [`crate::ShardedMonitor`] — the query-sharded workers.
//!
//! All speak plain [`QueryId`]s (the query-sharded runtime maps them to
//! shard routes internally), return [`PublishReceipt`]s from ingestion, and
//! capture/restore through the versioned [`crate::Snapshot`] format —
//! including restoring a capture into a backend with a *different* shard
//! count. Application code written against `dyn MonitorBackend` is
//! untouched by any later re-partitioning of the work behind it.

use crate::lifecycle::{NamespaceStats, QueryOptions, RetentionPolicy};
use crate::snapshot::Snapshot;
use crate::stats::EventStats;
use crate::traits::ResultChange;
use ctk_common::{DocId, Document, Namespace, QueryId, QuerySpec, ScoredDoc, TermId, Timestamp};
use ctk_index::StorageStats;
use serde::{Deserialize, Serialize};

/// A typed publish request: the documents of one ingest call, each a
/// `(term, weight)` pair list plus its arrival timestamp.
///
/// This is the one input shape every front door accepts —
/// [`MonitorBackend::publish_request`], the HTTP wire layer, the examples
/// and the bench harness all build one of these instead of hand-assembling
/// `Vec<(TermId, f32)>` tuples in their own shapes. Conversions cover the
/// common origins:
///
/// * `Vec<(TermId, f32)>` — a single document, arrival 0 (the backend
///   clamps arrivals monotone, so 0 means "now" on a live stream);
/// * `(Vec<(TermId, f32)>, Timestamp)` — a single timestamped document;
/// * `Vec<(Vec<(TermId, f32)>, Timestamp)>` — a raw batch (the legacy
///   `publish_batch` argument shape);
/// * `&[Document]` / iterators of pair lists — generator and replay input.
///
/// ```
/// use ctk_core::PublishRequest;
/// use ctk_common::TermId;
///
/// let single: PublishRequest = vec![(TermId(3), 1.0)].into();
/// assert_eq!(single.len(), 1);
/// let batch = PublishRequest::new().doc(vec![(TermId(3), 1.0)], 0.0).doc(vec![], 1.0);
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PublishRequest {
    docs: Vec<(Vec<(TermId, f32)>, Timestamp)>,
}

impl PublishRequest {
    /// An empty request; add documents with [`PublishRequest::doc`] /
    /// [`PublishRequest::push`].
    pub fn new() -> Self {
        PublishRequest::default()
    }

    /// Append a document (builder style).
    pub fn doc(mut self, pairs: Vec<(TermId, f32)>, arrival: Timestamp) -> Self {
        self.push(pairs, arrival);
        self
    }

    /// Append a document.
    pub fn push(&mut self, pairs: Vec<(TermId, f32)>, arrival: Timestamp) {
        self.docs.push((pairs, arrival));
    }

    /// Number of documents in the request.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the request holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The arrival timestamp of the first document, if any. Backends use it
    /// (clamped monotone against their stream clock) as "now" for the
    /// expiry check at the top of the publish path.
    pub fn first_arrival(&self) -> Option<Timestamp> {
        self.docs.first().map(|(_, at)| *at)
    }

    /// The documents as `(pairs, arrival)` slices — what the journal layer
    /// serializes so a replayed publish rebuilds this exact request.
    pub fn docs(&self) -> &[(Vec<(TermId, f32)>, Timestamp)] {
        &self.docs
    }

    /// The raw batch shape consumed by [`MonitorBackend::publish_batch`].
    pub fn into_batch(self) -> Vec<(Vec<(TermId, f32)>, Timestamp)> {
        self.docs
    }
}

impl From<Vec<(TermId, f32)>> for PublishRequest {
    /// A single document with arrival 0 (clamped monotone by the backend).
    fn from(pairs: Vec<(TermId, f32)>) -> Self {
        PublishRequest { docs: vec![(pairs, 0.0)] }
    }
}

impl From<(Vec<(TermId, f32)>, Timestamp)> for PublishRequest {
    fn from(doc: (Vec<(TermId, f32)>, Timestamp)) -> Self {
        PublishRequest { docs: vec![doc] }
    }
}

impl From<Vec<(Vec<(TermId, f32)>, Timestamp)>> for PublishRequest {
    fn from(docs: Vec<(Vec<(TermId, f32)>, Timestamp)>) -> Self {
        PublishRequest { docs }
    }
}

impl From<&[Document]> for PublishRequest {
    /// Re-publish materialized documents (stream replay, generator output).
    /// Carries each document's vector and arrival; the receiving backend
    /// assigns fresh ids.
    fn from(docs: &[Document]) -> Self {
        PublishRequest {
            docs: docs.iter().map(|d| (d.vector.iter().collect(), d.arrival)).collect(),
        }
    }
}

impl FromIterator<(Vec<(TermId, f32)>, Timestamp)> for PublishRequest {
    fn from_iter<I: IntoIterator<Item = (Vec<(TermId, f32)>, Timestamp)>>(iter: I) -> Self {
        PublishRequest { docs: iter.into_iter().collect() }
    }
}

/// The typed admission outcome of a publish: what the ingest path did with
/// the request *before* (or instead of) processing it.
///
/// Embedded backends run a publish on the caller's thread, which is
/// [`Admission::Accepted`]. The other variants exist for queueing front
/// doors: the `ctk-server` daemon reports [`Admission::Enqueued`] with the
/// observed queue depth, and — under its reject admission policy —
/// [`Admission::Overloaded`] with a retry hint when the bounded ingest
/// queue is full, which the HTTP layer maps to `429 Too Many Requests` +
/// `Retry-After`. An overloaded publish has no effects at all and may be
/// retried verbatim after the suggested backoff.
///
/// Wire shape (serde): `{"state": "accepted"}`,
/// `{"state": "enqueued", "depth": N}`, or
/// `{"state": "overloaded", "retry_after": seconds}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// The publish was processed synchronously.
    Accepted,
    /// The publish entered a bounded queue at the given depth (this request
    /// included) and was then processed.
    Enqueued {
        /// Queue occupancy observed at admission, including this request.
        depth: usize,
    },
    /// The ingest queue was full and the publish was **not** processed.
    Overloaded {
        /// Suggested wait before retrying, in seconds.
        retry_after: f64,
    },
}

impl Serialize for Admission {
    fn to_value(&self) -> serde::Value {
        use serde::{Number, Value};
        let mut entries = Vec::with_capacity(2);
        match self {
            Admission::Accepted => {
                entries.push(("state".to_string(), Value::Str("accepted".into())))
            }
            Admission::Enqueued { depth } => {
                entries.push(("state".to_string(), Value::Str("enqueued".into())));
                entries.push(("depth".to_string(), Value::Num(Number::U64(*depth as u64))));
            }
            Admission::Overloaded { retry_after } => {
                entries.push(("state".to_string(), Value::Str("overloaded".into())));
                entries.push(("retry_after".to_string(), Value::Num(Number::F64(*retry_after))));
            }
        }
        serde::Value::Object(entries)
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        let mut object = serde::json::ObjectWriter::begin(out);
        match self {
            Admission::Accepted => object.field("state", "accepted")?,
            Admission::Enqueued { depth } => {
                object.field("state", "enqueued")?;
                object.field("depth", depth)?;
            }
            Admission::Overloaded { retry_after } => {
                object.field("state", "overloaded")?;
                object.field("retry_after", retry_after)?;
            }
        }
        object.end();
        Ok(())
    }
}

impl Deserialize for Admission {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let state = value.field("state")?.as_str()?;
        match state {
            "accepted" => Ok(Admission::Accepted),
            "enqueued" => {
                let depth = value.field("depth")?.as_u64()?;
                Ok(Admission::Enqueued { depth: depth as usize })
            }
            "overloaded" => {
                let retry_after = value.field("retry_after")?.as_f64()?;
                Ok(Admission::Overloaded { retry_after })
            }
            other => Err(serde::Error::custom(format!("unknown admission state {other:?}"))),
        }
    }
}

/// The typed outcome of a [`MonitorBackend::publish`] /
/// [`MonitorBackend::publish_batch`] call: the ids assigned to the admitted
/// documents, every result change they caused, and per-document work
/// counters (summed across shards on sharded backends).
///
/// Serializes with serde (the HTTP server returns one per `POST /publish`,
/// and the load harness reads the same schema back), so the wire shape is
/// exactly this struct: `{"doc_ids": [...], "changes": [...], "stats":
/// [...]}`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PublishReceipt {
    /// Ids assigned to the admitted documents, in submission order.
    pub doc_ids: Vec<DocId>,
    /// Every result-set change of the batch. Attribute a change to its
    /// document via `change.inserted.doc`; order within the receipt is
    /// unspecified across queries (sharded backends group by shard).
    pub changes: Vec<ResultChange>,
    /// Per-document work counters, aligned with `doc_ids`.
    pub stats: Vec<EventStats>,
}

impl PublishReceipt {
    /// The id of the first (for single publishes: the only) document.
    ///
    /// # Panics
    /// Panics on a receipt for an empty batch.
    pub fn doc_id(&self) -> DocId {
        self.doc_ids[0]
    }

    /// True when the batch changed no result set.
    pub fn is_quiet(&self) -> bool {
        self.changes.is_empty()
    }

    /// All counters of the batch folded into one record.
    pub fn merged_stats(&self) -> EventStats {
        let mut total = EventStats::default();
        for ev in &self.stats {
            total.merge(ev);
        }
        total
    }

    /// The changes that affected one query, in document order.
    pub fn changes_for(&self, qid: QueryId) -> impl Iterator<Item = &ResultChange> + '_ {
        self.changes.iter().filter(move |c| c.query == qid)
    }

    /// The changes grouped per affected query, ascending query id; document
    /// order is preserved within each group. This is the notification-fanout
    /// view: one entry per subscriber to wake.
    pub fn changes_by_query(&self) -> Vec<(QueryId, Vec<ResultChange>)> {
        let mut sorted = self.changes.clone();
        sorted.sort_by_key(|c| (c.query, c.inserted.doc));
        let mut grouped: Vec<(QueryId, Vec<ResultChange>)> = Vec::new();
        for change in sorted {
            match grouped.last_mut() {
                Some((qid, group)) if *qid == change.query => group.push(change),
                _ => grouped.push((change.query, vec![change])),
            }
        }
        grouped
    }
}

/// One application-facing monitor API over single-engine and sharded
/// backends alike.
///
/// ## Contract
///
/// * `register` assigns unique, monotonically increasing [`QueryId`]s,
///   regardless of how queries are partitioned internally.
/// * `publish_request` (and its `publish`/`publish_batch` wrappers)
///   allocates document ids in submission order and clamps arrival
///   timestamps to be monotone across calls.
/// * After identical `register`/`unregister`/`publish` sequences, two
///   backends with the same `lambda` report **bit-identical** `results` for
///   every query, whatever their engine kind or shard count (checked against
///   the exhaustive oracle in `tests/backend_api.rs`).
/// * `snapshot` captures the full monitor state; `apply_snapshot` rebuilds
///   it on any freshly built backend of the same `lambda` — including one
///   with a different shard count — with every query under its captured
///   id. An id names one query for good: none is ever handed out twice.
///
/// ## Wire visibility
///
/// The `ctk-server` HTTP daemon exposes this trait one-to-one, so its
/// methods split into a **wire-visible** surface and **internal plumbing**:
///
/// * Exposed by the HTTP layer: `register` (`POST /queries`), `unregister`
///   (`DELETE /queries/{id}`), `publish_request` (`POST /publish`, returning
///   the serialized [`PublishReceipt`]), `results`
///   (`GET /queries/{id}/results`), `num_queries`/`shards`/`lambda` (folded
///   into `GET /stats`), and `snapshot` (`POST /snapshot`).
///   Anything these return may therefore appear verbatim in HTTP responses:
///   public [`QueryId`]s, [`DocId`]s, scores and per-document
///   [`EventStats`] are all wire-visible, deliberately — work counters are
///   part of the paper's evaluation surface, not a secret.
/// * Hidden by the HTTP layer: `seed_results` (a warm-start hook for the
///   bench harness) and `apply_snapshot`, which the server's
///   `POST /restore` drives on a freshly built backend only. Engine
///   internals (shard routes, landmark frames, decayed score
///   representations) likewise never cross the wire: scores are always
///   reported in the current landmark frame, exactly as `results` returns
///   them.
pub trait MonitorBackend {
    /// Register a user's continuous query; returns its public id. Wrapper
    /// over [`MonitorBackend::register_with`] with default
    /// [`QueryOptions`] — default namespace, no TTL — which reproduces the
    /// pre-lifecycle behaviour exactly.
    fn register(&mut self, spec: QuerySpec) -> QueryId {
        self.register_with(spec, QueryOptions::default())
    }

    /// Register a query with lifecycle options: its namespace (intern names
    /// first via [`MonitorBackend::intern_namespace`]) and an optional
    /// per-query `max_age` overriding the namespace policy's default TTL.
    ///
    /// Registration may evict: if the namespace has a
    /// [`RetentionPolicy::max_queries`] cap and this registration crosses
    /// it, existing members are removed per the policy's
    /// [`EvictionPolicy`](crate::EvictionPolicy) — never the query just
    /// registered.
    ///
    /// # Panics
    /// Panics when every id below `u32::MAX` was handed out
    /// ([`MonitorBackend::next_query_id`] reads `u32::MAX`).
    fn register_with(&mut self, spec: QuerySpec, opts: QueryOptions) -> QueryId;

    /// The id the next registration will be assigned. Ids are never
    /// reused, so a caller can name a query before registering it.
    fn next_query_id(&self) -> QueryId;

    /// Remove a query. Returns false when the id is unknown or removed.
    fn unregister(&mut self, qid: QueryId) -> bool;

    // --- Lifecycle: namespaces, retention, expiry (see `lifecycle`). ---

    /// Intern a namespace name, allocating its handle on first sight. The
    /// empty string is always [`Namespace::DEFAULT`].
    fn intern_namespace(&mut self, name: &str) -> Namespace;

    /// Look up an interned namespace without creating it.
    fn find_namespace(&self, name: &str) -> Option<Namespace>;

    /// True once all [`ctk_common::NamespaceRegistry::CAPACITY`] handles
    /// are taken: interning a name not yet known would panic.
    fn namespaces_full(&self) -> bool;

    /// Install (or replace) a namespace's retention policy. Deadlines of
    /// existing members are recomputed (a per-query `max_age` still wins),
    /// and a lowered `max_queries` cap evicts immediately.
    fn set_retention(&mut self, ns: Namespace, policy: RetentionPolicy);

    /// The namespace's retention policy, if one was set.
    fn retention(&self, ns: Namespace) -> Option<RetentionPolicy>;

    /// Remove every query of a namespace at once: bulk-tombstone and
    /// force-compact, the "filtered forget". Returns how many queries were
    /// removed.
    fn forget_namespace(&mut self, ns: Namespace) -> usize;

    /// The namespace a live query belongs to.
    fn namespace_of(&self, qid: QueryId) -> Option<Namespace>;

    /// Per-namespace lifecycle stats (live/expired/evicted), handle order.
    fn namespace_stats(&self) -> Vec<NamespaceStats>;

    /// `(expired, evicted)` lifetime totals across all namespaces.
    fn lifecycle_totals(&self) -> (u64, u64);

    /// Publish the documents of a typed [`PublishRequest`] through the
    /// backend's batched ingestion path; the whole request is scored
    /// before the call returns. This is the one ingestion entry point implementations provide;
    /// [`MonitorBackend::publish`] and [`MonitorBackend::publish_batch`]
    /// are thin wrappers over it.
    fn publish_request(&mut self, request: PublishRequest) -> PublishReceipt;

    /// Publish one document to the stream. Wrapper over
    /// [`MonitorBackend::publish_request`].
    fn publish(&mut self, pairs: Vec<(TermId, f32)>, arrival: Timestamp) -> PublishReceipt {
        self.publish_request(PublishRequest::from((pairs, arrival)))
    }

    /// Publish a batch of documents. Wrapper over
    /// [`MonitorBackend::publish_request`].
    fn publish_batch(&mut self, batch: Vec<(Vec<(TermId, f32)>, Timestamp)>) -> PublishReceipt {
        self.publish_request(PublishRequest::from(batch))
    }

    /// Current top-k of a query, best first. `None` after unregistration.
    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>>;

    /// Number of live queries.
    fn num_queries(&self) -> usize;

    /// Number of shards doing the work (1 for single-engine backends).
    fn shards(&self) -> usize {
        1
    }

    /// The decay parameter the backend was built with.
    fn lambda(&self) -> f64;

    /// Point-in-time storage counters of the backend's query index(es):
    /// heap bytes and block decodes, summed across shards on
    /// sharded backends. All-zero when no engine carries an index.
    fn storage_stats(&self) -> StorageStats {
        StorageStats::default()
    }

    /// Capture the full monitor state (versioned, engine-agnostic).
    fn snapshot(&self) -> Snapshot;

    /// Rebuild a capture's state on this **freshly built** backend (same
    /// `lambda`; any engine kind or shard count): stream position, decay
    /// landmark, namespaces, policies, and every query with its captured
    /// results, registration time and deadline. Each query keeps its
    /// captured id, and the next registration gets the capture's
    /// `next_query`.
    ///
    /// # Panics
    /// Panics when the backend's `lambda` differs from the capture's, when
    /// the backend already hosts queries (seeded scores are only
    /// meaningful in a fresh landmark frame), or when the capture repeats
    /// an id ([`Snapshot::from_json`] refuses such text).
    fn apply_snapshot(&mut self, snapshot: &Snapshot);

    /// Warm-start a query's result set with pre-scored history (snapshot
    /// restore, and the bench harness's steady-state emulation).
    fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]);
}
