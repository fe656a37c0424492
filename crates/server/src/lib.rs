//! `ctk-server`: a long-lived monitor daemon speaking HTTP/1.1 + JSON over
//! `std::net`, wrapping any [`MonitorBackend`] built by the facade's
//! [`MonitorBuilder`].
//!
//! The paper's system is a *service*: queries are standing subscriptions,
//! documents arrive forever, and the interesting output is the stream of
//! top-k result *changes*. This crate gives that service a wire surface:
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /queries` | register a query (optional `"namespace"`, `"max_age"`) → `{"query": id, "namespace": name}` |
//! | `DELETE /queries/{id}` | unregister |
//! | `GET /queries/{id}/results` | current top-k, best first |
//! | `POST /publish` | publish one document or a `{"docs": [...]}` batch → the wire-serialized [`PublishReceipt`] plus an `"admission"` object; under [`AdmissionPolicy::Reject`] a full ingest queue answers `429 Too Many Requests` with a `Retry-After` header instead of blocking |
//! | `POST /subscriptions` | subscribe to change events (optional `{"queries": [...]}` filter) |
//! | `DELETE /subscriptions/{id}` | unsubscribe |
//! | `GET /changes?subscriber=S&timeout_ms=T&max=N` | long-poll buffered change events |
//! | `PUT /namespaces/{ns}/retention` | install a retention policy (`max_age`, `max_queries`, `eviction`) |
//! | `GET /namespaces/{ns}/retention` | read a namespace's policy (404 for unknown namespaces) |
//! | `POST /forget` | bulk-remove a namespace: `{"namespace": n, "dry_run": true}` previews, `"confirm": true` removes |
//! | `GET /stats` | engine, λ, shards, query/publish counters, expiry/eviction totals, per-namespace counts, storage counters (`index_bytes`, `blocks_decoded`), ingest-queue occupancy (`queue_depth`, `queue_capacity`, `queue_highwater`), fan-out totals |
//! | `POST /snapshot` | capture the full monitor state as a versioned, compact JSON snapshot; `?stream=1` streams the same bytes one query at a time (EOF-framed, connection closes) without materializing the text; with a journal configured this is a **checkpoint** — the snapshot lands in `checkpoint.json` and the journal truncates |
//! | `POST /restore` | replace the live monitor from a snapshot → id mapping (rejects snapshot versions newer than this build reads, and non-finite numbers, with 400; checkpointed when a journal is active) |
//! | `POST /admin/drain` | refuse further publishes (503), flush in-flight ones, wake pollers |
//! | `GET /healthz` | liveness + `draining`/`warming` flags (always `200` while the process is up) |
//! | `GET /readyz` | readiness: `200` once journal replay finished and the server is not draining, else `503` with the blocking state |
//!
//! Architecture in one paragraph: a single **ingest thread** owns a
//! [`Node`] — the backend built by the [`MonitorBuilder`] that
//! [`ServerBuilder`] was given (its `bind` refuses a value it cannot run
//! with as `InvalidInput`, naming the knob), the journal and the subscriber
//! registry — and [`Node::apply`] is
//! the one path to that state, for live commands and journal recovery
//! alike. Connection handlers turn each request into an [`Op`]
//! ([`routes`]), enqueue it onto a *bounded* channel and block for the
//! reply, so a slow monitor pushes back on publishers through their own
//! sockets. Each `POST /publish` is one `publish_request`, scored whole.
//! Change fan-out happens on the ingest thread before the publisher is
//! acked, into per-subscriber bounded buffers that drop oldest and report
//! the gap. See [`node`] for the threading and durability model,
//! [`subscribers`] for delivery semantics, and the `ctk-serve` binary for
//! the runnable daemon.
//!
//! [`MonitorBackend`]: ctk_core::MonitorBackend
//! [`MonitorBuilder`]: continuous_topk::MonitorBuilder
//! [`PublishReceipt`]: ctk_core::PublishReceipt

pub mod client;
pub mod http;
pub mod journal;
pub mod node;
pub mod routes;
pub mod signal;
#[cfg(test)]
mod sim;
pub mod subscribers;
pub mod wire;

pub use client::HttpClient;
pub use journal::{
    decode_records, encode_record, publish_body_payload, FsyncPolicy, Journal, JournalConfig,
    Recovery, TailState,
};
pub use node::{Node, Op, Reply, ServerStats};
pub use routes::{AdmissionPolicy, CtkServer, ServerBuilder};
pub use subscribers::{ChangeEvent, PollOutcome, SubscriberRegistry};
