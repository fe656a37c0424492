//! # continuous-topk
//!
//! A from-scratch Rust reproduction of **"Continuous Top-k Monitoring on
//! Document Streams"** (U, Zhang, Mouratidis, Li — ICDE 2018 / TKDE 2017):
//! a central server hosts millions of continuous keyword queries (CTQDs) and
//! refreshes each one's top-k most relevant documents as a document stream
//! flows in.
//!
//! The paper's contribution — the **RIO** and **MRIO** algorithms, which
//! index the *queries* in ID-ordered inverted lists and prune with
//! (globally, then zone-locally) bounded WAND-style jumps — lives in
//! [`ctk_core`], re-exported here; synthetic corpora and the paper's two
//! query workloads in [`ctk_stream`]; real-text analysis in [`ctk_text`].
//!
//! The product runs **MRIO**: [`MonitorBuilder`] builds it, or the
//! exhaustive [`Naive`](ctk_core::Naive) oracle it is checked against
//! ([`EngineKind`]), and the `ctk-serve` daemon runs MRIO only. The other
//! six engines — RTA,
//! RIO, SortQuer, TPS and the block-max and suffix zone-maxima ablations
//! of MRIO — are evaluation code: the benchmark harness reaches them by
//! report name through `ctk_bench::make_engine` to regenerate the
//! paper's Figure 1, and the equivalence tests hold them to the oracle.
//!
//! ## Quickstart
//!
//! Applications construct a monitor through [`MonitorBuilder`] and talk to
//! it through the [`MonitorBackend`] trait — the same API whether one
//! engine does the work or a shard pool does:
//!
//! ```
//! use continuous_topk::prelude::*;
//!
//! // An MRIO monitor with decay λ = 0.001 per time unit.
//! let mut monitor = MonitorBuilder::new(EngineKind::Mrio).lambda(0.001).build();
//!
//! // Register a user's continuous query: keywords + k.
//! let q = monitor.register(QuerySpec::uniform(&[TermId(10), TermId(42)], 5).unwrap());
//!
//! // Publish stream documents; the receipt reports ids, changes and work.
//! let receipt = monitor.publish(vec![(TermId(42), 1.0)], 0.0);
//! assert_eq!(receipt.doc_id(), DocId(0));
//! assert_eq!(receipt.changes_for(q).count(), 1);
//!
//! // Read the continuously maintained top-k.
//! let top = monitor.results(q).unwrap();
//! assert_eq!(top[0].doc, DocId(0));
//! ```
//!
//! Scaling out is a builder knob, not an API change — and a snapshot taken
//! from any configuration restores into any other (the shard sections are
//! rebalanced on restore):
//!
//! ```
//! use continuous_topk::prelude::*;
//!
//! let config = MonitorBuilder::new(EngineKind::Mrio).lambda(0.001).shards(4);
//! let mut monitor = config.build();
//! let q = monitor.register(QuerySpec::uniform(&[TermId(3)], 2).unwrap());
//! monitor.publish_batch(vec![
//!     (vec![(TermId(3), 1.0)], 0.0),
//!     (vec![(TermId(3), 0.5), (TermId(8), 0.5)], 1.0),
//! ]);
//!
//! // snapshot → JSON → restore onto a *different* shard count.
//! let json = monitor.snapshot().to_json().unwrap();
//! let snapshot = Snapshot::from_json(&json).unwrap();
//! let restored = MonitorBuilder::new(EngineKind::Mrio).shards(2).restore(&snapshot);
//! assert_eq!(restored.results(q), monitor.results(q));
//! assert_eq!(restored.next_query_id(), monitor.next_query_id());
//! ```
//!
//! ## Front-end and runtimes
//!
//! [`FrontEnd`] is the one [`MonitorBackend`] implementation: it owns the
//! public query ids, document stamping, the lifecycle layer ([`QueryOptions`],
//! [`RetentionPolicy`]) and snapshots, over one of two runtimes — the
//! in-thread engine (`Monitor<E>`) or the query-sharded workers
//! (`ShardedMonitor`). [`MonitorBuilder`] picks the runtime by shard count;
//! a capture from either restores into the other via
//! [`MonitorBackend::apply_snapshot`], every query under its captured id.
//! Either way a publish is scored whole before
//! it returns: the sharded runtime sends each worker the batch once and
//! merges their answers once.
//!
//! See `examples/` for end-to-end scenarios (`restartable` exercises the
//! sharded snapshot → kill → restore → continue cycle) and `crates/bench`
//! for the harness regenerating the paper's figures.
//!
//! [`FrontEnd`]: ctk_core::FrontEnd
//! [`QueryOptions`]: ctk_core::QueryOptions
//! [`RetentionPolicy`]: ctk_core::RetentionPolicy
//! [`MonitorBackend`]: ctk_core::MonitorBackend
//! [`MonitorBackend::apply_snapshot`]: ctk_core::MonitorBackend::apply_snapshot

pub mod builder;

pub use builder::{EngineKind, MonitorBuilder};

pub use ctk_common as common;
pub use ctk_core as core;
pub use ctk_index as index;
pub use ctk_stream as stream;
pub use ctk_text as text;

/// The types most applications need.
pub mod prelude {
    pub use crate::builder::{EngineKind, MonitorBuilder};
    pub use ctk_common::{
        DocId, Document, Namespace, OrdF64, Query, QueryId, QuerySpec, ScoredDoc, SparseVector,
        TermId, Timestamp,
    };
    pub use ctk_core::{
        Admission, ContinuousTopK, CumulativeStats, DecayModel, EventStats, EvictionPolicy,
        Monitor, MonitorBackend, Mrio, MrioBlock, MrioSeg, MrioSuffix, Naive, NamespaceStats,
        PostingsStorage, PublishReceipt, PublishRequest, QueryOptions, ResultChange,
        RetentionPolicy, Rio, ShardSnapshot, ShardedMonitor, Snapshot, SnapshotQuery,
        StorageConfig, StorageStats, SNAPSHOT_VERSION,
    };
    pub use ctk_stream::{
        ArrivalClock, CorpusConfig, CorpusModel, DocumentGenerator, QueryGenerator, QueryWorkload,
        StreamDriver, WorkloadConfig,
    };
    pub use ctk_text::Analyzer;
}
