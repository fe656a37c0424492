//! # ctk-core
//!
//! The paper's contribution: **RIO** (Reverse ID-Ordering) and **MRIO**
//! (Minimal RIO) for continuous top-k monitoring on document streams, plus
//! the exhaustive oracle, the shared scoring/decay machinery, and the
//! monitor front-end applications embed — one [`FrontEnd`] over an in-thread
//! engine ([`Monitor`]) or query-sharded worker threads ([`ShardedMonitor`]).
//!
//! ```
//! use ctk_core::{ContinuousTopK, MrioSeg};
//! use ctk_common::{Document, DocId, QuerySpec, TermId};
//!
//! let mut engine = MrioSeg::new(0.001); // decay λ
//! let q = engine.register(QuerySpec::uniform(&[TermId(1), TermId(2)], 10).unwrap());
//! engine.process(&Document::new(DocId(1), vec![(TermId(1), 1.0)], 0.0));
//! assert_eq!(engine.results(q).unwrap().len(), 1);
//! ```

pub mod backend;
pub mod engine;
mod frontend;
pub mod lifecycle;
pub mod monitor;
pub mod mrio;
pub mod naive;
pub mod replay;
pub mod rio;
mod runtime;
pub mod score;
pub mod sharded;
pub mod snapshot;
pub mod stats;
pub mod topk;
pub mod traits;

pub use backend::{Admission, MonitorBackend, PublishReceipt, PublishRequest};
pub use ctk_index::{PostingsStorage, StorageConfig, StorageStats};
pub use frontend::FrontEnd;
pub use lifecycle::{
    EvictionPolicy, LifecycleManager, NamespaceStats, QueryOptions, RetentionPolicy,
};
pub use monitor::Monitor;
pub use mrio::{Mrio, MrioBlock, MrioSeg, MrioSuffix};
pub use naive::Naive;
pub use replay::ReplayCommand;
pub use rio::Rio;
pub use score::DecayModel;
pub use sharded::ShardedMonitor;
pub use snapshot::{ShardSnapshot, Snapshot, SnapshotPolicy, SnapshotQuery, SNAPSHOT_VERSION};
pub use stats::{CumulativeStats, EventStats};
pub use topk::{Offer, ResultSets, TopKState};
pub use traits::{ContinuousTopK, ResultChange};

#[cfg(test)]
/// Fixtures shared by the unit tests of the front-end and its runtimes.
mod testutil {
    use ctk_common::{QuerySpec, TermId};

    pub fn spec(terms: &[u32], k: usize) -> QuerySpec {
        QuerySpec::uniform(&terms.iter().map(|&t| TermId(t)).collect::<Vec<_>>(), k).unwrap()
    }
}
