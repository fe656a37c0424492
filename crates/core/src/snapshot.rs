//! The versioned snapshot format: a serializable capture of a whole monitor
//! backend, independent of the engine kind and runtime that wrote it.
//!
//! Capture and restore themselves live in the front-end
//! ([`MonitorBackend::snapshot`] / [`MonitorBackend::apply_snapshot`]); this
//! module owns only the on-disk shape and its migration.

use crate::backend::MonitorBackend;
use crate::lifecycle::EvictionPolicy;
use ctk_common::{FxHashMap, Namespace, QueryId, QuerySpec, ScoredDoc, Timestamp};
use serde::{Deserialize, Serialize};

/// Current snapshot format version. Bump on any breaking field change and
/// teach [`Snapshot::from_json`] to migrate the previous shape.
pub const SNAPSHOT_VERSION: u32 = 3;

/// One query's state inside a [`Snapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotQuery {
    /// The public query id at capture time.
    pub qid: u32,
    pub spec: QuerySpec,
    pub results: Vec<ScoredDoc>,
    /// Handle into the snapshot's `namespaces` table (0 = default).
    pub namespace: u16,
    /// Stream time of the original registration.
    pub registered_at: Timestamp,
    /// The per-query TTL override, if one was set.
    pub max_age: Option<f64>,
    /// The effective expiry deadline at capture (stream time).
    pub deadline: Option<f64>,
}

/// One namespace's retention policy inside a [`Snapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotPolicy {
    /// Handle into the snapshot's `namespaces` table.
    pub namespace: u16,
    pub max_age: Option<f64>,
    pub max_queries: Option<u64>,
    pub eviction: EvictionPolicy,
}

/// One shard's section of a [`Snapshot`]: its decay landmark and the
/// queries it hosted. Single-engine monitors write exactly one section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// The decay landmark all this section's scores are relative to.
    /// Restoring without it mixes score frames once any renormalization has
    /// fired.
    pub landmark: Timestamp,
    pub queries: Vec<SnapshotQuery>,
}

/// A serializable capture of a whole monitor backend (format version 3).
///
/// The section list records how the capture was partitioned, but restore is
/// partition-agnostic: [`Snapshot::restore_into`] rebalances the queries
/// onto whatever backend it is given, so a 4-shard capture restores into a
/// 2-shard (or single-engine) monitor and vice versa.
///
/// ## Format history
///
/// * **v3** (current): adds the lifecycle layer — a `namespaces` string
///   table, per-namespace retention `policies`, and per-query
///   `namespace`/`registered_at`/`max_age`/`deadline`.
/// * **v2** (PR 3): `version` tag, per-shard `shards` sections each
///   carrying its `landmark`. Migrated into the default namespace with no
///   deadlines; `registered_at` becomes the capture's `last_arrival`.
///
/// [`Snapshot::from_json`] parses both and refuses everything else (the
/// flat, untagged captures of earlier builds included);
/// [`Snapshot::to_json`] always writes v3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    pub version: u32,
    pub lambda: f64,
    pub next_doc: u64,
    pub last_arrival: Timestamp,
    /// Interned namespace names; the index is the handle queries and
    /// policies refer to. Index 0 is always the default namespace ("").
    pub namespaces: Vec<String>,
    /// Installed retention policies, ascending namespace handle.
    pub policies: Vec<SnapshotPolicy>,
    pub shards: Vec<ShardSnapshot>,
}

/// The v2 (PR-3) on-disk shape, kept for migration only. The derive shim
/// ignores unknown fields, so a v3+ document *structurally* parses as v2;
/// [`Snapshot::from_json`] therefore rejects any `version != 2` here
/// instead of silently dropping the lifecycle fields.
#[derive(Deserialize)]
struct SnapshotV2 {
    version: u32,
    lambda: f64,
    next_doc: u64,
    last_arrival: Timestamp,
    shards: Vec<ShardSnapshotV2>,
}

/// One v2 section: landmark plus lifecycle-less queries.
#[derive(Deserialize)]
struct ShardSnapshotV2 {
    landmark: Timestamp,
    queries: Vec<SnapshotQueryV2>,
}

/// One v2 query: no namespace, no deadlines.
#[derive(Deserialize)]
struct SnapshotQueryV2 {
    qid: u32,
    spec: QuerySpec,
    results: Vec<ScoredDoc>,
}

impl SnapshotV2 {
    /// Lift into the current shape: default namespace, no TTL. The capture
    /// carries no registration times, so `registered_at` pins to the
    /// capture's stream clock — the same value `register_with` would use if
    /// the queries were re-registered at restore time.
    fn migrate(self) -> Snapshot {
        let last_arrival = self.last_arrival;
        let lift = |q: SnapshotQueryV2| SnapshotQuery {
            qid: q.qid,
            spec: q.spec,
            results: q.results,
            namespace: Namespace::DEFAULT.0,
            registered_at: last_arrival,
            max_age: None,
            deadline: None,
        };
        Snapshot {
            version: SNAPSHOT_VERSION,
            lambda: self.lambda,
            next_doc: self.next_doc,
            last_arrival,
            namespaces: vec![String::new()],
            policies: Vec::new(),
            shards: self
                .shards
                .into_iter()
                .map(|s| ShardSnapshot {
                    landmark: s.landmark,
                    queries: s.queries.into_iter().map(lift).collect(),
                })
                .collect(),
        }
    }
}

fn unsupported(version: u32) -> serde_json::Error {
    serde::Error::custom(format!(
        "unsupported snapshot version {version} (this build reads 2..={SNAPSHOT_VERSION})"
    ))
    .into()
}

impl Snapshot {
    /// Serialize to JSON (always the current format version).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserialize from JSON, migrating a v2 capture to the current
    /// in-memory form (its queries land in the default namespace with no
    /// deadlines). Any other shape or version is an error.
    pub fn from_json(s: &str) -> serde_json::Result<Snapshot> {
        match serde_json::from_str::<Snapshot>(s) {
            Ok(snap) if snap.version == SNAPSHOT_VERSION => Ok(snap),
            Ok(snap) => Err(unsupported(snap.version)),
            Err(v3_err) => match serde_json::from_str::<SnapshotV2>(s) {
                // The shim ignores unknown fields, so any versioned
                // document reaches this arm; only a real v2 may migrate —
                // anything else must fail as unsupported, not have its
                // lifecycle fields silently dropped.
                Ok(v2) if v2.version == 2 => Ok(v2.migrate()),
                Ok(v2) => Err(unsupported(v2.version)),
                Err(_) => Err(v3_err),
            },
        }
    }

    /// Total queries across all sections.
    pub fn num_queries(&self) -> usize {
        self.shards.iter().map(|s| s.queries.len()).sum()
    }

    /// Iterate every captured query, section order.
    pub fn queries(&self) -> impl Iterator<Item = &SnapshotQuery> + '_ {
        self.shards.iter().flat_map(|s| s.queries.iter())
    }

    /// The decay landmark of the capture. Sections written by one backend
    /// always agree (every shard sees the same arrivals, so their decay
    /// models renormalize in lockstep); the maximum is taken defensively.
    pub fn landmark(&self) -> Timestamp {
        debug_assert!(
            self.shards.windows(2).all(|w| w[0].landmark == w[1].landmark),
            "sections of one capture must share the landmark frame"
        );
        self.shards.iter().map(|s| s.landmark).fold(0.0, f64::max)
    }

    /// Rebuild this capture's state on a freshly built backend (same
    /// `lambda`; any engine kind or shard count) — see
    /// [`MonitorBackend::apply_snapshot`], which this forwards to. Returns
    /// the mapping from captured query ids to the new ids.
    ///
    /// # Panics
    /// Panics when the backend's `lambda` differs from the capture's, or
    /// when the backend already hosts queries (seeded scores are only
    /// meaningful in a fresh landmark frame).
    pub fn restore_into<B: MonitorBackend + ?Sized>(
        &self,
        backend: &mut B,
    ) -> FxHashMap<QueryId, QueryId> {
        backend.apply_snapshot(self)
    }
}
