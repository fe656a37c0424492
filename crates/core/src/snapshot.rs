//! The versioned snapshot format: a serializable capture of a whole monitor
//! backend, independent of the engine kind and configuration that wrote it.
//!
//! Capture and restore themselves live in the front-end
//! ([`crate::MonitorBackend::snapshot`] /
//! [`crate::MonitorBackend::apply_snapshot`]); this module owns only the
//! on-disk shape, its one text writer ([`Snapshot::write_json`]) and its
//! migration.

use crate::lifecycle::EvictionPolicy;
use ctk_common::{Namespace, QuerySpec, ScoredDoc, Timestamp};
use serde::json::ObjectWriter;
use serde::{Deserialize, Serialize, Value};
use std::io;

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

/// One section of a [`Snapshot`]: a decay landmark and the queries scored
/// in its frame. A monitor writes exactly one; captures written by the
/// query-sharded builds hold one per shard, all at the same landmark.
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
/// A monitor writes one section. Restore reads every section, so a capture
/// of several (as the query-sharded builds wrote) restores onto the one
/// engine, and every query keeps its captured id.
///
/// ## Format history
///
/// * **v3** (current): adds the lifecycle layer — a `namespaces` string
///   table, per-namespace retention `policies`, and per-query
///   `namespace`/`registered_at`/`max_age`/`deadline`. Later v3 captures
///   add `next_query`; one without it reads the largest captured `qid`
///   plus one (0 with no queries) instead.
/// * **v2** (PR 3): `version` tag, per-shard `shards` sections each
///   carrying its `landmark`. Migrated into the default namespace with no
///   deadlines; `registered_at` becomes the capture's `last_arrival`.
///
/// [`Snapshot::from_json`] parses both and refuses everything else (the
/// flat, untagged captures of earlier builds included);
/// [`Snapshot::write_json`] always writes v3, as compact text. Earlier
/// builds wrote the same fields pretty-printed; whitespace aside it is the
/// same document, so those captures still parse.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    pub version: u32,
    pub lambda: f64,
    pub next_doc: u64,
    /// The id the capture's next registration would have been given: every
    /// id below it was handed out, so a restore never hands one out again.
    /// [`Snapshot::from_json`] raises it past every captured id, which is
    /// what a capture written before the field existed reads.
    #[serde(default)]
    pub next_query: u32,
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
            next_query: 0,
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
    /// Serialize to JSON (always the current format version): what
    /// [`Snapshot::write_json`] writes, collected into a `String`.
    pub fn to_json(&self) -> serde_json::Result<String> {
        let mut out = Vec::new();
        self.write_json(&mut out).map_err(|e| serde::Error::custom(e.to_string()))?;
        Ok(String::from_utf8(out).expect("the JSON writer emits UTF-8"))
    }

    /// Write the capture to `out` as compact v3 JSON, byte-identical to
    /// `serde_json::to_string(self)`: the envelope, then each section's
    /// queries one at a time. Each query is rendered into one reused buffer
    /// and handed to `out` in a single write, so the writer never holds more
    /// than one query's text. Give it a buffered sink (`BufWriter`) when
    /// `out` is a file or socket.
    pub fn write_json(&self, mut out: impl io::Write) -> io::Result<()> {
        let invalid = |e: serde::Error| io::Error::new(io::ErrorKind::InvalidData, e);
        let mut buf = String::new();
        // The envelope: every field but `shards`, which comes last.
        let mut head = ObjectWriter::begin(&mut buf);
        head.field("version", &self.version).map_err(invalid)?;
        head.field("lambda", &self.lambda).map_err(invalid)?;
        head.field("next_doc", &self.next_doc).map_err(invalid)?;
        head.field("next_query", &self.next_query).map_err(invalid)?;
        head.field("last_arrival", &self.last_arrival).map_err(invalid)?;
        head.field("namespaces", &self.namespaces).map_err(invalid)?;
        head.field("policies", &self.policies).map_err(invalid)?;
        buf.push_str(",\"shards\":[");
        for (i, section) in self.shards.iter().enumerate() {
            buf.push_str(if i == 0 { "{\"landmark\":" } else { ",{\"landmark\":" });
            section.landmark.write_json(&mut buf).map_err(invalid)?;
            buf.push_str(",\"queries\":[");
            for (j, query) in section.queries.iter().enumerate() {
                if j > 0 {
                    buf.push(',');
                }
                query.write_json(&mut buf).map_err(invalid)?;
                out.write_all(buf.as_bytes())?;
                buf.clear();
            }
            buf.push_str("]}");
        }
        buf.push_str("]}");
        out.write_all(buf.as_bytes())
    }

    /// Deserialize from JSON, migrating a v2 capture to the current
    /// in-memory form (its queries land in the default namespace with no
    /// deadlines). Any other shape or version is an error, and so is a
    /// non-finite number in any field, a query id captured twice, and the
    /// id `u32::MAX`, past which no id is left to hand out. A large id
    /// costs a restore nothing: only captured queries take a slot.
    pub fn from_json(s: &str) -> serde_json::Result<Snapshot> {
        Snapshot::from_json_value(&serde_json::from_str(s)?)
    }

    /// [`Snapshot::from_json`] on text already parsed into a tree, such as
    /// a member of a larger document.
    pub fn from_json_value(tree: &Value) -> serde_json::Result<Snapshot> {
        let mut snap = match Snapshot::from_value(tree) {
            Ok(snap) if snap.version == SNAPSHOT_VERSION => snap,
            Ok(snap) => return Err(unsupported(snap.version)),
            Err(v3_err) => match SnapshotV2::from_value(tree) {
                // The shim ignores unknown fields, so any versioned
                // document reaches this arm; only a real v2 may migrate —
                // anything else must fail as unsupported, not have its
                // lifecycle fields silently dropped.
                Ok(v2) if v2.version == 2 => v2.migrate(),
                Ok(v2) => return Err(unsupported(v2.version)),
                Err(_) => return Err(v3_err.into()),
            },
        };
        snap.check_numbers()?;
        let mut qids: Vec<u32> = snap.queries().map(|q| q.qid).collect();
        qids.sort_unstable();
        if let Some(w) = qids.windows(2).find(|w| w[0] == w[1]) {
            let twice = format!("snapshot holds query id {} twice", w[0]);
            return Err(serde::Error::custom(twice).into());
        }
        let after_largest = match qids.last() {
            Some(&qid) => qid.checked_add(1).ok_or_else(|| {
                serde::Error::custom(format!(
                    "snapshot holds query id {qid}: no id is left after it"
                ))
            })?,
            None => 0,
        };
        snap.next_query = snap.next_query.max(after_largest);
        Ok(snap)
    }

    /// Refuse any non-finite number, naming its field: JSON spells +∞ as
    /// `1e999`, and such a value can neither be written back out nor
    /// ordered safely. Refuse too a negative λ, landmark or score, which no
    /// monitor can be built with or produce, and sections in different
    /// landmark frames, which no one engine can seed.
    fn check_numbers(&self) -> Result<(), serde::Error> {
        let finite = |field: &str, x: f64| match x.is_finite() {
            true => Ok(()),
            false => Err(serde::Error::custom(format!("snapshot field `{field}` is not finite"))),
        };
        finite("lambda", self.lambda)?;
        let negative = self.lambda < 0.0 || self.shards.iter().any(|s| s.landmark < 0.0);
        if negative {
            return Err(serde::Error::custom(
                "snapshot fields `lambda` and `landmark` must be >= 0",
            ));
        }
        if !self.shards.windows(2).all(|w| w[0].landmark == w[1].landmark) {
            return Err(serde::Error::custom("snapshot sections disagree on the landmark"));
        }
        finite("last_arrival", self.last_arrival)?;
        for policy in &self.policies {
            finite("policies.max_age", policy.max_age.unwrap_or(0.0))?;
        }
        for section in &self.shards {
            finite("landmark", section.landmark)?;
            for q in &section.queries {
                finite("registered_at", q.registered_at)?;
                finite("max_age", q.max_age.unwrap_or(0.0))?;
                finite("deadline", q.deadline.unwrap_or(0.0))?;
                for (_, weight) in q.spec.vector.iter() {
                    finite("spec.vector", f64::from(weight))?;
                }
                for r in &q.results {
                    finite("results.score", r.score.get())?;
                    if r.score.get() < 0.0 {
                        return Err(serde::Error::custom("snapshot field `results.score` is < 0"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total queries across all sections.
    pub fn num_queries(&self) -> usize {
        self.shards.iter().map(|s| s.queries.len()).sum()
    }

    /// Iterate every captured query, section order.
    pub fn queries(&self) -> impl Iterator<Item = &SnapshotQuery> + '_ {
        self.shards.iter().flat_map(|s| s.queries.iter())
    }

    /// The decay landmark of the capture: its first section's (0 with no
    /// section). [`Snapshot::from_json`] refuses sections that disagree.
    pub fn landmark(&self) -> Timestamp {
        self.shards.first().map_or(0.0, |s| s.landmark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MonitorBackend;
    use crate::lifecycle::{QueryOptions, RetentionPolicy};
    use crate::monitor::Monitor;
    use crate::naive::Naive;
    use ctk_common::{QueryId, TermId};

    /// `write_json`, and `to_json` through it, against the derived compact
    /// writer; the text also parses back to the same capture.
    fn assert_byte_identical(snapshot: &Snapshot) {
        let want = serde_json::to_string(snapshot).expect("derived writer");
        let mut streamed = Vec::new();
        snapshot.write_json(&mut streamed).expect("write_json");
        assert_eq!(String::from_utf8(streamed).unwrap(), want);
        assert_eq!(snapshot.to_json().unwrap(), want);
        let reparsed = Snapshot::from_json(&want).expect("the written text parses");
        assert_eq!(serde_json::to_string(&reparsed).unwrap(), want);
    }

    #[test]
    fn empty_monitor_writes_byte_identical() {
        let m = Monitor::new(Naive::new(0.001));
        assert_byte_identical(&MonitorBackend::snapshot(&m));
    }

    #[test]
    fn zero_sections_write_byte_identical() {
        assert_byte_identical(&Snapshot {
            version: SNAPSHOT_VERSION,
            lambda: 0.5,
            next_doc: 7,
            next_query: 4,
            last_arrival: 3.25,
            namespaces: vec![String::new(), "tenant \"a\"\n".to_string()],
            policies: Vec::new(),
            shards: Vec::new(),
        });
    }

    #[test]
    fn populated_sections_write_byte_identical() {
        // Several sections with lifecycle state, a policy, a namespace that
        // needs escapes, a renormalized landmark and real float scores.
        let mut m = Monitor::new(Naive::new(0.5));
        let ns = m.intern_namespace("tenant \"x\"\n\t");
        m.set_retention(
            ns,
            RetentionPolicy {
                max_age: Some(1e6),
                max_queries: Some(64),
                eviction: EvictionPolicy::LowestScore,
            },
        );
        for i in 0..17u32 {
            let spec = QuerySpec::uniform(&[TermId(i % 5), TermId(5 + i % 3)], 2).unwrap();
            if i % 3 == 0 {
                m.register_with(spec, QueryOptions { namespace: ns, max_age: Some(5e5) });
            } else {
                m.register(spec);
            }
        }
        for q in [0u32, 3, 6, 9, 12, 15] {
            m.unregister(QueryId(q));
        }
        for i in 0..40u64 {
            // Arrivals up to 160 under λ = 0.5 cross the renorm headroom.
            m.publish(vec![(TermId((i % 5) as u32), 1.0), (TermId(7), 0.3)], i as f64 * 4.0);
        }
        let mut snap = MonitorBackend::snapshot(&m);
        assert!(snap.landmark() > 0.0, "the decay frame was renormalized");
        assert!(!snap.policies.is_empty());
        assert_byte_identical(&snap);
        // Dealt round-robin into three sections, as the query-sharded
        // builds wrote them.
        let queries = std::mem::take(&mut snap.shards[0].queries);
        let landmark = snap.landmark();
        snap.shards = (0..3).map(|_| ShardSnapshot { landmark, queries: Vec::new() }).collect();
        for (i, q) in queries.into_iter().enumerate() {
            snap.shards[i % 3].queries.push(q);
        }
        assert_byte_identical(&snap);
        // An emptied section between populated ones.
        snap.shards[1].queries.clear();
        assert_byte_identical(&snap);
    }

    #[test]
    fn single_engine_section_writes_byte_identical() {
        let mut m = Monitor::new(Naive::new(0.001));
        for i in 0..9u32 {
            m.register(QuerySpec::uniform(&[TermId(i % 4)], 1).unwrap());
        }
        m.publish_batch(vec![
            (vec![(TermId(1), 1.0)], 1.0),
            (vec![(TermId(2), 0.25)], 2.0),
            (vec![(TermId(3), 0.1)], 3.5),
        ]);
        let snap = MonitorBackend::snapshot(&m);
        assert_eq!(snap.shards.len(), 1);
        assert_byte_identical(&snap);
    }
}
