//! The replay seam behind the server's write-ahead journal: a serializable
//! representation of every state-mutating command, plus the [`Replayer`]
//! that re-applies a recovered sequence onto a fresh (or snapshot-restored)
//! backend.
//!
//! # Why replay reproduces the crashed state bit-identically
//!
//! Every mutating operation is linearized through the server's single
//! ingest thread, so the journal records a total order. The backend itself
//! is deterministic given that order: document ids come from a restored
//! `next_doc` counter, decay scores from the restored landmark, and
//! expiry/eviction fire at publish boundaries as pure functions of stream
//! time. Re-applying the journaled suffix on top of the checkpoint
//! snapshot therefore lands on the same ids, the same scores and the same
//! result sets the live process had when it died — the property the
//! SIGKILL crash test asserts end-to-end.
//!
//! # Id remapping
//!
//! Snapshot restore re-registers queries and may renumber them;
//! [`crate::Snapshot::restore_into`] returns the captured-id → live-id
//! mapping. Journaled commands speak the *pre-crash* id space, so the
//! [`Replayer`] carries that mapping forward: a replayed
//! [`ReplayCommand::Register`] extends it with the id the dead process
//! assigned, and a replayed [`ReplayCommand::Unregister`] translates
//! through it. An unregister whose id never maps (e.g. the query expired
//! before the checkpoint) is skipped — removal of an absent query is a
//! no-op either way.

use crate::backend::{MonitorBackend, PublishRequest};
use crate::lifecycle::{QueryOptions, RetentionPolicy};
use ctk_common::{FxHashMap, Namespace, QueryId, QuerySpec, TermId, Timestamp};
use serde::json::ObjectWriter;
use serde::{Deserialize, Error, Number, Serialize, Value};

/// One journaled mutating command, in the shape the wire layer produced it.
///
/// Serialized as an `"op"`-tagged JSON object (mirroring the wire API's
/// request bodies), so journal payloads are greppable with standard tools:
///
/// ```json
/// {"op": "publish", "docs": [[[[1, 0.5]], 2.0]]}
/// {"op": "register", "assigned": 3, "spec": {...}, "namespace": "", "max_age": null}
/// {"op": "unregister", "qid": 3}
/// {"op": "retention", "namespace": "alerts", "policy": {...}}
/// {"op": "forget", "namespace": "alerts"}
/// ```
///
/// The daemon's journal writes a publish as its request body instead, and
/// recovers that record into [`ReplayCommand::Publish`]; `"op": "publish"`
/// records come from direct appends of this type and from older builds.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayCommand {
    /// The documents of one `POST /publish`, verbatim.
    Publish {
        /// `(pairs, arrival)` per document, the [`PublishRequest`] shape.
        docs: Vec<(Vec<(TermId, f32)>, Timestamp)>,
    },
    /// One query registration, journaled *after* the backend assigned its
    /// id so replay can rebuild the pre-crash id space.
    Register {
        /// The public id the original process assigned.
        assigned: QueryId,
        spec: QuerySpec,
        /// Namespace name ("" is the default namespace).
        namespace: String,
        /// Per-query TTL override, if one was requested.
        max_age: Option<f64>,
    },
    /// One query removal, in the pre-crash id space.
    Unregister { qid: QueryId },
    /// A retention-policy install for a namespace (interned on replay).
    SetRetention { namespace: String, policy: RetentionPolicy },
    /// A confirmed `POST /forget` bulk removal.
    Forget { namespace: String },
}

impl ReplayCommand {
    /// Build the publish variant from a typed request (cheap clone of the
    /// document vectors; the journal serializes before the backend consumes
    /// the request).
    pub fn publish(request: &PublishRequest) -> ReplayCommand {
        ReplayCommand::Publish { docs: request.docs().to_vec() }
    }

    /// The wire token naming this command kind (the `"op"` tag).
    pub fn op(&self) -> &'static str {
        match self {
            ReplayCommand::Publish { .. } => "publish",
            ReplayCommand::Register { .. } => "register",
            ReplayCommand::Unregister { .. } => "unregister",
            ReplayCommand::SetRetention { .. } => "retention",
            ReplayCommand::Forget { .. } => "forget",
        }
    }
}

impl Serialize for ReplayCommand {
    fn to_value(&self) -> Value {
        let mut entries = vec![("op".to_string(), Value::Str(self.op().to_string()))];
        match self {
            ReplayCommand::Publish { docs } => {
                entries.push(("docs".to_string(), docs.to_value()));
            }
            ReplayCommand::Register { assigned, spec, namespace, max_age } => {
                entries.push(("assigned".to_string(), Value::Num(Number::U64(assigned.0.into()))));
                entries.push(("spec".to_string(), spec.to_value()));
                entries.push(("namespace".to_string(), Value::Str(namespace.clone())));
                entries.push(("max_age".to_string(), max_age.to_value()));
            }
            ReplayCommand::Unregister { qid } => {
                entries.push(("qid".to_string(), Value::Num(Number::U64(qid.0.into()))));
            }
            ReplayCommand::SetRetention { namespace, policy } => {
                entries.push(("namespace".to_string(), Value::Str(namespace.clone())));
                entries.push(("policy".to_string(), policy.to_value()));
            }
            ReplayCommand::Forget { namespace } => {
                entries.push(("namespace".to_string(), Value::Str(namespace.clone())));
            }
        }
        Value::Object(entries)
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        match self {
            ReplayCommand::Publish { docs } => {
                write_tagged(out, self.op(), |object| object.field("docs", docs))
            }
            ReplayCommand::Register { assigned, spec, namespace, max_age } => {
                write_tagged(out, self.op(), |object| {
                    object.field("assigned", assigned)?;
                    object.field("spec", spec)?;
                    object.field("namespace", namespace)?;
                    object.field("max_age", max_age)
                })
            }
            ReplayCommand::Unregister { qid } => {
                write_tagged(out, self.op(), |object| object.field("qid", qid))
            }
            ReplayCommand::SetRetention { namespace, policy } => {
                write_tagged(out, self.op(), |object| {
                    object.field("namespace", namespace)?;
                    object.field("policy", policy)
                })
            }
            ReplayCommand::Forget { namespace } => {
                write_tagged(out, self.op(), |object| object.field("namespace", namespace))
            }
        }
    }
}

/// Stream one `"op"`-tagged record: the tag, then whatever `fields` adds.
fn write_tagged(
    out: &mut String,
    op: &str,
    fields: impl FnOnce(&mut ObjectWriter<'_>) -> Result<(), Error>,
) -> Result<(), Error> {
    let mut object = ObjectWriter::begin(out);
    object.field("op", op)?;
    fields(&mut object)?;
    object.end();
    Ok(())
}

impl Deserialize for ReplayCommand {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let op = value.field("op")?.as_str()?;
        match op {
            "publish" => {
                Ok(ReplayCommand::Publish { docs: Deserialize::from_value(value.field("docs")?)? })
            }
            "register" => Ok(ReplayCommand::Register {
                assigned: QueryId::from_value(value.field("assigned")?)?,
                spec: QuerySpec::from_value(value.field("spec")?)?,
                namespace: String::from_value(value.field("namespace")?)?,
                max_age: Deserialize::from_value(value.field("max_age")?)?,
            }),
            "unregister" => {
                Ok(ReplayCommand::Unregister { qid: QueryId::from_value(value.field("qid")?)? })
            }
            "retention" => Ok(ReplayCommand::SetRetention {
                namespace: String::from_value(value.field("namespace")?)?,
                policy: RetentionPolicy::from_value(value.field("policy")?)?,
            }),
            "forget" => Ok(ReplayCommand::Forget {
                namespace: String::from_value(value.field("namespace")?)?,
            }),
            other => Err(Error::custom(format!("unknown journal op {other:?}"))),
        }
    }
}

/// Re-applies a recovered command sequence onto a backend, translating
/// journaled query ids through the snapshot-restore mapping (see the module
/// docs for why the mapping exists and how replay extends it).
#[derive(Debug, Default)]
pub struct Replayer {
    mapping: FxHashMap<QueryId, QueryId>,
    applied: u64,
}

impl Replayer {
    /// A replayer for a fresh backend (no checkpoint): journaled ids map to
    /// themselves as registers are replayed in order.
    pub fn new() -> Replayer {
        Replayer::default()
    }

    /// A replayer seeded with the captured-id → live-id mapping a snapshot
    /// restore returned.
    pub fn with_mapping(mapping: FxHashMap<QueryId, QueryId>) -> Replayer {
        Replayer { mapping, applied: 0 }
    }

    /// Commands applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The journaled-id → live-id view after everything applied so far.
    pub fn mapping(&self) -> &FxHashMap<QueryId, QueryId> {
        &self.mapping
    }

    /// Apply one recovered command.
    pub fn apply<B: MonitorBackend + ?Sized>(&mut self, backend: &mut B, command: ReplayCommand) {
        self.applied += 1;
        match command {
            ReplayCommand::Publish { docs } => {
                let _ = backend.publish_request(PublishRequest::from(docs));
            }
            ReplayCommand::Register { assigned, spec, namespace, max_age } => {
                let ns = if namespace.is_empty() {
                    Namespace::DEFAULT
                } else {
                    backend.intern_namespace(&namespace)
                };
                let live = backend.register_with(spec, QueryOptions { namespace: ns, max_age });
                self.mapping.insert(assigned, live);
            }
            ReplayCommand::Unregister { qid } => {
                // Registers always precede unregisters of the same id and
                // every replayed register extends the mapping, so a miss
                // means the id never named a live query (journaled no-op
                // removal, or a query the checkpoint already saw expire) —
                // skipping reproduces the original no-op.
                if let Some(live) = self.mapping.get(&qid).copied() {
                    backend.unregister(live);
                }
            }
            ReplayCommand::SetRetention { namespace, policy } => {
                let ns = backend.intern_namespace(&namespace);
                backend.set_retention(ns, policy);
            }
            ReplayCommand::Forget { namespace } => {
                if let Some(ns) = backend.find_namespace(&namespace) {
                    backend.forget_namespace(ns);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::EvictionPolicy;
    use crate::{Monitor, Naive};

    fn spec(terms: &[(u32, f32)], k: usize) -> QuerySpec {
        QuerySpec::new(terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), k).unwrap()
    }

    fn commands() -> Vec<ReplayCommand> {
        vec![
            ReplayCommand::SetRetention {
                namespace: "alerts".to_string(),
                policy: RetentionPolicy {
                    max_age: Some(100.0),
                    max_queries: Some(8),
                    eviction: EvictionPolicy::LowestScore,
                },
            },
            ReplayCommand::Register {
                assigned: QueryId(0),
                spec: spec(&[(1, 1.0)], 3),
                namespace: String::new(),
                max_age: None,
            },
            ReplayCommand::Register {
                assigned: QueryId(1),
                spec: spec(&[(2, 0.6), (3, 0.8)], 2),
                namespace: "alerts".to_string(),
                max_age: Some(50.0),
            },
            ReplayCommand::Publish {
                docs: vec![
                    (vec![(TermId(1), 1.0)], 1.0),
                    (vec![(TermId(2), 0.5), (TermId(3), 0.5)], 2.0),
                ],
            },
            ReplayCommand::Unregister { qid: QueryId(0) },
            ReplayCommand::Forget { namespace: "alerts".to_string() },
        ]
    }

    #[test]
    fn commands_round_trip_through_the_value_tree() {
        for cmd in commands() {
            let json = serde_json::to_string(&cmd).unwrap();
            let back: ReplayCommand = serde_json::from_str(&json).unwrap();
            assert_eq!(back, cmd, "round-trip of {json}");
        }
        assert!(serde_json::from_str::<ReplayCommand>(r#"{"op": "explode"}"#).is_err());
        assert!(serde_json::from_str::<ReplayCommand>(r#"{"docs": []}"#).is_err());
    }

    #[test]
    fn replay_reproduces_a_live_run() {
        // Drive a backend live, mirror every operation through the replay
        // seam onto a second backend, and compare the observable state.
        let mut live: Box<dyn MonitorBackend + Send> = Box::new(Monitor::new(Naive::new(0.01)));
        let mut replayed: Box<dyn MonitorBackend + Send> = Box::new(Monitor::new(Naive::new(0.01)));
        let mut replayer = Replayer::new();

        for cmd in commands() {
            match cmd.clone() {
                ReplayCommand::Publish { docs } => {
                    live.publish_request(PublishRequest::from(docs));
                }
                ReplayCommand::Register { spec, namespace, max_age, .. } => {
                    let ns = live.intern_namespace(&namespace);
                    live.register_with(spec, QueryOptions { namespace: ns, max_age });
                }
                ReplayCommand::Unregister { qid } => {
                    live.unregister(qid);
                }
                ReplayCommand::SetRetention { namespace, policy } => {
                    let ns = live.intern_namespace(&namespace);
                    live.set_retention(ns, policy);
                }
                ReplayCommand::Forget { namespace } => {
                    let ns = live.find_namespace(&namespace).unwrap();
                    live.forget_namespace(ns);
                }
            }
            replayer.apply(&mut *replayed, cmd);
        }

        assert_eq!(replayer.applied(), 6);
        assert_eq!(replayed.num_queries(), live.num_queries());
        for qid in 0..2 {
            assert_eq!(replayed.results(QueryId(qid)), live.results(QueryId(qid)));
        }
        assert_eq!(
            replayed.snapshot().to_json().unwrap(),
            live.snapshot().to_json().unwrap(),
            "replayed state serializes bit-identically"
        );
    }

    #[test]
    fn unregister_of_an_unmapped_id_is_skipped() {
        let mut backend: Box<dyn MonitorBackend + Send> = Box::new(Monitor::new(Naive::new(0.01)));
        let seeded: FxHashMap<QueryId, QueryId> = [(QueryId(7), QueryId(0))].into_iter().collect();
        let mut replayer = Replayer::with_mapping(seeded);
        // No query registered at all: the mapped id misses, the unmapped id
        // is dropped — neither panics.
        replayer.apply(&mut *backend, ReplayCommand::Unregister { qid: QueryId(7) });
        replayer.apply(&mut *backend, ReplayCommand::Unregister { qid: QueryId(99) });
        assert_eq!(replayer.applied(), 2);
        assert_eq!(backend.num_queries(), 0);
    }
}
