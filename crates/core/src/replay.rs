//! The record type behind the server's write-ahead journal: a serializable
//! representation of every state-mutating command. The daemon applies each
//! one live, appends it before acking, and replays recovered ones through
//! the same path (see `ctk_server::node`).

use crate::backend::PublishRequest;
use crate::lifecycle::RetentionPolicy;
use ctk_common::{QueryId, QuerySpec, TermId, Timestamp};
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
    /// One query registration, journaled with the id the backend is about
    /// to assign so replay can rebuild the pre-crash id space.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::EvictionPolicy;

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
}
