//! Request-body shapes of the wire API, parsed by hand from JSON `Value`s.
//!
//! The derive shim errors on any missing field, but most wire fields here
//! are *optional* (`k` defaults, `arrival` defaults, a subscription filter
//! may be absent), so these parsers walk the [`serde::Value`] tree
//! explicitly via the forgiving `Value::get`. Every parse failure is a
//! client error: the string returned becomes the `{"error": ...}` body of
//! a 400 response verbatim, so messages name the offending field.
//!
//! The publish path is the exception: [`decode_publish`] reads the body
//! text straight into a [`PublishRequest`] with the pull [`Reader`], no
//! `Value` tree in between. [`parse_body`] + [`parse_publish`] stay as the
//! reference it is tested against (and for callers that hold a tree).

use ctk_common::{QueryId, QuerySpec, TermId, Timestamp};
use ctk_core::{EvictionPolicy, PublishRequest, RetentionPolicy};
use serde::{Number, Value};
use serde_json::Reader;

const MISSING_TERMS: &str = "each document needs a \"terms\" field";
const BAD_ARRIVAL: &str = "\"arrival\" must be a number";
const BAD_DOCS: &str = "\"docs\" must be an array of documents";
const EMPTY_PUBLISH: &str = "a publish must carry at least one document";

fn bad_terms(field: &str) -> String {
    format!("{field:?} must be an array of pairs")
}

fn bad_pair(field: &str) -> String {
    format!("each entry of {field:?} must be a [term, weight] pair")
}

fn bad_term_id(field: &str) -> String {
    format!("term ids in {field:?} must be u32 integers")
}

fn bad_weight(field: &str) -> String {
    format!("weights in {field:?} must be numbers")
}

/// Parse a `(term, weight)` pair list: `[[1, 0.5], [4, 0.25], ...]`.
fn parse_terms(value: &Value, field: &str) -> Result<Vec<(TermId, f32)>, String> {
    let entries = value.as_array().map_err(|_| bad_terms(field))?;
    let mut pairs = Vec::with_capacity(entries.len());
    for entry in entries {
        let pair = entry.as_array().ok().filter(|p| p.len() == 2).ok_or_else(|| bad_pair(field))?;
        let term = pair[0]
            .as_u64()
            .ok()
            .and_then(|t| u32::try_from(t).ok())
            .ok_or_else(|| bad_term_id(field))?;
        let weight = pair[1].as_f64().map_err(|_| bad_weight(field))? as f32;
        pairs.push((TermId(term), weight));
    }
    Ok(pairs)
}

/// A parsed `POST /queries` body: the spec plus its lifecycle options.
#[derive(Debug, Clone)]
pub struct RegisterRequest {
    pub spec: QuerySpec,
    /// Namespace name to intern; `None` registers into the default one.
    pub namespace: Option<String>,
    /// Per-query TTL in stream-time units, overriding the namespace
    /// policy's default.
    pub max_age: Option<f64>,
}

/// `POST /queries` body: `{"terms": [[t, w], ...], "k": 10}` plus optional
/// `"namespace"` and `"max_age"`; `k` defaults to 10 when absent.
pub fn parse_register(body: &Value) -> Result<RegisterRequest, String> {
    let terms = body.get("terms").ok_or("missing field \"terms\"")?;
    let pairs = parse_terms(terms, "terms")?;
    let k = match body.get("k") {
        None => 10,
        Some(k) => {
            let k = k.as_u64().map_err(|_| "\"k\" must be a positive integer".to_string())?;
            usize::try_from(k).map_err(|_| "\"k\" is out of range".to_string())?
        }
    };
    let namespace = match body.get("namespace") {
        None => None,
        Some(ns) => {
            Some(ns.as_str().map_err(|_| "\"namespace\" must be a string".to_string())?.to_string())
        }
    };
    let spec = QuerySpec::new(pairs, k).map_err(|e| e.to_string())?;
    Ok(RegisterRequest { spec, namespace, max_age: parse_max_age(body)? })
}

/// An optional, strictly positive, finite `"max_age"` field (stream-time
/// units). `1e999` parses as +∞, which no snapshot or response can spell.
fn parse_max_age(body: &Value) -> Result<Option<f64>, String> {
    match body.get("max_age") {
        None => Ok(None),
        Some(v) => {
            let age = v.as_f64().map_err(|_| "\"max_age\" must be a number".to_string())?;
            if !age.is_finite() || age <= 0.0 {
                return Err("\"max_age\" must be a positive, finite number".to_string());
            }
            Ok(Some(age))
        }
    }
}

/// `PUT /namespaces/{ns}/retention` body: any of `"max_age"` (TTL default
/// for the namespace), `"max_queries"` (live-member cap) and `"eviction"`
/// (`"oldest"`, the default, or `"lowest_score"`).
pub fn parse_retention(body: &Value) -> Result<RetentionPolicy, String> {
    let max_queries = match body.get("max_queries") {
        None => None,
        Some(v) => Some(
            v.as_u64().map_err(|_| "\"max_queries\" must be a non-negative integer".to_string())?,
        ),
    };
    let eviction = match body.get("eviction") {
        None => EvictionPolicy::Oldest,
        Some(v) => match v.as_str().map_err(|_| "\"eviction\" must be a string".to_string())? {
            "oldest" => EvictionPolicy::Oldest,
            "lowest_score" => EvictionPolicy::LowestScore,
            other => {
                return Err(format!(
                    "unknown eviction policy {other:?} (expected \"oldest\" or \"lowest_score\")"
                ))
            }
        },
    };
    Ok(RetentionPolicy { max_age: parse_max_age(body)?, max_queries, eviction })
}

/// The wire token of an eviction policy — the same strings
/// [`parse_retention`] accepts, so `GET` answers round-trip through `PUT`.
pub fn eviction_token(policy: EvictionPolicy) -> &'static str {
    match policy {
        EvictionPolicy::Oldest => "oldest",
        EvictionPolicy::LowestScore => "lowest_score",
    }
}

/// A parsed `POST /forget` body.
#[derive(Debug, Clone)]
pub struct ForgetRequest {
    pub namespace: String,
    /// Report what would be removed without removing anything.
    pub dry_run: bool,
}

/// `POST /forget` body: `{"namespace": "tenant", "dry_run": true}` previews,
/// `{"namespace": "tenant", "confirm": true}` removes. Exactly one of the
/// two flags must be set — a bulk delete is never the default.
pub fn parse_forget(body: &Value) -> Result<ForgetRequest, String> {
    let namespace = body
        .get("namespace")
        .ok_or("missing field \"namespace\"")?
        .as_str()
        .map_err(|_| "\"namespace\" must be a string".to_string())?
        .to_string();
    let flag = |name: &str| match body.get(name) {
        None => Ok(false),
        Some(v) => v.as_bool().map_err(|_| format!("{name:?} must be a boolean")),
    };
    match (flag("confirm")?, flag("dry_run")?) {
        (true, false) => Ok(ForgetRequest { namespace, dry_run: false }),
        (false, true) => Ok(ForgetRequest { namespace, dry_run: true }),
        (true, true) => Err("\"confirm\" and \"dry_run\" are mutually exclusive".to_string()),
        (false, false) => {
            Err("pass \"dry_run\": true to preview or \"confirm\": true to remove".to_string())
        }
    }
}

/// One document object: `{"terms": [[t, w], ...], "arrival": 12.5}`;
/// `arrival` defaults to 0 (the backend clamps arrivals monotone).
fn parse_doc(value: &Value) -> Result<(Vec<(TermId, f32)>, Timestamp), String> {
    let terms = value.get("terms").ok_or(MISSING_TERMS)?;
    let pairs = parse_terms(terms, "terms")?;
    let arrival = match value.get("arrival") {
        None => 0.0,
        Some(a) => a.as_f64().map_err(|_| BAD_ARRIVAL)?,
    };
    Ok((pairs, arrival))
}

/// `POST /publish` body — either a single document object or a batch
/// `{"docs": [{...}, ...]}`. An empty batch is a client error: a publish
/// must carry at least one document.
pub fn parse_publish(body: &Value) -> Result<PublishRequest, String> {
    let request: PublishRequest = match body.get("docs") {
        Some(docs) => {
            let docs = docs.as_array().map_err(|_| BAD_DOCS)?;
            docs.iter().map(parse_doc).collect::<Result<Vec<_>, _>>()?.into()
        }
        None => PublishRequest::from(parse_doc(body)?),
    };
    if request.is_empty() {
        return Err(EMPTY_PUBLISH.to_string());
    }
    Ok(request)
}

/// Why [`decode_publish`] refused a body: the 400 message. JSON syntax
/// errors convert with the prefix [`parse_body`] gives them.
struct Refusal(String);

impl From<serde_json::Error> for Refusal {
    fn from(e: serde_json::Error) -> Refusal {
        Refusal(invalid_json(e))
    }
}

impl From<String> for Refusal {
    fn from(message: String) -> Refusal {
        Refusal(message)
    }
}

impl From<&str> for Refusal {
    fn from(message: &str) -> Refusal {
        Refusal(message.to_string())
    }
}

type Doc = (Vec<(TermId, f32)>, Timestamp);

/// `POST /publish` body, straight from its text: what
/// [`parse_publish`]`(&`[`parse_body`]`(text)?)` returns — the same request
/// on success, an error whenever that errs — in one pass over the bytes
/// with no [`Value`] tree. The tree path's rules carry over: `"docs"`
/// anywhere in the top-level object selects the batch shape, the first of
/// duplicate keys wins, unknown keys are skipped (but must be valid JSON),
/// and numbers convert exactly as [`Value::as_u64`] / [`Value::as_f64`] do.
pub fn decode_publish(text: &str) -> Result<PublishRequest, String> {
    decode_body(text).map_err(|Refusal(message)| message)
}

fn decode_body(text: &str) -> Result<PublishRequest, Refusal> {
    // An empty body is the empty object: a document without fields.
    if text.trim().is_empty() {
        return Err(MISSING_TERMS.into());
    }
    let mut r = Reader::new(text);
    // Whether the top-level members are a document's is known only at the
    // closing brace (a `"docs"` anywhere overrides them), so this walk
    // decodes `"docs"` as it meets it and only proves the rest to be JSON;
    // a body without one is then decoded as a document from the checkpoint.
    let mut single = r.clone();
    let mut docs = None;
    if r.peek()? == b'{' {
        let mut key = r.begin_object()?;
        while let Some(name) = key {
            if name == "docs" && docs.is_none() {
                docs = Some(decode_docs(&mut r)?);
            } else {
                r.skip_value()?;
            }
            key = r.next_key()?;
        }
    } else {
        r.skip_value()?;
    }
    r.end()?;
    let request = match docs {
        Some(docs) => PublishRequest::from(docs),
        None => PublishRequest::from(decode_doc(&mut single)?),
    };
    if request.is_empty() {
        return Err(EMPTY_PUBLISH.into());
    }
    Ok(request)
}

/// The `"docs"` array of the batch shape.
fn decode_docs(r: &mut Reader<'_>) -> Result<Vec<Doc>, Refusal> {
    if r.peek()? != b'[' {
        return Err(BAD_DOCS.into());
    }
    let mut docs = Vec::new();
    let mut more = r.begin_array()?;
    while more {
        docs.push(decode_doc(r)?);
        more = r.array_more()?;
    }
    Ok(docs)
}

/// One document object, decoded as it is read; a non-object has no
/// `"terms"`.
fn decode_doc(r: &mut Reader<'_>) -> Result<Doc, Refusal> {
    if r.peek()? != b'{' {
        return Err(MISSING_TERMS.into());
    }
    let (mut terms, mut arrival) = (None, None);
    let mut key = r.begin_object()?;
    while let Some(name) = key {
        match &*name {
            "terms" if terms.is_none() => terms = Some(decode_terms(r)?),
            "arrival" if arrival.is_none() => arrival = Some(number_or_skip(r)?),
            _ => r.skip_value()?,
        }
        key = r.next_key()?;
    }
    // A missing `"terms"` is reported before a bad `"arrival"`, as the tree
    // path does.
    let terms = terms.ok_or(MISSING_TERMS)?;
    let arrival = match arrival {
        None => 0.0,
        Some(number) => number.ok_or(BAD_ARRIVAL)?.as_f64(),
    };
    Ok((terms, arrival))
}

/// A `(term, weight)` pair list: `[[1, 0.5], [4, 0.25], ...]`.
fn decode_terms(r: &mut Reader<'_>) -> Result<Vec<(TermId, f32)>, Refusal> {
    let field = "terms";
    if r.peek()? != b'[' {
        return Err(bad_terms(field).into());
    }
    let mut pairs = Vec::new();
    let mut more = r.begin_array()?;
    while more {
        if r.peek()? != b'[' || !r.begin_array()? {
            return Err(bad_pair(field).into());
        }
        let term = number_or_skip(r)?
            .and_then(Number::as_u64)
            .and_then(|t| u32::try_from(t).ok())
            .ok_or_else(|| bad_term_id(field))?;
        if !r.array_more()? {
            return Err(bad_pair(field).into());
        }
        // Widen-then-narrow: the text parses as f64 first, like
        // `Value::as_f64() as f32` — not the same float as parsing f32.
        let weight = number_or_skip(r)?.ok_or_else(|| bad_weight(field))?.as_f64() as f32;
        if r.array_more()? {
            return Err(bad_pair(field).into());
        }
        pairs.push((TermId(term), weight));
        more = r.array_more()?;
    }
    Ok(pairs)
}

/// The next value if it is a number; anything else is read past (so the
/// caller can keep going and report it later) and yields `None`.
fn number_or_skip(r: &mut Reader<'_>) -> Result<Option<Number>, serde_json::Error> {
    if matches!(r.peek()?, b'"' | b'{' | b'[' | b't' | b'f' | b'n') {
        r.skip_value()?;
        return Ok(None);
    }
    r.number().map(Some)
}

/// `POST /subscriptions` body: `{}` (or empty) subscribes to every query;
/// `{"queries": [0, 3]}` filters to those public query ids.
pub fn parse_subscribe(body: &Value) -> Result<Option<Vec<QueryId>>, String> {
    match body.get("queries") {
        None => Ok(None),
        Some(queries) => {
            let ids =
                queries.as_array().map_err(|_| "\"queries\" must be an array of query ids")?;
            ids.iter()
                .map(|id| {
                    id.as_u64()
                        .ok()
                        .and_then(|q| u32::try_from(q).ok())
                        .map(QueryId)
                        .ok_or_else(|| "query ids must be u32 integers".to_string())
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some)
        }
    }
}

/// Parse a request body string as JSON, mapping the error for a 400.
pub fn parse_body(body: &str) -> Result<Value, String> {
    // An empty body is the empty object: several endpoints take all-default
    // parameters and `curl -X POST` sends no body at all.
    if body.trim().is_empty() {
        return Ok(Value::Object(Vec::new()));
    }
    serde_json::from_str::<Value>(body).map_err(invalid_json)
}

fn invalid_json(e: serde_json::Error) -> String {
    format!("invalid JSON body: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(s: &str) -> Value {
        serde_json::from_str(s).unwrap()
    }

    #[test]
    fn register_parses_terms_and_defaults_k() {
        let req = parse_register(&value(r#"{"terms": [[1, 0.6], [2, 0.8]]}"#)).unwrap();
        assert_eq!(req.spec.k, 10);
        assert_eq!(req.spec.vector.len(), 2);
        assert_eq!(req.namespace, None);
        assert_eq!(req.max_age, None);
        let req = parse_register(&value(r#"{"terms": [[1, 1.0]], "k": 3}"#)).unwrap();
        assert_eq!(req.spec.k, 3);
        // Validation errors surface with the QuerySpec message.
        assert!(parse_register(&value(r#"{"terms": [], "k": 3}"#)).is_err());
        assert!(parse_register(&value(r#"{"terms": [[1, 1.0]], "k": 0}"#)).is_err());
        assert!(parse_register(&value(r#"{"k": 3}"#)).unwrap_err().contains("terms"));
        assert!(parse_register(&value(r#"{"terms": [[1]], "k": 3}"#)).is_err());
    }

    #[test]
    fn register_parses_lifecycle_options() {
        let req = parse_register(&value(
            r#"{"terms": [[1, 1.0]], "namespace": "tenant-a", "max_age": 30.5}"#,
        ))
        .unwrap();
        assert_eq!(req.namespace.as_deref(), Some("tenant-a"));
        assert_eq!(req.max_age, Some(30.5));
        let err = parse_register(&value(r#"{"terms": [[1, 1.0]], "max_age": 0}"#)).unwrap_err();
        assert!(err.contains("max_age"), "{err}");
        let err = parse_register(&value(r#"{"terms": [[1, 1.0]], "max_age": 1e999}"#)).unwrap_err();
        assert!(err.contains("max_age"), "{err}");
        assert!(parse_register(&value(r#"{"terms": [[1, 1.0]], "namespace": 7}"#)).is_err());
    }

    #[test]
    fn retention_parses_policy_fields() {
        let p = parse_retention(&value("{}")).unwrap();
        assert_eq!((p.max_age, p.max_queries), (None, None));
        assert_eq!(eviction_token(p.eviction), "oldest");
        let p = parse_retention(&value(
            r#"{"max_age": 60, "max_queries": 4, "eviction": "lowest_score"}"#,
        ))
        .unwrap();
        assert_eq!((p.max_age, p.max_queries), (Some(60.0), Some(4)));
        assert_eq!(eviction_token(p.eviction), "lowest_score");
        assert!(parse_retention(&value(r#"{"eviction": "newest"}"#)).is_err());
        assert!(parse_retention(&value(r#"{"max_age": -1}"#)).is_err());
        for infinite in ["1e999", "-1e999"] {
            let err =
                parse_retention(&value(&format!(r#"{{"max_age": {infinite}}}"#))).unwrap_err();
            assert!(err.contains("max_age"), "{err}");
        }
    }

    #[test]
    fn forget_requires_exactly_one_flag() {
        let req = parse_forget(&value(r#"{"namespace": "a", "dry_run": true}"#)).unwrap();
        assert!(req.dry_run);
        let req = parse_forget(&value(r#"{"namespace": "a", "confirm": true}"#)).unwrap();
        assert!(!req.dry_run);
        // A flag explicitly set to false does not count as set.
        assert!(parse_forget(&value(r#"{"namespace": "a"}"#)).is_err());
        assert!(parse_forget(&value(r#"{"namespace": "a", "confirm": false}"#)).is_err());
        assert!(parse_forget(&value(r#"{"namespace": "a", "confirm": true, "dry_run": true}"#))
            .is_err());
        assert!(parse_forget(&value(r#"{"confirm": true}"#)).unwrap_err().contains("namespace"));
    }

    #[test]
    fn publish_accepts_single_and_batch() {
        let single = parse_publish(&value(r#"{"terms": [[7, 1.0]], "arrival": 2.5}"#)).unwrap();
        assert_eq!(single.len(), 1);
        let batch = parse_publish(&value(
            r#"{"docs": [{"terms": [[7, 1.0]]}, {"terms": [[8, 0.5]], "arrival": 1.0}]}"#,
        ))
        .unwrap();
        assert_eq!(batch.len(), 2);
        assert!(parse_publish(&value(r#"{"docs": []}"#)).is_err());
        assert!(parse_publish(&value(r#"{"arrival": 1.0}"#)).is_err());
    }

    #[test]
    fn subscribe_filter_is_optional() {
        assert_eq!(parse_subscribe(&value("{}")).unwrap(), None);
        assert_eq!(
            parse_subscribe(&value(r#"{"queries": [0, 4]}"#)).unwrap(),
            Some(vec![QueryId(0), QueryId(4)])
        );
        assert!(parse_subscribe(&value(r#"{"queries": [-1]}"#)).is_err());
    }

    #[test]
    fn empty_body_is_the_empty_object() {
        assert!(matches!(parse_body("").unwrap(), Value::Object(_)));
        assert!(parse_body("{nope").is_err());
    }
}
