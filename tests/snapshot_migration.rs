//! Snapshot format migration: a v2 capture (PR-5, sharded sections, no
//! lifecycle) — checked in as a fixture in the exact on-disk bytes that
//! build wrote — must keep parsing, migrate into the v3 in-memory form, and
//! restore bit-identically to restoring its own v3 re-serialization. The
//! flat, untagged captures of earlier builds (v1 with a top-level
//! `landmark`, v0 without) are refused with an error. A v3 capture written
//! by a document-sharded monitor (a sharding mode since removed) restores
//! onto today's one engine, and so does a v3 capture in the pretty-printed
//! text earlier builds wrote (today's writer is compact), its two shard
//! sections folding into one. Captures holding non-finite numbers, or
//! sections in different landmark frames, are refused, and no byte-level
//! damage to a capture makes the parser panic. Every restore keeps each captured query id;
//! captures written before `next_query` existed hand out ids from one past
//! their largest.

#[path = "support/sections.rs"]
mod sections;

use continuous_topk::prelude::*;
use sections::dealt;

/// Written by the pre-lifecycle sharded build: v2 sections, no
/// namespaces/deadlines/policies.
const V2_FIXTURE: &str = include_str!("fixtures/snapshot_v2.json");

/// Written by a 3-shard document-sharded MRIO monitor at λ = 0.5: one
/// section (that mode did not partition queries), a renormalized landmark,
/// a `tenant` namespace with a retention policy and per-query TTLs, and two
/// unregistered ids.
const DOC_MODE_FIXTURE: &str = include_str!("fixtures/snapshot_doc_mode.json");

/// Written pretty-printed by the last build whose writer indented: a
/// 2-shard MRIO monitor at λ = 0.5 with a renormalized landmark, a `tenant`
/// namespace with a retention policy, per-query TTLs and one unregistered
/// id.
const PRETTY_V3_FIXTURE: &str = include_str!("fixtures/snapshot_v3_pretty.json");

/// The document `i` of the stream that continued past the doc-mode capture.
fn continuation_doc(i: u64) -> Vec<(TermId, f32)> {
    let a = (i * 7 % 9) as u32;
    let b = (i * 5 % 9) as u32;
    let mut pairs = vec![(TermId(a), 1.0 + (i % 3) as f32 * 0.5)];
    if b != a {
        pairs.push((TermId(b), 0.25 + (i % 4) as f32 * 0.3));
    }
    pairs.push((TermId(9 + (i % 2) as u32), 0.4));
    pairs
}

/// The shape the PR-2 build wrote: flat layout, top-level `landmark`.
const V1_DOCUMENT: &str = r#"{
  "lambda": 0.1,
  "landmark": 610.0,
  "next_doc": 71,
  "last_arrival": 700.0,
  "queries": [
    {
      "qid": 0,
      "spec": {"vector": {"entries": [[1, 0.7071067690849304], [2, 0.7071067690849304]]}, "k": 3},
      "results": [{"doc": 70, "score": 8103.083650218638}]
    }
  ]
}"#;

/// The shape pre-PR-2 builds wrote: flat layout, no `landmark` field.
const V0_DOCUMENT: &str = r#"{
  "lambda": 0.0,
  "next_doc": 10,
  "last_arrival": 9.0,
  "queries": [
    {
      "qid": 0,
      "spec": {"vector": {"entries": [[5, 0.7071067690849304], [9, 0.7071067690849304]]}, "k": 2},
      "results": [{"doc": 1, "score": 0.9805806792118652}]
    }
  ]
}"#;

/// A fresh backend holding a restored snapshot.
type Restored = Box<dyn MonitorBackend + Send>;

/// A restore path under test.
type Restore = fn(&Snapshot) -> Restored;

fn via_mrio(snap: &Snapshot) -> Restored {
    MonitorBuilder::new(EngineKind::Mrio).restore(snap)
}

fn via_rio(snap: &Snapshot) -> Restored {
    Box::new(Monitor::restore(Rio::new(snap.lambda), snap))
}

/// Restore a snapshot and return each captured query's restored results,
/// in captured-id order.
fn restored_results(snap: &Snapshot, restore: Restore) -> Vec<Vec<ScoredDoc>> {
    let backend = restore(snap);
    let mut captured: Vec<u32> = snap.queries().map(|q| q.qid).collect();
    captured.sort_unstable();
    captured
        .into_iter()
        .map(|qid| backend.results(QueryId(qid)).expect("restored query is live"))
        .collect()
}

#[test]
fn v2_fixture_migrates_into_the_default_namespace() {
    let snap = Snapshot::from_json(V2_FIXTURE).expect("v2 parses");
    assert_eq!(snap.version, SNAPSHOT_VERSION, "migrated into the current version");
    assert_eq!(snap.shards.len(), 2, "v2 shard sections survive migration");
    assert_eq!(snap.landmark(), 610.0);
    assert_eq!(snap.lambda, 0.1);
    assert_eq!(snap.num_queries(), 3);
    assert_eq!(snap.next_doc, 64);
    // Pre-lifecycle queries land in the default namespace with no TTL.
    assert_eq!(snap.namespaces, vec![String::new()]);
    assert!(snap.policies.is_empty());
    for q in snap.queries() {
        assert_eq!(q.namespace, 0);
        assert_eq!(q.max_age, None);
        assert_eq!(q.deadline, None);
        assert_eq!(q.registered_at, snap.last_arrival);
    }

    // Every captured result set, under its captured id.
    let restored = via_mrio(&snap);
    for q in snap.queries() {
        assert_eq!(restored.results(QueryId(q.qid)).as_ref(), Some(&q.results), "query {}", q.qid);
    }
}

/// The retired flat formats are refused — an error naming what is missing,
/// not a panic and not a silent misparse into an empty capture.
#[test]
fn retired_flat_formats_are_refused_with_an_error() {
    for (name, document) in [("v1", V1_DOCUMENT), ("pre-PR-2", V0_DOCUMENT)] {
        let err = Snapshot::from_json(document).expect_err("retired format must not parse");
        assert!(err.to_string().contains("version"), "{name}: unhelpful error: {err}");
    }
}

/// The v2 fixture restores **bit-identically** to restoring its own v3
/// re-serialization — i.e. migration is exactly "rewrite in v3".
#[test]
fn v2_fixture_restores_bit_identically_to_v3() {
    let migrated = Snapshot::from_json(V2_FIXTURE).expect("v2 parses");
    let v3_text = migrated.to_json().expect("serializes as v3");
    assert!(v3_text.contains("\"version\":3"), "re-serialization is tagged v3");
    let reparsed = Snapshot::from_json(&v3_text).expect("v3 parses");

    assert_eq!(reparsed.lambda, migrated.lambda);
    assert_eq!(reparsed.landmark(), migrated.landmark());
    assert_eq!(reparsed.next_doc, migrated.next_doc);
    assert_eq!(reparsed.last_arrival, migrated.last_arrival);
    let restores: [(&str, Restore); 2] = [("MRIO", via_mrio), ("RIO", via_rio)];
    for (engine, restore) in restores {
        assert_eq!(
            restored_results(&migrated, restore),
            restored_results(&reparsed, restore),
            "via {engine}: v2 restore differs from v3 restore"
        );
    }
}

/// Snapshots carry no sharding mode, so a doc-mode capture restores onto
/// MRIO as written (one section) and dealt into three query-shard sections,
/// with every captured result bit-identical, and both continue exactly
/// like the `Naive` oracle restored from the same bytes — across a further
/// renormalization and the captured TTLs running out.
#[test]
fn doc_mode_capture_restores_onto_single_and_query_sharded_monitors() {
    let snap = Snapshot::from_json(DOC_MODE_FIXTURE).expect("doc-mode capture parses");
    assert_eq!(snap.shards.len(), 1);
    assert_eq!(snap.num_queries(), 12);
    assert_eq!(snap.landmark(), 124.0);

    let mut oracle = MonitorBuilder::new(EngineKind::Naive).restore(&snap);
    let mut fronts: Vec<_> = [1, 3]
        .into_iter()
        .map(|sections| MonitorBuilder::new(EngineKind::Mrio).restore(&dealt(&snap, sections)))
        .collect();
    for (front, sections) in fronts.iter().zip([1, 3]) {
        for q in snap.queries() {
            assert_eq!(
                front.results(QueryId(q.qid)).as_ref(),
                Some(&q.results),
                "{sections} section(s), captured query {}",
                q.qid
            );
        }
    }

    // Arrivals 192..=468 cross the next renormalization (λ·Δτ > 60 past the
    // landmark 124) and every tenant query's deadline (400..=412).
    for round in 0..7u64 {
        let batch: Vec<(Vec<(TermId, f32)>, f64)> = (0..10u64)
            .map(|j| {
                let i = 48 + round * 10 + j;
                (continuation_doc(i), i as f64 * 4.0)
            })
            .collect();
        let want = oracle.publish_batch(batch.clone());
        for front in &mut fronts {
            let got = front.publish_batch(batch.clone());
            assert_eq!(got.doc_ids, want.doc_ids, "round {round}");
            let sorted = |mut changes: Vec<ResultChange>| {
                changes.sort_by_key(|c| (c.query, c.inserted.doc));
                changes
            };
            assert_eq!(sorted(got.changes), sorted(want.changes.clone()), "round {round}");
        }
    }
    assert_eq!(oracle.lifecycle_totals(), (5, 0), "every tenant TTL ran out");
    for front in &fronts {
        assert_eq!(front.lifecycle_totals(), oracle.lifecycle_totals());
        for q in snap.queries() {
            let qid = QueryId(q.qid);
            assert_eq!(front.results(qid), oracle.results(qid), "query {qid}");
        }
    }
}

/// Every section of a capture must sit in one decay frame: the one engine
/// seeds all of them at one landmark. The v3 fixture with its second
/// section's landmark edited is refused by the parser, in release and debug
/// builds alike, instead of restoring that section's scores in the wrong
/// frame.
#[test]
fn sections_that_disagree_on_the_landmark_are_refused() {
    let (first, second) = (r#""landmark": 124.0"#, r#""landmark": 100.0"#);
    let at = PRETTY_V3_FIXTURE.rfind(first).unwrap();
    assert!(at > PRETTY_V3_FIXTURE.find(first).unwrap(), "the fixture has two sections");
    let edited =
        format!("{}{second}{}", &PRETTY_V3_FIXTURE[..at], &PRETTY_V3_FIXTURE[at + first.len()..]);
    let err = Snapshot::from_json(&edited).expect_err("sections in two frames must not parse");
    assert!(err.to_string().contains("snapshot sections disagree on the landmark"), "{err}");
    // The same capture with both sections in one frame parses and reads it.
    let agreed = edited.replace(first, second);
    assert_eq!(Snapshot::from_json(&agreed).unwrap().landmark(), 100.0);
}

#[test]
fn future_versions_are_rejected_not_misparsed() {
    let v3 = Snapshot::from_json(V2_FIXTURE).unwrap().to_json().unwrap();
    let v4 = v3.replace("\"version\":3", "\"version\":4");
    assert_ne!(v4, v3, "the version tag was rewritten");
    let err = Snapshot::from_json(&v4).expect_err("a future format must not silently parse");
    assert!(err.to_string().contains("version"), "unhelpful error: {err}");
}

#[test]
fn garbage_is_an_error_not_a_panic() {
    assert!(Snapshot::from_json("{\"hello\": 1}").is_err());
    assert!(Snapshot::from_json("not json").is_err());
}

/// Whitespace is all that separates the pretty capture from today's compact
/// text: it parses, writes back as the compact form of the same document,
/// and its two shard sections restore every captured result
/// bit-identically onto the one engine — continuing exactly like a restore
/// of the compact text.
#[test]
fn pretty_v3_capture_from_an_earlier_build_restores_bit_identically() {
    assert!(PRETTY_V3_FIXTURE.contains("\n  \"version\": 3,"), "the fixture is pretty");
    let snap = Snapshot::from_json(PRETTY_V3_FIXTURE).expect("pretty v3 parses");
    assert_eq!((snap.shards.len(), snap.num_queries(), snap.landmark()), (2, 9, 124.0));
    assert_eq!(snap.policies.len(), 1);
    let compact = snap.to_json().unwrap();
    // The fixture predates `next_query`; the compact text adds it.
    let tree: serde::Value = serde_json::from_str(PRETTY_V3_FIXTURE).unwrap();
    let want = serde_json::to_string(&tree).unwrap().replacen(
        ",\"last_arrival\"",
        ",\"next_query\":10,\"last_arrival\"",
        1,
    );
    assert_eq!(compact, want, "same document, compact, plus `next_query`");
    let reparsed = Snapshot::from_json(&compact).unwrap();

    let mut pretty = MonitorBuilder::new(EngineKind::Mrio).restore(&snap);
    let mut again = MonitorBuilder::new(EngineKind::Mrio).restore(&reparsed);
    for q in snap.queries() {
        let id = QueryId(q.qid);
        assert_eq!(pretty.results(id).as_ref(), Some(&q.results), "query {id}");
        assert_eq!(again.results(id).as_ref(), Some(&q.results), "query {id}");
    }
    for i in 40..60u64 {
        let batch = vec![(continuation_doc(i), i as f64 * 4.0)];
        let want = pretty.publish_batch(batch.clone());
        let got = again.publish_batch(batch);
        assert_eq!(got.changes, want.changes, "doc {i}");
    }
}

/// `next_query` round-trips through the text, and a restore hands out ids
/// from it. The two fixtures predate the field: each reads one past its
/// largest captured id, restores every query under its captured id and
/// answers `None` for the ids it lacks. A capture that repeats an id, or
/// holds `u32::MAX`, is refused; a far id restores at no cost.
#[test]
fn next_query_round_trips_and_older_captures_fall_back_to_their_largest_id() {
    for (name, fixture, next) in [("v2", V2_FIXTURE, 3), ("pretty v3", PRETTY_V3_FIXTURE, 10)] {
        assert!(!fixture.contains("next_query"), "{name}: the fixture predates the field");
        let snap = Snapshot::from_json(fixture).unwrap();
        assert_eq!(snap.next_query, next, "{name}");
        let mut restored = MonitorBuilder::new(EngineKind::Mrio).restore(&snap);
        for qid in 0..next {
            let captured = snap.queries().find(|q| q.qid == qid).map(|q| q.results.clone());
            assert_eq!(restored.results(QueryId(qid)), captured, "{name}, query {qid}");
        }
        let spec = QuerySpec::uniform(&[TermId(1)], 1).unwrap();
        assert_eq!(restored.register(spec), QueryId(next), "{name}");
    }

    let mut snap = Snapshot::from_json(PRETTY_V3_FIXTURE).unwrap();
    snap.next_query = 40;
    let text = snap.to_json().unwrap();
    assert!(text.contains(r#""next_doc":40,"next_query":40,"last_arrival""#), "{text}");
    let reparsed = Snapshot::from_json(&text).unwrap();
    assert_eq!(reparsed.next_query, 40);
    let restored = MonitorBuilder::new(EngineKind::Naive).restore(&reparsed);
    assert_eq!(restored.next_query_id(), QueryId(40));
    assert_eq!(restored.snapshot().next_query, 40, "and its own capture carries it on");

    // A `next_query` at or below a captured id reads one past the largest.
    let low = Snapshot::from_json(&text.replace(r#""next_query":40"#, r#""next_query":9"#));
    assert_eq!(low.unwrap().next_query, 10);
    let twice = text.replacen(r#""qid":2,"#, r#""qid":1,"#, 1);
    assert_ne!(twice, text);
    let err = Snapshot::from_json(&twice).expect_err("a repeated id is refused");
    assert!(err.to_string().contains("snapshot holds query id 1 twice"), "{err}");

    // Far ids cost nothing; the last id leaves none to hand out next.
    let far = text.replacen(r#""qid":2,"#, r#""qid":4000000000,"#, 1);
    let restored =
        MonitorBuilder::new(EngineKind::Mrio).restore(&Snapshot::from_json(&far).unwrap());
    assert_eq!(restored.next_query_id(), QueryId(4_000_000_001));
    let captured = reparsed.queries().find(|q| q.qid == 2).map(|q| q.results.clone());
    assert_eq!(restored.results(QueryId(4_000_000_000)), captured);
    let last = text.replacen(r#""qid":2,"#, r#""qid":4294967295,"#, 1);
    let err = Snapshot::from_json(&last).expect_err("the last id is refused");
    assert!(err.to_string().contains("4294967295: no id is left after it"), "{err}");
}

/// JSON spells +∞ as `1e999`; a capture carrying it (or −∞) in any float
/// field is refused with an error naming the field, never restored.
#[test]
fn non_finite_numbers_are_refused_naming_the_field() {
    let compact = Snapshot::from_json(PRETTY_V3_FIXTURE).unwrap().to_json().unwrap();
    for (field, from, to) in [
        ("lambda", "\"lambda\":0.5", "\"lambda\":1e999"),
        ("last_arrival", "\"last_arrival\":156.0", "\"last_arrival\":1e999"),
        ("policies.max_age", "\"max_age\":300.0", "\"max_age\":1e999"),
        ("landmark", "\"landmark\":124.0", "\"landmark\":-1e999"),
        ("registered_at", "\"registered_at\":0.0", "\"registered_at\":1e999"),
        ("max_age", "\"max_age\":null", "\"max_age\":1e999"),
        ("deadline", "\"deadline\":null", "\"deadline\":1e999"),
        ("spec.vector", "0.7071067690849304", "1e999"),
        ("results.score", "\"score\":", "\"score\":1e999,\"x\":"),
    ] {
        let edited = compact.replacen(from, to, 1);
        assert_ne!(edited, compact, "{field}: the edit applied");
        let err = Snapshot::from_json(&edited).expect_err("a non-finite capture must not parse");
        assert!(err.to_string().contains(&format!("`{field}`")), "{field}: {err}");
    }
}

/// Seeded byte flips, truncations and splices over a real capture's text:
/// `from_json` answers `Ok` or `Err`, never panics, and every capture it
/// accepts restores onto a fresh monitor; so does each capture with one
/// number replaced. The seed is
/// `PROPTEST_SEED` when set, so CI can rotate it.
#[test]
fn arbitrary_bytes_never_panic_the_snapshot_parser() {
    let seed = std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(20260729);
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let sources = [
        PRETTY_V3_FIXTURE.as_bytes().to_vec(),
        Snapshot::from_json(PRETTY_V3_FIXTURE).unwrap().to_json().unwrap().into_bytes(),
        V2_FIXTURE.as_bytes().to_vec(),
    ];
    const BYTES: &[u8] = b"{}[]\",:\\ \n-+.eE0123456789nul\x00\x7f\xc3\xa9\xff";
    let (mut parsed, mut refused) = (0u32, 0u32);
    for _ in 0..20_000 {
        let source = &sources[next() as usize % sources.len()];
        let mut bytes = source.clone();
        for _ in 0..1 + next() % 4 {
            let at = next() as usize % (bytes.len() + 1);
            match next() % 4 {
                // Flip one byte to a JSON-significant (or invalid) one.
                0 if at < bytes.len() => bytes[at] = BYTES[next() as usize % BYTES.len()],
                // Truncate.
                1 => bytes.truncate(at),
                // Splice in a run from anywhere in any capture.
                2 => {
                    let from = &sources[next() as usize % sources.len()];
                    let start = next() as usize % from.len();
                    let end = (start + next() as usize % 64).min(from.len());
                    bytes.splice(at..at, from[start..end].iter().copied());
                }
                // Delete a run.
                _ => {
                    let end = (at + next() as usize % 32).min(bytes.len());
                    bytes.drain(at..end);
                }
            }
        }
        match Snapshot::from_json(&String::from_utf8_lossy(&bytes)) {
            // Whatever parses must also restore, as `POST /restore` would.
            Ok(snapshot) => {
                let restored = MonitorBuilder::new(EngineKind::Mrio).restore(&snapshot);
                assert!(restored.num_queries() <= snapshot.num_queries());
                parsed += 1;
            }
            Err(_) => refused += 1,
        }
    }
    assert!(refused > 10_000, "most damaged captures are refused ({parsed} parsed)");

    // Then every number of every source, one at a time, replaced by each
    // value a capture must not smuggle past restore (`"k": 0` used to
    // parse and then panic the restore).
    let mut restored = 0u32;
    for source in &sources {
        for range in numbers(source) {
            for value in ["0", "1", "7", "-1", "-0.5", "1e999", "4294967296", "1e-320"] {
                let mut bytes = source.clone();
                bytes.splice(range.clone(), value.bytes());
                if let Ok(snapshot) = Snapshot::from_json(&String::from_utf8_lossy(&bytes)) {
                    // An edited retention cap may evict at restore.
                    let monitor = MonitorBuilder::new(EngineKind::Mrio).restore(&snapshot);
                    assert!(monitor.num_queries() <= snapshot.num_queries());
                    restored += 1;
                }
            }
        }
    }
    assert!(restored > 100, "only {restored} edited captures restored");
}

/// The byte range of each number token in `text`.
fn numbers(text: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut at = 0;
    while at < text.len() {
        if text[at].is_ascii_digit() || text[at] == b'-' {
            let start = at;
            while at < text.len()
                && matches!(text[at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                at += 1;
            }
            ranges.push(start..at);
        } else {
            at += 1;
        }
    }
    ranges
}
