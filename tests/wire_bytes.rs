//! Byte-identity of the streaming JSON writer.
//!
//! `serde_json::to_string` runs each type's `Serialize::write_json`, which
//! derived types and the shim's own impls write field by field with no
//! `Value` tree. The tree printer is the reference: for every type the
//! server hands to `to_string`, the streamed text must equal, byte for
//! byte, the printed `to_value()` — responses and journal records did not
//! change when the tree left the publish path. (`to_string(&Value)` *is*
//! the tree printer: `Value`'s `write_json` prints itself.) The daemon's
//! publish records are the exception, pinned here too: the request body
//! as received, between a fixed prefix and a closing brace.
//!
//! Change events are printed once, at fan-out, and their bytes reused by
//! the publish receipt and by every poll; both bodies must still be the
//! bytes their trees print.

use ctk_common::{DocId, QueryId, QuerySpec, ScoredDoc, TermId};
use ctk_core::{
    Admission, EventStats, EvictionPolicy, NamespaceStats, PublishReceipt, ReplayCommand,
    ResultChange, RetentionPolicy,
};
use ctk_server::routes::publish_body;
use ctk_server::{
    encode_record, publish_body_payload, FsyncPolicy, Journal, JournalConfig, PollOutcome,
    ServerStats, SubscriberRegistry,
};
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::time::Duration;

/// The reference: build the tree, print the tree.
fn tree<T: Serialize + ?Sized>(x: &T) -> String {
    serde_json::to_string(&x.to_value()).expect("the tree prints")
}

#[track_caller]
fn assert_streams_like_the_tree<T: Serialize + ?Sized>(what: &str, x: &T) {
    assert_eq!(serde_json::to_string(x).expect("streams"), tree(x), "{what}");
}

fn change(query: u32, doc: u64, score: f64, evicted: Option<(u64, f64)>) -> ResultChange {
    ResultChange {
        query: QueryId(query),
        inserted: ScoredDoc::new(DocId(doc), score),
        evicted: evicted.map(|(d, s)| ScoredDoc::new(DocId(d), s)),
    }
}

fn stats(seed: u64) -> EventStats {
    EventStats {
        full_evaluations: seed,
        iterations: seed.wrapping_mul(3),
        postings_accessed: u64::MAX - seed,
        expired: seed % 2,
        evicted: seed % 3,
        ..EventStats::default()
    }
}

fn receipt(with_evictions: bool) -> PublishReceipt {
    PublishReceipt {
        doc_ids: vec![DocId(7), DocId(8), DocId(u64::MAX)],
        changes: vec![
            change(0, 7, 0.30000000000000004, None),
            change(3, 8, 2.0, with_evictions.then_some((1, 1e-12))),
            change(u32::MAX, 8, 123456789.125, with_evictions.then_some((2, 0.5))),
        ],
        stats: vec![stats(1), stats(2), stats(3)],
    }
}

/// Two documents whose changes the engine reported out of `(query, doc)`
/// order, so fan-out routes them in another order than the receipt lists
/// them.
fn shuffled_receipt() -> PublishReceipt {
    PublishReceipt {
        doc_ids: vec![DocId(40), DocId(41)],
        changes: vec![
            change(9, 41, 0.75, Some((3, 0.5))),
            change(2, 41, 1.5, None),
            change(9, 40, 1e-9, None),
            change(2, 40, 7.0, Some((1, 6.999999999999999))),
        ],
        stats: vec![stats(4), stats(5)],
    }
}

const ADMISSIONS: [Admission; 3] = [
    Admission::Accepted,
    Admission::Enqueued { depth: 3 },
    Admission::Overloaded { retry_after: 0.25 },
];

/// The reference `POST /publish` body: the receipt's tree with an
/// `"admission"` member appended, printed.
fn receipt_tree(receipt: &PublishReceipt, admission: Admission) -> String {
    let mut value = receipt.to_value();
    if let Value::Object(entries) = &mut value {
        entries.push(("admission".to_string(), admission.to_value()));
    }
    serde_json::to_string(&value).expect("the tree prints")
}

fn commands() -> Vec<ReplayCommand> {
    let spec = QuerySpec::new(vec![(TermId(2), 0.6), (TermId(3), 0.8)], 2).unwrap();
    vec![
        ReplayCommand::Publish {
            docs: vec![
                (vec![(TermId(1), 1.0)], 1.0),
                (vec![(TermId(2), 0.1), (TermId(u32::MAX), 0.15811388)], 2.5),
                (vec![], 3.0),
            ],
        },
        ReplayCommand::Register {
            assigned: QueryId(1),
            spec,
            namespace: "tenant \"a\"\\\n".to_string(),
            max_age: Some(50.0),
        },
        ReplayCommand::Unregister { qid: QueryId(0) },
        ReplayCommand::SetRetention {
            namespace: "alerts".to_string(),
            policy: RetentionPolicy {
                max_age: None,
                max_queries: Some(8),
                eviction: EvictionPolicy::LowestScore,
            },
        },
        ReplayCommand::Forget { namespace: "caf\u{e9} \u{1F600}".to_string() },
    ]
}

#[test]
fn every_server_type_streams_the_bytes_its_tree_prints() {
    assert_streams_like_the_tree("receipt without evictions", &receipt(false));
    assert_streams_like_the_tree("receipt with evictions", &receipt(true));
    assert_streams_like_the_tree("empty receipt", &PublishReceipt::default());
    assert_streams_like_the_tree("change", &change(4, 9, 0.25, Some((3, 0.125))));
    assert_streams_like_the_tree("stats", &stats(11));
    for admission in [
        Admission::Accepted,
        Admission::Enqueued { depth: 3 },
        Admission::Overloaded { retry_after: 0.25 },
    ] {
        assert_streams_like_the_tree("admission", &admission);
    }
    for command in commands() {
        assert_streams_like_the_tree(command.op(), &command);
    }

    // A real `/changes` outcome: one subscriber, one fanned-out receipt.
    let registry = SubscriberRegistry::new(16);
    let subscriber = registry.subscribe(None);
    registry.fanout(&receipt(true));
    let outcome = registry.poll(subscriber, usize::MAX, Duration::ZERO).expect("subscribed");
    assert_eq!(outcome.events.len(), 3);
    assert_streams_like_the_tree("poll outcome", &outcome);

    assert_streams_like_the_tree(
        "results",
        &vec![ScoredDoc::new(DocId(1), 0.75), ScoredDoc::new(DocId(2), 3.0)],
    );
    assert_streams_like_the_tree("no results", &Vec::<ScoredDoc>::new());
    assert_streams_like_the_tree(
        "stats body",
        &ServerStats {
            engine: "mrio".to_string(),
            lambda: 1e-3,
            queries: 300,
            publishes: 12,
            docs_published: 768,
            expired: 1,
            evicted: 2,
            namespaces: vec![
                NamespaceStats { namespace: String::new(), live: 299, expired: 0, evicted: 0 },
                NamespaceStats { namespace: "t\t1".to_string(), live: 1, expired: 1, evicted: 2 },
            ],
            index_bytes: 102_112,
            zone_bytes: 87_040,
            blocks_decoded: 0,
            queue_capacity: 16,
            queue_depth: 0,
            queue_highwater: 2,
            subscribers: 1,
            events_delivered: 3,
            events_dropped: 0,
            draining: false,
            warming: true,
            journal_bytes: 57_000,
            last_checkpoint: 0,
            replayed_records: 0,
        },
    );

    // The shim's own impls.
    assert_streams_like_the_tree("none", &Option::<u32>::None);
    assert_streams_like_the_tree("some", &Some(5u8));
    assert_streams_like_the_tree("nested tuples", &((1u8, -2i64), ("x", (2.0f32, true), 4usize)));
    assert_streams_like_the_tree("empty vec", &Vec::<(u8, u8)>::new());
    for text in [
        "",
        "plain",
        "q\"uote",
        "back\\slash",
        "\n\r\t",
        "\u{0}\u{1f}\u{7f}",
        "caf\u{e9} \u{1F600}",
    ] {
        assert_streams_like_the_tree("string", text);
    }
    for float in
        [2.0, -0.0, 0.0, 1e15, 999_999_999_999_999.0, 1e-7, 1e300, f64::MIN_POSITIVE, -7.25]
    {
        assert_streams_like_the_tree("float", &float);
    }
    assert_eq!(serde_json::to_string(&2.0f64).unwrap(), "2.0", "whole floats keep their point");
    assert_streams_like_the_tree("f32 widens first", &0.1f32);
    assert_eq!(serde_json::to_string(&0.1f32).unwrap(), "0.10000000149011612");
    for unsigned in [0, 9, 10, u64::MAX] {
        assert_streams_like_the_tree("u64", &unsigned);
    }
    assert_eq!(serde_json::to_string(&u64::MAX).unwrap(), "18446744073709551615");
    for signed in [0, -1, i64::MIN, i64::MAX] {
        assert_streams_like_the_tree("i64", &signed);
    }
    assert_eq!(serde_json::to_string(&i64::MIN).unwrap(), "-9223372036854775808");
}

#[test]
fn publish_bodies_splice_the_fanned_out_text_byte_for_byte() {
    let quiet = PublishReceipt { doc_ids: vec![DocId(9)], changes: vec![], stats: vec![stats(9)] };
    for (what, receipt) in [
        ("receipt with evictions", receipt(true)),
        ("receipt with evicted: null", receipt(false)),
        ("fan-out order differs from receipt order", shuffled_receipt()),
        ("quiet receipt", quiet),
        ("empty receipt", PublishReceipt::default()),
    ] {
        let registry = SubscriberRegistry::new(16);
        registry.subscribe(None);
        let changes = registry.fanout_json(&receipt);
        assert_eq!(changes.is_none(), receipt.changes.is_empty(), "{what}");
        for admission in ADMISSIONS {
            let expected = receipt_tree(&receipt, admission);
            let body = publish_body(&receipt, changes.as_deref(), admission).unwrap();
            assert_eq!(body, expected, "{what}");
            // Nobody subscribed: the handler prints the receipt itself.
            assert_eq!(publish_body(&receipt, None, admission).unwrap(), expected, "{what}");
        }
    }
}

#[test]
fn poll_bodies_print_the_bytes_their_tree_prints() {
    let registry = SubscriberRegistry::new(4);
    let all = registry.subscribe(None);
    let only_9 = registry.subscribe(Some(vec![QueryId(9)]));
    let poll = |id, max| registry.poll(id, max, Duration::ZERO).expect("subscribed");

    registry.fanout(&shuffled_receipt());
    let partial = poll(all, 3);
    assert_eq!((partial.events.len(), partial.dropped), (3, 0));
    assert_streams_like_the_tree("partial drain by max", &partial);
    assert_streams_like_the_tree("the rest of the drain", &poll(all, 64));
    let filtered = poll(only_9, 64);
    assert_eq!(filtered.events.len(), 2);
    assert_streams_like_the_tree("filtered subscriber", &filtered);
    assert_streams_like_the_tree("empty poll", &poll(all, 64));

    // Fourteen events into a 4-slot ring: the oldest drop, and their bytes
    // are cut from the buffer on the way.
    for receipt in [receipt(true), shuffled_receipt(), receipt(false), shuffled_receipt()] {
        registry.fanout(&receipt);
    }
    let overflowed: PollOutcome = poll(all, 1);
    assert_eq!((overflowed.events.len(), overflowed.dropped), (1, 10));
    assert_streams_like_the_tree("overflowed ring", &overflowed);
    // More fan-outs displace, and cut, the rest of what was buffered.
    registry.fanout(&receipt(true));
    registry.fanout(&shuffled_receipt());
    let compacted = poll(all, 64);
    assert_eq!((compacted.events.len(), compacted.dropped), (4, 6));
    assert_streams_like_the_tree("drain after compaction", &compacted);
    assert_streams_like_the_tree("filtered after overflow", &poll(only_9, 64));
}

#[test]
fn non_finite_floats_are_still_refused() {
    assert!(serde_json::to_string(&f64::NAN).is_err());
    assert!(serde_json::to_string(&f32::INFINITY).is_err());
    assert!(serde_json::to_string(&Admission::Overloaded { retry_after: f64::INFINITY }).is_err());
    assert!(serde_json::to_string(&ReplayCommand::Publish {
        docs: vec![(vec![(TermId(1), 1.0)], f64::NEG_INFINITY)],
    })
    .is_err());
    let mut bad = receipt(false);
    bad.changes[1].inserted = ScoredDoc::new(DocId(1), f64::INFINITY);
    assert!(serde_json::to_string(&bad).is_err());
}

#[test]
fn an_unprintable_change_reaches_its_subscribers_as_a_gap() {
    let registry = SubscriberRegistry::new(16);
    let all = registry.subscribe(None);
    let only_9 = registry.subscribe(Some(vec![QueryId(9)]));
    let mut bad = shuffled_receipt();
    bad.changes[1].inserted = ScoredDoc::new(DocId(41), f64::INFINITY);

    // The finite changes are routed; the text is not the whole array.
    assert_eq!(registry.fanout_json(&bad), None);
    assert_eq!(registry.totals(), (5, 1));
    let out = registry.poll(all, 64, Duration::ZERO).expect("subscribed");
    assert_eq!(out.dropped, 1, "the unprintable change is reported as a gap");
    let routed: Vec<_> = out.events.iter().map(|e| (e.seq, e.change)).collect();
    assert_eq!(routed, [(0, bad.changes[3]), (1, bad.changes[2]), (2, bad.changes[0])]);
    assert_streams_like_the_tree("poll around an unprintable change", &out);
    let out = registry.poll(only_9, 64, Duration::ZERO).expect("subscribed");
    assert_eq!((out.events.len(), out.dropped), (2, 0), "its filter skips the bad change");

    // The publisher gets the writer's error, as without subscribers.
    let refused = publish_body(&bad, None, Admission::Accepted).unwrap_err();
    assert_eq!(refused.to_string(), serde_json::to_string(&bad).unwrap_err().to_string());
}

/// A leaf whose tree cannot be built: if anything on the way from
/// `to_string` to it calls `to_value`, the test panics.
struct NoTree(u32);

impl Serialize for NoTree {
    fn to_value(&self) -> Value {
        panic!("serde_json::to_string must not build a Value tree")
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        self.0.write_json(out)
    }
}

#[derive(Serialize)]
struct Holder {
    id: NoTree,
    list: Vec<NoTree>,
    maybe: Option<NoTree>,
    pair: (NoTree, NoTree),
    wrapped: Newtype,
    both: Two,
}

#[derive(Serialize)]
struct Newtype(NoTree);

#[derive(Serialize)]
struct Two(NoTree, NoTree);

#[test]
fn derived_types_serialize_without_a_tree() {
    let holder = Holder {
        id: NoTree(1),
        list: vec![NoTree(2), NoTree(3)],
        maybe: Some(NoTree(4)),
        pair: (NoTree(5), NoTree(6)),
        wrapped: Newtype(NoTree(7)),
        both: Two(NoTree(8), NoTree(9)),
    };
    assert_eq!(
        serde_json::to_string(&holder).unwrap(),
        r#"{"id":1,"list":[2,3],"maybe":4,"pair":[5,6],"wrapped":7,"both":[8,9]}"#
    );
}

#[test]
fn journal_segments_hold_the_bytes_the_tree_prints() {
    let dir = std::env::temp_dir().join(format!("ctk-wire-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut journal, _) =
        Journal::open(JournalConfig::new(&dir).fsync(FsyncPolicy::Never)).unwrap();
    let mut expected = Vec::new();
    for (i, command) in commands().iter().enumerate() {
        assert_eq!(journal.append(command).unwrap(), i as u64 + 1);
        expected.extend(encode_record(i as u64 + 1, tree(command).as_bytes()));
    }
    // The publish path journals the request body as received, between a
    // fixed prefix and a closing brace.
    let body =
        "{\"docs\": [{\"terms\": [[4, 0.2], [9, 7e-1]], \"arrival\": 4},\n {\"terms\": [[5, 1]]}]}";
    let payload = publish_body_payload(body);
    assert_eq!(payload, ["{\"op\":\"publish_body\",\"body\":", body, "}"].concat());
    assert_eq!(journal.append_payload(payload.as_bytes()).unwrap(), 6);
    expected.extend(encode_record(6, payload.as_bytes()));
    drop(journal);

    let segment = dir.join(format!("wal-{:020}.log", 1));
    assert_eq!(std::fs::read(&segment).unwrap(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Any finite float, from its bits: every exponent, subnormals included.
fn finite(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        (bits % 1000) as f64 // whole floats, the `.0` path
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_receipts_stream_the_bytes_their_tree_prints(
        doc_ids in prop::collection::vec(0u64..u64::MAX, 0..70),
        changes in prop::collection::vec(
            (0u32..u32::MAX, 0u64..u64::MAX, 0u64..u64::MAX, prop::option::of((0u64..1000, 0.0f64..1.0))),
            0..120,
        ),
        counters in prop::collection::vec((0u64..u64::MAX, 0u64..100_000), 0..70),
    ) {
        let receipt = PublishReceipt {
            doc_ids: doc_ids.into_iter().map(DocId).collect(),
            changes: changes
                .into_iter()
                .map(|(query, doc, bits, evicted)| change(query, doc, finite(bits), evicted))
                .collect(),
            stats: counters
                .into_iter()
                .map(|(big, small)| EventStats {
                    iterations: big,
                    postings_accessed: small,
                    updates: small / 7,
                    ..EventStats::default()
                })
                .collect(),
        };
        let streamed = serde_json::to_string(&receipt).map_err(|e| e.to_string())?;
        prop_assert_eq!(&streamed, &tree(&receipt));

        // Fanned out to one unfiltered and one filtered subscriber, the
        // shared text makes the same publish body, and both polls print
        // what their trees do.
        let registry = SubscriberRegistry::new(64);
        let all = registry.subscribe(None);
        let filter = receipt.changes.iter().step_by(3).map(|c| c.query).collect();
        let some = registry.subscribe(Some(filter));
        let changes = registry.fanout_json(&receipt);
        let admission = Admission::Enqueued { depth: receipt.doc_ids.len() };
        let body =
            publish_body(&receipt, changes.as_deref(), admission).map_err(|e| e.to_string())?;
        prop_assert_eq!(body, receipt_tree(&receipt, admission));
        for id in [all, some] {
            let outcome = registry.poll(id, usize::MAX, Duration::ZERO).expect("subscribed");
            let printed = serde_json::to_string(&outcome).map_err(|e| e.to_string())?;
            prop_assert_eq!(printed, tree(&outcome));
        }

        // And the text still means the receipt.
        let back: PublishReceipt = serde_json::from_str(&streamed).map_err(|e| e.to_string())?;
        prop_assert_eq!(back, receipt);
    }
}
