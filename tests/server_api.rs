//! End-to-end wire API tests: a real `CtkServer` on an ephemeral loopback
//! port, driven only through HTTP — the same path an application takes.
//!
//! The bit-identity assertions lean on the JSON shim's shortest-round-trip
//! f64 formatting: two scores serialize to the same text iff they are the
//! same bits, so comparing parsed `Value` trees (or raw bodies) is an exact
//! state comparison, not an epsilon one.

use continuous_topk::{EngineKind, MonitorBuilder};
use ctk_server::{CtkServer, HttpClient, ServerBuilder};
use serde::Value;
use std::time::Duration;

fn start(shards: usize) -> (CtkServer, HttpClient) {
    let server =
        ServerBuilder::new(MonitorBuilder::new(EngineKind::Mrio).lambda(1e-3).shards(shards))
            .bind("127.0.0.1:0")
            .expect("bind ephemeral loopback port");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    (server, client)
}

fn ok(result: std::io::Result<(u16, String)>, want: u16) -> String {
    let (status, body) = result.expect("transport");
    assert_eq!(status, want, "unexpected status; body: {body}");
    body
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).expect("valid JSON response")
}

fn field_u64(value: &Value, name: &str) -> u64 {
    value.get(name).expect(name).as_u64().expect("u64 field")
}

/// The `/stats` entry for one namespace, by name.
fn ns_stat(stats: &Value, name: &str) -> Value {
    stats
        .get("namespaces")
        .expect("namespaces")
        .as_array()
        .unwrap()
        .iter()
        .find(|n| n.get("namespace").unwrap().as_str().unwrap() == name)
        .unwrap_or_else(|| panic!("namespace {name:?} missing from /stats"))
        .clone()
}

/// Register a couple of overlapping queries; returns their public ids.
fn register_two(client: &mut HttpClient) -> (u64, u64) {
    let a = ok(client.post("/queries", r#"{"terms": [[1, 1.0], [2, 0.5]], "k": 3}"#), 200);
    let b = ok(client.post("/queries", r#"{"terms": [[2, 1.0], [3, 0.5]], "k": 2}"#), 200);
    (field_u64(&parse(&a), "query"), field_u64(&parse(&b), "query"))
}

const BATCH: &str = r#"{"docs": [
    {"terms": [[1, 0.9], [2, 0.4]], "arrival": 1.0},
    {"terms": [[2, 0.8], [3, 0.6]], "arrival": 2.0},
    {"terms": [[1, 0.2], [3, 0.9]], "arrival": 3.0}
]}"#;

#[test]
fn register_publish_longpoll_delivers_exactly_the_receipts_changes() {
    let (server, mut client) = start(1);
    let (qa, qb) = register_two(&mut client);
    assert_eq!((qa, qb), (0, 1), "public query ids are monotone from 0");

    let sub = field_u64(&parse(&ok(client.post("/subscriptions", "{}"), 200)), "subscriber");

    // The publish response is the wire-serialized receipt.
    let receipt = parse(&ok(client.post("/publish", BATCH), 200));
    let changes = receipt.get("changes").expect("changes").as_array().unwrap().to_vec();
    assert!(!changes.is_empty(), "three matching docs must change some result set");
    assert_eq!(receipt.get("doc_ids").unwrap().as_array().unwrap().len(), 3);

    // The long-poll delivers exactly those changes, grouped by ascending
    // query id with doc order preserved within each query (the
    // `changes_by_query` order). A stable sort of the receipt's emission-
    // ordered array by query id reproduces it; the Value comparison is
    // bit-exact on every score.
    let poll = parse(&ok(client.get(&format!("/changes?subscriber={sub}&timeout_ms=5000")), 200));
    let events = poll.get("events").unwrap().as_array().unwrap();
    assert_eq!(field_u64(&poll, "dropped"), 0);
    let mut expected = changes.clone();
    expected.sort_by_key(|c| field_u64(c, "query"));
    let delivered: Vec<Value> =
        events.iter().map(|e| e.get("change").expect("change").clone()).collect();
    assert_eq!(delivered, expected, "long-poll must carry the receipt's changes verbatim");
    let seqs: Vec<u64> = events.iter().map(|e| field_u64(e, "seq")).collect();
    assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());

    // An immediate re-poll is empty: events are delivered once.
    let poll = parse(&ok(client.get(&format!("/changes?subscriber={sub}")), 200));
    assert!(poll.get("events").unwrap().as_array().unwrap().is_empty());

    // Results reflect the publish, best first, within each query's k.
    let results = parse(&ok(client.get(&format!("/queries/{qa}/results")), 200));
    let top = results.get("results").unwrap().as_array().unwrap();
    assert!(!top.is_empty() && top.len() <= 3);
    ok(client.get("/queries/99/results"), 404);
    ok(client.delete(&format!("/queries/{qb}")), 200);
    ok(client.get(&format!("/queries/{qb}/results")), 404);

    server.shutdown();
}

#[test]
fn snapshot_restart_restore_is_bit_identical_across_shard_counts() {
    let (server, mut client) = start(1);
    let (qa, qb) = register_two(&mut client);
    ok(client.post("/publish", BATCH), 200);

    let results_a = parse(&ok(client.get(&format!("/queries/{qa}/results")), 200));
    let results_b = parse(&ok(client.get(&format!("/queries/{qb}/results")), 200));
    let snapshot = ok(client.post("/snapshot", ""), 200);
    server.shutdown();

    // "Restart": a brand-new server process-equivalent — different port,
    // different shard count — restored from the snapshot JSON verbatim.
    let (restarted, mut client) = start(2);
    let restored = parse(&ok(client.post("/restore", &snapshot), 200));
    assert_eq!(field_u64(&restored, "queries"), 2);
    let mapping = restored.get("mapping").unwrap().as_array().unwrap().to_vec();
    assert_eq!(mapping.len(), 2);

    for (old, old_results) in [(qa, results_a), (qb, results_b)] {
        let pair = mapping
            .iter()
            .map(|p| p.as_array().unwrap())
            .find(|p| p[0].as_u64().unwrap() == old)
            .expect("every captured query is mapped");
        let new = pair[1].as_u64().unwrap();
        let restored = parse(&ok(client.get(&format!("/queries/{new}/results")), 200));
        assert_eq!(
            restored.get("results"),
            old_results.get("results"),
            "restored top-k of captured query {old} must be bit-identical"
        );
    }

    // The restored monitor is live: the stream continues where it left off.
    let receipt = parse(&ok(
        client.post("/publish", r#"{"terms": [[1, 1.0], [3, 1.0]], "arrival": 4.0}"#),
        200,
    ));
    assert_eq!(receipt.get("doc_ids").unwrap().as_array().unwrap().len(), 1);
    restarted.shutdown();
}

#[test]
fn drain_refuses_new_publishes_but_loses_nothing_in_flight() {
    let (server, mut client) = start(1);
    register_two(&mut client);
    let sub = field_u64(&parse(&ok(client.post("/subscriptions", "{}"), 200)), "subscriber");
    let receipt = parse(&ok(client.post("/publish", BATCH), 200));
    let published_changes = receipt.get("changes").unwrap().as_array().unwrap().len();

    // Race a publish against the drain from a second connection. Either it
    // lost the race (503, no partial effects) or it won (200, and its
    // changes are fully fanned out before the drain barrier completes).
    let addr = server.addr();
    let racer = std::thread::spawn(move || {
        let mut racing = HttpClient::connect(addr).unwrap();
        racing
            .post("/publish", r#"{"docs": [{"terms": [[2, 0.7]], "arrival": 5.0}]}"#)
            .expect("transport")
    });
    server.drain();
    let (race_status, race_body) = racer.join().unwrap();
    assert!(
        race_status == 200 || race_status == 503,
        "racing publish must be fully applied or fully refused, got {race_status}: {race_body}"
    );
    let race_changes = if race_status == 200 {
        parse(&race_body).get("changes").unwrap().as_array().unwrap().len()
    } else {
        0
    };

    // Draining is observable, late publishes are refused, reads still work.
    let health = parse(&ok(client.get("/healthz"), 200));
    assert_eq!(health.get("draining"), Some(&Value::Bool(true)));
    ok(client.post("/publish", r#"{"terms": [[1, 1.0]]}"#), 503);
    ok(client.post("/restore", "{}"), 503);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "docs_published"), 3 + u64::from(race_status == 200));
    ok(client.post("/snapshot", ""), 200);

    // The subscriber flushes everything buffered before the drain — the
    // original batch plus the racer's changes if it won — then sees an
    // empty draining poll, never a hang.
    let mut flushed = 0;
    loop {
        let poll =
            parse(&ok(client.get(&format!("/changes?subscriber={sub}&timeout_ms=1000")), 200));
        assert_eq!(poll.get("draining"), Some(&Value::Bool(true)));
        let events = poll.get("events").unwrap().as_array().unwrap().len();
        flushed += events;
        if events == 0 {
            break;
        }
    }
    assert_eq!(flushed, published_changes + race_changes, "drain must not drop fanned-out events");

    // Drain is idempotent, including over the wire.
    ok(client.post("/admin/drain", ""), 202);
    server.shutdown();
}

#[test]
fn lifecycle_endpoints_expire_evict_and_forget_over_the_wire() {
    let (server, mut client) = start(2);

    // A namespace nobody has mentioned has no retention resource.
    ok(client.get("/namespaces/tenant-a/retention"), 404);

    // Install a TTL policy; PUT echoes it and GET reads it back.
    let put = parse(&ok(client.put("/namespaces/tenant-a/retention", r#"{"max_age": 5.0}"#), 200));
    assert_eq!(put.get("namespace").unwrap().as_str().unwrap(), "tenant-a");
    let retention = put.get("retention").expect("retention");
    assert_eq!(retention.get("max_age").unwrap().as_f64().unwrap(), 5.0);
    assert_eq!(retention.get("eviction").unwrap().as_str().unwrap(), "oldest");
    let get = ok(client.get("/namespaces/tenant-a/retention"), 200);
    assert_eq!(parse(&get), put, "GET must read back exactly what PUT installed");

    // One query inherits the namespace TTL, one carries its own.
    let body = parse(&ok(
        client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 2, "namespace": "tenant-a"}"#),
        200,
    ));
    assert_eq!(body.get("namespace").unwrap().as_str().unwrap(), "tenant-a");
    let q_ns = field_u64(&body, "query");
    let q_ttl = field_u64(
        &parse(&ok(
            client.post("/queries", r#"{"terms": [[2, 1.0]], "k": 2, "max_age": 3.0}"#),
            200,
        )),
        "query",
    );

    // Within both deadlines nothing expires...
    let receipt = parse(&ok(
        client.post("/publish", r#"{"terms": [[1, 0.5], [2, 0.5]], "arrival": 1.0}"#),
        200,
    ));
    assert!(!receipt.get("changes").unwrap().as_array().unwrap().is_empty());
    assert_eq!(field_u64(&parse(&ok(client.get("/stats"), 200)), "expired"), 0);

    // ...and one arrival past them expires both, attributed on the receipt
    // and visible in /stats (totals and per-namespace).
    let receipt =
        parse(&ok(client.post("/publish", r#"{"terms": [[9, 1.0]], "arrival": 100.0}"#), 200));
    let expired: u64 = receipt
        .get("stats")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|s| field_u64(s, "expired"))
        .sum();
    assert_eq!(expired, 2, "the receipt attributes the expiries to this publish");
    ok(client.get(&format!("/queries/{q_ns}/results")), 404);
    ok(client.get(&format!("/queries/{q_ttl}/results")), 404);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "expired"), 2);
    assert_eq!(field_u64(&ns_stat(&stats, "tenant-a"), "expired"), 1);
    assert_eq!(field_u64(&ns_stat(&stats, "tenant-a"), "live"), 0);
    assert_eq!(
        field_u64(&ns_stat(&stats, ""), "expired"),
        1,
        "per-query TTL in the default namespace"
    );

    // A cap policy evicts at registration time: cap 1, lowest score first.
    ok(
        client.put(
            "/namespaces/tenant-b/retention",
            r#"{"max_queries": 1, "eviction": "lowest_score"}"#,
        ),
        200,
    );
    let reg_b = |client: &mut HttpClient| {
        field_u64(
            &parse(&ok(
                client
                    .post("/queries", r#"{"terms": [[3, 1.0]], "k": 2, "namespace": "tenant-b"}"#),
                200,
            )),
            "query",
        )
    };
    let evicted_q = reg_b(&mut client);
    let survivor_q = reg_b(&mut client);
    ok(client.get(&format!("/queries/{evicted_q}/results")), 404);
    ok(client.get(&format!("/queries/{survivor_q}/results")), 200);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "evicted"), 1);

    // /forget needs exactly one of dry_run/confirm, knows its namespaces,
    // and only removes when confirmed.
    ok(client.post("/forget", r#"{"namespace": "tenant-b"}"#), 400);
    ok(
        client.post("/forget", r#"{"namespace": "tenant-b", "dry_run": true, "confirm": true}"#),
        400,
    );
    ok(client.post("/forget", r#"{"namespace": "nobody", "dry_run": true}"#), 404);
    let preview =
        parse(&ok(client.post("/forget", r#"{"namespace": "tenant-b", "dry_run": true}"#), 200));
    assert_eq!(field_u64(&preview, "removed"), 1);
    assert_eq!(preview.get("dry_run"), Some(&Value::Bool(true)));
    ok(client.get(&format!("/queries/{survivor_q}/results")), 200);
    let removed =
        parse(&ok(client.post("/forget", r#"{"namespace": "tenant-b", "confirm": true}"#), 200));
    assert_eq!(field_u64(&removed, "removed"), 1);
    assert_eq!(removed.get("dry_run"), Some(&Value::Bool(false)));
    ok(client.get(&format!("/queries/{survivor_q}/results")), 404);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "queries"), 0);
    assert_eq!(field_u64(&ns_stat(&stats, "tenant-b"), "live"), 0);

    server.shutdown();
}

#[test]
fn restore_remaps_subscriber_filters_to_the_new_ids() {
    let (server, mut client) = start(1);
    let (qa, qb) = register_two(&mut client);
    let sub = field_u64(
        &parse(&ok(client.post("/subscriptions", &format!(r#"{{"queries": [{qb}]}}"#)), 200)),
        "subscriber",
    );

    // Drop the lower id so the surviving query's captured id cannot equal
    // its restored id — the remap has to actually move something.
    ok(client.delete(&format!("/queries/{qa}")), 200);
    let snapshot = ok(client.post("/snapshot", ""), 200);
    let restored = parse(&ok(client.post("/restore", &snapshot), 200));
    let mapping = restored.get("mapping").unwrap().as_array().unwrap();
    assert_eq!(mapping.len(), 1);
    let pair = mapping[0].as_array().unwrap();
    assert_eq!(pair[0].as_u64().unwrap(), qb);
    let new_qb = pair[1].as_u64().unwrap();
    assert_ne!(new_qb, qb, "restore must have renumbered the query for this test to bite");

    // A matching publish must reach the filtered subscriber under the NEW
    // id — before the remap fix this filter still said `qb` and the
    // subscriber went silent forever.
    let receipt = parse(&ok(
        client.post("/publish", r#"{"terms": [[2, 1.0], [3, 1.0]], "arrival": 4.0}"#),
        200,
    ));
    assert!(!receipt.get("changes").unwrap().as_array().unwrap().is_empty());
    let poll = parse(&ok(client.get(&format!("/changes?subscriber={sub}&timeout_ms=5000")), 200));
    let events = poll.get("events").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "restore stranded the subscriber's filter on a stale id");
    for event in events {
        assert_eq!(field_u64(event.get("change").unwrap(), "query"), new_qb);
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_client_errors_not_hangs() {
    let (server, mut client) = start(1);
    ok(client.post("/queries", "{nope"), 400);
    ok(client.post("/queries", r#"{"terms": [], "k": 1}"#), 400);
    ok(client.post("/publish", r#"{"docs": []}"#), 400);
    ok(client.post("/restore", r#"{"bogus": true}"#), 400);
    ok(client.get("/changes"), 400);
    ok(client.get("/changes?subscriber=42"), 404);
    ok(client.delete("/subscriptions/42"), 404);
    ok(client.get("/nope"), 404);
    ok(client.delete("/publish"), 405);
    // The connection survives every error above: one more good request.
    ok(client.get("/healthz"), 200);
    server.shutdown();
}

#[test]
fn a_query_vector_that_normalizes_to_empty_is_refused_with_400() {
    let (server, mut client) = start(1);
    // The duplicates merge into a weight sum past f32::MAX: +inf, which
    // normalizes to NaN and is dropped, leaving nothing to match.
    let body = ok(client.post("/queries", r#"{"terms": [[1, 3e38], [1, 3e38]]}"#), 400);
    assert!(body.contains("query vector must be non-empty"), "{body}");
    assert_eq!(field_u64(&parse(&ok(client.get("/stats"), 200)), "queries"), 0);
    server.shutdown();
}

#[test]
fn reject_admission_answers_429_with_retry_after_and_loses_no_accepted_docs() {
    use ctk_server::AdmissionPolicy;
    // Queue depth 1 and a reject policy: whenever two publishers race while
    // the ingest thread is busy, the loser is told to come back later.
    let server = ServerBuilder::new(MonitorBuilder::new(EngineKind::Mrio).lambda(1e-3))
        .queue_depth(1)
        .admission(AdmissionPolicy::Reject { retry_after: 0.25 })
        .bind("127.0.0.1:0")
        .expect("bind ephemeral loopback port");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Enough overlapping queries that a large batch takes real work.
    for q in 0..64 {
        let term = q % 8 + 1;
        ok(client.post("/queries", &format!(r#"{{"terms": [[{term}, 1.0]], "k": 4}}"#)), 200);
    }
    let docs: Vec<String> = (0..400)
        .map(|d| format!(r#"{{"terms": [[{}, 0.9]], "arrival": {}.0}}"#, d % 8 + 1, d))
        .collect();
    let big_batch = format!(r#"{{"docs": [{}]}}"#, docs.join(", "));

    // Background publishers keep the ingest thread saturated while the
    // foreground hammers until it draws a 429. Everyone counts what was
    // actually accepted so we can prove rejected publishes had no effect.
    let addr = server.addr();
    let publish_round = move |c: &mut HttpClient, batch: &str| -> (u64, u64) {
        let (status, body) = c.post("/publish", batch).expect("transport");
        match status {
            200 => {
                let receipt = parse(&body);
                let state =
                    receipt.get("admission").unwrap().get("state").unwrap().as_str().unwrap();
                assert!(state == "accepted" || state == "enqueued", "admitted publishes say so");
                (1, 0)
            }
            429 => {
                let refusal = parse(&body);
                assert_eq!(
                    refusal.get("admission").unwrap().get("state").unwrap().as_str().unwrap(),
                    "overloaded"
                );
                // retry_after 0.25 rounds up to a whole-second header.
                assert_eq!(c.retry_after(), Some(1.0), "Retry-After is ceil'd seconds");
                (0, 1)
            }
            other => panic!("unexpected publish status {other}: {body}"),
        }
    };
    let publishers: Vec<_> = (0..4)
        .map(|_| {
            let batch = big_batch.clone();
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                (0..30).fold((0u64, 0u64), |(a, r), _| {
                    let (da, dr) = publish_round(&mut c, &batch);
                    (a + da, r + dr)
                })
            })
        })
        .collect();

    let (mut accepted, mut rejected) = (0u64, 0u64);
    for _ in 0..60 {
        let (da, dr) = publish_round(&mut client, &big_batch);
        accepted += da;
        rejected += dr;
        if dr > 0 {
            break;
        }
    }
    for publisher in publishers {
        let (a, r) = publisher.join().unwrap();
        accepted += a;
        rejected += r;
    }
    assert!(rejected > 0, "queue depth 1 under 5 concurrent publishers must overflow");

    // Recovery: once the burst drains, publishing works again, and the
    // accepted-doc count proves every 429 was effect-free.
    let receipt = parse(&ok(client.post("/publish", &big_batch), 200));
    assert_eq!(receipt.get("doc_ids").unwrap().as_array().unwrap().len(), 400);
    accepted += 1;
    server.drain();
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "docs_published"), accepted * 400);
    assert_eq!(field_u64(&stats, "queue_capacity"), 1);
    assert!(field_u64(&stats, "queue_highwater") >= 1, "the gauge saw the queue fill");
    server.shutdown();
}

#[test]
fn streamed_snapshot_is_byte_identical_to_buffered_and_restores_bit_identically() {
    let (server, mut client) = start(2);
    let (qa, qb) = register_two(&mut client);
    ok(client.post("/publish", BATCH), 200);
    let results_a = parse(&ok(client.get(&format!("/queries/{qa}/results")), 200));
    let results_b = parse(&ok(client.get(&format!("/queries/{qb}/results")), 200));

    let buffered = ok(client.post("/snapshot", ""), 200);

    // The streamed variant is EOF-framed and closes the connection, so it
    // gets its own connection — and must produce the exact same bytes.
    let mut streamer = HttpClient::connect(server.addr()).expect("connect");
    streamer.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let streamed = ok(streamer.post("/snapshot?stream=1", ""), 200);
    assert_eq!(streamed, buffered, "streamed and buffered snapshots must be byte-identical");
    // Both are the derived compact serialization of the capture they carry.
    let capture = continuous_topk::prelude::Snapshot::from_json(&buffered).unwrap();
    assert_eq!(serde_json::to_string(&capture).unwrap(), buffered);
    server.shutdown();

    // The streamed bytes restore onto a different shard count with
    // bit-identical per-query results.
    let (restarted, mut client) = start(3);
    let restored = parse(&ok(client.post("/restore", &streamed), 200));
    let mapping = restored.get("mapping").unwrap().as_array().unwrap().to_vec();
    for (old, old_results) in [(qa, results_a), (qb, results_b)] {
        let pair = mapping
            .iter()
            .map(|p| p.as_array().unwrap())
            .find(|p| p[0].as_u64().unwrap() == old)
            .expect("every captured query is mapped");
        let new = pair[1].as_u64().unwrap();
        let after = parse(&ok(client.get(&format!("/queries/{new}/results")), 200));
        assert_eq!(after.get("results"), old_results.get("results"));
    }
    restarted.shutdown();
}

#[test]
fn stats_report_storage_counters_for_a_compressed_backend() {
    use continuous_topk::prelude::PostingsStorage;
    let monitor = MonitorBuilder::new(EngineKind::Mrio)
        .lambda(1e-3)
        .postings_storage(PostingsStorage::Compressed);
    let server =
        ServerBuilder::new(monitor).bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Enough registrations to seal compressed blocks (64 slots each), which
    // the publish's walk then decodes.
    for q in 0..2048 {
        let term = q % 4 + 1;
        let body = format!(r#"{{"terms": [[{term}, 1.0]], "k": 2}}"#);
        ok(client.post("/queries", &body), 200);
    }
    ok(client.post("/publish", r#"{"terms": [[1, 1.0], [3, 0.5]], "arrival": 1.0}"#), 200);

    let stats = parse(&ok(client.get("/stats"), 200));
    assert!(field_u64(&stats, "index_bytes") > 0, "index_bytes must be populated");
    assert!(field_u64(&stats, "blocks_decoded") > 0, "the walk must decode sealed blocks");
    server.shutdown();
}

/// `/stats` keeps its `sharding` field: the query population is the only
/// thing a monitor shards, so every server reports `"query"` next to its
/// shard count, in the same bytes the field has always had. Its `engine`
/// field keeps the report name `"MRIO"`.
#[test]
fn stats_report_the_query_sharding_and_the_shard_count() {
    for shards in [1, 2] {
        let (server, mut client) = start(shards);
        let body = ok(client.get("/stats"), 200);
        assert!(
            body.contains(&format!(r#""shards":{shards},"sharding":"query","#)),
            "unexpected /stats body: {body}"
        );
        assert!(body.contains(r#""engine":"MRIO""#), "unexpected /stats body: {body}");
        server.shutdown();
    }
}

#[test]
fn bind_refuses_unusable_knobs_with_invalid_input_naming_them() {
    use ctk_server::AdmissionPolicy;
    use std::io::ErrorKind;
    let mrio = || MonitorBuilder::new(EngineKind::Mrio);
    let reject =
        |retry_after| ServerBuilder::new(mrio()).admission(AdmissionPolicy::Reject { retry_after });
    let refused = [
        ("shards", ServerBuilder::new(mrio().shards(0))),
        ("queue_depth", ServerBuilder::new(mrio()).queue_depth(0)),
        ("lambda", ServerBuilder::new(mrio().lambda(-1.0))),
        ("lambda", ServerBuilder::new(mrio().lambda(f64::NAN))),
        ("lambda", ServerBuilder::new(mrio().lambda(f64::INFINITY))),
        ("admission", reject(f64::NAN)),
        ("admission", reject(f64::INFINITY)),
        ("admission", reject(-1.0)),
    ];
    for (knob, builder) in refused {
        let Err(e) = builder.bind("127.0.0.1:0") else {
            panic!("{knob}: an unusable value must not bind");
        };
        assert_eq!(e.kind(), ErrorKind::InvalidInput, "{knob}: {e}");
        assert!(e.to_string().starts_with(knob), "{knob}: {e}");
    }
    // The boundary values still start.
    let server = ServerBuilder::new(mrio().shards(1).lambda(0.0)).queue_depth(1);
    server.bind("127.0.0.1:0").expect("minimal knobs bind").shutdown();
    reject(0.0).bind("127.0.0.1:0").expect("a zero retry hint binds").shutdown();
}

/// One `GET /changes` carries at most `?max=` events, and never more than
/// the server's `MAX_POLL_EVENTS`; the rest wait for the next poll.
#[test]
fn a_poll_carries_at_most_max_and_at_most_the_server_cap() {
    use ctk_server::routes::{MAX_POLL_EVENTS, SUBSCRIBER_BUFFER};
    let (server, mut client) = start(1);
    let subscriber = field_u64(&parse(&ok(client.post("/subscriptions", "{}"), 200)), "subscriber");
    // One publish changes every query's result set: one event each, more
    // than a poll may carry and fewer than the subscriber may buffer.
    let queries = MAX_POLL_EVENTS + 100;
    assert!(queries < SUBSCRIBER_BUFFER);
    for _ in 0..queries {
        ok(client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 1}"#), 200);
    }
    ok(client.post("/publish", r#"{"terms": [[1, 1.0]], "arrival": 1.0}"#), 200);
    let mut poll = |max: &str| {
        let path = format!("/changes?subscriber={subscriber}{max}");
        let poll = parse(&ok(client.get(&path), 200));
        assert_eq!(field_u64(&poll, "dropped"), 0);
        poll.get("events").unwrap().as_array().unwrap().len()
    };
    assert_eq!(poll("&max=5"), 5);
    assert_eq!(poll(&format!("&max={}", 10 * MAX_POLL_EVENTS)), MAX_POLL_EVENTS);
    assert_eq!(poll(""), queries - 5 - MAX_POLL_EVENTS);
    assert_eq!(poll(""), 0);
    server.shutdown();
}

/// A server with a journal in a fresh temporary directory (fsync off: the
/// tests need the journal's checks, not its durability).
fn start_journaled(tag: &str) -> (CtkServer, HttpClient, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ctk-api-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = ServerBuilder::new(MonitorBuilder::new(EngineKind::Mrio).lambda(1e-3))
        .journal_dir(&dir)
        .fsync(ctk_server::FsyncPolicy::Never)
        .bind("127.0.0.1:0")
        .expect("bind ephemeral loopback port");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    (server, client, dir)
}

/// `"max_age": 1e999` parses as +∞, which no response, snapshot or journal
/// record can spell. Registration and retention refuse it with 400 naming
/// the field, with and without a journal; the namespace's policy stays as
/// it was and readable, and snapshots keep working.
#[test]
fn infinite_max_age_is_refused_with_400_with_and_without_a_journal() {
    let (plain, plain_client) = start(1);
    let (journaled, journaled_client, dir) = start_journaled("infinite-max-age");
    for (server, mut client) in [(plain, plain_client), (journaled, journaled_client)] {
        ok(client.put("/namespaces/t/retention", r#"{"max_age": 60}"#), 200);
        let before = ok(client.get("/namespaces/t/retention"), 200);
        for infinite in ["1e999", "-1e999"] {
            let body =
                format!(r#"{{"terms": [[1, 1.0]], "namespace": "t", "max_age": {infinite}}}"#);
            let refused = ok(client.post("/queries", &body), 400);
            assert!(refused.contains("max_age"), "{refused}");
            let body = format!(r#"{{"max_age": {infinite}}}"#);
            let refused = ok(client.put("/namespaces/t/retention", &body), 400);
            assert!(refused.contains("max_age"), "{refused}");
        }
        assert_eq!(ok(client.get("/namespaces/t/retention"), 200), before);
        ok(client.post("/snapshot", ""), 200);
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A capture edited to carry non-finite numbers is refused with 400 before
/// the ingest thread sees it: the live monitor is untouched and the next
/// snapshot still serializes.
#[test]
fn restore_refuses_non_finite_numbers_and_keeps_the_live_monitor() {
    let (server, mut client, dir) = start_journaled("non-finite-restore");
    ok(client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 2, "max_age": 50}"#), 200);
    ok(client.post("/queries", r#"{"terms": [[2, 1.0]], "k": 2}"#), 200);
    ok(client.post("/publish", BATCH), 200);
    let raw = ok(client.post("/snapshot", ""), 200);
    // Compact, whatever the writer's whitespace, so the edits below apply.
    let capture = serde_json::to_string(&parse(&raw)).unwrap();
    assert!(capture.contains(r#""max_age":50.0,"deadline":50.0"#), "{capture}");
    let stats_before = ok(client.get("/stats"), 200);

    for (field, edited) in [
        ("max_age", capture.replace(r#""max_age":50.0"#, r#""max_age":1e999"#)),
        ("deadline", capture.replace(r#""deadline":50.0"#, r#""deadline":1e999"#)),
        ("lambda", capture.replace(r#""lambda":0.001"#, r#""lambda":-1e999"#)),
    ] {
        assert_ne!(edited, capture, "{field}: the edit applied");
        let refused = ok(client.post("/restore", &edited), 400);
        assert!(refused.contains(field), "{field}: {refused}");
    }
    assert_eq!(ok(client.get("/stats"), 200), stats_before);
    assert_eq!(ok(client.post("/snapshot", ""), 200), raw);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A capture no monitor could be built from is refused with 400 before it
/// reaches the ingest thread, which keeps serving: `k = 0`, a `k` past
/// `u32` and a negative λ used to panic it (every later request answered
/// 503), and a negative weight used to restore.
#[test]
fn restore_refuses_an_invalid_query_spec_and_keeps_serving() {
    const FIXTURE: &str = include_str!("fixtures/snapshot_v3_pretty.json");
    let (server, mut client) = start(1);
    for (field, edited) in [
        ("spec.k", FIXTURE.replacen(r#""k": 2"#, r#""k": 0"#, 1)),
        ("spec.k", FIXTURE.replacen(r#""k": 2"#, r#""k": 4294967296"#, 1)),
        ("spec.vector", FIXTURE.replacen("0.7071067690849304", "-0.7071067690849304", 1)),
        ("lambda", FIXTURE.replacen(r#""lambda": 0.5"#, r#""lambda": -0.5"#, 1)),
    ] {
        assert_ne!(edited, FIXTURE, "{field}: the edit applied");
        let refused = ok(client.post("/restore", &edited), 400);
        assert!(refused.contains(field), "{field}: {refused}");
        ok(client.post("/publish", r#"{"terms": [[1, 1.0]]}"#), 200);
    }
    ok(client.post("/restore", FIXTURE), 200);
    server.shutdown();
}
