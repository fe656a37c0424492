//! In-process durability API tests: the journal knobs on `ServerBuilder`,
//! the `/readyz` split, journal fields in `/stats`, and — the guard this
//! file exists for — rejection of checkpoints and snapshots written by a
//! *newer* build than this one, with errors a human can act on.

use continuous_topk::{EngineKind, MonitorBuilder};
use ctk_server::{FsyncPolicy, HttpClient, ServerBuilder};
use serde::Value;
use std::fs;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ctk-durapi-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn builder() -> ServerBuilder {
    ServerBuilder::new(MonitorBuilder::new(EngineKind::Mrio).lambda(1e-3))
}

fn ok(outcome: std::io::Result<(u16, String)>, expect: u16) -> String {
    let (status, body) = outcome.expect("request io");
    assert_eq!(status, expect, "unexpected status, body: {body}");
    body
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).expect("valid JSON body")
}

/// Wait out startup replay, which runs on the ingest thread after `bind`.
fn ready_client(addr: SocketAddr) -> HttpClient {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "server never became ready");
        let mut client = HttpClient::connect_with_retry(addr, Duration::from_secs(5)).unwrap();
        if let Ok((200, _)) = client.get("/readyz") {
            return client;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn field_u64(value: &Value, name: &str) -> u64 {
    value.get(name).and_then(|v| v.as_u64().ok()).unwrap_or_else(|| panic!("no {name}"))
}

#[test]
fn journal_state_survives_a_graceful_restart() {
    let dir = temp_dir("graceful");
    let server = builder()
        .journal_dir(&dir)
        .fsync(FsyncPolicy::Never) // graceful shutdown syncs lazily-fsynced journals
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    assert!(!server.is_warming());
    ok(client.get("/readyz"), 200);

    let qid = field_u64(
        &parse(&ok(client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 3}"#), 200)),
        "query",
    );
    ok(client.post("/publish", r#"{"terms": [[1, 0.8]], "arrival": 1.0}"#), 200);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert!(field_u64(&stats, "journal_bytes") > 0, "appends must show in /stats");
    assert_eq!(field_u64(&stats, "last_checkpoint"), 0, "no checkpoint yet");
    server.shutdown();

    let server = builder().journal_dir(&dir).bind("127.0.0.1:0").unwrap();
    // Poll readiness rather than assuming: replay runs on the ingest thread.
    let mut client = ready_client(server.addr());
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "replayed_records"), 2, "register + publish");
    assert!(field_u64(&stats, "last_checkpoint") > 0, "recovery re-checkpoints");
    let results = parse(&ok(client.get(&format!("/queries/{qid}/results")), 200));
    let results = results.get("results").unwrap();
    assert!(matches!(results, Value::Array(items) if !items.is_empty()));
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The largest valid `k` registers with 200 on every postings backend and
/// replays from the journal after a restart, with the same results: the
/// record layout used to narrow `k` to 16 bits and panic on it, and a
/// journaled register that panics on apply would panic every restart.
#[test]
fn the_largest_valid_k_registers_and_survives_a_journal_restart() {
    use continuous_topk::prelude::PostingsStorage;
    for storage in PostingsStorage::ALL {
        let dir = temp_dir("max-k");
        let monitor = MonitorBuilder::new(EngineKind::Mrio).lambda(1e-3).postings_storage(storage);
        let journaled = || ServerBuilder::new(monitor.clone()).journal_dir(&dir);
        let server = journaled().fsync(FsyncPolicy::Never).bind("127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let qid = field_u64(
            &parse(&ok(client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 65536}"#), 200)),
            "query",
        );
        for arrival in 1..=3 {
            let doc = format!(r#"{{"terms": [[1, 0.{arrival}]], "arrival": {arrival}.0}}"#);
            ok(client.post("/publish", &doc), 200);
        }
        let results = ok(client.get(&format!("/queries/{qid}/results")), 200);
        server.shutdown();

        let server = journaled().bind("127.0.0.1:0").unwrap();
        let mut client = ready_client(server.addr());
        let stats = parse(&ok(client.get("/stats"), 200));
        assert_eq!(field_u64(&stats, "replayed_records"), 4, "{storage}: register + 3 publishes");
        assert_eq!(ok(client.get(&format!("/queries/{qid}/results")), 200), results, "{storage}");
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn non_finite_publishes_are_refused_before_the_journal_sees_them() {
    let dir = temp_dir("non-finite");
    let server = builder().journal_dir(&dir).bind("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let qid = field_u64(
        &parse(&ok(client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 3}"#), 200)),
        "query",
    );
    ok(client.post("/publish", r#"{"terms": [[1, 0.8]], "arrival": 1.0}"#), 200);
    let before = parse(&ok(client.get("/stats"), 200));

    for (body, spelled) in [
        (r#"{"docs": [{"terms": [[1, 0.5]], "arrival": 2.0}, {"terms": [[1, 1e999]]}]}"#, "inf"),
        (r#"{"terms": [[1, 0.5]], "arrival": -1e999}"#, "-inf"),
    ] {
        let refusal = parse(&ok(client.post("/publish", body), 500));
        assert_eq!(
            refusal.get("error").unwrap().as_str().unwrap(),
            format!(
                "journal append failed (publish refused): serde error: non-finite float \
                 {spelled} is not valid JSON"
            ),
            "{body}"
        );
        let after = parse(&ok(client.get("/stats"), 200));
        for counter in ["docs_published", "journal_bytes"] {
            assert_eq!(field_u64(&after, counter), field_u64(&before, counter), "{counter}");
        }
    }
    server.shutdown();

    // Neither refusal left a record: the restart replays the register and
    // the one accepted publish, and the query holds only that document.
    let server = builder().journal_dir(&dir).bind("127.0.0.1:0").unwrap();
    let mut client = ready_client(server.addr());
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "replayed_records"), 2, "register + one publish");
    let results = parse(&ok(client.get(&format!("/queries/{qid}/results")), 200));
    assert!(
        matches!(results.get("results").unwrap(), Value::Array(items) if items.len() == 1),
        "{results:?}"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_checkpoints_and_restore_reanchors_the_journal() {
    let dir = temp_dir("checkpointing");
    let server = builder().journal_dir(&dir).bind("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    ok(client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 3}"#), 200);
    ok(client.post("/publish", r#"{"terms": [[1, 0.8]], "arrival": 1.0}"#), 200);

    // `POST /snapshot` is the checkpoint: journal truncates, watermark set.
    let snapshot_body = ok(client.post("/snapshot", ""), 200);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "journal_bytes"), 0);
    assert_eq!(field_u64(&stats, "last_checkpoint"), 2);
    assert!(dir.join("checkpoint.json").exists());

    // `POST /restore` replaces the monitor wholesale; with a journal active
    // the restored state is checkpointed so it is durable immediately.
    ok(client.post("/publish", r#"{"terms": [[1, 0.4]], "arrival": 2.0}"#), 200);
    ok(client.post("/restore", &snapshot_body), 200);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "journal_bytes"), 0, "restore checkpoints");
    assert_eq!(field_u64(&stats, "queries"), 1);
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_restore_whose_checkpoint_fails_leaves_the_live_monitor() {
    let dir = temp_dir("refused-restore");
    let server = builder().journal_dir(&dir).bind("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // A capture with one query, then a second query the capture lacks.
    ok(client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 3}"#), 200);
    let capture = ok(client.post("/snapshot", ""), 200);
    let qid = field_u64(
        &parse(&ok(client.post("/queries", r#"{"terms": [[2, 1.0]], "k": 3}"#), 200)),
        "query",
    );
    ok(client.post("/publish", r#"{"terms": [[2, 0.8]], "arrival": 1.0}"#), 200);
    let results = ok(client.get(&format!("/queries/{qid}/results")), 200);
    let queries = field_u64(&parse(&ok(client.get("/stats"), 200)), "queries");

    // A directory where the checkpoint's temporary file goes: creating the
    // file fails with EISDIR, even for root.
    fs::create_dir(dir.join("checkpoint.tmp")).unwrap();
    let refusal = parse(&ok(client.post("/restore", &capture), 500));
    assert!(
        refusal.get("error").unwrap().as_str().unwrap().starts_with("journal checkpoint failed"),
        "{refusal:?}"
    );
    assert_eq!(ok(client.get(&format!("/queries/{qid}/results")), 200), results);
    assert_eq!(field_u64(&parse(&ok(client.get("/stats"), 200)), "queries"), queries);
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn readyz_reports_draining_as_not_ready() {
    let server = builder().bind("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    ok(client.get("/readyz"), 200);
    ok(client.post("/admin/drain", ""), 202);
    // Drained: alive (liveness 200) but no longer ready (readiness 503) —
    // the split that lets an orchestrator stop routing without restarting.
    let ready = parse(&ok(client.get("/readyz"), 503));
    assert!(!ready.get("ready").unwrap().as_bool().unwrap());
    assert!(ready.get("draining").unwrap().as_bool().unwrap());
    ok(client.get("/healthz"), 200);
    server.shutdown();
}

#[test]
fn restore_rejects_snapshots_from_a_newer_build() {
    let server = builder().bind("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let snapshot = ok(client.post("/snapshot", ""), 200);
    let future = snapshot.replacen(
        &format!("\"version\":{}", ctk_core::SNAPSHOT_VERSION),
        "\"version\":99",
        1,
    );
    assert_ne!(snapshot, future, "fixture must actually bump the version");
    let body = ok(client.post("/restore", &future), 400);
    assert!(
        body.contains("unsupported snapshot version 99"),
        "the error must name the offending version: {body}"
    );
    server.shutdown();
}

#[test]
fn bind_rejects_a_checkpoint_from_a_newer_build() {
    // First, a valid checkpoint on disk...
    let dir = temp_dir("future");
    let server = builder().journal_dir(&dir).bind("127.0.0.1:0").unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    ok(client.post("/queries", r#"{"terms": [[1, 1.0]], "k": 3}"#), 200);
    ok(client.post("/snapshot", ""), 200);
    server.shutdown();

    // ...then pretend a newer build wrote it.
    let path = dir.join("checkpoint.json");
    let checkpoint = fs::read_to_string(&path).unwrap();
    let future = checkpoint.replacen(
        &format!("\"version\":{}", ctk_core::SNAPSHOT_VERSION),
        "\"version\":99",
        1,
    );
    assert_ne!(checkpoint, future);
    fs::write(&path, future).unwrap();

    // Startup replay must refuse loudly at bind — not serve an empty
    // monitor over data it cannot read.
    let err = match builder().journal_dir(&dir).bind("127.0.0.1:0") {
        Ok(server) => {
            server.shutdown();
            panic!("bind must refuse a checkpoint from a newer build");
        }
        Err(err) => err,
    };
    assert!(
        err.to_string().contains("unsupported snapshot version 99"),
        "bind error must explain the version mismatch: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}
