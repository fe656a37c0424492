//! End-to-end crash recovery: SIGKILL a live `ctk-serve` daemon mid-burst,
//! restart it on the same journal directory, and assert that every acked
//! publish survived — with result sets bit-identical to an uncrashed oracle
//! server fed the same commands, under the same query ids.
//!
//! These tests drive the real binary (`CARGO_BIN_EXE_ctk-serve`) over real
//! sockets, because the property under test is exactly the one a unit test
//! can't fake: the ack left the process before the process died.

use continuous_topk::{EngineKind, MonitorBuilder};
use ctk_server::{HttpClient, ServerBuilder};
use serde::Value;
use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const LAMBDA: f64 = 1e-3; // the binary's default; the oracle must match

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ctk-crash-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A spawned `ctk-serve` process. Killed (hard) on drop so a failing test
/// never leaks a daemon.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(journal_dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ctk-serve"))
            .args(["--port", "0", "--fsync", "always", "--journal-dir"])
            .arg(journal_dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn ctk-serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read ctk-serve banner");
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in ctk-serve banner {line:?}"));
        Daemon { child, addr }
    }

    /// SIGKILL — no drain, no journal sync, the crash under test.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// Reconnect until `GET /readyz` answers 200 — the restart path a real
/// client follows: refused connections first, `503 warming` during replay,
/// ready last.
fn await_ready(addr: SocketAddr) -> HttpClient {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "daemon at {addr} never became ready");
        let Ok(mut client) = HttpClient::connect_with_retry(addr, Duration::from_secs(5)) else {
            continue;
        };
        match client.get("/readyz") {
            Ok((200, _)) => return client,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn ok(outcome: std::io::Result<(u16, String)>, expect: u16) -> String {
    let (status, body) = outcome.expect("request io");
    assert_eq!(status, expect, "unexpected status, body: {body}");
    body
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).expect("valid JSON body")
}

fn field_u64(value: &Value, name: &str) -> u64 {
    value.get(name).and_then(|v| v.as_u64().ok()).unwrap_or_else(|| panic!("no {name}"))
}

/// The deterministic burst: `n` single-document publish bodies with fixed
/// weights and arrivals, so the oracle can replay any acked prefix exactly.
fn publish_bodies(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let term = 1 + (i % 3);
            let weight = 0.2 + (i % 7) as f64 * 0.1;
            let arrival = i as f64 * 0.5;
            format!(r#"{{"terms": [[{term}, {weight}]], "arrival": {arrival}}}"#)
        })
        .collect()
}

/// Every `"qid"` in a snapshot JSON tree: the live query ids.
fn collect_qids(value: &Value, out: &mut Vec<u64>) {
    match value {
        Value::Object(entries) => {
            for (key, val) in entries {
                if key == "qid" {
                    if let Ok(qid) = val.as_u64() {
                        out.push(qid);
                    }
                }
                collect_qids(val, out);
            }
        }
        Value::Array(items) => items.iter().for_each(|v| collect_qids(v, out)),
        _ => {}
    }
}

/// The `"results"` arrays of the given queries on a server, re-serialized.
fn result_sets(client: &mut HttpClient, qids: &[u64]) -> Vec<String> {
    qids.iter()
        .map(|qid| {
            let body = ok(client.get(&format!("/queries/{qid}/results")), 200);
            let results = parse(&body).get("results").expect("results array").clone();
            serde_json::to_string(&results).expect("results serialize")
        })
        .collect()
}

/// An uncrashed in-process oracle fed the same registers and the first
/// `published` bodies of the burst; returns its result sets by query id.
fn oracle_result_sets(bodies: &[String], published: usize) -> Vec<String> {
    let server = ServerBuilder::new(MonitorBuilder::new(EngineKind::Mrio).lambda(LAMBDA))
        .bind("127.0.0.1:0")
        .expect("bind oracle");
    let mut client = HttpClient::connect(server.addr()).expect("connect oracle");
    let qa = field_u64(&parse(&ok(client.post("/queries", REGISTER_A), 200)), "query");
    let qb = field_u64(&parse(&ok(client.post("/queries", REGISTER_B), 200)), "query");
    assert_eq!((qa, qb), (0, 1));
    for body in &bodies[..published] {
        ok(client.post("/publish", body), 200);
    }
    let sets = result_sets(&mut client, &[qa, qb]);
    server.shutdown();
    sets
}

const REGISTER_A: &str = r#"{"terms": [[1, 1.0], [2, 0.5]], "k": 4}"#;
const REGISTER_B: &str = r#"{"terms": [[2, 1.0], [3, 0.5]], "k": 4}"#;

/// Append garbage to the newest journal segment, simulating the torn final
/// record a mid-append crash leaves behind.
fn tear_newest_segment(dir: &Path) {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .expect("journal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".log"))
        .collect();
    segments.sort();
    let newest = segments.pop().expect("a journal segment");
    let mut bytes = fs::read(&newest).expect("read segment");
    bytes.extend_from_slice(&[0x9e, 0x01, 0x00, 0x00, 0x07, 0x2a, 0x55]);
    fs::write(&newest, &bytes).expect("tear segment");
}

#[test]
fn sigkill_mid_burst_loses_no_acked_publish() {
    let dir = temp_dir("burst");
    let bodies = publish_bodies(26);
    let acked = 25;

    let mut daemon = Daemon::spawn(&dir);
    let mut client = await_ready(daemon.addr);
    ok(client.post("/queries", REGISTER_A), 200);
    ok(client.post("/queries", REGISTER_B), 200);
    for body in &bodies[..acked] {
        ok(client.post("/publish", body), 200);
    }

    // One more publish races the SIGKILL from its own connection: it may be
    // acked, torn mid-append, or never sent — all three must recover
    // cleanly. (`fsync=always` means the 25 acked ones are non-negotiable.)
    let racer = {
        let addr = daemon.addr;
        let body = bodies[acked].clone();
        std::thread::spawn(move || {
            if let Ok(mut c) = HttpClient::connect(addr) {
                let _ = c.post("/publish", &body);
            }
        })
    };
    std::thread::sleep(Duration::from_millis(2));
    daemon.kill9();
    let _ = racer.join();
    // However the race landed, pile a torn record onto the newest segment:
    // restart must truncate it, not refuse to start.
    tear_newest_segment(&dir);

    let daemon = Daemon::spawn(&dir);
    let mut client = await_ready(daemon.addr);

    // Health splits from readiness: alive the whole time, ready only now.
    let health = parse(&ok(client.get("/healthz"), 200));
    assert!(health.get("ok").unwrap().as_bool().unwrap());

    let stats = parse(&ok(client.get("/stats"), 200));
    let replayed = field_u64(&stats, "replayed_records");
    assert!(replayed >= 2 + acked as u64, "replayed only {replayed} records");
    assert!(field_u64(&stats, "last_checkpoint") > 0, "recovery must re-checkpoint");
    assert_eq!(field_u64(&stats, "journal_bytes"), 0);

    // The snapshot tells us how many burst documents actually survived
    // (the racer's doc may or may not have been durable): 25 acked is the
    // floor, 26 the ceiling.
    let snapshot = parse(&ok(client.post("/snapshot", ""), 200));
    let recovered = field_u64(&snapshot, "next_doc") as usize;
    assert!((acked..=acked + 1).contains(&recovered), "recovered {recovered} docs");
    assert_eq!(replayed, 2 + recovered as u64);

    // Bit-identical to an oracle that published exactly the recovered
    // prefix, never crashed, and never touched a journal.
    let mut qids = Vec::new();
    collect_qids(&snapshot, &mut qids);
    assert_eq!(qids, [0, 1]);
    let recovered_sets = result_sets(&mut client, &qids);
    assert!(recovered_sets.iter().any(|s| s != "[]"), "burst must produce results");
    assert_eq!(recovered_sets, oracle_result_sets(&bodies, recovered));

    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_replays_only_past_the_checkpoint() {
    let dir = temp_dir("checkpoint");
    let bodies = publish_bodies(25);

    let mut daemon = Daemon::spawn(&dir);
    let mut client = await_ready(daemon.addr);
    ok(client.post("/queries", REGISTER_A), 200);
    ok(client.post("/queries", REGISTER_B), 200);
    for body in &bodies[..10] {
        ok(client.post("/publish", body), 200);
    }

    // Checkpoint mid-burst: the snapshot response doubles as the journal's
    // truncation point.
    ok(client.post("/snapshot", ""), 200);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "last_checkpoint"), 12, "2 registers + 10 publishes");
    assert_eq!(field_u64(&stats, "journal_bytes"), 0);

    for body in &bodies[10..] {
        ok(client.post("/publish", body), 200);
    }
    daemon.kill9();

    let daemon = Daemon::spawn(&dir);
    let mut client = await_ready(daemon.addr);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert_eq!(field_u64(&stats, "replayed_records"), 15, "only the post-checkpoint tail replays");

    let snapshot = parse(&ok(client.post("/snapshot", ""), 200));
    assert_eq!(field_u64(&snapshot, "next_doc"), 25);
    let mut qids = Vec::new();
    collect_qids(&snapshot, &mut qids);
    assert_eq!(qids, [0, 1]);
    let recovered_sets = result_sets(&mut client, &qids);
    assert!(recovered_sets.iter().any(|s| s != "[]"));
    assert_eq!(recovered_sets, oracle_result_sets(&bodies, 25));

    // And the daemon is fully live after recovery: a fresh publish acks and
    // lands in the journal.
    ok(client.post("/publish", r#"{"terms": [[1, 0.9]], "arrival": 99.0}"#), 200);
    let stats = parse(&ok(client.get("/stats"), 200));
    assert!(field_u64(&stats, "journal_bytes") > 0);

    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

/// Registers one query on `term` with `k = 2` and returns its id.
fn register(client: &mut HttpClient, term: u32) -> u64 {
    let body = format!(r#"{{"terms": [[{term}, 1.0]], "k": 2}}"#);
    field_u64(&parse(&ok(client.post("/queries", &body), 200)), "query")
}

/// An id names one query across restarts: one restart that replays the
/// journal, then one from the checkpoint that recovery wrote, with a query
/// removed before both and one registered between them.
#[test]
fn query_ids_survive_a_journal_restart_and_a_checkpoint_restart() {
    let dir = temp_dir("ids");
    let mut daemon = Daemon::spawn(&dir);
    let mut client = await_ready(daemon.addr);
    assert_eq!([1, 2, 3].map(|term| register(&mut client, term)), [0, 1, 2]);
    ok(client.delete("/queries/0"), 200);
    ok(client.post("/publish", r#"{"terms": [[3, 1.0]], "arrival": 1.0}"#), 200);
    let before = result_sets(&mut client, &[1, 2]);
    assert_eq!(before[0], "[]");
    assert_ne!(before[1], "[]");
    daemon.kill9();

    // The journal replays, and recovery writes a checkpoint.
    let mut daemon = Daemon::spawn(&dir);
    let mut client = await_ready(daemon.addr);
    assert_eq!(result_sets(&mut client, &[1, 2]), before);
    assert_eq!(register(&mut client, 9), 3);
    daemon.kill9();

    // The checkpoint restores, and the register of query 3 replays.
    let daemon = Daemon::spawn(&dir);
    let mut client = await_ready(daemon.addr);
    assert_eq!(result_sets(&mut client, &[1, 2]), before);
    ok(client.get("/queries/0/results"), 404);
    let receipt =
        parse(&ok(client.post("/publish", r#"{"terms": [[9, 1.0]], "arrival": 2.0}"#), 200));
    let changes = receipt.get("changes").unwrap().as_array().unwrap();
    assert_eq!(changes.len(), 1);
    assert_eq!(field_u64(&changes[0], "query"), 3, "query 3 is the term-9 query");
    assert_eq!(register(&mut client, 4), 4, "no id is handed out twice");

    // Deleting query 1 removes the term-2 query and leaves the term-3 one.
    ok(client.delete("/queries/1"), 200);
    ok(client.get("/queries/1/results"), 404);
    let receipt =
        parse(&ok(client.post("/publish", r#"{"terms": [[2, 1.0]], "arrival": 3.0}"#), 200));
    assert!(receipt.get("changes").unwrap().as_array().unwrap().is_empty());
    assert_eq!(result_sets(&mut client, &[2]), before[1..]);

    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}
