//! HTTP load harness: drive a `ctk-server` daemon over real loopback
//! sockets and measure the wire-level publish path.
//!
//! ```text
//! cargo run -p ctk-bench --release --bin http_load -- \
//!     --addr 127.0.0.1:8722 [--queries 200] [--docs 2000] [--batch 64] \
//!     [--drain] [--out http_load] [--acked-log PATH]
//! ```
//!
//! Any other flag, a flag without its value, or a value that does not parse
//! exits 2 naming it ([`ctk_bench::cli`]).
//!
//! `--addr` names an already-running daemon (start one with `ctk-serve`);
//! the report's `engine` is the one its `/stats` names. One subscriber
//! long-polls `GET /changes` from its own connection for the whole run, so
//! the measurement covers the full loop the paper cares about: publish →
//! match → change fan-out → notification. The run **fails** (exit 1) if
//! the change stream stays empty — a smoke gate CI relies on. With
//! `--drain` it finishes by draining the daemon and asserting that a late
//! publish is refused with 503 while buffered notifications still flush.
//!
//! Writes `results/<out>.json` (`schema_version` 3): batch-publish latency
//! percentiles, wire docs/sec, the subscriber's delivery counters beside the
//! changes the receipts reported (`changes_published`; the subscriber
//! joined before the first publish, so `changes_received + changes_dropped`
//! must equal it), and the admission counters — how often a publish drew
//! `429 Too Many Requests` (`rejects`) and was retried after honoring
//! `Retry-After` (`retries`).
//! Against a blocking-admission daemon both stay 0; against a rejecting
//! one they measure how hard the publisher actually pushed.
//!
//! `--acked-log PATH` appends one line per *acked* publish — the receipt's
//! `doc_ids`, flushed before the next batch goes out. Crash-recovery CI
//! kills the daemon mid-run and uses this file as the ground truth for
//! which documents the server acknowledged and therefore must not lose.

use ctk_bench::cli::{Flags, Spec};
use ctk_bench::write_json_report;
use ctk_server::HttpClient;
use ctk_stream::{
    ArrivalClock, CorpusConfig, QueryGenerator, QueryWorkload, StreamDriver, WorkloadConfig,
};
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct LatencyMs {
    p50: f64,
    p95: f64,
    max: f64,
}

#[derive(Serialize)]
struct Report {
    schema_version: u32,
    engine: String,
    queries: usize,
    docs: usize,
    batch: usize,
    elapsed_sec: f64,
    docs_per_sec: f64,
    publish_latency_ms: LatencyMs,
    changes_published: u64,
    changes_received: u64,
    changes_dropped: u64,
    rejects: u64,
    retries: u64,
    drained: bool,
}

const FLAGS: Spec = Spec {
    program: "http_load",
    valued: &["--addr", "--queries", "--docs", "--batch", "--out", "--acked-log"],
    switches: &["--drain"],
};

fn die(message: impl std::fmt::Display) -> ! {
    eprintln!("http_load: {message}");
    std::process::exit(1);
}

fn terms_json(pairs: &[(ctk_common::TermId, f32)]) -> String {
    let entries: Vec<String> = pairs.iter().map(|(t, w)| format!("[{},{}]", t.0, w)).collect();
    format!("[{}]", entries.join(","))
}

/// Expect a given status, surfacing the body on mismatch.
fn expect(status_body: std::io::Result<(u16, String)>, want: u16, what: &str) -> String {
    match status_body {
        Err(e) => die(format!("{what}: transport error: {e}")),
        Ok((status, body)) if status == want => body,
        Ok((status, body)) => die(format!("{what}: expected {want}, got {status}: {body}")),
    }
}

fn json(body: &str, what: &str) -> Value {
    match serde_json::from_str::<Value>(body) {
        Ok(value) => value,
        Err(e) => die(format!("{what}: unparseable response body: {e}")),
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Long-poll `GET /changes` until the server drains or the run ends;
/// returns `(events, dropped)` as counted from the wire.
fn poll_changes(addr: SocketAddr, subscriber: u64, done: Arc<AtomicBool>) -> (u64, u64) {
    let mut client = HttpClient::connect(addr).unwrap_or_else(|e| die(format!("poller: {e}")));
    client.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let (mut events, mut dropped) = (0u64, 0u64);
    loop {
        let body = expect(
            client.get(&format!("/changes?subscriber={subscriber}&timeout_ms=500")),
            200,
            "poll",
        );
        let poll = json(&body, "poll");
        let batch = poll.get("events").and_then(|e| e.as_array().ok().map(<[Value]>::len));
        events += batch.unwrap_or(0) as u64;
        dropped += poll.get("dropped").and_then(|d| d.as_u64().ok()).unwrap_or(0);
        let draining = poll.get("draining").and_then(|d| d.as_bool().ok()).unwrap_or(false);
        if (draining || done.load(Ordering::SeqCst)) && batch == Some(0) {
            return (events, dropped);
        }
    }
}

fn main() {
    let flags = Flags::from_env(FLAGS);
    let queries: usize = flags.parsed_or_exit("--queries").unwrap_or(200);
    let docs: usize = flags.parsed_or_exit("--docs").unwrap_or(2_000);
    let batch: usize = flags.parsed_or_exit("--batch").unwrap_or(64).max(1);
    let out = flags.value("--out").unwrap_or("http_load").to_string();
    let drain = flags.switch("--drain");
    let addr: SocketAddr = flags
        .parsed_or_exit("--addr")
        .unwrap_or_else(|| FLAGS.usage_exit("--addr HOST:PORT is required"));
    let mut acked_log = flags.value("--acked-log").map(|path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| die(format!("cannot open acked log {path}: {e}")))
    });
    println!("http_load: target http://{addr} ({queries} queries, {docs} docs x{batch})");

    let mut client = HttpClient::connect(addr).unwrap_or_else(|e| die(format!("connect: {e}")));
    client.set_read_timeout(Some(Duration::from_secs(30))).ok();
    expect(client.get("/healthz"), 200, "healthz");

    // Register the query population; a connected workload over a smallish
    // vocabulary so the stream actually moves result sets.
    let corpus = CorpusConfig { vocab_size: 2_000, avg_tokens: 30, ..CorpusConfig::default() };
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, k: 5, ..WorkloadConfig::default() };
    let mut qgen = QueryGenerator::new(workload, &corpus);
    for _ in 0..queries {
        let spec = qgen.generate();
        let pairs: Vec<_> = spec.vector.iter().collect();
        let body = format!("{{\"terms\":{},\"k\":{}}}", terms_json(&pairs), spec.k);
        expect(client.post("/queries", &body), 200, "register");
    }

    // One unfiltered subscriber, polled from its own connection.
    let body = expect(client.post("/subscriptions", "{}"), 200, "subscribe");
    let subscriber = json(&body, "subscribe")
        .get("subscriber")
        .and_then(|s| s.as_u64().ok())
        .unwrap_or_else(|| die("subscribe: no subscriber id in response"));
    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || poll_changes(addr, subscriber, done))
    };

    // The measured section: publish the stream in batches, wire round-trip
    // latency per batch.
    let mut driver = StreamDriver::new(corpus, ArrivalClock::unit());
    let stream: Vec<_> = driver.by_ref().take(docs).collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(docs / batch + 1);
    let (mut rejects, mut retries) = (0u64, 0u64);
    let mut changes_published = 0u64;
    let start = Instant::now();
    for chunk in stream.chunks(batch) {
        let docs_json: Vec<String> = chunk
            .iter()
            .map(|d| {
                let pairs: Vec<_> = d.vector.iter().collect();
                format!("{{\"terms\":{},\"arrival\":{}}}", terms_json(&pairs), d.arrival)
            })
            .collect();
        let body = format!("{{\"docs\":[{}]}}", docs_json.join(","));
        // Publish until admitted: a 429 means the daemon's ingest queue is
        // full, so honor its Retry-After and resubmit the same batch. The
        // recorded latency is the *accepted* attempt's round trip.
        loop {
            let sent = Instant::now();
            match client.post("/publish", &body) {
                Err(e) => die(format!("publish: transport error: {e}")),
                Ok((200, body)) => {
                    latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    let receipt = json(&body, "publish receipt");
                    changes_published += receipt
                        .get("changes")
                        .and_then(|c| c.as_array().ok().map(<[Value]>::len))
                        .unwrap_or_else(|| die("publish receipt has no changes array"))
                        as u64;
                    // Record the ack *now*, flushed, so a daemon crash after
                    // this point cannot erase the evidence that it acked.
                    if let Some(log) = acked_log.as_mut() {
                        let ids = receipt
                            .get("doc_ids")
                            .map(|v| serde_json::to_string(v).expect("doc_ids serialize"))
                            .unwrap_or_else(|| die("publish receipt has no doc_ids"));
                        use std::io::Write;
                        writeln!(log, "{ids}")
                            .and_then(|()| log.flush())
                            .unwrap_or_else(|e| die(format!("acked log write: {e}")));
                    }
                    break;
                }
                Ok((429, _)) => {
                    rejects += 1;
                    let backoff = client.retry_after().unwrap_or(1.0).min(5.0);
                    std::thread::sleep(Duration::from_secs_f64(backoff));
                    retries += 1;
                }
                Ok((status, body)) => die(format!("publish: expected 200, got {status}: {body}")),
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    let stats = json(&expect(client.get("/stats"), 200, "stats"), "stats");
    let published = stats.get("docs_published").and_then(|d| d.as_u64().ok()).unwrap_or(0);
    if published < docs as u64 {
        die(format!("server saw {published} docs, expected at least {docs}"));
    }

    let drained = if drain {
        expect(client.post("/admin/drain", ""), 202, "drain");
        // The drained daemon must refuse late publishes...
        expect(client.post("/publish", "{\"terms\":[[1,1.0]]}"), 503, "post-drain publish");
        // ...while still serving reads.
        expect(client.get("/stats"), 200, "post-drain stats");
        true
    } else {
        done.store(true, Ordering::SeqCst);
        false
    };
    let (changes_received, changes_dropped) =
        poller.join().unwrap_or_else(|_| die("poller thread panicked"));
    if changes_received == 0 {
        die("no change events reached the subscriber — the wire loop is broken");
    }

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let report = Report {
        schema_version: 3,
        engine: stats.get("engine").and_then(|e| e.as_str().ok()).unwrap_or_default().to_string(),
        queries,
        docs,
        batch,
        elapsed_sec: elapsed,
        docs_per_sec: docs as f64 / elapsed,
        publish_latency_ms: LatencyMs {
            p50: percentile(&latencies_ms, 0.50),
            p95: percentile(&latencies_ms, 0.95),
            max: percentile(&latencies_ms, 1.0),
        },
        changes_published,
        changes_received,
        changes_dropped,
        rejects,
        retries,
        drained,
    };
    let path = write_json_report(&out, &report).unwrap_or_else(|e| die(format!("report: {e}")));
    println!(
        "http_load: {:.0} docs/sec over the wire, publish p50 {:.2} ms / p95 {:.2} ms, \
         {changes_received} of {changes_published} changes ({changes_dropped} dropped), \
         {rejects} rejects / {retries} retries -> {}",
        report.docs_per_sec,
        report.publish_latency_ms.p50,
        report.publish_latency_ms.p95,
        path.display()
    );
}
