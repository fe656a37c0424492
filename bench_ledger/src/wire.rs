//! The over-the-wire side: a `ctk-serve` child, closed-loop publishers on
//! real loopback sockets, and (on `wire_notify`) a long-polling subscriber.
//! Publishers wait for each receipt before sending the next request — that
//! is the API — and the connection counts are fixed, not scaled with the
//! machine: two on `wire_firehose`, one on `wire_notify`.

use crate::daemon::Daemon;
use crate::engine::Phase;
use crate::plan::{Plan, Workload, SLICES};
use crate::trace::Tracer;
use ctk_common::ScoredDoc;
use ctk_server::HttpClient;
use serde::{Deserialize, Value};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn other(message: String) -> io::Error {
    io::Error::other(message)
}

/// Issue a request that must answer 200; anything else aborts set-up.
fn expect_ok(client: &mut HttpClient, method: &str, path: &str, body: &str) -> io::Result<String> {
    match client.request(method, path, body)? {
        (200, body) => Ok(body),
        (status, body) => Err(other(format!("{method} {path} answered {status}: {body}"))),
    }
}

fn json(body: &str) -> io::Result<Value> {
    serde_json::from_str::<Value>(body).map_err(|e| other(format!("unparseable response: {e}")))
}

/// The unsigned integer that follows the first `key` in `text`, without
/// parsing the whole body: receipts and poll responses are large and the
/// client must stay cheap next to the daemon it measures.
fn number_after(text: &str, key: &str) -> Option<(u64, usize)> {
    let at = text.find(key)? + key.len();
    let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
    text[at..at + digits].parse().ok().map(|n| (n, at + digits))
}

/// What the publisher needs from a receipt: the id of its first document
/// (ids of one call are consecutive) and whether any result changed.
pub fn receipt_facts(receipt: &str) -> Option<(u64, bool)> {
    let (first_doc, _) = number_after(receipt, "\"doc_ids\":[")?;
    Some((first_doc, !receipt.contains("\"changes\":[]")))
}

/// A daemon after set-up: queries registered, warm-up published.
pub struct Wired {
    daemon: Daemon,
    control: HttpClient,
    publishers: Vec<HttpClient>,
    /// `wire_notify`: the subscriber id and its long-poll connection.
    subscriber: Option<(u64, HttpClient)>,
    /// Microseconds of each set-up `POST /queries` round trip.
    pub register_us: Vec<f64>,
}

pub fn setup(plan: &Plan, binary: &Path, journal: std::path::PathBuf) -> io::Result<Wired> {
    let daemon = Daemon::spawn(binary, journal, plan.shape.fsync)?;
    let mut control = daemon.connect()?;
    let mut register_us = Vec::with_capacity(plan.queries.len());
    for (slot, query) in plan.queries.iter().enumerate() {
        let start = Instant::now();
        let body = expect_ok(&mut control, "POST", "/queries", &query.body)?;
        register_us.push(start.elapsed().as_secs_f64() * 1e6);
        // A fresh daemon hands out ids in registration order; the oracle
        // check and the results reads below rely on slot == id.
        if number_after(&body, "\"query\":").map(|(id, _)| id) != Some(slot as u64) {
            return Err(other(format!("query {slot} was registered as {body}")));
        }
    }
    let connections = if plan.workload == Workload::WireFirehose { 2 } else { 1 };
    let mut publishers =
        (0..connections).map(|_| daemon.connect()).collect::<io::Result<Vec<_>>>()?;
    let mut subscriber = None;
    if plan.workload == Workload::WireNotify {
        let body = expect_ok(&mut control, "POST", "/subscriptions", "{}")?;
        let (id, _) = number_after(&body, "\"subscriber\":")
            .ok_or_else(|| other(format!("no subscriber id in {body}")))?;
        subscriber = Some((id, daemon.connect()?));
    }
    for (i, request) in plan.warm.iter().enumerate() {
        let publisher = &mut publishers[i % connections];
        expect_ok(publisher, "POST", "/publish", &request.body)?;
    }
    // Warm-up changes are not measured: empty the subscriber's ring.
    if let Some((id, client)) = &mut subscriber {
        while expect_ok(client, "GET", &format!("/changes?subscriber={id}&timeout_ms=0"), "")?
            .contains("\"inserted\"")
        {}
    }
    Ok(Wired { daemon, control, publishers, subscriber, register_us })
}

/// What one publisher thread saw of one call.
struct Receipt {
    call: usize,
    ms: f64,
    first_doc: u64,
    changed: bool,
}

/// State the publisher threads share.
struct Board<'a> {
    plan: &'a Plan,
    epoch: Instant,
    next: AtomicUsize,
    done: AtomicUsize,
    failed: AtomicU64,
    marks: Mutex<Vec<f64>>,
    /// Nanoseconds since `epoch` at which each measured call was sent.
    sent_ns: Vec<AtomicU64>,
}

/// One closed-loop publisher: take the next unsent call, send it, wait for
/// the receipt. Calls are handed out from a shared counter so two
/// connections finish together.
fn publish_loop(client: &mut HttpClient, board: &Board, tracer: &mut Tracer) -> Vec<Receipt> {
    let total = board.plan.measured.len();
    let per_slice = total / SLICES;
    let mut receipts = Vec::with_capacity(total);
    loop {
        let call = board.next.fetch_add(1, Ordering::SeqCst);
        if call >= total {
            return receipts;
        }
        let body = &board.plan.measured[call].body;
        tracer.begin_request(call as u64 + 1);
        let start = Instant::now();
        board.sent_ns[call].store((start - board.epoch).as_nanos() as u64, Ordering::SeqCst);
        let answer = tracer.span("client.roundtrip", |_| client.post("/publish", body));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let facts = match &answer {
            Ok((200, receipt)) => receipt_facts(receipt),
            _ => None,
        };
        match facts {
            Some((first_doc, changed)) => receipts.push(Receipt { call, ms, first_doc, changed }),
            None => {
                board.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
        let done = board.done.fetch_add(1, Ordering::SeqCst) + 1;
        if done.is_multiple_of(per_slice) {
            let mut marks = board.marks.lock().expect("no publisher panics holding the marks");
            marks.push(board.epoch.elapsed().as_secs_f64());
        }
    }
}

/// Long-poll `/changes` until the publisher is done and the ring is empty.
/// A document's notify latency runs from its publish send to the arrival of
/// the poll response carrying its first change. Returns the latencies and
/// how many polls failed.
fn subscribe_loop(
    id: u64,
    client: &mut HttpClient,
    board: &Board,
    first_doc: u64,
    publisher_done: &AtomicBool,
) -> (Vec<(usize, f64)>, u64) {
    let path = format!("/changes?subscriber={id}&timeout_ms=200");
    let mut seen = vec![false; board.sent_ns.len()];
    let mut notify_ms = Vec::new();
    loop {
        let finishing = publisher_done.load(Ordering::SeqCst);
        let body = match client.get(&path) {
            Ok((200, body)) => body,
            _ => return (notify_ms, 1),
        };
        let arrived = board.epoch.elapsed().as_nanos() as u64;
        let mut rest = body.as_str();
        let mut events = 0;
        while let Some((doc, end)) = number_after(rest, "\"inserted\":{\"doc\":") {
            rest = &rest[end..];
            events += 1;
            // Ids below `first_doc` are warm-up documents still in flight.
            let Some(call) = doc.checked_sub(first_doc).map(|c| c as usize) else { continue };
            if call < seen.len() && !std::mem::replace(&mut seen[call], true) {
                let sent = board.sent_ns[call].load(Ordering::SeqCst);
                notify_ms.push((call, arrived.saturating_sub(sent) as f64 / 1e6));
            }
        }
        if finishing && events == 0 {
            return (notify_ms, 0);
        }
    }
}

/// What the daemon reported once the measured phase was over.
pub struct Observed {
    pub phase: Phase,
    /// Measured calls in the order the daemon processed them.
    pub order: Vec<usize>,
    pub results: Vec<Vec<ScoredDoc>>,
    pub index_bytes_per_query: f64,
    pub peak_rss_mb: f64,
}

/// Run the plan's measured calls against the warmed-up daemon, then read
/// back `/stats`, the daemon's peak RSS and the sampled queries' results.
pub fn run_calls(plan: &Plan, mut wired: Wired, tracer: &mut Tracer) -> io::Result<Observed> {
    let calls = plan.measured.len();
    let warm_docs = (plan.warm.len() * plan.shape.batch) as u64;
    let board = Board {
        plan,
        epoch: Instant::now(),
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        failed: AtomicU64::new(0),
        marks: Mutex::new(Vec::with_capacity(SLICES)),
        sent_ns: (0..calls).map(|_| AtomicU64::new(0)).collect(),
    };
    let publisher_done = AtomicBool::new(false);
    let mut forks: Vec<Tracer> = wired.publishers.iter().map(|_| tracer.fork()).collect();
    let (receipts, notified) = std::thread::scope(|scope| {
        let listener = wired.subscriber.as_mut().map(|(id, client)| {
            let (board, done) = (&board, &publisher_done);
            scope.spawn(move || subscribe_loop(*id, client, board, warm_docs, done))
        });
        let publishers: Vec<_> = wired
            .publishers
            .iter_mut()
            .zip(&mut forks)
            .map(|(client, fork)| {
                let board = &board;
                scope.spawn(move || publish_loop(client, board, fork))
            })
            .collect();
        let mut receipts: Vec<Receipt> = publishers
            .into_iter()
            .flat_map(|thread| thread.join().expect("a publisher thread panicked"))
            .collect();
        receipts.sort_by_key(|r| r.call);
        publisher_done.store(true, Ordering::SeqCst);
        (receipts, listener.map(|thread| thread.join().expect("the subscriber thread panicked")))
    });
    for fork in forks {
        tracer.absorb(fork);
    }

    let marks = board.marks.into_inner().expect("publishers are joined");
    let mut phase = Phase {
        wall_s: *marks.last().ok_or_else(|| other("no slice completed".to_string()))?,
        marks,
        publish_ms: receipts.iter().map(|r| r.ms).collect(),
        attempted: calls as u64,
        failed: board.failed.into_inner(),
        ..Phase::default()
    };
    // Ids are handed out in processing order, so sorting by a call's first
    // document id recovers the order the daemon saw the calls in.
    let mut order: Vec<(u64, usize)> = receipts.iter().map(|r| (r.first_doc, r.call)).collect();
    order.sort_unstable();
    match notified {
        Some((notify_ms, failed_polls)) => {
            phase.notify_ms = notify_ms;
            phase.failed += failed_polls;
        }
        // No subscriber: the publisher's own receipt is where a change is
        // first seen.
        None => {
            phase.notify_ms =
                receipts.iter().filter(|r| r.changed).map(|r| (r.call, r.ms)).collect();
        }
    }

    let stats = json(&expect_ok(&mut wired.control, "GET", "/stats", "")?)?;
    let field = |name: &str| {
        stats
            .get(name)
            .and_then(|v| v.as_u64().ok())
            .ok_or_else(|| other(format!("/stats has no {name}")))
    };
    let expected_docs = warm_docs + plan.measured_docs();
    if field("docs_published")? != expected_docs {
        phase.failed += 1;
    }
    let index_bytes_per_query = field("index_bytes")? as f64 / field("queries")? as f64;
    let peak_rss_mb = wired.daemon.peak_rss_mb()?;

    let mut results = Vec::new();
    for slot in plan.oracle_slots() {
        let body = expect_ok(&mut wired.control, "GET", &format!("/queries/{slot}/results"), "")?;
        let value = json(&body)?;
        let parsed = value.get("results").map(Vec::<ScoredDoc>::from_value);
        results.push(
            parsed.and_then(Result::ok).ok_or_else(|| other(format!("bad results: {body}")))?,
        );
    }
    Ok(Observed {
        phase,
        order: order.into_iter().map(|(_, call)| call).collect(),
        results,
        index_bytes_per_query,
        peak_rss_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_after_reads_ids_without_parsing_the_body() {
        let receipt = r#"{"doc_ids":[640,641],"changes":[],"stats":[]}"#;
        assert_eq!(number_after(receipt, "\"doc_ids\":["), Some((640, 15)));
        assert_eq!(receipt_facts(receipt), Some((640, false)));
        assert_eq!(receipt_facts(r#"{"doc_ids":[7],"changes":[{"query":1}]}"#), Some((7, true)));
        assert_eq!(number_after(receipt, "\"missing\":"), None);
        assert_eq!(number_after(r#"{"doc_ids":[]}"#, "\"doc_ids\":["), None);
        let poll = r#"{"events":[{"seq":0,"change":{"query":3,"inserted":{"doc":12,"score":0.5},"evicted":{"doc":4,"score":0.1}}}]}"#;
        let (doc, end) = number_after(poll, "\"inserted\":{\"doc\":").unwrap();
        assert_eq!(doc, 12);
        assert_eq!(number_after(&poll[end..], "\"inserted\":{\"doc\":"), None);
    }
}
