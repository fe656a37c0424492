//! The per-layer side of a `--trace` run: the same seeded inputs replayed
//! through each layer's **public functions**, a span around every call.
//!
//! [`Chain`] carries one publish through the functions the daemon's publish
//! path calls, in the daemon's order, minus sockets, the queue hop and
//! thread wake-ups — which is exactly what `server.transport.residual_us`
//! then attributes to transport. The probes below build a `QueryIndex` and a
//! `CompressedList` from the workload's own queries.

use crate::inputs;
use crate::plan::Plan;
use crate::stats::median;
use crate::trace::Tracer;
use ctk_common::QueryId;
use ctk_core::{
    Admission, MonitorBackend, PublishReceipt, PublishRequest, ReplayCommand, StorageConfig,
};
use ctk_index::QueryIndex;
use ctk_server::http::{Request, Response};
use ctk_server::{wire, FsyncPolicy, Journal, JournalConfig, SubscriberRegistry};
use ctk_storage::{CompressedList, StoreContext};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// The daemon's default per-subscriber ring (`ServeConfig::subscriber_buffer`).
const SUBSCRIBER_BUFFER: usize = 1024;

/// The span names a wire publish crosses, in order. Their medians are what
/// `server.transport.residual_us` subtracts from the wire `publish_p50_ms`;
/// `server.journal.append` stands for the `_sync` or the `_nosync` span,
/// whichever the workload's daemon does.
pub const WIRE_STAGES: [&str; 7] = [
    "server.http.parse",
    "server.wire.decode",
    "server.journal.append",
    "core.publish",
    "server.subscribers.fanout",
    "server.wire.encode",
    "server.http.write",
];

pub struct Chain {
    journal_sync: Journal,
    journal_nosync: Journal,
    registry: SubscriberRegistry,
    subscriber: u64,
    /// Counts since the last [`Chain::start_counting`].
    pub docs: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub events: u64,
    /// Journal bytes and registry `(delivered, dropped)` when counting began.
    base: (u64, u64, u64),
}

impl Chain {
    /// Two journals on the real disk under `dir` (`fsync=always` as the
    /// `wire_firehose` daemon runs it, `fsync=never` as `wire_notify`'s does;
    /// the difference prices the sync itself) and one
    /// unfiltered subscriber that polls after every publish.
    pub fn open(dir: &Path) -> io::Result<Chain> {
        let open = |name: &str, policy| {
            Journal::open(JournalConfig::new(dir.join(name)).fsync(policy)).map(|(j, _)| j)
        };
        let registry = SubscriberRegistry::new(SUBSCRIBER_BUFFER);
        let subscriber = registry.subscribe(None);
        Ok(Chain {
            journal_sync: open("chain-sync", FsyncPolicy::Always)?,
            journal_nosync: open("chain-nosync", FsyncPolicy::Never)?,
            registry,
            subscriber,
            docs: 0,
            request_bytes: 0,
            response_bytes: 0,
            events: 0,
            base: (0, 0, 0),
        })
    }

    /// Forget what warm-up counted: the per-document figures cover the
    /// measured calls only.
    pub fn start_counting(&mut self) {
        let (delivered, dropped) = self.registry.totals();
        self.base = (self.journal_sync.bytes(), delivered, dropped);
        (self.docs, self.request_bytes, self.response_bytes, self.events) = (0, 0, 0, 0);
    }

    /// One publish, client to client: encode, frame, parse, decode, journal,
    /// walk, fan out, encode the receipt, frame it, read it.
    pub fn publish(
        &mut self,
        tracer: &mut Tracer,
        backend: &mut dyn MonitorBackend,
        request: &PublishRequest,
    ) -> PublishReceipt {
        tracer.span("staged.publish", |t| {
            let body = t.span("client.encode", |_| inputs::encode_publish(request.docs(), None));
            // The head `HttpClient::request` writes, byte for byte.
            let mut raw = format!(
                "POST /publish HTTP/1.1\r\nhost: ctk\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(body.as_bytes());
            let parsed = t
                .span("server.http.parse", |_| Request::read_from(&mut raw.as_slice()))
                .expect("a well-formed request parses")
                .expect("the request is not empty");
            let publish = t
                .span("server.wire.decode", |_| {
                    let text = parsed.body_str()?;
                    wire::parse_publish(&wire::parse_body(text)?)
                })
                .expect("an encoded publish decodes");
            t.span("server.journal.append_sync", |_| {
                self.journal_sync.append(&ReplayCommand::publish(&publish))
            })
            .expect("journal append (fsync=always)");
            t.span("server.journal.append_nosync", |_| {
                self.journal_nosync.append(&ReplayCommand::publish(&publish))
            })
            .expect("journal append (fsync=never)");
            let docs = publish.len() as u64;
            let receipt = t.span("core.publish", |_| backend.publish_request(publish));
            self.events += t.span("server.subscribers.fanout", |_| self.registry.fanout(&receipt));
            // A subscriber that keeps up: drain its ring before the next call.
            self.registry.poll(self.subscriber, usize::MAX, Duration::ZERO);
            let response = t.span("server.wire.encode", |_| {
                let mut value = receipt.to_value();
                if let Value::Object(entries) = &mut value {
                    entries.push(("admission".to_string(), Admission::Accepted.to_value()));
                }
                serde_json::to_string(&value)
            });
            let response = Response::json(200, response.expect("a receipt serializes"));
            let mut framed = Vec::new();
            t.span("server.http.write", |_| response.write_to(&mut framed, true))
                .expect("writing to a Vec cannot fail");
            // What the benchmark's own wire client does with a receipt. (A
            // full `PublishReceipt` decode is not staged: the vendored JSON
            // parser re-validates the rest of its input for every string
            // character, which on these receipts costs 0.04 to 1.5 s each.)
            t.span("client.decode", |_| crate::wire::receipt_facts(&response.body))
                .expect("an encoded receipt names its first document");
            self.docs += docs;
            self.request_bytes += raw.len() as u64;
            self.response_bytes += framed.len() as u64;
            receipt
        })
    }

    /// Journal bytes appended (with `fsync=always`) while counting.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_sync.bytes() - self.base.0
    }

    /// Events dropped over events enqueued while counting.
    pub fn dropped_share(&self) -> f64 {
        let (delivered, dropped) = self.registry.totals();
        let (delivered, dropped) = (delivered - self.base.1, dropped - self.base.2);
        if delivered == 0 {
            0.0
        } else {
            dropped as f64 / delivered as f64
        }
    }
}

/// Re-register and snapshot: the lifecycle calls no publish path makes, on
/// the sampled standing queries. Returns `(snapshot_ms, snapshot bytes)`.
pub fn lifecycle_probe(
    plan: &Plan,
    backend: &mut dyn MonitorBackend,
    ids: &mut [QueryId],
    tracer: &mut Tracer,
) -> (f64, usize) {
    for slot in plan.oracle_slots() {
        let spec = plan.queries[slot].spec.clone();
        let old = ids[slot];
        tracer.span("core.unregister", |_| backend.unregister(old));
        ids[slot] = tracer.span("core.register", |_| backend.register(spec));
    }
    let start = Instant::now();
    let snapshot = tracer.span("core.snapshot", |_| backend.snapshot());
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, snapshot.to_json().expect("a snapshot serializes").len())
}

/// `index.*`: a `QueryIndex` with the workload's storage, built from the
/// workload's queries; a third of them unregistered, then compacted.
pub fn index_probe(plan: &Plan, tracer: &mut Tracer, out: &mut BTreeMap<&'static str, f64>) {
    let mut index = QueryIndex::with_storage(&StorageConfig::new(plan.shape.storage));
    let ids: Vec<QueryId> = plan
        .queries
        .iter()
        .map(|q| tracer.span("index.register", |_| index.register(&q.spec.vector, q.spec.k as u32)))
        .collect();
    out.insert("index.heap_bytes_per_query", index.heap_bytes() as f64 / ids.len() as f64);
    for &id in ids.iter().step_by(3) {
        tracer.span("index.unregister", |_| index.unregister(id));
    }
    out.insert("index.tombstone_ratio", index.tombstone_ratio());
    let start = Instant::now();
    tracer.span("index.compact", |_| index.compact());
    out.insert("index.compact_ms", start.elapsed().as_secs_f64() * 1e3);
    out.insert("index.register_us", median(&tracer.durations_us("index.register")));
    out.insert("index.unregister_us", median(&tracer.durations_us("index.unregister")));
}

/// `storage.*`: a `CompressedList` holding the longest postings list the
/// workload's queries produce, rebuilt until at least `MIN_PUSHES` pushes
/// were timed.
pub fn storage_probe(plan: &Plan, tracer: &mut Tracer, out: &mut BTreeMap<&'static str, f64>) {
    const MIN_PUSHES: usize = 50_000;
    let mut lists: BTreeMap<u32, Vec<(u32, f32)>> = BTreeMap::new();
    for (qid, query) in plan.queries.iter().enumerate() {
        for (term, weight) in query.spec.vector.iter() {
            lists.entry(term.0).or_default().push((qid as u32, weight));
        }
    }
    let longest =
        lists.into_values().max_by_key(Vec::len).expect("a workload has at least one query");
    let cx = StoreContext::raw();
    let rebuilds = MIN_PUSHES.div_ceil(longest.len());
    let mut list = CompressedList::new();
    let push_ns = tracer.span("storage.push", |_| {
        let start = Instant::now();
        for _ in 0..rebuilds {
            list = CompressedList::new();
            for &(qid, weight) in &longest {
                list.push(qid, weight, &cx);
            }
        }
        start.elapsed().as_nanos() as f64 / (rebuilds * longest.len()) as f64
    });
    let scan_ns = tracer.span("storage.scan", |_| {
        let start = Instant::now();
        let mut sum = 0.0f64;
        for _ in 0..rebuilds {
            list.for_each_live(|qid, weight| sum += f64::from(qid) * f64::from(weight));
        }
        black_box(sum);
        start.elapsed().as_nanos() as f64 / (rebuilds * longest.len()) as f64
    });
    // Every 7th id from the front, the forward-seek pattern of a pivot walk.
    let targets: Vec<u32> = longest.iter().step_by(7).map(|&(qid, _)| qid).collect();
    let seek_ns = tracer.span("storage.seek", |_| {
        let start = Instant::now();
        let mut landed = 0usize;
        for _ in 0..rebuilds {
            let mut from = 0;
            for &target in &targets {
                from = list.seek(from, target);
                landed += from;
            }
        }
        black_box(landed);
        start.elapsed().as_nanos() as f64 / (rebuilds * targets.len()) as f64
    });
    out.insert("storage.push_ns", push_ns);
    out.insert("storage.scan_ns_per_posting", scan_ns);
    out.insert("storage.seek_ns", seek_ns);
    out.insert("storage.bytes_per_posting", list.heap_bytes() as f64 / list.len() as f64);
}

/// A fixed memory-latency kernel: a dependent pointer chase over 32 MiB, far
/// beyond the last-level cache. Its time labels a run taken while the host
/// was in a slow regime; it is never subtracted from anything.
pub struct HostProbe {
    next: Vec<u32>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        const SLOTS: usize = 8 << 20;
        // Sattolo's algorithm: one cycle through every slot.
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        HostProbe { next }
    }

    /// Milliseconds for 200 000 dependent loads.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..200_000 {
            at = self.next[at as usize];
        }
        black_box(at);
        start.elapsed().as_secs_f64() * 1e3
    }
}
