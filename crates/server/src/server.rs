//! The daemon itself: one ingest thread owning the backend, an accept loop
//! spawning per-connection handlers, and the route table tying the wire API
//! to both.
//!
//! # Threading model
//!
//! Every backend operation is linearized through a single **ingest thread**
//! that owns the `Box<dyn MonitorBackend + Send>`. Connection handlers
//! never touch the backend; they enqueue a `Command` carrying a
//! one-shot reply channel onto a *bounded* crossbeam channel and block on
//! the reply. The bound is the backpressure mechanism: when publishers
//! outrun the monitor, their handler threads block in `send`, which blocks
//! their sockets, which pushes back on the clients — no queue ever grows
//! without bound. Fan-out to subscribers happens on the ingest thread
//! *before* the publisher gets its receipt, so publish-then-poll is
//! deterministic: once `POST /publish` returns, every subscriber can see
//! the receipt's changes.
//!
//! Each change crosses JSON once. Fan-out prints a receipt's changes on the
//! ingest thread ([`SubscriberRegistry::fanout_json`]); each subscriber
//! buffer keeps a copy of its changes' bytes for its polls, and the text
//! travels back with the receipt for the publish handler to splice into the
//! response ([`publish_body`]). With nobody subscribed, or for a quiet
//! receipt, the ingest thread prints nothing and the handler prints the
//! changes into the same body itself.
//!
//! # Drain and shutdown
//!
//! [`CtkServer::drain`] is the graceful half: new publishes (and restores)
//! are refused with 503, a barrier command flushes everything already
//! queued, and long-pollers are woken to read out their buffered events
//! with `draining: true`. Reads (`results`, `stats`, `snapshot`) keep
//! working — a drained server is exactly the right moment to snapshot.
//! [`CtkServer::shutdown`] drains, stops the ingest thread, unblocks the
//! accept loop and joins both.
//!
//! # Durability
//!
//! With [`ServerBuilder::journal_dir`] set, every mutating command is
//! appended to a write-ahead [`Journal`] *before* it is acked (registers
//! journal right after the id is assigned, rolling back on a failed
//! append). On startup the ingest thread restores the latest checkpoint,
//! replays the journal tail, re-checkpoints so the on-disk state speaks
//! the new process's id space, and only then reports ready — `GET /readyz`
//! answers `503 warming` until replay finishes, while `GET /healthz` stays
//! pure liveness.

use crate::http::{self, Request, Response};
use crate::journal::{self, FsyncPolicy, Journal, JournalConfig, Recovery};
use crate::subscribers::{self, SubscriberRegistry};
use crate::wire;
use continuous_topk::{EngineKind, MonitorBuilder};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use ctk_common::{Namespace, QueryId, ScoredDoc};
use ctk_core::{
    Admission, NamespaceStats, PostingsStorage, PublishReceipt, PublishRequest, QueryOptions,
    ReplayCommand, Replayer, RetentionPolicy, Snapshot, StorageStats,
};
use serde::{Number, Serialize, Value};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Longest a single long-poll may block server-side, whatever the client
/// asks for. Clients needing more re-issue the poll; this bounds how long a
/// handler thread can sit in the registry's condvar.
const MAX_POLL_TIMEOUT: Duration = Duration::from_secs(30);

/// Idle-read timeout on keep-alive connections: how often a parked handler
/// thread re-checks whether the server is stopping.
const IDLE_RECHECK: Duration = Duration::from_secs(5);

/// What a publish handler does when the bounded ingest queue is full — the
/// server's typed backpressure policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdmissionPolicy {
    /// Block the handler thread in `send` until a slot frees (the classic
    /// TCP-backpressure behavior: a slow monitor pushes back on publishers
    /// through their own sockets). The default.
    #[default]
    Block,
    /// Refuse immediately with HTTP 429 + `Retry-After` and an
    /// [`Admission::Overloaded`] body instead of blocking. `retry_after` is
    /// the hint (in seconds) sent to the client.
    Reject {
        /// Seconds the client should wait before retrying (also sent as the
        /// `Retry-After` header, rounded up to whole seconds, minimum 1).
        retry_after: f64,
    },
}

impl AdmissionPolicy {
    /// The `Retry-After` header value: whole seconds, rounded up, min 1.
    fn retry_after_secs(retry_after: f64) -> u64 {
        retry_after.ceil().max(1.0) as u64
    }
}

/// Configures and starts a [`CtkServer`]. Forwards the [`MonitorBuilder`]
/// knobs, then adds the server-side ones (queue depth, admission policy,
/// subscriber delivery limits, the journal), one flat setter each. Setters
/// only record values; [`ServerBuilder::bind`] refuses any it cannot run.
///
/// ```no_run
/// use ctk_server::{AdmissionPolicy, ServerBuilder};
/// use continuous_topk::EngineKind;
///
/// let server = ServerBuilder::new(EngineKind::Mrio)
///     .lambda(1e-3)
///     .shards(4)
///     .queue_depth(32)
///     .admission(AdmissionPolicy::Reject { retry_after: 0.25 })
///     .bind("127.0.0.1:0")
///     .unwrap();
/// println!("listening on {}", server.addr());
/// ```
#[derive(Clone)]
pub struct ServerBuilder {
    monitor: MonitorBuilder,
    engine: EngineKind,
    queue_depth: usize,
    subscriber_buffer: usize,
    max_poll_events: usize,
    admission: AdmissionPolicy,
    journal_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    journal_max_bytes: u64,
}

impl ServerBuilder {
    /// Start from an engine choice with default knobs everywhere.
    pub fn new(engine: EngineKind) -> ServerBuilder {
        ServerBuilder {
            monitor: MonitorBuilder::new(engine),
            engine,
            queue_depth: 16,
            subscriber_buffer: 1024,
            max_poll_events: 512,
            admission: AdmissionPolicy::Block,
            journal_dir: None,
            fsync: FsyncPolicy::Always,
            journal_max_bytes: 64 * 1024 * 1024,
        }
    }

    // --- MonitorBuilder knobs, forwarded verbatim. ---

    /// Decay parameter λ, finite and `>= 0` (see [`MonitorBuilder::lambda`]).
    pub fn lambda(mut self, lambda: f64) -> ServerBuilder {
        self.monitor = self.monitor.lambda(lambda);
        self
    }

    /// Shard count, at least 1; more than 1 builds a sharded backend.
    pub fn shards(mut self, shards: usize) -> ServerBuilder {
        self.monitor = self.monitor.shards(shards);
        self
    }

    /// Index compaction threshold.
    pub fn compact_at(mut self, ratio: f64) -> ServerBuilder {
        self.monitor = self.monitor.compact_at(ratio);
        self
    }

    /// Postings-storage backend (see [`MonitorBuilder::postings_storage`]).
    pub fn postings_storage(mut self, storage: PostingsStorage) -> ServerBuilder {
        self.monitor = self.monitor.postings_storage(storage);
        self
    }

    /// RAM budget for paged storage (see [`MonitorBuilder::page_budget`]).
    pub fn page_budget(mut self, bytes: usize) -> ServerBuilder {
        self.monitor = self.monitor.page_budget(bytes);
        self
    }

    // --- Server-side knobs. ---

    /// In-flight command bound of the ingest queue, at least 1 (default
    /// 16). Publish handlers block (or are refused, per
    /// [`ServerBuilder::admission`]) once this many commands are queued —
    /// the backpressure knob.
    pub fn queue_depth(mut self, depth: usize) -> ServerBuilder {
        self.queue_depth = depth;
        self
    }

    /// Per-subscriber buffered-change cap (default 1024); beyond it the
    /// oldest events are dropped and the gap is reported on the next poll.
    pub fn subscriber_buffer(mut self, capacity: usize) -> ServerBuilder {
        self.subscriber_buffer = capacity;
        self
    }

    /// Most events one `GET /changes` response may carry, at least 1
    /// (default 512).
    pub fn max_poll_events(mut self, max: usize) -> ServerBuilder {
        self.max_poll_events = max;
        self
    }

    /// Full-queue behavior on the publish path (see [`AdmissionPolicy`];
    /// default [`AdmissionPolicy::Block`]).
    pub fn admission(mut self, policy: AdmissionPolicy) -> ServerBuilder {
        self.admission = policy;
        self
    }

    /// Enable the write-ahead publish journal in `dir`: every mutating
    /// command becomes durable (per [`ServerBuilder::fsync`]) before it is
    /// acked, and a restart replays the tail past the latest checkpoint.
    /// Without one (the default) the daemon is memory-only.
    pub fn journal_dir(mut self, dir: impl Into<PathBuf>) -> ServerBuilder {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Journal fsync policy (see [`FsyncPolicy`]; default `always`).
    pub fn fsync(mut self, policy: FsyncPolicy) -> ServerBuilder {
        self.fsync = policy;
        self
    }

    /// Journal segment rotation threshold in bytes (default 64 MiB).
    pub fn journal_max_bytes(mut self, bytes: u64) -> ServerBuilder {
        self.journal_max_bytes = bytes;
        self
    }

    /// The first knob this configuration cannot run with, as an
    /// `InvalidInput` error naming it.
    fn check(&self) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if let Err(msg) = self.monitor.check() {
            return invalid(msg);
        }
        if self.queue_depth == 0 {
            return invalid("queue_depth must be at least 1".to_string());
        }
        if self.max_poll_events == 0 {
            return invalid("max_poll_events must be at least 1".to_string());
        }
        Ok(())
    }

    /// Bind a listener, spawn the ingest and accept threads, and return the
    /// running server. Bind to port 0 for an ephemeral port (tests).
    ///
    /// With a journal configured, the journal directory is opened and
    /// validated *here* — an unreadable checkpoint, a snapshot from a newer
    /// build, or mid-journal corruption fail the bind with a descriptive
    /// error (a torn final record does not; it is truncated). The
    /// restore-and-replay work itself happens on the ingest thread after
    /// `bind` returns: the server answers `503 warming` (and `GET /readyz`
    /// stays 503) until replay finishes.
    ///
    /// A knob the server cannot run with — zero `shards`, `queue_depth` or
    /// `max_poll_events`, or a negative or non-finite `lambda` — fails the
    /// bind with [`io::ErrorKind::InvalidInput`] naming it, before anything
    /// is opened.
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<CtkServer> {
        self.check()?;
        let journal = match &self.journal_dir {
            None => None,
            Some(dir) => {
                let config = JournalConfig::new(dir)
                    .fsync(self.fsync)
                    .max_segment_bytes(self.journal_max_bytes);
                Some(Journal::open(config)?)
            }
        };
        let warming = journal.as_ref().is_some_and(|(_, recovery)| !recovery.is_empty());
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let backend = self.monitor.build();
        let (tx, rx) = channel::bounded::<Command>(self.queue_depth);
        let shared = Arc::new(Shared {
            commands: tx,
            queue: QueueGauge {
                capacity: self.queue_depth,
                depth: AtomicUsize::new(0),
                highwater: AtomicUsize::new(0),
            },
            admission: self.admission,
            subscribers: SubscriberRegistry::new(self.subscriber_buffer),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            warming: AtomicBool::new(warming),
            journaled: journal.is_some(),
            max_poll_events: self.max_poll_events,
            engine: self.engine,
        });

        let ingest = {
            let shared = Arc::clone(&shared);
            let builder = self.monitor.clone();
            thread::Builder::new()
                .name("ctk-ingest".to_string())
                .spawn(move || ingest_loop(rx, backend, builder, journal, &shared))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ctk-accept".to_string())
                .spawn(move || accept_loop(listener, &shared))?
        };
        Ok(CtkServer { addr, shared, ingest: Some(ingest), accept: Some(accept) })
    }
}

/// A running daemon. Dropping it without [`CtkServer::shutdown`] leaves the
/// threads running for the life of the process (what a daemon `main` wants);
/// tests call `shutdown` for a clean join.
pub struct CtkServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    ingest: Option<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
}

impl CtkServer {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once [`CtkServer::drain`] has run (or `POST /admin/drain`).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// True while the ingest thread is still restoring the journal's
    /// checkpoint and replaying its tail (`GET /readyz` answers 503).
    pub fn is_warming(&self) -> bool {
        self.shared.warming.load(Ordering::SeqCst)
    }

    /// Gracefully drain: refuse new publishes with 503, finish the ones
    /// already queued, then wake every long-poller so it can flush its
    /// buffered events. Idempotent. Blocks until in-flight publishes have
    /// fanned out.
    pub fn drain(&self) {
        drain(&self.shared);
    }

    /// Drain, then stop and join the ingest and accept threads. Connection
    /// handlers are detached; any still parked on an idle keep-alive socket
    /// notice `stopping` within the idle-recheck interval and exit.
    pub fn shutdown(mut self) {
        self.drain();
        self.shared.stopping.store(true, Ordering::SeqCst);
        let _ = self.shared.enqueue(Command::Stop);
        if let Some(ingest) = self.ingest.take() {
            let _ = ingest.join();
        }
        // The accept loop is parked in `accept`; poke it with a connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Occupancy of the bounded ingest queue, maintained handler-side: the
/// vendored channel exposes no `len`, so handlers count commands in (at
/// enqueue, blocked senders included) and the ingest thread counts them
/// out (at receive). Feeds `GET /stats` and the `Enqueued { depth }`
/// admission state.
struct QueueGauge {
    capacity: usize,
    depth: AtomicUsize,
    highwater: AtomicUsize,
}

/// State shared by the accept loop, every connection handler, and the
/// ingest thread.
struct Shared {
    commands: Sender<Command>,
    queue: QueueGauge,
    admission: AdmissionPolicy,
    subscribers: SubscriberRegistry,
    draining: AtomicBool,
    stopping: AtomicBool,
    /// True from bind until the ingest thread has restored the journal's
    /// checkpoint and replayed its tail; every route except `/healthz` and
    /// `/readyz` answers 503 while set.
    warming: AtomicBool,
    /// Whether the ingest thread owns a journal (publish handlers frame
    /// the record it will append).
    journaled: bool,
    max_poll_events: usize,
    engine: EngineKind,
}

impl Shared {
    /// Enqueue a command, blocking while the queue is full. Returns the
    /// number of commands that were ahead of it, or `None` when the ingest
    /// thread is gone. Every producer goes through here (or
    /// [`Shared::try_enqueue`]) so the gauge stays balanced with the ingest
    /// loop's decrement.
    fn enqueue(&self, command: Command) -> Option<usize> {
        let ahead = self.queue.depth.fetch_add(1, Ordering::SeqCst);
        self.queue.highwater.fetch_max(ahead + 1, Ordering::SeqCst);
        if self.commands.send(command).is_err() {
            self.queue.depth.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(ahead)
    }

    /// Enqueue without blocking: `Err(None)` when the queue is full,
    /// `Err(Some(..))` rethrowing disconnection as unavailability.
    fn try_enqueue(&self, command: Command) -> Result<usize, TryEnqueueError> {
        let ahead = self.queue.depth.fetch_add(1, Ordering::SeqCst);
        match self.commands.try_send(command) {
            Ok(()) => {
                self.queue.highwater.fetch_max(ahead + 1, Ordering::SeqCst);
                Ok(ahead)
            }
            Err(e) => {
                self.queue.depth.fetch_sub(1, Ordering::SeqCst);
                match e {
                    TrySendError::Full(_) => Err(TryEnqueueError::Full),
                    TrySendError::Disconnected(_) => Err(TryEnqueueError::Gone),
                }
            }
        }
    }
}

enum TryEnqueueError {
    Full,
    Gone,
}

/// One backend operation, linearized through the ingest queue. Each carries
/// a one-shot reply channel; a handler whose reply channel dies (ingest
/// thread already stopped) reports 503. Mutating commands reply with a
/// `Result`: `Err` means the journal refused the write (→ 500), and the
/// command was **not** applied.
enum Command {
    Register(wire::RegisterRequest, Sender<Result<QueryId, String>>),
    Unregister(QueryId, Sender<Result<bool, String>>),
    Publish {
        request: PublishRequest,
        /// The request's journal payload — its body as received, framed
        /// by [`journal::publish_body_payload`] on the handler thread — so
        /// the ingest thread only stamps, checksums and writes it; `None`
        /// exactly when the server runs without a journal.
        record: Option<String>,
        /// The receipt, with its changes' JSON when fan-out printed it
        /// (see [`SubscriberRegistry::fanout_json`]).
        reply: Sender<Result<(PublishReceipt, Option<String>), String>>,
    },
    Results(QueryId, Sender<Option<Vec<ScoredDoc>>>),
    Stats(Sender<BackendStats>),
    /// Capture a snapshot; with a journal active this is a checkpoint (the
    /// snapshot lands in `checkpoint.json` and the journal truncates).
    Snapshot(Sender<Result<Snapshot, String>>),
    Restore(Box<Snapshot>, Sender<Result<RestoreOutcome, String>>),
    /// Install a namespace's retention policy (interning the name).
    SetRetention(String, RetentionPolicy, Sender<Result<(), String>>),
    /// Read a namespace's policy; outer `None` = unknown namespace, inner
    /// `None` = known but no policy installed.
    GetRetention(String, Sender<Option<Option<RetentionPolicy>>>),
    /// Bulk-remove a namespace's queries (`dry_run` only counts them);
    /// `None` = unknown namespace.
    Forget {
        namespace: String,
        dry_run: bool,
        reply: Sender<Result<Option<usize>, String>>,
    },
    /// Replies once everything queued before it has been processed.
    Barrier(Sender<()>),
    Stop,
}

/// The ingest thread's answer to a stats request.
struct BackendStats {
    queries: usize,
    shards: usize,
    lambda: f64,
    publishes: u64,
    docs_published: u64,
    expired: u64,
    evicted: u64,
    namespaces: Vec<NamespaceStats>,
    storage: StorageStats,
    /// Journal bytes appended since the last checkpoint (0 without a
    /// journal).
    journal_bytes: u64,
    /// Sequence number the latest checkpoint covers (0 = none).
    last_checkpoint: u64,
    /// Journal records replayed at startup.
    replayed_records: u64,
}

/// The ingest thread's answer to a restore: the new backend's query count
/// plus the captured-id → new-id mapping, sorted by captured id.
struct RestoreOutcome {
    queries: usize,
    mapping: Vec<(QueryId, QueryId)>,
}

/// Append `command` to the journal, if one is active. `Err` means the
/// command must not be applied (the caller replies 500 and the backend is
/// untouched).
fn journal_append(journal: &mut Option<Journal>, command: &ReplayCommand) -> Result<(), String> {
    match journal.as_mut() {
        None => Ok(()),
        Some(j) => j.append(command).map(|_| ()).map_err(|e| append_refused(command.op(), e)),
    }
}

fn append_refused(op: &str, e: impl std::fmt::Display) -> String {
    format!("journal append failed ({op} refused): {e}")
}

/// Restore the checkpoint and replay the journal tail into a fresh backend,
/// then re-checkpoint. The final checkpoint is not cosmetic: journal records
/// written *after* it will name query ids from **this** process's id space,
/// so the on-disk state must be re-anchored in that space before the first
/// new append — otherwise a second crash could replay new records against
/// the old checkpoint's ids.
fn recover(
    backend: &mut Box<dyn ctk_core::MonitorBackend + Send>,
    builder: &MonitorBuilder,
    journal: &mut Journal,
    recovery: Recovery,
) -> io::Result<u64> {
    let mut replayer = match recovery.snapshot {
        None => Replayer::new(),
        Some(snapshot) => {
            let (restored, mapping) = builder.restore(&snapshot);
            *backend = restored;
            Replayer::with_mapping(mapping)
        }
    };
    let replayed = recovery.commands.len() as u64;
    for command in recovery.commands {
        replayer.apply(backend.as_mut(), command);
    }
    journal.checkpoint(&backend.snapshot())?;
    Ok(replayed)
}

/// The next command off the queue, or `None` once every sender is gone.
/// While the journal holds unsynced `Interval` records, the wait ends at
/// their deadline to sync them (see [`Journal::sync_due`]).
fn next_command(rx: &Receiver<Command>, journal: Option<&mut Journal>) -> Option<Command> {
    if let Some(journal) = journal {
        while let Some(due) = journal.sync_due() {
            match due.checked_duration_since(Instant::now()) {
                None => journal.sync_lapsed(),
                Some(wait) => match rx.recv_timeout(wait) {
                    Ok(command) => return Some(command),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return None,
                },
            }
        }
    }
    rx.recv().ok()
}

fn ingest_loop(
    rx: Receiver<Command>,
    mut backend: Box<dyn ctk_core::MonitorBackend + Send>,
    builder: MonitorBuilder,
    journal: Option<(Journal, Recovery)>,
    shared: &Shared,
) {
    let mut replayed_records = 0u64;
    let mut journal = match journal {
        None => None,
        Some((mut journal, recovery)) => {
            if !recovery.is_empty() {
                match recover(&mut backend, &builder, &mut journal, recovery) {
                    Ok(replayed) => replayed_records = replayed,
                    Err(e) => {
                        // Serving without a coherent checkpoint would let a
                        // later crash replay against the wrong id space;
                        // refuse to run instead.
                        eprintln!("ctk-serve: journal recovery cannot checkpoint: {e}");
                        std::process::exit(1);
                    }
                }
            }
            Some(journal)
        }
    };
    shared.warming.store(false, Ordering::SeqCst);

    let mut publishes = 0u64;
    let mut docs_published = 0u64;
    while let Some(command) = next_command(&rx, journal.as_mut()) {
        shared.queue.depth.fetch_sub(1, Ordering::SeqCst);
        match command {
            Command::Stop => {
                if let Some(j) = journal.as_mut() {
                    let _ = j.sync();
                }
                break;
            }
            Command::Register(req, reply) => {
                let name = req.namespace.clone().unwrap_or_default();
                let namespace = match req.namespace.as_deref() {
                    None => Namespace::DEFAULT,
                    Some(name) => backend.intern_namespace(name),
                };
                let opts = QueryOptions { namespace, max_age: req.max_age };
                // Register is the one apply-before-append command: the
                // journal record needs the assigned id. A failed append
                // rolls the registration back before the error is acked.
                let spec = req.spec.clone();
                let qid = backend.register_with(req.spec, opts);
                let record = ReplayCommand::Register {
                    assigned: qid,
                    spec,
                    namespace: name,
                    max_age: req.max_age,
                };
                let _ = reply.send(match journal_append(&mut journal, &record) {
                    Ok(()) => Ok(qid),
                    Err(e) => {
                        backend.unregister(qid);
                        Err(e)
                    }
                });
            }
            Command::Unregister(qid, reply) => {
                // A 404 mutates nothing, so it stays out of the journal —
                // only an unregister that will actually remove a query is
                // appended (and acked) as a record.
                let _ = reply.send(if backend.namespace_of(qid).is_none() {
                    Ok(false)
                } else {
                    journal_append(&mut journal, &ReplayCommand::Unregister { qid })
                        .map(|()| backend.unregister(qid))
                });
            }
            Command::Publish { request, record, reply } => {
                if let Some(j) = journal.as_mut() {
                    let record = record.expect("handlers encode a record whenever journaled");
                    if let Err(e) = j.append_payload(record.as_bytes()) {
                        let _ = reply.send(Err(append_refused("publish", e)));
                        continue;
                    }
                }
                publishes += 1;
                docs_published += request.len() as u64;
                let receipt = backend.publish_request(request);
                // Fan out before acking: once the publisher has its
                // receipt, every subscriber buffer already holds the
                // changes.
                let changes = shared.subscribers.fanout_json(&receipt);
                let _ = reply.send(Ok((receipt, changes)));
            }
            Command::Results(qid, reply) => {
                let _ = reply.send(backend.results(qid));
            }
            Command::Stats(reply) => {
                let (expired, evicted) = backend.lifecycle_totals();
                let _ = reply.send(BackendStats {
                    queries: backend.num_queries(),
                    shards: backend.shards(),
                    lambda: backend.lambda(),
                    publishes,
                    docs_published,
                    expired,
                    evicted,
                    namespaces: backend.namespace_stats(),
                    storage: backend.storage_stats(),
                    journal_bytes: journal.as_ref().map_or(0, Journal::bytes),
                    last_checkpoint: journal.as_ref().map_or(0, Journal::last_checkpoint),
                    replayed_records,
                });
            }
            Command::Snapshot(reply) => {
                let snapshot = backend.snapshot();
                let outcome = match journal.as_mut() {
                    None => Ok(snapshot),
                    // The snapshot doubles as a checkpoint: once it is on
                    // disk the journal truncates, so a crash now replays
                    // from this snapshot instead of the whole tail.
                    Some(j) => j
                        .checkpoint(&snapshot)
                        .map(|_| snapshot)
                        .map_err(|e| format!("journal checkpoint failed: {e}")),
                };
                let _ = reply.send(outcome);
            }
            Command::Restore(snapshot, reply) => {
                let (restored, mapping) = builder.restore(&snapshot);
                backend = restored;
                let mut mapping: Vec<(QueryId, QueryId)> = mapping.into_iter().collect();
                mapping.sort_unstable_by_key(|&(old, _)| old);
                // Follow the surviving queries to their new ids before the
                // restorer gets its ack — a subscriber filtered on an old id
                // must never see (or miss) a post-restore change because its
                // filter still spoke the pre-restore id space.
                shared.subscribers.remap_filters(&mapping);
                // A restore replaces the whole monitor, so the journal's
                // history no longer describes the live state: checkpoint the
                // restored snapshot rather than journaling the restore.
                let outcome = match journal.as_mut() {
                    None => Ok(()),
                    Some(j) => j
                        .checkpoint(&backend.snapshot())
                        .map(|_| ())
                        .map_err(|e| format!("journal checkpoint failed: {e}")),
                };
                let _ = reply.send(
                    outcome.map(|()| RestoreOutcome { queries: backend.num_queries(), mapping }),
                );
            }
            Command::SetRetention(name, policy, reply) => {
                let record = ReplayCommand::SetRetention { namespace: name.clone(), policy };
                let _ = reply.send(journal_append(&mut journal, &record).map(|()| {
                    let ns = backend.intern_namespace(&name);
                    backend.set_retention(ns, policy);
                }));
            }
            Command::GetRetention(name, reply) => {
                let _ = reply.send(backend.find_namespace(&name).map(|ns| backend.retention(ns)));
            }
            Command::Forget { namespace, dry_run, reply } => {
                // Dry runs and 404s mutate nothing and stay out of the
                // journal; only a forget that will actually remove queries
                // is appended before it is applied and acked.
                let outcome = match backend.find_namespace(&namespace) {
                    None => Ok(None),
                    Some(_) if dry_run => Ok(Some(
                        backend
                            .namespace_stats()
                            .into_iter()
                            .find(|s| s.namespace == namespace)
                            .map_or(0, |s| s.live as usize),
                    )),
                    Some(ns) => {
                        let record = ReplayCommand::Forget { namespace: namespace.clone() };
                        journal_append(&mut journal, &record)
                            .map(|()| Some(backend.forget_namespace(ns)))
                    }
                };
                let _ = reply.send(outcome);
            }
            Command::Barrier(reply) => {
                // A drain barrier is the last thing before a planned stop or
                // snapshot; make lazily-synced journals durable here too.
                if let Some(j) = journal.as_mut() {
                    let _ = j.sync();
                }
                let _ = reply.send(());
            }
        }
    }
}

fn drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    // Everything queued before this barrier — publishes included — has been
    // processed and fanned out by the time it acks.
    let (tx, rx) = channel::bounded(1);
    if shared.enqueue(Command::Barrier(tx)).is_some() {
        let _ = rx.recv();
    }
    shared.subscribers.begin_drain();
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        // Handlers are detached: they die with the connection (or notice
        // `stopping` at the next idle recheck).
        let _ = thread::Builder::new()
            .name("ctk-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_RECHECK));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let request = match Request::read_from(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(e) => {
                let _ = Response::error(400, e).write_to(&mut writer, false);
                return;
            }
        };
        let keep_alive = !request.wants_close();
        if request.method == "POST"
            && request.path == "/snapshot"
            && request.query_param("stream").is_some_and(|v| v == "1")
        {
            // Streamed responses are framed by EOF, so this is always the
            // connection's last exchange.
            let _ = stream_snapshot(&mut writer, shared);
            return;
        }
        let response = route(&request, shared);
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// `POST /snapshot?stream=1`: capture the snapshot and stream its JSON to
/// the socket with [`Snapshot::write_json`], one query's text at a time,
/// never materialized as one tree or string. Byte-identical to the
/// buffered `POST /snapshot` body, so `POST /restore` (and
/// `Snapshot::from_json`) accept it unchanged.
fn stream_snapshot<W: Write>(w: &mut W, shared: &Shared) -> io::Result<()> {
    // This path bypasses `route`, so it repeats the warming gate.
    if shared.warming.load(Ordering::SeqCst) {
        return warming().write_to(w, false);
    }
    match ask(shared, Command::Snapshot) {
        None => unavailable().write_to(w, false),
        Some(Err(e)) => Response::error(500, e).write_to(w, false),
        Some(Ok(snapshot)) => {
            http::write_stream_head(w, 200)?;
            snapshot.write_json(&mut *w)?;
            w.flush()
        }
    }
}

/// Issue one command and wait for the reply. `None` (→ 503) when the ingest
/// thread is gone.
fn ask<T>(shared: &Shared, make: impl FnOnce(Sender<T>) -> Command) -> Option<T> {
    let (tx, rx) = channel::bounded(1);
    shared.enqueue(make(tx))?;
    rx.recv().ok()
}

fn unavailable() -> Response {
    Response::error(503, "server is shutting down")
}

fn warming() -> Response {
    Response::error(503, "warming: journal replay in progress")
}

fn route(request: &Request, shared: &Shared) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    // Liveness and readiness stay reachable while the journal is replaying;
    // everything else waits for recovery to finish.
    if shared.warming.load(Ordering::SeqCst)
        && !matches!(segments.as_slice(), ["healthz"] | ["readyz"])
    {
        return warming();
    }
    match (request.method.as_str(), segments.as_slice()) {
        // Pure liveness: 200 for as long as the process can answer at all,
        // replaying or draining included — restarting a warming server
        // because it is "unhealthy" would only make recovery start over.
        ("GET", ["healthz"]) => Response::json(
            200,
            object(vec![
                ("ok", Value::Bool(true)),
                ("draining", Value::Bool(shared.draining.load(Ordering::SeqCst))),
                ("warming", Value::Bool(shared.warming.load(Ordering::SeqCst))),
            ]),
        ),
        // Readiness: route traffic here only once replay is done and the
        // server is not draining away.
        ("GET", ["readyz"]) => {
            let warming = shared.warming.load(Ordering::SeqCst);
            let draining = shared.draining.load(Ordering::SeqCst);
            let ready = !warming && !draining;
            Response::json(
                if ready { 200 } else { 503 },
                object(vec![
                    ("ready", Value::Bool(ready)),
                    ("warming", Value::Bool(warming)),
                    ("draining", Value::Bool(draining)),
                ]),
            )
        }
        ("GET", ["stats"]) => handle_stats(shared),
        ("POST", ["queries"]) => handle_register(request, shared),
        ("DELETE", ["queries", id]) => match parse_id(id) {
            Err(response) => response,
            Ok(qid) => match ask(shared, |tx| Command::Unregister(QueryId(qid), tx)) {
                None => unavailable(),
                Some(Err(e)) => Response::error(500, e),
                Some(Ok(true)) => Response::json(200, object(vec![("removed", Value::Bool(true))])),
                Some(Ok(false)) => Response::error(404, format!("unknown query {qid}")),
            },
        },
        ("GET", ["queries", id, "results"]) => match parse_id(id) {
            Err(response) => response,
            Ok(qid) => match ask(shared, |tx| Command::Results(QueryId(qid), tx)) {
                None => unavailable(),
                Some(None) => Response::error(404, format!("unknown query {qid}")),
                Some(Some(results)) => Response::json(
                    200,
                    object(vec![
                        ("query", Value::Num(Number::U64(qid.into()))),
                        ("results", results.to_value()),
                    ]),
                ),
            },
        },
        ("POST", ["publish"]) => handle_publish(request, shared),
        ("POST", ["subscriptions"]) => handle_subscribe(request, shared),
        ("DELETE", ["subscriptions", id]) => match parse_id(id) {
            Err(response) => response,
            Ok(id) => {
                if shared.subscribers.unsubscribe(id.into()) {
                    Response::json(200, object(vec![("removed", Value::Bool(true))]))
                } else {
                    Response::error(404, format!("unknown subscriber {id}"))
                }
            }
        },
        ("GET", ["changes"]) => handle_changes(request, shared),
        // `to_json` runs the `?stream=1` writer into a buffer, so the two
        // bodies are byte-identical and clients can treat them
        // interchangeably; only the framing differs.
        ("POST", ["snapshot"]) => match ask(shared, Command::Snapshot) {
            None => unavailable(),
            Some(Err(e)) => Response::error(500, e),
            Some(Ok(snapshot)) => match snapshot.to_json() {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::error(500, e),
            },
        },
        ("POST", ["restore"]) => handle_restore(request, shared),
        ("PUT", ["namespaces", ns, "retention"]) => handle_set_retention(ns, request, shared),
        ("GET", ["namespaces", ns, "retention"]) => handle_get_retention(ns, shared),
        ("POST", ["forget"]) => handle_forget(request, shared),
        ("POST", ["admin", "drain"]) => {
            drain(shared);
            Response::json(202, object(vec![("draining", Value::Bool(true))]))
        }
        (
            _,
            ["healthz" | "readyz" | "stats" | "queries" | "publish" | "subscriptions" | "changes"
            | "snapshot" | "restore" | "namespaces" | "forget" | "admin", ..],
        ) => Response::error(405, format!("{} is not supported here", request.method)),
        _ => Response::error(404, format!("no route for {}", request.path)),
    }
}

fn handle_stats(shared: &Shared) -> Response {
    let backend = match ask(shared, Command::Stats) {
        None => return unavailable(),
        Some(stats) => stats,
    };
    let (delivered, dropped) = shared.subscribers.totals();
    let stats = ServerStats {
        engine: shared.engine.to_string(),
        lambda: backend.lambda,
        shards: backend.shards,
        sharding: "query".to_string(),
        queries: backend.queries,
        publishes: backend.publishes,
        docs_published: backend.docs_published,
        expired: backend.expired,
        evicted: backend.evicted,
        namespaces: backend.namespaces,
        index_bytes: backend.storage.index_bytes,
        hot_pages: backend.storage.hot_pages,
        cold_pages: backend.storage.cold_pages,
        page_faults: backend.storage.page_faults,
        blocks_decoded: backend.storage.blocks_decoded,
        queue_capacity: shared.queue.capacity,
        queue_depth: shared.queue.depth.load(Ordering::SeqCst),
        queue_highwater: shared.queue.highwater.load(Ordering::SeqCst),
        subscribers: shared.subscribers.len(),
        events_delivered: delivered,
        events_dropped: dropped,
        draining: shared.draining.load(Ordering::SeqCst),
        warming: shared.warming.load(Ordering::SeqCst),
        journal_bytes: backend.journal_bytes,
        last_checkpoint: backend.last_checkpoint,
        replayed_records: backend.replayed_records,
    };
    match serde_json::to_string(&stats) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, e),
    }
}

/// The `GET /stats` response body.
#[derive(Debug, Clone, Serialize)]
pub struct ServerStats {
    pub engine: String,
    pub lambda: f64,
    pub shards: usize,
    /// How the shards partition the work; always `"query"` (the query
    /// population is what is sharded). Kept so `/stats` bodies keep their
    /// shape.
    pub sharding: String,
    pub queries: usize,
    pub publishes: u64,
    pub docs_published: u64,
    /// Queries removed by TTL expiry, lifetime total.
    pub expired: u64,
    /// Queries removed by retention-cap eviction, lifetime total.
    pub evicted: u64,
    /// Per-namespace live/expired/evicted counts, handle order (the default
    /// namespace — the empty name — is always first).
    pub namespaces: Vec<NamespaceStats>,
    /// Estimated heap bytes of the query index(es), summed across shards;
    /// paged storage excludes spilled payloads.
    pub index_bytes: u64,
    /// Sealed-block pages currently RAM-resident (paged storage only).
    pub hot_pages: u64,
    /// Sealed-block pages spilled to disk (paged storage only).
    pub cold_pages: u64,
    /// Reads that faulted a page back from the spill file, lifetime total.
    pub page_faults: u64,
    /// Sealed postings blocks the walk decoded into its cursors, lifetime
    /// total (compressed and paged storage only).
    pub blocks_decoded: u64,
    /// Bound of the ingest command queue (the `queue_depth` knob).
    pub queue_capacity: usize,
    /// Commands currently enqueued (blocked senders included) — the live
    /// occupancy behind admission decisions.
    pub queue_depth: usize,
    /// Highest `queue_depth` observed since the server started.
    pub queue_highwater: usize,
    pub subscribers: usize,
    pub events_delivered: u64,
    pub events_dropped: u64,
    pub draining: bool,
    /// True while startup journal replay is still running.
    pub warming: bool,
    /// Journal bytes appended since the last checkpoint (0 without a
    /// journal).
    pub journal_bytes: u64,
    /// Sequence number the latest checkpoint covers (0 = none yet).
    pub last_checkpoint: u64,
    /// Journal records replayed at startup, after the checkpoint.
    pub replayed_records: u64,
}

fn handle_register(request: &Request, shared: &Shared) -> Response {
    let req = match parse_json_body(request).and_then(|body| wire::parse_register(&body)) {
        Err(message) => return Response::error(400, message),
        Ok(req) => req,
    };
    let namespace = req.namespace.clone().unwrap_or_default();
    match ask(shared, |tx| Command::Register(req, tx)) {
        None => unavailable(),
        Some(Err(e)) => Response::error(500, e),
        Some(Ok(qid)) => Response::json(
            200,
            object(vec![
                ("query", Value::Num(Number::U64(qid.0.into()))),
                ("namespace", Value::Str(namespace)),
            ]),
        ),
    }
}

fn handle_set_retention(ns: &str, request: &Request, shared: &Shared) -> Response {
    let policy = match parse_json_body(request).and_then(|body| wire::parse_retention(&body)) {
        Err(message) => return Response::error(400, message),
        Ok(policy) => policy,
    };
    match ask(shared, |tx| Command::SetRetention(ns.to_string(), policy, tx)) {
        None => unavailable(),
        Some(Err(e)) => Response::error(500, e),
        Some(Ok(())) => Response::json(200, retention_body(ns, Some(policy))),
    }
}

fn handle_get_retention(ns: &str, shared: &Shared) -> Response {
    match ask(shared, |tx| Command::GetRetention(ns.to_string(), tx)) {
        None => unavailable(),
        Some(None) => Response::error(404, format!("unknown namespace {ns:?}")),
        Some(Some(policy)) => Response::json(200, retention_body(ns, policy)),
    }
}

/// The `{PUT,GET} /namespaces/{ns}/retention` response body; `retention` is
/// `null` for a namespace with no installed policy.
fn retention_body(ns: &str, policy: Option<RetentionPolicy>) -> String {
    let retention = match policy {
        None => Value::Null,
        Some(p) => object_value(vec![
            ("max_age", p.max_age.map_or(Value::Null, |a| Value::Num(Number::F64(a)))),
            ("max_queries", p.max_queries.map_or(Value::Null, |c| Value::Num(Number::U64(c)))),
            ("eviction", Value::Str(wire::eviction_token(p.eviction).to_string())),
        ]),
    };
    object(vec![("namespace", Value::Str(ns.to_string())), ("retention", retention)])
}

fn handle_forget(request: &Request, shared: &Shared) -> Response {
    let req = match parse_json_body(request).and_then(|body| wire::parse_forget(&body)) {
        Err(message) => return Response::error(400, message),
        Ok(req) => req,
    };
    if !req.dry_run && shared.draining.load(Ordering::SeqCst) {
        return Response::error(503, "server is draining; destructive forgets are refused");
    }
    let dry_run = req.dry_run;
    let namespace = req.namespace.clone();
    match ask(shared, |tx| Command::Forget { namespace: req.namespace, dry_run, reply: tx }) {
        None => unavailable(),
        Some(Err(e)) => Response::error(500, e),
        Some(Ok(None)) => Response::error(404, format!("unknown namespace {namespace:?}")),
        Some(Ok(Some(count))) => Response::json(
            200,
            object(vec![
                ("namespace", Value::Str(namespace)),
                ("dry_run", Value::Bool(dry_run)),
                ("removed", Value::Num(Number::U64(count as u64))),
            ]),
        ),
    }
}

fn handle_publish(request: &Request, shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::error(503, "server is draining; publishes are refused");
    }
    let (body, publish) =
        match request.body_str().and_then(|body| Ok((body, wire::decode_publish(body)?))) {
            Err(message) => return Response::error(400, message),
            Ok(decoded) => decoded,
        };
    let record = if shared.journaled {
        // JSON has no spelling for a non-finite weight or arrival (`1e999`),
        // so a checkpoint could not hold the scores and stream time it
        // would leave behind: refuse it before anything is journaled.
        if let Some(e) = non_finite(&publish) {
            return Response::error(500, append_refused("publish", e));
        }
        Some(journal::publish_body_payload(body))
    } else {
        None
    };

    // Admission is decided at enqueue time: how many commands were ahead,
    // or — under `Reject` with a full queue — an immediate 429 with no
    // effects (the publish may be retried verbatim).
    let (reply_tx, reply_rx) = channel::bounded(1);
    let command = Command::Publish { request: publish, record, reply: reply_tx };
    let ahead = match shared.admission {
        AdmissionPolicy::Block => match shared.enqueue(command) {
            None => return unavailable(),
            Some(ahead) => ahead,
        },
        AdmissionPolicy::Reject { retry_after } => match shared.try_enqueue(command) {
            Ok(ahead) => ahead,
            Err(TryEnqueueError::Gone) => return unavailable(),
            Err(TryEnqueueError::Full) => {
                let refusal = Overloaded {
                    error: "ingest queue is full",
                    admission: Admission::Overloaded { retry_after },
                };
                return match serde_json::to_string(&refusal) {
                    Ok(body) => Response::json(429, body).with_header(
                        "retry-after",
                        AdmissionPolicy::retry_after_secs(retry_after).to_string(),
                    ),
                    Err(e) => Response::error(500, e),
                };
            }
        },
    };
    let admission =
        if ahead == 0 { Admission::Accepted } else { Admission::Enqueued { depth: ahead } };
    match reply_rx.recv() {
        Err(_) => unavailable(),
        Ok(Err(e)) => Response::error(500, e),
        Ok(Ok((receipt, changes))) => match publish_body(&receipt, changes.as_deref(), admission) {
            Ok(body) => Response::json(200, body),
            Err(e) => Response::error(500, e),
        },
    }
}

/// The JSON writer's error for the first weight or arrival of `request`
/// that it cannot spell, in the order the documents list them.
fn non_finite(request: &PublishRequest) -> Option<serde::Error> {
    request
        .docs()
        .iter()
        .flat_map(|(pairs, arrival)| pairs.iter().map(|&(_, w)| f64::from(w)).chain([*arrival]))
        .find(|x| !x.is_finite())
        .and_then(|x| x.write_json(&mut String::new()).err())
}

/// The body of a publish refused with 429.
#[derive(Serialize)]
struct Overloaded {
    error: &'static str,
    admission: Admission,
}

/// The `POST /publish` body: the receipt object plus how the publish was
/// admitted, as an `"admission"` member after the receipt's own. `changes`
/// is the receipt's changes as [`SubscriberRegistry::fanout_json`] printed
/// them, spliced in as is; without it they are printed here. The members
/// follow `PublishReceipt`'s field order, which the byte-identity tests hold
/// to the receipt's tree.
pub fn publish_body(
    receipt: &PublishReceipt,
    changes: Option<&str>,
    admission: Admission,
) -> serde_json::Result<String> {
    // A document's id and counters print in ≈ 300 bytes.
    let changes_len =
        changes.map_or(receipt.changes.len() * subscribers::CHANGE_JSON_BYTES, str::len);
    let mut body = String::with_capacity(changes_len + 512 * receipt.stats.len() + 64);
    body.push_str("{\"doc_ids\":");
    receipt.doc_ids.write_json(&mut body)?;
    body.push_str(",\"changes\":[");
    match changes {
        Some(changes) => body.push_str(changes),
        None => {
            let list = body.len();
            for change in &receipt.changes {
                subscribers::push_change(&mut body, list, change)?;
            }
        }
    }
    body.push_str("],\"stats\":");
    receipt.stats.write_json(&mut body)?;
    body.push_str(",\"admission\":");
    admission.write_json(&mut body)?;
    body.push('}');
    Ok(body)
}

fn handle_subscribe(request: &Request, shared: &Shared) -> Response {
    let filter = match parse_json_body(request).and_then(|body| wire::parse_subscribe(&body)) {
        Err(message) => return Response::error(400, message),
        Ok(filter) => filter,
    };
    let id = shared.subscribers.subscribe(filter);
    Response::json(200, object(vec![("subscriber", Value::Num(Number::U64(id)))]))
}

fn handle_changes(request: &Request, shared: &Shared) -> Response {
    let id = match request.query_param("subscriber") {
        None => return Response::error(400, "missing \"subscriber\" query parameter"),
        Some(raw) => match raw.parse::<u64>() {
            Err(_) => return Response::error(400, format!("bad subscriber id {raw:?}")),
            Ok(id) => id,
        },
    };
    let timeout = match request.query_param("timeout_ms") {
        None => Duration::ZERO,
        Some(raw) => match raw.parse::<u64>() {
            Err(_) => return Response::error(400, format!("bad timeout_ms {raw:?}")),
            Ok(ms) => Duration::from_millis(ms).min(MAX_POLL_TIMEOUT),
        },
    };
    let max_events = match request.query_param("max") {
        None => shared.max_poll_events,
        Some(raw) => match raw.parse::<usize>() {
            Err(_) | Ok(0) => return Response::error(400, format!("bad max {raw:?}")),
            Ok(max) => max.min(shared.max_poll_events),
        },
    };
    match shared.subscribers.poll(id, max_events, timeout) {
        None => Response::error(404, format!("unknown subscriber {id}")),
        Some(outcome) => match serde_json::to_string(&outcome) {
            Ok(body) => Response::json(200, body),
            Err(e) => Response::error(500, e),
        },
    }
}

fn handle_restore(request: &Request, shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::error(503, "server is draining; restores are refused");
    }
    let body = match request.body_str() {
        Err(message) => return Response::error(400, message),
        Ok(body) => body,
    };
    // `from_json`, not a plain parse: it migrates a v2 capture and refuses
    // what the ingest thread must never see (other versions, ±∞ numbers).
    let snapshot: Snapshot = match Snapshot::from_json(body) {
        Err(e) => return Response::error(400, format!("invalid snapshot: {e}")),
        Ok(snapshot) => snapshot,
    };
    match ask(shared, |tx| Command::Restore(Box::new(snapshot), tx)) {
        None => unavailable(),
        Some(Err(e)) => Response::error(500, e),
        Some(Ok(outcome)) => {
            let mapping = outcome
                .mapping
                .into_iter()
                .map(|(old, new)| {
                    Value::Array(vec![
                        Value::Num(Number::U64(old.0.into())),
                        Value::Num(Number::U64(new.0.into())),
                    ])
                })
                .collect();
            Response::json(
                200,
                object(vec![
                    ("queries", Value::Num(Number::U64(outcome.queries as u64))),
                    ("mapping", Value::Array(mapping)),
                ]),
            )
        }
    }
}

fn parse_json_body(request: &Request) -> Result<Value, String> {
    wire::parse_body(request.body_str()?)
}

fn parse_id(raw: &str) -> Result<u32, Response> {
    raw.parse::<u32>().map_err(|_| Response::error(400, format!("bad id {raw:?} in path")))
}

/// Serialize an ad-hoc JSON object body.
fn object(fields: Vec<(&str, Value)>) -> String {
    serde_json::to_string(&object_value(fields)).expect("value trees always serialize")
}

/// An ad-hoc JSON object as a [`Value`] (for nesting inside [`object`]).
fn object_value(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_interval_journal_syncs_its_tail_once_the_interval_lapses() {
        let dir = std::env::temp_dir().join(format!("ctk-idle-sync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let interval = Duration::from_millis(100);
        let config = JournalConfig::new(&dir).fsync(FsyncPolicy::Interval(interval));
        let (mut journal, _) = Journal::open(config).unwrap();
        journal.append(&ReplayCommand::Forget { namespace: "acked".to_string() }).unwrap();
        // The append found the interval fresh, so nothing synced it.
        assert!(journal.sync_due().is_some());

        // Traffic stops: the next command comes long after the interval.
        let (tx, rx) = channel::bounded(1);
        let late = thread::spawn(move || {
            thread::sleep(6 * interval);
            tx.send(Command::Stop).unwrap();
        });
        assert!(matches!(next_command(&rx, Some(&mut journal)), Some(Command::Stop)));
        assert_eq!(journal.sync_due(), None, "the acked record waited for the next command");
        late.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
