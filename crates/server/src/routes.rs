//! The wire side of the daemon: [`ServerBuilder`] starts it, an accept
//! loop spawns a handler per connection, and the route table turns each
//! HTTP request into one [`Op`] for the ingest thread's [`Node`] and its
//! [`Reply`] into a response. Parsing, admission, the draining and warming
//! gates and every response body live here; what each op does to the
//! monitor, and the threading and durability model, live in
//! [`crate::node`].

use crate::http::{Request, Response};
use crate::journal::{self, FsyncPolicy, Journal, JournalConfig};
use crate::node::{append_refused, Command, Node, Op, Reply};
use crate::subscribers::{self, SubscriberRegistry};
use crate::wire;
use continuous_topk::MonitorBuilder;
use crossbeam::channel::{self, Sender, TrySendError};
use ctk_common::QueryId;
use ctk_core::{
    Admission, PublishReceipt, PublishRequest, ReplayCommand, RetentionPolicy, Snapshot,
};
use serde::{Number, Serialize, Value};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

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

    /// Why this policy cannot run: a `retry_after` that is negative or not
    /// finite, which no `429` body could spell.
    fn check(&self) -> Result<(), String> {
        match *self {
            AdmissionPolicy::Reject { retry_after }
                if !(retry_after >= 0.0 && retry_after.is_finite()) =>
            {
                Err(format!("admission retry_after must be finite and >= 0, got {retry_after}"))
            }
            _ => Ok(()),
        }
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    /// Accepts `block`, `reject` (a 1 s retry hint) or `reject:<secs>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let policy = match s {
            "block" => Some(AdmissionPolicy::Block),
            "reject" => Some(AdmissionPolicy::Reject { retry_after: 1.0 }),
            other => other
                .strip_prefix("reject:")
                .and_then(|secs| secs.parse().ok())
                .map(|retry_after| AdmissionPolicy::Reject { retry_after }),
        };
        match policy {
            Some(policy) if policy.check().is_ok() => Ok(policy),
            _ => Err(format!(
                "bad admission policy {s:?} (expected \"block\", \"reject\", or \"reject:<secs>\")"
            )),
        }
    }
}

/// Events one subscriber may buffer; beyond it the oldest are dropped and
/// the gap is reported on the next poll.
pub const SUBSCRIBER_BUFFER: usize = 1024;

/// Most events one `GET /changes` response carries, whatever its `?max=`.
pub const MAX_POLL_EVENTS: usize = 512;

/// Configures and starts a [`CtkServer`] around the monitor a
/// [`MonitorBuilder`] describes, adding the server-side knobs (queue depth,
/// admission policy, the journal), one flat setter each. Setters only
/// record values; [`ServerBuilder::bind`] refuses any it cannot run.
///
/// ```no_run
/// use ctk_server::{AdmissionPolicy, ServerBuilder};
/// use continuous_topk::{EngineKind, MonitorBuilder};
///
/// let monitor = MonitorBuilder::new(EngineKind::Mrio).lambda(1e-3);
/// let server = ServerBuilder::new(monitor)
///     .queue_depth(32)
///     .admission(AdmissionPolicy::Reject { retry_after: 0.25 })
///     .bind("127.0.0.1:0")
///     .unwrap();
/// println!("listening on {}", server.addr());
/// ```
#[derive(Clone)]
pub struct ServerBuilder {
    monitor: MonitorBuilder,
    queue_depth: usize,
    admission: AdmissionPolicy,
    journal_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    journal_max_bytes: u64,
}

impl ServerBuilder {
    /// A server over the monitor `monitor` builds, with default server-side
    /// knobs.
    pub fn new(monitor: MonitorBuilder) -> ServerBuilder {
        ServerBuilder {
            monitor,
            queue_depth: 16,
            admission: AdmissionPolicy::Block,
            journal_dir: None,
            fsync: FsyncPolicy::Always,
            journal_max_bytes: 64 * 1024 * 1024,
        }
    }

    /// In-flight command bound of the ingest queue, at least 1 (default
    /// 16). Publish handlers block (or are refused, per
    /// [`ServerBuilder::admission`]) once this many commands are queued —
    /// the backpressure knob.
    pub fn queue_depth(mut self, depth: usize) -> ServerBuilder {
        self.queue_depth = depth;
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
        self.admission.check().or_else(invalid)
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
    /// A knob the server cannot run with — a zero `queue_depth`, or a
    /// negative or non-finite `lambda` or admission `retry_after` —
    /// fails the bind with [`io::ErrorKind::InvalidInput`] naming it, before
    /// anything is opened.
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<CtkServer> {
        self.check()?;
        let (journal, recovery) = match &self.journal_dir {
            None => (None, None),
            Some(dir) => {
                let config = JournalConfig::new(dir)
                    .fsync(self.fsync)
                    .max_segment_bytes(self.journal_max_bytes);
                let (journal, recovery) = Journal::open(config)?;
                (Some(journal), Some(recovery))
            }
        };
        let warming = recovery.as_ref().is_some_and(|recovery| !recovery.is_empty());
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let subscribers = Arc::new(SubscriberRegistry::new(SUBSCRIBER_BUFFER));
        let journaled = journal.is_some();
        let mut node = Node::new(&self.monitor, journal, Arc::clone(&subscribers));
        let (tx, rx) = channel::bounded::<Command>(self.queue_depth);
        let shared = Arc::new(Shared {
            commands: tx,
            queue: QueueGauge {
                capacity: self.queue_depth,
                depth: AtomicUsize::new(0),
                highwater: AtomicUsize::new(0),
            },
            admission: self.admission,
            subscribers,
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            warming: AtomicBool::new(warming),
            journaled,
        });

        let ingest = {
            let shared = Arc::clone(&shared);
            thread::Builder::new().name("ctk-ingest".to_string()).spawn(move || {
                if let Some(Err(e)) = recovery.map(|recovery| node.recover(recovery)) {
                    // Serving without a coherent checkpoint would let a
                    // later crash replay against the wrong id space; refuse
                    // to run instead.
                    eprintln!("ctk-serve: journal recovery cannot checkpoint: {e}");
                    std::process::exit(1);
                }
                shared.warming.store(false, Ordering::SeqCst);
                node.serve(&rx, &shared.queue.depth);
            })?
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
    subscribers: Arc<SubscriberRegistry>,
    draining: AtomicBool,
    stopping: AtomicBool,
    /// True from bind until the ingest thread has restored the journal's
    /// checkpoint and replayed its tail; every route except `/healthz` and
    /// `/readyz` answers 503 while set.
    warming: AtomicBool,
    /// Whether the node journals (publish handlers frame the record it
    /// will append).
    journaled: bool,
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

fn drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    // Everything queued before this barrier — publishes included — has been
    // processed and fanned out by the time it acks.
    let _ = ask(shared, Op::Barrier);
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
        let response = route(&request, shared);
        // A streamed body is framed by EOF, so it ends the connection.
        let keep_alive = !request.wants_close() && response.stream.is_none();
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Apply one op on the ingest thread and wait for its reply. `Err` is the
/// response already decided: 503 when the ingest thread is gone, 500 when
/// the journal refused the mutation, 400 when the node rejected it.
fn ask(shared: &Shared, op: Op) -> Result<Reply, Response> {
    let (tx, rx) = channel::bounded(1);
    shared.enqueue(Command::Apply(op, tx)).ok_or_else(unavailable)?;
    match rx.recv() {
        Err(_) => Err(unavailable()),
        Ok(Reply::Refused(e)) => Err(Response::error(500, e)),
        Ok(Reply::Rejected(e)) => Err(Response::error(400, e)),
        Ok(reply) => Ok(reply),
    }
}

/// The response to a reply its op never produces.
fn unexpected(reply: Reply) -> Response {
    Response::error(500, format!("unexpected reply {reply:?}"))
}

fn unavailable() -> Response {
    Response::error(503, "server is shutting down")
}

fn route(request: &Request, shared: &Shared) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    // Liveness and readiness stay reachable while the journal is replaying;
    // everything else waits for recovery to finish.
    if shared.warming.load(Ordering::SeqCst)
        && !matches!(segments.as_slice(), ["healthz"] | ["readyz"])
    {
        return Response::error(503, "warming: journal replay in progress");
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
            Ok(qid) => {
                match ask(shared, Op::Record(ReplayCommand::Unregister { qid: QueryId(qid) })) {
                    Err(response) => response,
                    Ok(Reply::Removed(_)) => {
                        Response::json(200, object(vec![("removed", Value::Bool(true))]))
                    }
                    Ok(Reply::Unknown) => Response::error(404, format!("unknown query {qid}")),
                    Ok(reply) => unexpected(reply),
                }
            }
        },
        ("GET", ["queries", id, "results"]) => match parse_id(id) {
            Err(response) => response,
            Ok(qid) => match ask(shared, Op::Results(QueryId(qid))) {
                Err(response) => response,
                Ok(Reply::Unknown) => Response::error(404, format!("unknown query {qid}")),
                Ok(Reply::Results(results)) => Response::json(
                    200,
                    object(vec![
                        ("query", Value::Num(Number::U64(qid.into()))),
                        ("results", results.to_value()),
                    ]),
                ),
                Ok(reply) => unexpected(reply),
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
        // Both forms write the capture with `Snapshot::write_json` (`to_json`
        // into a buffer), so the bodies are byte-identical and clients can
        // treat them interchangeably; only the framing differs. `?stream=1`
        // writes one query's text at a time straight to the socket, never
        // materialized as one string, framed by EOF.
        ("POST", ["snapshot"]) => match ask(shared, Op::Snapshot) {
            Err(response) => response,
            Ok(Reply::Snapshot(snapshot)) if request.query_param("stream") == Some("1") => {
                Response::streamed(200, move |w| snapshot.write_json(w))
            }
            Ok(Reply::Snapshot(snapshot)) => match snapshot.to_json() {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::error(500, e),
            },
            Ok(reply) => unexpected(reply),
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
    let mut stats = match ask(shared, Op::Stats) {
        Err(response) => return response,
        Ok(Reply::Stats(stats)) => stats,
        Ok(reply) => return unexpected(reply),
    };
    stats.queue_capacity = shared.queue.capacity;
    stats.queue_depth = shared.queue.depth.load(Ordering::SeqCst);
    stats.queue_highwater = shared.queue.highwater.load(Ordering::SeqCst);
    stats.draining = shared.draining.load(Ordering::SeqCst);
    stats.warming = shared.warming.load(Ordering::SeqCst);
    match serde_json::to_string(&*stats) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, e),
    }
}

fn handle_register(request: &Request, shared: &Shared) -> Response {
    let req = match parse_json_body(request).and_then(|body| wire::parse_register(&body)) {
        Err(message) => return Response::error(400, message),
        Ok(req) => req,
    };
    let namespace = req.namespace.unwrap_or_default();
    let record = ReplayCommand::Register {
        assigned: QueryId(0), // the node stamps the id it assigns
        spec: req.spec,
        namespace: namespace.clone(),
        max_age: req.max_age,
    };
    match ask(shared, Op::Record(record)) {
        Err(response) => response,
        Ok(Reply::Registered(qid)) => Response::json(
            200,
            object(vec![
                ("query", Value::Num(Number::U64(qid.0.into()))),
                ("namespace", Value::Str(namespace)),
            ]),
        ),
        Ok(reply) => unexpected(reply),
    }
}

fn handle_set_retention(ns: &str, request: &Request, shared: &Shared) -> Response {
    let policy = match parse_json_body(request).and_then(|body| wire::parse_retention(&body)) {
        Err(message) => return Response::error(400, message),
        Ok(policy) => policy,
    };
    match ask(shared, Op::Record(ReplayCommand::SetRetention { namespace: ns.to_string(), policy }))
    {
        Err(response) => response,
        Ok(Reply::Done) => Response::json(200, retention_body(ns, Some(policy))),
        Ok(reply) => unexpected(reply),
    }
}

fn handle_get_retention(ns: &str, shared: &Shared) -> Response {
    match ask(shared, Op::GetRetention(ns.to_string())) {
        Err(response) => response,
        Ok(Reply::Unknown) => Response::error(404, format!("unknown namespace {ns:?}")),
        Ok(Reply::Retention(policy)) => Response::json(200, retention_body(ns, policy)),
        Ok(reply) => unexpected(reply),
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
    let (namespace, dry_run) = (req.namespace, req.dry_run);
    // Dry runs mutate nothing and stay out of the journal.
    let op = if dry_run {
        Op::CountNamespace(namespace.clone())
    } else {
        Op::Record(ReplayCommand::Forget { namespace: namespace.clone() })
    };
    match ask(shared, op) {
        Err(response) => response,
        Ok(Reply::Unknown) => Response::error(404, format!("unknown namespace {namespace:?}")),
        Ok(Reply::Removed(count)) => Response::json(
            200,
            object(vec![
                ("namespace", Value::Str(namespace)),
                ("dry_run", Value::Bool(dry_run)),
                ("removed", Value::Num(Number::U64(count as u64))),
            ]),
        ),
        Ok(reply) => unexpected(reply),
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
    let command = Command::Apply(Op::Publish { request: publish, record }, reply_tx);
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
        Ok(Reply::Published { receipt, changes }) => {
            match publish_body(&receipt, changes.as_deref(), admission) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::error(500, e),
            }
        }
        Ok(Reply::Refused(e)) => Response::error(500, e),
        Ok(reply) => unexpected(reply),
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
        None => MAX_POLL_EVENTS,
        Some(raw) => match raw.parse::<usize>() {
            Err(_) | Ok(0) => return Response::error(400, format!("bad max {raw:?}")),
            Ok(max) => max.min(MAX_POLL_EVENTS),
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
    // what the node must never see (other versions, ±∞ numbers).
    let snapshot: Snapshot = match Snapshot::from_json(body) {
        Err(e) => return Response::error(400, format!("invalid snapshot: {e}")),
        Ok(snapshot) => snapshot,
    };
    match ask(shared, Op::Restore(Box::new(snapshot))) {
        Err(response) => response,
        Ok(Reply::Restored(queries)) => {
            Response::json(200, object(vec![("queries", Value::Num(Number::U64(queries as u64)))]))
        }
        Ok(reply) => unexpected(reply),
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
    use super::AdmissionPolicy;

    #[test]
    fn admission_policy_parses_and_refuses_unspellable_retry_hints() {
        let parsed = |s: &str| s.parse::<AdmissionPolicy>();
        assert_eq!(parsed("block"), Ok(AdmissionPolicy::Block));
        assert_eq!(parsed("reject"), Ok(AdmissionPolicy::Reject { retry_after: 1.0 }));
        assert_eq!(parsed("reject:0.5"), Ok(AdmissionPolicy::Reject { retry_after: 0.5 }));
        assert_eq!(parsed("reject:0"), Ok(AdmissionPolicy::Reject { retry_after: 0.0 }));
        for bad in ["reject:nan", "reject:inf", "reject:-1", "reject:", "reject:x", "Block", ""] {
            let Err(e) = parsed(bad) else { panic!("{bad:?} must not parse") };
            assert!(e.contains("admission"), "{bad:?}: {e}");
        }
    }
}
