//! The daemon's state machine: a [`Node`] owns the backend, the journal,
//! the subscriber registry and the publish counters, and [`Node::apply`]
//! is the one path to them — for live commands and recovered journal
//! records alike, so every mutation has one implementation.
//!
//! # Threading model
//!
//! A single **ingest thread** owns the node: receive an [`Op`], apply it,
//! send the [`Reply`]. Connection handlers enqueue each op with a one-shot
//! reply channel onto a *bounded* channel and block on the reply. The
//! bound is the backpressure mechanism: when publishers outrun the
//! monitor, their handlers block in `send`, which blocks their sockets,
//! which pushes back on the clients. Fan-out happens inside `apply`,
//! *before* the publisher gets its receipt, so once `POST /publish`
//! returns every subscriber can see the receipt's changes. Fan-out prints
//! the changes once ([`SubscriberRegistry::fanout_json`]); the text travels
//! back with the receipt for the handler to splice into the response
//! ([`crate::routes::publish_body`]), which prints them itself only when
//! nobody subscribed or the receipt is quiet.
//!
//! # Drain and shutdown
//!
//! [`CtkServer::drain`] refuses new publishes and restores with 503, sends
//! an [`Op::Barrier`] behind everything already queued, and wakes
//! long-pollers to read out their buffers with `draining: true`. Reads keep
//! working: a drained server is the right moment to snapshot.
//! [`CtkServer::shutdown`] drains, stops the ingest thread, unblocks the
//! accept loop and joins both.
//!
//! # Durability
//!
//! With [`ServerBuilder::journal_dir`] set, every mutation is appended to a
//! write-ahead [`Journal`] *before* it is applied and acked — a register
//! under the id [`MonitorBackend::next_query_id`] says it will get — so a
//! refused append changes nothing. A restore is checkpointed before it
//! replaces the live monitor instead of being journaled. At startup
//! [`Node::recover`] restores the checkpoint, applies each recovered record
//! with journaling off and re-checkpoints; until then `GET /readyz`
//! answers `503 warming`, while `GET /healthz` stays pure liveness.
//!
//! Replay is bit-identical because the journal records the ingest thread's
//! total order and the backend is deterministic given that order: document
//! ids come from the restored `next_doc`, decay scores from the restored
//! landmark, and expiry and eviction fire at publish boundaries as pure
//! functions of stream time. Query ids come back unchanged: a checkpoint
//! restores each query under its captured id, and a replayed
//! [`ReplayCommand::Register`] is placed at the id it was journaled with.
//! An id names one query for the daemon's whole history — across restarts
//! and `POST /restore` alike — and is never handed out twice.
//!
//! [`CtkServer::drain`]: crate::CtkServer::drain
//! [`CtkServer::shutdown`]: crate::CtkServer::shutdown
//! [`ServerBuilder::journal_dir`]: crate::ServerBuilder::journal_dir

use crate::journal::{Journal, Recovery};
use crate::subscribers::SubscriberRegistry;
use continuous_topk::MonitorBuilder;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use ctk_common::{NamespaceRegistry, QueryId, ScoredDoc};
use ctk_core::{
    MonitorBackend, NamespaceStats, PublishReceipt, PublishRequest, QueryOptions, ReplayCommand,
    RetentionPolicy, Snapshot,
};
use serde::Serialize;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One operation on a [`Node`].
#[derive(Debug)]
pub enum Op {
    /// A journaled mutation, as its record: appended, then applied. A
    /// register's `assigned` is overwritten with the id it gets.
    Record(ReplayCommand),
    /// A live publish plus its journal payload as the handler framed it
    /// ([`crate::journal::publish_body_payload`]), `Some` exactly when the
    /// node journals.
    Publish {
        request: PublishRequest,
        record: Option<String>,
    },
    Results(QueryId),
    Stats,
    GetRetention(String),
    /// How many queries forgetting a namespace would remove: the dry run.
    CountNamespace(String),
    /// Capture a snapshot; with a journal it is also the checkpoint.
    Snapshot,
    /// Replace the monitor with a snapshot's state. Ids the live monitor
    /// handed out stay handed out.
    Restore(Box<Snapshot>),
    /// Sync the journal. Replies once everything queued before it is done.
    Barrier,
}

/// What [`Node::apply`] answers.
#[derive(Debug)]
pub enum Reply {
    Done,
    /// The query or namespace the op named does not exist; nothing changed.
    Unknown,
    /// The journal refused the mutation; nothing changed.
    Refused(String),
    /// The op cannot apply to this state; nothing changed, nothing was
    /// journaled.
    Rejected(String),
    Registered(QueryId),
    /// Queries an unregister or forget removed, or a dry run counted.
    Removed(usize),
    /// A receipt, with its changes' JSON when fan-out printed it.
    Published {
        receipt: PublishReceipt,
        changes: Option<String>,
    },
    Results(Vec<ScoredDoc>),
    /// A known namespace's policy (`None`: no policy installed).
    Retention(Option<RetentionPolicy>),
    /// The node's counters; the caller fills in the transport's fields.
    Stats(Box<ServerStats>),
    Snapshot(Box<Snapshot>),
    /// The restored query count.
    Restored(usize),
}

/// The `GET /stats` response body.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServerStats {
    pub engine: String,
    pub lambda: f64,
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
    /// Estimated heap bytes of the query index.
    pub index_bytes: u64,
    /// Heap bytes of MRIO's per-list zone structures; not part of
    /// `index_bytes`.
    pub zone_bytes: u64,
    /// Sealed postings blocks the walk decoded into its cursors, lifetime
    /// total (compressed storage only).
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

/// The monitor state behind the socket (see the module docs).
pub struct Node {
    builder: MonitorBuilder,
    backend: Box<dyn MonitorBackend + Send>,
    journal: Option<Journal>,
    subscribers: Arc<SubscriberRegistry>,
    publishes: u64,
    docs_published: u64,
    replayed_records: u64,
}

/// The message in a [`Reply::Refused`] for a failed append.
pub(crate) fn append_refused(op: &str, e: impl std::fmt::Display) -> String {
    format!("journal append failed ({op} refused): {e}")
}

fn checkpoint_failed(e: io::Error) -> String {
    format!("journal checkpoint failed: {e}")
}

fn namespaces_full() -> Reply {
    Reply::Rejected(format!("refused: at most {} namespaces", NamespaceRegistry::CAPACITY))
}

impl Node {
    /// A node over a fresh backend of `builder`'s configuration, appending
    /// every mutation to `journal` when one is given and fanning publish
    /// receipts out to `subscribers`.
    pub fn new(
        builder: &MonitorBuilder,
        journal: Option<Journal>,
        subscribers: Arc<SubscriberRegistry>,
    ) -> Node {
        Node {
            builder: builder.clone(),
            backend: builder.build(),
            journal,
            subscribers,
            publishes: 0,
            docs_published: 0,
            replayed_records: 0,
        }
    }

    /// Rebuild the state `recovery` found on disk: restore its checkpoint,
    /// apply each recovered record with journaling off, then re-checkpoint,
    /// so the next restart replays only what comes after this one.
    ///
    /// The daemon registers contiguously from its checkpoint's next id, so
    /// each register record must carry the id after the one before it. Only
    /// the first after a checkpoint may skip ahead: a checkpoint written
    /// before captures carried `next_query` reads one past its largest id,
    /// which can be lower. Any other register contradicts the checkpoint:
    /// that is an `InvalidData` error naming the record, and nothing
    /// changes. Replayed publishes count in `replayed_records`, not as this
    /// process's publishes.
    pub fn recover(&mut self, recovery: Recovery) -> io::Result<()> {
        if recovery.is_empty() {
            return Ok(());
        }
        let Recovery { mut snapshot, checkpoint_seq, commands, .. } = recovery;
        let mut next = snapshot.as_ref().map_or(0, |s| s.next_query);
        let mut first = true;
        for (seq, command) in (checkpoint_seq + 1..).zip(&commands) {
            let ReplayCommand::Register { assigned, .. } = command else { continue };
            let skip = first && assigned.0 > next && snapshot.is_some();
            if (assigned.0 != next && !skip) || assigned.0 == u32::MAX {
                let e = format!("journal record {seq} registers {assigned} where q{next} is next");
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
            if let (true, Some(checkpoint)) = (skip, snapshot.as_mut()) {
                checkpoint.next_query = assigned.0;
            }
            first = false;
            next = assigned.0 + 1;
        }
        if let Some(snapshot) = &snapshot {
            self.backend = self.builder.restore(snapshot);
        }
        let journal = self.journal.take();
        self.replayed_records = commands.len() as u64;
        for command in commands {
            self.apply(Op::Record(command));
        }
        (self.publishes, self.docs_published) = (0, 0);
        self.journal = journal;
        match self.apply(Op::Snapshot) {
            Reply::Refused(e) => Err(io::Error::other(e)),
            _ => Ok(()),
        }
    }

    /// Apply one op: the node's only way to read or change its state.
    pub fn apply(&mut self, op: Op) -> Reply {
        match op {
            Op::Publish { request, record } => {
                if let Some(journal) = self.journal.as_mut() {
                    let payload =
                        record.expect("handlers frame a record whenever the node journals");
                    if let Err(e) = journal.append_payload(payload.as_bytes()) {
                        return Reply::Refused(append_refused("publish", e));
                    }
                }
                self.publish(request)
            }
            Op::Record(command) => self.mutate(command),
            Op::Results(qid) => self.backend.results(qid).map_or(Reply::Unknown, Reply::Results),
            Op::Stats => Reply::Stats(Box::new(self.stats())),
            Op::GetRetention(name) => match self.backend.find_namespace(&name) {
                None => Reply::Unknown,
                Some(ns) => Reply::Retention(self.backend.retention(ns)),
            },
            Op::CountNamespace(name) => match self.backend.find_namespace(&name) {
                None => Reply::Unknown,
                Some(_) => Reply::Removed(
                    self.backend
                        .namespace_stats()
                        .into_iter()
                        .find(|s| s.namespace == name)
                        .map_or(0, |s| s.live as usize),
                ),
            },
            Op::Snapshot => {
                let snapshot = self.backend.snapshot();
                // Once the checkpoint is on disk the journal truncates, so a
                // crash now replays from this snapshot, not the whole tail.
                if let Some(journal) = self.journal.as_mut() {
                    if let Err(e) = journal.checkpoint(&snapshot) {
                        return Reply::Refused(checkpoint_failed(e));
                    }
                }
                Reply::Snapshot(Box::new(snapshot))
            }
            Op::Restore(snapshot) => self.restore(*snapshot),
            Op::Barrier => {
                // A drain barrier is the last thing before a planned stop or
                // snapshot; make lazily-synced journals durable here too.
                if let Some(journal) = self.journal.as_mut() {
                    let _ = journal.sync();
                }
                Reply::Done
            }
        }
    }

    /// Apply an appended publish and fan its changes out.
    fn publish(&mut self, request: PublishRequest) -> Reply {
        self.publishes += 1;
        self.docs_published += request.len() as u64;
        let receipt = self.backend.publish_request(request);
        // Fan out before acking: once the publisher has its receipt, every
        // subscriber buffer already holds the changes.
        let changes = self.subscribers.fanout_json(&receipt);
        Reply::Published { receipt, changes }
    }

    /// Stamp a register with its id, append the mutation, apply it. One
    /// that would change nothing (an unknown query or namespace) or cannot
    /// apply (a new namespace past the registry's capacity) answers before
    /// the journal sees it, so replay never meets it.
    fn mutate(&mut self, mut command: ReplayCommand) -> Reply {
        if let ReplayCommand::Register { namespace, .. }
        | ReplayCommand::SetRetention { namespace, .. } = &command
        {
            if self.backend.find_namespace(namespace).is_none() && self.backend.namespaces_full() {
                return namespaces_full();
            }
        }
        match &mut command {
            ReplayCommand::Register { assigned, .. } => {
                *assigned = self.backend.next_query_id();
                if assigned.0 == u32::MAX {
                    return Reply::Rejected("refused: every query id was handed out".to_string());
                }
            }
            ReplayCommand::Unregister { qid } => {
                if self.backend.namespace_of(*qid).is_none() {
                    return Reply::Unknown;
                }
            }
            ReplayCommand::Forget { namespace } => {
                if self.backend.find_namespace(namespace).is_none() {
                    return Reply::Unknown;
                }
            }
            ReplayCommand::Publish { .. } | ReplayCommand::SetRetention { .. } => {}
        }
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.append(&command) {
                return Reply::Refused(append_refused(command.op(), e));
            }
        }
        match command {
            ReplayCommand::Register { spec, namespace, max_age, .. } => {
                // Interned only now: a refused register leaves no trace.
                let ns = self.backend.intern_namespace(&namespace);
                let expected = self.backend.next_query_id();
                let qid = self.backend.register_with(spec, QueryOptions { namespace: ns, max_age });
                debug_assert_eq!(qid, expected, "register_with assigns next_query_id");
                Reply::Registered(qid)
            }
            ReplayCommand::Unregister { qid } => {
                Reply::Removed(usize::from(self.backend.unregister(qid)))
            }
            ReplayCommand::SetRetention { namespace, policy } => {
                let ns = self.backend.intern_namespace(&namespace);
                self.backend.set_retention(ns, policy);
                Reply::Done
            }
            ReplayCommand::Forget { namespace } => match self.backend.find_namespace(&namespace) {
                None => Reply::Unknown,
                Some(ns) => Reply::Removed(self.backend.forget_namespace(ns)),
            },
            ReplayCommand::Publish { docs } => self.publish(docs.into()),
        }
    }

    /// Build the restored backend and make it durable before it replaces
    /// anything: a restore replaces the whole monitor, so the journal's
    /// history no longer describes the live state, and the restored
    /// snapshot is checkpointed instead of journaling the restore. A
    /// refused checkpoint leaves the live monitor as it was.
    ///
    /// The restored monitor hands out ids from the larger of the capture's
    /// next id and the live one's, so no id is handed out twice: a query
    /// the capture lacks stays gone, and a subscriber filtered on it hears
    /// nothing more.
    fn restore(&mut self, mut snapshot: Snapshot) -> Reply {
        if snapshot.namespaces.len() > NamespaceRegistry::CAPACITY {
            return namespaces_full();
        }
        snapshot.next_query = snapshot.next_query.max(self.backend.next_query_id().0);
        let restored = self.builder.restore(&snapshot);
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.checkpoint(&restored.snapshot()) {
                return Reply::Refused(checkpoint_failed(e));
            }
        }
        self.backend = restored;
        Reply::Restored(self.backend.num_queries())
    }

    fn stats(&self) -> ServerStats {
        let (expired, evicted) = self.backend.lifecycle_totals();
        let storage = self.backend.storage_stats();
        let (events_delivered, events_dropped) = self.subscribers.totals();
        ServerStats {
            engine: self.builder.engine().to_string(),
            lambda: self.backend.lambda(),
            queries: self.backend.num_queries(),
            publishes: self.publishes,
            docs_published: self.docs_published,
            expired,
            evicted,
            namespaces: self.backend.namespace_stats(),
            index_bytes: storage.index_bytes,
            zone_bytes: storage.zone_bytes,
            blocks_decoded: storage.blocks_decoded,
            subscribers: self.subscribers.len(),
            events_delivered,
            events_dropped,
            journal_bytes: self.journal.as_ref().map_or(0, Journal::bytes),
            last_checkpoint: self.journal.as_ref().map_or(0, Journal::last_checkpoint),
            replayed_records: self.replayed_records,
            ..ServerStats::default()
        }
    }

    /// The live monitor's capture, taken without checkpointing it.
    #[cfg(test)]
    pub(crate) fn capture(&self) -> Snapshot {
        self.backend.snapshot()
    }

    /// The ingest thread: receive, apply, reply, until told to stop or
    /// every sender is gone, then sync the journal. `depth` is the queue
    /// gauge the handlers count commands into; this counts them out.
    pub(crate) fn serve(mut self, rx: &Receiver<Command>, depth: &AtomicUsize) {
        while let Some(Command::Apply(op, reply)) = next_command(rx, self.journal.as_mut()) {
            depth.fetch_sub(1, Ordering::SeqCst);
            let _ = reply.send(self.apply(op));
        }
        self.apply(Op::Barrier);
    }
}

/// What the ingest queue carries: an op with its one-shot reply channel,
/// or the order to stop. A handler whose reply channel dies (the ingest
/// thread already stopped) reports 503.
pub(crate) enum Command {
    Apply(Op, Sender<Reply>),
    Stop,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{publish_body_payload, FsyncPolicy, JournalConfig};
    use crate::wire::decode_publish;
    use continuous_topk::EngineKind;
    use crossbeam::channel;
    use ctk_common::{QuerySpec, TermId};
    use ctk_core::EvictionPolicy;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicU64;
    use std::thread;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ctk-node-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn builder() -> MonitorBuilder {
        MonitorBuilder::new(EngineKind::Mrio).lambda(0.05)
    }

    /// A node journaling to `dir`, which must not hold a journal yet.
    fn journaled(builder: &MonitorBuilder, dir: &Path) -> Node {
        let config = JournalConfig::new(dir).fsync(FsyncPolicy::Never).max_segment_bytes(2048);
        let (journal, recovery) = Journal::open(config).unwrap();
        assert!(recovery.is_empty());
        Node::new(builder, Some(journal), Arc::new(SubscriberRegistry::new(64)))
    }

    /// What a daemon restarted on a copy of `dir` holds once it is ready.
    fn recovered(builder: &MonitorBuilder, dir: &Path, copy: &Path) -> Node {
        let _ = fs::remove_dir_all(copy);
        fs::create_dir_all(copy).unwrap();
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
        let (journal, recovery) = Journal::open(JournalConfig::new(copy)).unwrap();
        let mut node = Node::new(builder, Some(journal), Arc::new(SubscriberRegistry::new(64)));
        node.recover(recovery).unwrap();
        node
    }

    fn register(terms: &[u32], k: usize, namespace: &str, max_age: Option<f64>) -> Op {
        let pairs = terms.iter().enumerate().map(|(i, &t)| (TermId(t), 1.0 / (1 + i) as f32));
        Op::Record(ReplayCommand::Register {
            assigned: QueryId(0),
            spec: QuerySpec::new(pairs.collect(), k).unwrap(),
            namespace: namespace.to_string(),
            max_age,
        })
    }

    /// A publish as the daemon receives it: a wire body, decoded, with the
    /// journal payload its handler frames.
    fn publish(docs: &[(&[u32], f64)]) -> Op {
        let docs: Vec<String> = docs
            .iter()
            .map(|(terms, arrival)| {
                let terms: Vec<String> = terms.iter().map(|t| format!("[{t}, 0.{t}5]")).collect();
                format!(r#"{{"terms": [{}], "arrival": {arrival}}}"#, terms.join(", "))
            })
            .collect();
        let body = format!(r#"{{"docs": [{}]}}"#, docs.join(", "));
        let request = decode_publish(&body).unwrap();
        Op::Publish { request, record: Some(publish_body_payload(&body)) }
    }

    fn retention(namespace: &str, policy: RetentionPolicy) -> Op {
        Op::Record(ReplayCommand::SetRetention { namespace: namespace.to_string(), policy })
    }

    fn cap(max_queries: u64) -> RetentionPolicy {
        RetentionPolicy {
            max_age: None,
            max_queries: Some(max_queries),
            eviction: EvictionPolicy::Oldest,
        }
    }

    #[test]
    fn a_refused_mutation_leaves_no_trace() {
        let dir = temp_dir("poisoned");
        let mut node = journaled(&builder(), &dir);
        let mut apply = |op| assert!(!matches!(node.apply(op), Reply::Refused(_)));
        apply(retention("capped", cap(1)));
        apply(register(&[1, 2], 3, "capped", None));
        let Reply::Snapshot(capture) = node.apply(Op::Snapshot) else { panic!("no capture") };
        let mut apply = |op| assert!(!matches!(node.apply(op), Reply::Refused(_)));
        apply(register(&[2], 3, "", Some(50.0)));
        apply(publish(&[(&[1, 2], 1.0)]));
        node.journal.as_mut().unwrap().poison("injected rollback failure");

        let before = node.backend.snapshot().to_json().unwrap();
        let next_id = node.backend.next_query_id();
        let refused = [
            // At its cap, so applying it first would evict the member.
            register(&[1], 2, "capped", None),
            register(&[1], 2, "fresh", None),
            Op::Record(ReplayCommand::Unregister { qid: QueryId(1) }),
            publish(&[(&[1], 2.0)]),
            retention("capped", cap(0)),
            Op::Record(ReplayCommand::Forget { namespace: "capped".to_string() }),
            Op::Restore(capture),
        ];
        for op in refused {
            let described = format!("{op:?}");
            let reply = node.apply(op);
            assert!(matches!(reply, Reply::Refused(_)), "{described}: {reply:?}");
            assert_eq!(node.backend.snapshot().to_json().unwrap(), before, "{described}");
            assert_eq!(node.backend.next_query_id(), next_id, "{described}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_namespace_past_the_registry_capacity_is_rejected_before_the_journal() {
        let builder = builder();
        let (dir, copy) = (temp_dir("full"), temp_dir("full-recovered"));
        let mut node = journaled(&builder, &dir);
        for i in 1..NamespaceRegistry::CAPACITY {
            node.backend.intern_namespace(&format!("t{i}"));
        }
        let Reply::Snapshot(mut crowded) = node.apply(Op::Snapshot) else { panic!("no capture") };
        assert!(matches!(node.apply(register(&[1], 2, "t7", None)), Reply::Registered(_)));
        crowded.namespaces.push("one too many".to_string());

        let before = node.backend.snapshot().to_json().unwrap();
        let journal_bytes = node.journal.as_ref().unwrap().bytes();
        let refused = [
            register(&[1], 2, "one too many", None),
            retention("one too many", cap(1)),
            Op::Restore(crowded),
        ];
        for op in refused {
            let described = format!("{op:?}");
            let reply = node.apply(op);
            assert!(matches!(reply, Reply::Rejected(_)), "{described}: {reply:?}");
            assert_eq!(node.backend.snapshot().to_json().unwrap(), before, "{described}");
            assert_eq!(node.journal.as_ref().unwrap().bytes(), journal_bytes, "{described}");
        }

        // A restart replays the journal without meeting the rejected ops.
        let mut twin = recovered(&builder, &dir, &copy);
        assert_eq!(
            twin.backend.snapshot().to_json().unwrap(),
            node.backend.snapshot().to_json().unwrap()
        );
        assert!(matches!(twin.apply(register(&[2], 2, "t9", None)), Reply::Registered(_)));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&copy);
    }

    fn register_record(assigned: u32, terms: &[u32]) -> ReplayCommand {
        let Op::Record(mut command) = register(terms, 3, "", None) else { unreachable!() };
        if let ReplayCommand::Register { assigned: id, .. } = &mut command {
            *id = QueryId(assigned);
        }
        command
    }

    #[test]
    fn replay_keeps_journaled_ids_and_skips_unknown_unregisters() {
        let mut node = Node::new(&builder(), None, Arc::new(SubscriberRegistry::new(1)));
        // The dead process assigned ids 0 and 1; 3 and 99 never named a
        // query in its history.
        let commands = vec![
            ReplayCommand::Unregister { qid: QueryId(3) },
            register_record(0, &[1]),
            register_record(1, &[2]),
            ReplayCommand::Unregister { qid: QueryId(99) },
            ReplayCommand::Unregister { qid: QueryId(3) },
            ReplayCommand::Unregister { qid: QueryId(0) },
        ];
        let recovery = Recovery { snapshot: None, checkpoint_seq: 0, commands, truncated_bytes: 0 };
        node.recover(recovery).unwrap();
        assert_eq!(node.backend.num_queries(), 1, "only journaled ids unregister");
        assert!(node.backend.results(QueryId(1)).is_some(), "journaled 1 is live 1");
        assert_eq!(node.backend.next_query_id(), QueryId(2));
        assert_eq!(node.replayed_records, 6);

        // Without a checkpoint the history starts at q0: nothing explains a
        // first register at q7.
        let mut node = Node::new(&builder(), None, Arc::new(SubscriberRegistry::new(1)));
        let commands = vec![register_record(7, &[1])];
        let recovery = Recovery { snapshot: None, checkpoint_seq: 0, commands, truncated_bytes: 0 };
        let err = node.recover(recovery).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("journal record 1 registers q7 where q0 is next"),
            "{err}"
        );
        assert_eq!(node.backend.next_query_id(), QueryId(0), "nothing changed");
    }

    /// A journal directory written by hand: `capture` as the checkpoint
    /// covering seqs up to 3, then one segment holding `commands` from seq
    /// 4 on.
    fn hand_built(dir: &Path, capture: &str, commands: &[ReplayCommand]) -> (Journal, Recovery) {
        fs::create_dir_all(dir).unwrap();
        let checkpoint = format!(r#"{{"format": 1, "last_seq": 3, "snapshot": {capture}}}"#);
        fs::write(dir.join("checkpoint.json"), checkpoint).unwrap();
        let mut segment = Vec::new();
        for (seq, command) in (4..).zip(commands) {
            let payload = serde_json::to_string(command).unwrap();
            segment.extend(crate::journal::encode_record(seq, payload.as_bytes()));
        }
        fs::write(dir.join("wal-00000000000000000004.log"), segment).unwrap();
        Journal::open(JournalConfig::new(dir)).unwrap()
    }

    /// A capture of queries 0 and 1 on terms 1 and 2, taken after queries
    /// 2 and 3 were registered and removed: its next id is 4.
    fn capture_with_removed_tail() -> Snapshot {
        let mut node = Node::new(&builder(), None, Arc::new(SubscriberRegistry::new(1)));
        for terms in [[1], [2], [3], [4]] {
            node.apply(register(&terms, 3, "", None));
        }
        for qid in [2, 3] {
            node.apply(Op::Record(ReplayCommand::Unregister { qid: QueryId(qid) }));
        }
        node.apply(publish(&[(&[1, 2], 1.0)]));
        node.backend.snapshot()
    }

    /// A register below the next id, or one that leaves a gap after the
    /// first, contradicts the checkpoint.
    #[test]
    fn a_journal_that_registers_below_its_checkpoints_next_id_is_invalid_data() {
        let capture = capture_with_removed_tail();
        assert_eq!(capture.next_query, 4);
        for (second, want) in
            [(3, "record 5 registers q3 where q5"), (6, "record 5 registers q6 where q5")]
        {
            let dir = temp_dir("contradiction");
            let commands = [register_record(4, &[5]), register_record(second, &[6])];
            let (journal, recovery) = hand_built(&dir, &capture.to_json().unwrap(), &commands);
            let mut node =
                Node::new(&builder(), Some(journal), Arc::new(SubscriberRegistry::new(1)));
            let err = node.recover(recovery).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(want), "{err}");
            assert_eq!(node.backend.num_queries(), 0, "nothing changed");
            assert_eq!(node.backend.next_query_id(), QueryId(0));
            assert_eq!(node.replayed_records, 0);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A checkpoint written before captures carried `next_query` reads one
    /// past its largest id (2 here, where the writer had handed out 4), and
    /// replay skips ahead to the id the next record was journaled with.
    #[test]
    fn a_checkpoint_without_next_query_skips_ahead_to_the_journaled_id() {
        let dir = temp_dir("legacy");
        let capture = capture_with_removed_tail();
        let text = capture.to_json().unwrap();
        let legacy = text.replace(r#""next_query":4,"#, "");
        assert_ne!(legacy, text);
        assert_eq!(Snapshot::from_json(&legacy).unwrap().next_query, 2);
        let commands = [
            register_record(4, &[5]),
            ReplayCommand::Unregister { qid: QueryId(1) },
            register_record(5, &[6]),
        ];
        let (journal, recovery) = hand_built(&dir, &legacy, &commands);
        let mut node = Node::new(&builder(), Some(journal), Arc::new(SubscriberRegistry::new(1)));
        node.recover(recovery).unwrap();
        let live: Vec<u32> = node.backend.snapshot().queries().map(|q| q.qid).collect();
        assert_eq!(live, vec![0, 4, 5]);
        let terms = |qid: u32| {
            let capture = node.backend.snapshot();
            let query = capture.queries().find(|q| q.qid == qid).unwrap();
            query.spec.vector.iter().map(|(t, _)| t.0).collect::<Vec<_>>()
        };
        assert_eq!((terms(0), terms(4), terms(5)), (vec![1], vec![5], vec![6]));
        assert_eq!(
            node.backend.results(QueryId(0)),
            capture.queries().next().map(|q| q.results.clone())
        );
        assert_eq!(node.backend.next_query_id(), QueryId(6));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_idle_interval_journal_syncs_its_tail_once_the_interval_lapses() {
        let dir = temp_dir("idle-sync");
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
        let _ = fs::remove_dir_all(&dir);
    }
}
