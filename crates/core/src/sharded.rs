//! The threaded monitor: the query population spread across worker
//! threads.
//!
//! The paper's goal is "large numbers of users and high stream rates"; a
//! single engine is single-threaded. Queries partition cleanly (each result
//! set depends only on its own query), so [`ShardedMonitor`] spreads the
//! query population round-robin across workers that each own a full engine,
//! and broadcasts every stream document to all of them. The per-document
//! matched-list walk is paid once *per shard*, over that shard's slice of
//! the queries. Each front-end slot maps to a `(shard, local id)` route;
//! changes are translated back to slots during the merge.
//!
//! A publish is one round trip: the stamped batch is shared through one
//! `Arc` and sent to every worker as one `Process` command, and the
//! workers' answers are merged once, in shard order.

use crate::backend::PublishReceipt;
use crate::frontend::FrontEnd;
use crate::runtime::Runtime;
use crate::stats::{CumulativeStats, EventStats};
use crate::traits::{ContinuousTopK, ResultChange};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc, Timestamp};
use ctk_index::StorageStats;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Internal routing of one front-end slot.
#[derive(Debug, Clone, Copy)]
struct Route {
    shard: u32,
    local: QueryId,
}

enum Command {
    Register(QuerySpec, Sender<QueryId>),
    Unregister(QueryId, Sender<bool>),
    Seed(QueryId, Vec<ScoredDoc>),
    /// Score a batch; the reply travels over the worker's persistent
    /// reply channel.
    Process(Arc<[Document]>),
    Results(QueryId, Sender<Option<Vec<ScoredDoc>>>),
    Cumulative(Sender<CumulativeStats>),
    Lambda(Sender<f64>),
    Landmark(Sender<Timestamp>),
    RestoreLandmark(Timestamp),
    /// Tombstone ratio beyond which the worker compacts its index after
    /// answering a batch (0 disables).
    SetCompaction(f64),
    /// Compact the worker's index now, regardless of the configured
    /// threshold (bulk-forget reclamation); the reply fences completion.
    Compact(Sender<()>),
    /// Point-in-time storage counters of the worker's index.
    Storage(Sender<StorageStats>),
    Shutdown,
}

/// One shard's answer to a [`Command::Process`] batch.
struct BatchReply {
    /// Per-document work counters, aligned with the batch.
    stats: Vec<EventStats>,
    /// Every result change of the batch, in document order, in the worker's
    /// *local* id space (translated by the merger).
    changes: Vec<ResultChange>,
}

struct Worker {
    tx: Sender<Command>,
    reply_rx: Receiver<BatchReply>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// Send a command carrying a one-shot reply channel and wait for the
    /// answer (FIFO behind anything already queued on this worker).
    fn ask<T>(&self, command: impl FnOnce(Sender<T>) -> Command) -> T {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx.send(command(reply_tx)).expect("worker alive");
        reply_rx.recv().expect("worker reply")
    }

    fn tell(&self, command: Command) {
        self.tx.send(command).expect("worker alive");
    }
}

fn worker_loop<E: ContinuousTopK>(
    mut engine: E,
    rx: Receiver<Command>,
    reply_tx: Sender<BatchReply>,
) {
    let mut compact_at = 0.0f64;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Register(spec, reply) => {
                let _ = reply.send(engine.register(spec));
            }
            Command::Unregister(qid, reply) => {
                let _ = reply.send(engine.unregister(qid));
            }
            Command::Seed(qid, seeds) => engine.seed_results(qid, &seeds),
            Command::Process(docs) => {
                let mut changes = Vec::new();
                let stats = engine.process_batch_into(&docs, &mut changes);
                if reply_tx.send(BatchReply { stats, changes }).is_err() {
                    break; // monitor gone
                }
                // Batch boundary: no event is mid-flight on this shard, so
                // the index may reorganize.
                if compact_at > 0.0 && engine.tombstone_ratio() >= compact_at {
                    engine.compact_index();
                }
            }
            Command::Results(qid, reply) => {
                let _ = reply.send(engine.results(qid));
            }
            Command::Cumulative(reply) => {
                let _ = reply.send(*engine.cumulative());
            }
            Command::Lambda(reply) => {
                let _ = reply.send(engine.lambda());
            }
            Command::Landmark(reply) => {
                let _ = reply.send(engine.landmark());
            }
            Command::RestoreLandmark(landmark) => engine.restore_landmark(landmark),
            Command::SetCompaction(ratio) => compact_at = ratio.max(0.0),
            Command::Compact(reply) => {
                engine.compact_index();
                let _ = reply.send(());
            }
            Command::Storage(reply) => {
                let _ = reply.send(engine.storage_stats());
            }
            Command::Shutdown => break,
        }
    }
}

/// The runtime behind [`ShardedMonitor`]: one engine per worker, queries
/// spread round-robin.
pub struct QueryShards {
    workers: Vec<Worker>,
    next_shard: usize,
    /// Shard routes by slot (`None` after removal).
    routes: Vec<Option<Route>>,
    /// Per shard: local id index → slot (append-only; locals are
    /// allocated monotonically by each worker's engine).
    global_of_local: Vec<Vec<QueryId>>,
}

impl QueryShards {
    /// Spawn `shards` workers, each owning an engine built by `make_engine`.
    fn spawn<E, F>(shards: usize, make_engine: F) -> Self
    where
        E: ContinuousTopK + Send + 'static,
        F: Fn() -> E,
    {
        assert!(shards >= 1);
        let workers = (0..shards)
            .map(|_| {
                let (tx, rx) = unbounded::<Command>();
                // One batch is outstanding at a time, so one slot never
                // blocks a worker's reply.
                let (reply_tx, reply_rx) = bounded::<BatchReply>(1);
                let engine = make_engine();
                let handle = std::thread::spawn(move || worker_loop(engine, rx, reply_tx));
                Worker { tx, reply_rx, handle: Some(handle) }
            })
            .collect();
        QueryShards {
            workers,
            next_shard: 0,
            routes: Vec::new(),
            global_of_local: vec![Vec::new(); shards],
        }
    }

    fn route(&self, qid: QueryId) -> Route {
        self.routes[qid.index()].expect("live query has a route")
    }
}

impl Runtime for QueryShards {
    fn place(&mut self, qid: QueryId, spec: &QuerySpec) {
        let shard = self.next_shard;
        self.next_shard = (shard + 1) % self.workers.len();
        let local = self.workers[shard].ask(|reply| Command::Register(spec.clone(), reply));
        debug_assert_eq!(local.index(), self.global_of_local[shard].len());
        debug_assert_eq!(qid.index(), self.routes.len());
        self.global_of_local[shard].push(qid);
        self.routes.push(Some(Route { shard: shard as u32, local }));
    }

    fn remove(&mut self, qid: QueryId) {
        let route = self.routes[qid.index()].take().expect("live query has a route");
        let removed =
            self.workers[route.shard as usize].ask(|reply| Command::Unregister(route.local, reply));
        debug_assert!(removed, "route table said the query was live");
    }

    fn forget(&mut self, qids: &[QueryId]) {
        for &qid in qids {
            self.remove(qid);
        }
        // Broadcast, then fence: shards compact in parallel.
        let fences: Vec<Receiver<()>> = self
            .workers
            .iter()
            .map(|w| {
                let (reply_tx, reply_rx) = bounded(1);
                w.tell(Command::Compact(reply_tx));
                reply_rx
            })
            .collect();
        for fence in fences {
            fence.recv().expect("worker reply");
        }
    }

    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
        let route = self.route(qid);
        self.workers[route.shard as usize].ask(|reply| Command::Results(route.local, reply))
    }

    fn seed(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        let route = self.route(qid);
        self.workers[route.shard as usize].tell(Command::Seed(route.local, seeds.to_vec()));
    }

    /// Broadcast the `Arc`-shared batch to every worker, then merge their
    /// answers: the shards' per-document counters are summed and
    /// shard-local query ids translated to slots.
    fn ingest(&mut self, docs: Vec<Document>, receipt: &mut PublishReceipt) {
        let docs: Arc<[Document]> = docs.into();
        for w in &self.workers {
            w.tell(Command::Process(Arc::clone(&docs)));
        }
        receipt.stats = vec![EventStats::default(); docs.len()];
        for (shard, w) in self.workers.iter().enumerate() {
            let reply = w.reply_rx.recv().expect("worker reply");
            debug_assert_eq!(reply.stats.len(), docs.len(), "shard answered a different batch");
            for (merged, ev) in receipt.stats.iter_mut().zip(&reply.stats) {
                merged.merge(ev);
            }
            let locals = &self.global_of_local[shard];
            receipt.changes.extend(reply.changes.into_iter().map(|mut c| {
                c.query = locals[c.query.index()];
                c
            }));
        }
    }

    fn lambda(&self) -> f64 {
        self.workers[0].ask(Command::Lambda)
    }

    fn landmarks(&self) -> Vec<Timestamp> {
        self.workers.iter().map(|w| w.ask(Command::Landmark)).collect()
    }

    fn section_of(&self, qid: QueryId) -> usize {
        self.route(qid).shard as usize
    }

    fn restore_landmark(&mut self, landmark: Timestamp) {
        // FIFO per worker: the landmark lands before any later seed.
        for w in &self.workers {
            w.tell(Command::RestoreLandmark(landmark));
        }
    }

    fn storage_stats(&self) -> StorageStats {
        let mut total = StorageStats::default();
        for w in &self.workers {
            total.merge(&w.ask(Command::Storage));
        }
        total
    }

    fn shards(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for QueryShards {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Command::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// A monitor that spreads the query population across worker threads (see
/// the module docs). The application API is [`MonitorBackend`]; the methods
/// here are the construction knobs and per-shard counters.
///
/// [`MonitorBackend`]: crate::MonitorBackend
pub type ShardedMonitor = FrontEnd<QueryShards>;

impl ShardedMonitor {
    /// Spawn `shards` workers, each owning an engine built by `make_engine`
    /// (e.g. `|| MrioSeg::new(lambda)`).
    pub fn new<E, F>(shards: usize, make_engine: F) -> Self
    where
        E: ContinuousTopK + Send + 'static,
        F: Fn() -> E,
    {
        FrontEnd::over(QueryShards::spawn(shards, make_engine))
    }

    /// Enable tombstone compaction: after a batch boundary where a shard's
    /// index has `tombstone_ratio() >= ratio`, it is compacted and the
    /// affected bound structures rebuilt. `<= 0.0` disables.
    pub fn set_compaction_threshold(&mut self, ratio: f64) {
        for w in &self.runtime.workers {
            w.tell(Command::SetCompaction(ratio));
        }
    }

    /// Lifetime work counters of every shard, shard order. Every document
    /// visits every shard exactly once, so after `n` documents every shard
    /// reports `events == n`.
    pub fn shard_cumulative(&self) -> Vec<CumulativeStats> {
        self.runtime.workers.iter().map(|w| w.ask(Command::Cumulative)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MonitorBackend;
    use crate::monitor::Monitor;
    use crate::mrio::MrioSeg;
    use crate::naive::Naive;
    use crate::testutil::spec;
    use ctk_common::{DocId, TermId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    type Batch = Vec<(Vec<(TermId, f32)>, Timestamp)>;

    fn stream(n: u32, lists: u32, tail: u32) -> Batch {
        (0..n)
            .map(|i| (vec![(TermId(i % lists), 1.0), (TermId(lists + i % tail), 0.6)], i as f64))
            .collect()
    }

    #[test]
    fn sharded_matches_single_engine() {
        let mut sharded = ShardedMonitor::new(3, || MrioSeg::new(0.001));
        let mut single = Monitor::new(Naive::new(0.001));

        let specs: Vec<QuerySpec> =
            (0..30).map(|i| spec(&[i % 7, 7 + i % 4], 2 + (i % 3) as usize)).collect();
        let sharded_ids: Vec<QueryId> = specs.iter().map(|s| sharded.register(s.clone())).collect();
        let single_ids: Vec<QueryId> = specs.iter().map(|s| single.register(s.clone())).collect();
        // Public ids are one monotone space, identical to the single engine's.
        assert_eq!(sharded_ids, single_ids);

        for (pairs, at) in stream(60, 7, 4) {
            sharded.publish(pairs.clone(), at);
            single.publish(pairs, at);
        }
        for qid in &sharded_ids {
            assert_eq!(sharded.results(*qid), single.results(*qid));
        }
    }

    #[test]
    fn round_robin_distributes_queries() {
        let mut m = ShardedMonitor::new(2, || MrioSeg::new(0.0));
        let a = m.register(spec(&[1], 1));
        let b = m.register(spec(&[1], 1));
        let c = m.register(spec(&[1], 1));
        assert_eq!((a, b, c), (QueryId(0), QueryId(1), QueryId(2)));
        assert_eq!(m.shards(), 2);
        assert_eq!(m.num_queries(), 3);
        // Placement is observable through the snapshot's sections.
        let snap = m.snapshot();
        let per_shard: Vec<Vec<u32>> =
            snap.shards.iter().map(|s| s.queries.iter().map(|q| q.qid).collect()).collect();
        assert_eq!(per_shard, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn unregister_and_changes_reporting() {
        let mut m = ShardedMonitor::new(2, || MrioSeg::new(0.0));
        // k = 2 so the second document still has a free slot to enter.
        let a = m.register(spec(&[1], 2));
        let b = m.register(spec(&[1], 2));
        let receipt = m.publish(vec![(TermId(1), 1.0)], 0.0);
        assert_eq!(receipt.changes.len(), 2, "both shards report an insertion");
        // Changes speak public ids, whatever shard they came from.
        let mut qids: Vec<QueryId> = receipt.changes.iter().map(|c| c.query).collect();
        qids.sort();
        assert_eq!(qids, vec![a, b]);
        assert!(m.unregister(a));
        assert!(!m.unregister(a), "double unregister is a no-op");
        let receipt = m.publish(vec![(TermId(1), 2.0)], 1.0);
        assert_eq!(receipt.changes.len(), 1);
        assert_eq!(receipt.changes[0].query, b);
        assert!(m.results(b).is_some());
        assert!(m.results(a).is_none());
        assert_eq!(m.num_queries(), 1);
    }

    #[test]
    fn publish_size_does_not_change_the_outcome() {
        let mk = || {
            let mut m = ShardedMonitor::new(3, || MrioSeg::new(0.001));
            let ids: Vec<QueryId> = (0..20)
                .map(|i| m.register(spec(&[i % 5, 5 + i % 3], 1 + (i % 2) as usize)))
                .collect();
            (m, ids)
        };
        let docs = stream(50, 5, 3);
        let sorted = |mut v: Vec<ResultChange>| {
            v.sort_by_key(|c| (c.query, c.inserted.doc));
            v
        };

        let (mut per_doc, ids_a) = mk();
        let mut stats_a = Vec::new();
        let mut changes_a = Vec::new();
        for (pairs, at) in docs.clone() {
            let r = per_doc.publish(pairs, at);
            stats_a.extend(r.stats);
            changes_a.extend(r.changes);
        }

        let (mut batched, ids_b) = mk();
        let mut stats_b = Vec::new();
        let mut changes_b = Vec::new();
        for chunk in docs.chunks(16) {
            let r = batched.publish_batch(chunk.to_vec());
            stats_b.extend(r.stats);
            changes_b.extend(r.changes);
        }

        assert_eq!(stats_a, stats_b, "merged per-document stats must not depend on batching");
        assert_eq!(sorted(changes_a), sorted(changes_b));
        for (a, b) in ids_a.iter().zip(&ids_b) {
            assert_eq!(per_doc.results(*a), batched.results(*b));
        }
        // Every shard saw every document exactly once.
        for cum in batched.shard_cumulative() {
            assert_eq!(cum.events, docs.len() as u64);
        }
    }

    /// An engine that counts the batches it is handed.
    struct Counted {
        inner: Naive,
        batches: Arc<AtomicUsize>,
    }

    impl ContinuousTopK for Counted {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn register(&mut self, spec: QuerySpec) -> QueryId {
            self.inner.register(spec)
        }
        fn unregister(&mut self, qid: QueryId) -> bool {
            self.inner.unregister(qid)
        }
        fn process(&mut self, doc: &Document) -> EventStats {
            self.inner.process(doc)
        }
        fn process_batch_into(
            &mut self,
            docs: &[Document],
            changes_out: &mut Vec<ResultChange>,
        ) -> Vec<EventStats> {
            self.batches.fetch_add(1, Ordering::SeqCst);
            self.inner.process_batch_into(docs, changes_out)
        }
        fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
            self.inner.seed_results(qid, seeds)
        }
        fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
            self.inner.results(qid)
        }
        fn threshold(&self, qid: QueryId) -> Option<f64> {
            self.inner.threshold(qid)
        }
        fn num_queries(&self) -> usize {
            self.inner.num_queries()
        }
        fn last_changes(&self) -> &[ResultChange] {
            self.inner.last_changes()
        }
        fn cumulative(&self) -> &CumulativeStats {
            self.inner.cumulative()
        }
        fn lambda(&self) -> f64 {
            self.inner.lambda()
        }
        fn landmark(&self) -> Timestamp {
            self.inner.landmark()
        }
        fn restore_landmark(&mut self, landmark: Timestamp) {
            self.inner.restore_landmark(landmark)
        }
    }

    #[test]
    fn each_publish_reaches_each_worker_as_one_batch() {
        let batches = Arc::new(AtomicUsize::new(0));
        let mut m = ShardedMonitor::new(3, || Counted {
            inner: Naive::new(0.01),
            batches: Arc::clone(&batches),
        });
        for i in 0..6u32 {
            m.register(spec(&[i % 4], 2));
        }
        let mut docs = stream(300, 4, 3).into_iter();
        for (calls, size) in [1, 7, 64, 228].into_iter().enumerate() {
            let r = m.publish_batch(docs.by_ref().take(size).collect());
            assert_eq!(r.stats.len(), size);
            assert_eq!(batches.load(Ordering::SeqCst), 3 * (calls + 1), "one batch per worker");
        }
        for cum in m.shard_cumulative() {
            assert_eq!(cum.events, 300);
        }
    }

    #[test]
    fn publish_path_matches_single_monitor() {
        // The same publish sequence through a Monitor and a ShardedMonitor
        // yields identical receipts up to change order, and identical
        // results.
        let specs: Vec<QuerySpec> = (0..12).map(|i| spec(&[i % 4, 4 + i % 3], 2)).collect();
        let mut single = Monitor::new(Naive::new(0.01));
        let mut sharded = ShardedMonitor::new(3, || Naive::new(0.01));
        for s in &specs {
            let a = single.register(s.clone());
            let b = ShardedMonitor::register(&mut sharded, s.clone());
            assert_eq!(a, b);
        }

        let batch = stream(30, 4, 3);
        let ra = single.publish_batch(batch.clone());
        let rb = sharded.publish_batch(batch);

        assert_eq!(ra.doc_ids, rb.doc_ids);
        // Index-traversal counters differ by construction (each shard owns
        // its own lists), but insertions are insertions wherever the query
        // lives: per-document update counts must agree exactly.
        let upd = |r: &PublishReceipt| r.stats.iter().map(|e| e.updates).collect::<Vec<u64>>();
        assert_eq!(upd(&ra), upd(&rb), "insertions per document match the single engine");
        let sort = |mut v: Vec<ResultChange>| {
            v.sort_by_key(|c| (c.query, c.inserted.doc));
            v
        };
        assert_eq!(sort(ra.changes), sort(rb.changes));
        for i in 0..specs.len() as u32 {
            assert_eq!(single.results(QueryId(i)), sharded.results(QueryId(i)));
        }

        // And single publishes keep allocating from the same id space.
        let r1 = single.publish(vec![(TermId(0), 1.0)], 31.0);
        let r2 = sharded.publish(vec![(TermId(0), 1.0)], 31.0);
        assert_eq!(r1.doc_id(), DocId(30));
        assert_eq!(r1.doc_ids, r2.doc_ids);
    }
}
