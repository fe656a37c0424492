//! The threaded monitor: the query population spread across worker
//! threads, with batched, pipelined ingestion.
//!
//! The paper's goal is "large numbers of users and high stream rates"; a
//! single engine is single-threaded. Queries partition cleanly (each result
//! set depends only on its own query), so [`ShardedMonitor`] spreads the
//! query population round-robin across workers that each own a full engine,
//! and broadcasts every stream document to all of them. The per-document
//! matched-list walk is paid once *per shard*, over that shard's slice of
//! the queries. Each public id maps to a `(shard, local id)` route; changes
//! are translated back to public ids during the merge.
//!
//! Ingestion is **batch-first**: the unit of work sent to a shard is an
//! `Arc`-shared batch, so per-document coordination cost shrinks linearly
//! with the batch size. Workers answer over persistent per-worker reply
//! channels in submission order, so the monitor can keep a window of
//! batches **in flight**: [`ShardedMonitor::submit_batch`] hands out batch
//! `n+1` while the merger is still draining batch `n`
//! ([`ShardedMonitor::drain_batch`]), hiding merge latency behind shard
//! compute. [`ShardedMonitor::run_pipelined`] wraps the submit/drain dance
//! for a whole stream of pre-stamped documents; the application-facing
//! `publish_batch` drives the same machinery behind the unified API,
//! chunking by the configured ingest batch size.

use crate::backend::PublishReceipt;
use crate::config::AdaptiveConfig;
use crate::frontend::FrontEnd;
use crate::runtime::Runtime;
use crate::stats::{CumulativeStats, EventStats};
use crate::traits::{ContinuousTopK, ResultChange};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc, Timestamp};
use ctk_index::StorageStats;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Merged outcome of one batch: per-document work counters (summed across
/// shards) and every result change as `(shard, change)` pairs — changes
/// carry **public** query ids; the shard tag is provenance only.
pub type BatchOutcome = (Vec<EventStats>, Vec<(u32, ResultChange)>);

/// AIMD controller over the `publish_batch` chunk size.
///
/// One decision per pipeline drain: a drain slower than the configured
/// target halves the chunk (multiplicative decrease), an on-target drain
/// grows it by the additive step — both clamped to the configured bounds.
/// The controller never touches *what* is computed, only how the publish
/// is cut into pipeline chunks, and chunking is result-invariant (see
/// [`AdaptiveConfig`] and the proptests in `tests/sharded_batch.rs`).
#[derive(Debug, Clone)]
pub struct AdaptiveBatcher {
    cfg: AdaptiveConfig,
    chunk: usize,
}

impl AdaptiveBatcher {
    /// A controller starting at the configured minimum chunk size (additive
    /// growth probes upward from there, like TCP slow-start's conservative
    /// cousin).
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(
            1 <= cfg.min_chunk && cfg.min_chunk <= cfg.max_chunk,
            "need 1 <= min_chunk <= max_chunk"
        );
        AdaptiveBatcher { chunk: cfg.min_chunk, cfg }
    }

    /// The chunk size the next submit should use.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Feed one measured drain latency (milliseconds) into the controller.
    pub fn observe(&mut self, drain_ms: f64) {
        if drain_ms > self.cfg.target_drain_ms {
            self.chunk = (self.chunk / 2).max(self.cfg.min_chunk);
        } else {
            self.chunk = self.chunk.saturating_add(self.cfg.increase_step).min(self.cfg.max_chunk);
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }
}

/// Internal routing of one public query id.
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
    /// reply channel, in submission order.
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
/// spread round-robin, plus how a publish is cut into pipeline chunks.
pub struct QueryShards {
    workers: Vec<Worker>,
    next_shard: usize,
    /// Lengths of submitted-but-undrained batches, oldest first.
    in_flight: VecDeque<usize>,
    /// Shard routes by public query id (`None` after removal).
    routes: Vec<Option<Route>>,
    /// Per shard: local id index → public id (append-only; locals are
    /// allocated monotonically by each worker's engine).
    global_of_local: Vec<Vec<QueryId>>,
    /// Publish chunk size (0 = whole publish as one batch).
    batch: usize,
    /// Chunks kept in flight while chunking (0 = fully synchronous).
    window: usize,
    /// AIMD chunk-size controller; when set it overrides `batch` with a
    /// chunk size retuned from measured drain latency.
    adaptive: Option<AdaptiveBatcher>,
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
                // Unbounded so a worker never blocks publishing a reply; the
                // pipelining window bounds the outstanding batches.
                let (reply_tx, reply_rx) = unbounded::<BatchReply>();
                let engine = make_engine();
                let handle = std::thread::spawn(move || worker_loop(engine, rx, reply_tx));
                Worker { tx, reply_rx, handle: Some(handle) }
            })
            .collect();
        QueryShards {
            workers,
            next_shard: 0,
            in_flight: VecDeque::new(),
            routes: Vec::new(),
            global_of_local: vec![Vec::new(); shards],
            batch: 0,
            window: 1,
            adaptive: None,
        }
    }

    fn route(&self, qid: QueryId) -> Route {
        self.routes[qid.index()].expect("live query has a route")
    }

    /// Broadcast the `Arc`-shared batch to every worker without waiting.
    fn submit(&mut self, docs: Arc<[Document]>) {
        for w in &self.workers {
            w.tell(Command::Process(Arc::clone(&docs)));
        }
        self.in_flight.push_back(docs.len());
    }

    /// Merge the oldest in-flight batch, blocking until every worker has
    /// answered it: sums the shards' per-document counters and translates
    /// shard-local query ids to public ids. `None` when nothing is in
    /// flight.
    fn drain(&mut self) -> Option<BatchOutcome> {
        let len = self.in_flight.pop_front()?;
        let mut stats = vec![EventStats::default(); len];
        let mut changes = Vec::new();
        for (shard, w) in self.workers.iter().enumerate() {
            let reply = w.reply_rx.recv().expect("worker reply");
            debug_assert_eq!(reply.stats.len(), len, "shard answered a different batch");
            for (merged, ev) in stats.iter_mut().zip(&reply.stats) {
                merged.merge(ev);
            }
            let locals = &self.global_of_local[shard];
            changes.extend(reply.changes.into_iter().map(|mut c| {
                c.query = locals[c.query.index()];
                (shard as u32, c)
            }));
        }
        Some((stats, changes))
    }

    /// Drain the oldest in-flight batch into `receipt`, feeding the drain's
    /// wall-clock latency to the AIMD controller when one is installed.
    fn drain_into(&mut self, receipt: &mut PublishReceipt) {
        let started = std::time::Instant::now();
        let (stats, changes) = self.drain().expect("in-flight batch");
        if let Some(ctl) = &mut self.adaptive {
            ctl.observe(started.elapsed().as_secs_f64() * 1e3);
        }
        receipt.stats.extend(stats);
        receipt.changes.extend(changes.into_iter().map(|(_, c)| c));
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

    /// Ordered after in-flight batches by the worker's FIFO.
    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
        let route = self.route(qid);
        self.workers[route.shard as usize].ask(|reply| Command::Results(route.local, reply))
    }

    fn seed(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        let route = self.route(qid);
        self.workers[route.shard as usize].tell(Command::Seed(route.local, seeds.to_vec()));
    }

    /// Drive the submit/drain pipeline in chunks of the configured batch
    /// size (or the AIMD controller's current chunk), keeping up to
    /// `window` chunks in flight. The chunk schedule never affects the
    /// receipt — chunking is result-invariant.
    fn ingest(&mut self, docs: Vec<Document>, receipt: &mut PublishReceipt) {
        receipt.stats.reserve(docs.len());
        let fixed_chunk = match self.batch {
            0 => docs.len(),
            n => n,
        };
        // Split the stamped batch into owned chunks without cloning any
        // document: `split_off` moves the tail, the head is submitted.
        let mut rest = docs;
        while !rest.is_empty() {
            let chunk = self.adaptive.as_ref().map_or(fixed_chunk, AdaptiveBatcher::chunk);
            let tail = rest.split_off(chunk.min(rest.len()));
            let part = std::mem::replace(&mut rest, tail);
            self.submit(part.into());
            while self.in_flight.len() > self.window {
                self.drain_into(receipt);
            }
        }
        while !self.in_flight.is_empty() {
            self.drain_into(receipt);
        }
    }

    fn in_flight(&self) -> usize {
        self.in_flight.len()
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
/// here are the construction knobs and the pre-stamped pipeline API.
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

    /// Configure how `publish_batch` drives the pipeline: the publish is
    /// split into chunks of `batch_size` documents (0 = one chunk) with up
    /// to `window` chunks in flight (0 = fully synchronous).
    pub fn set_ingest_chunking(&mut self, batch_size: usize, window: usize) {
        self.runtime.batch = batch_size;
        self.runtime.window = window;
    }

    /// Enable the AIMD chunk-size controller: `publish_batch` re-reads the
    /// controller's chunk size before every submit and feeds it each
    /// drain's wall-clock latency, so sustained ingest pressure grows the
    /// chunk (fewer submit/drain round-trips per document) while a slow
    /// drain halves it (bounded per-chunk latency). Results are unaffected —
    /// chunking is result-invariant (see [`AdaptiveConfig`]).
    pub fn set_adaptive_batching(&mut self, cfg: AdaptiveConfig) {
        self.runtime.adaptive = Some(AdaptiveBatcher::new(cfg));
    }

    /// The adaptive controller's current chunk size, when one is installed.
    pub fn adaptive_chunk(&self) -> Option<usize> {
        self.runtime.adaptive.as_ref().map(AdaptiveBatcher::chunk)
    }

    /// Process one pre-stamped stream event; returns the merged work
    /// counters and all result changes. This is the batch path with a batch
    /// of one — latency-oriented callers keep the old API,
    /// throughput-oriented callers should use
    /// [`ShardedMonitor::process_batch`] or the submit/drain pipeline.
    pub fn process(&mut self, doc: Document) -> (EventStats, Vec<(u32, ResultChange)>) {
        let (mut stats, changes) = self.process_batch(vec![doc]);
        (stats.pop().expect("one document in, one stat out"), changes)
    }

    /// Hand one batch of pre-stamped documents to the shards and wait for
    /// the merged outcome: per-document work counters and every result
    /// change as `(shard, change)` pairs.
    ///
    /// Must not be interleaved with an open submit/drain pipeline — drain
    /// in-flight batches first.
    pub fn process_batch(&mut self, docs: Vec<Document>) -> BatchOutcome {
        assert!(
            self.in_flight() == 0,
            "process_batch cannot run while submitted batches are in flight; drain them first"
        );
        self.submit_batch(docs);
        self.drain_batch().expect("batch just submitted")
    }

    /// Hand one batch to the shards **without waiting**: the `Arc`-shared
    /// batch is broadcast to every worker. Pair with
    /// [`ShardedMonitor::drain_batch`]; replies come back in submission
    /// order, so keeping one or two batches in flight lets the shards score
    /// batch `n+1` while the merger drains batch `n`.
    pub fn submit_batch(&mut self, docs: Vec<Document>) {
        self.advance_past(&docs);
        self.runtime.submit(Arc::from(docs));
    }

    /// Merge the oldest in-flight batch: blocks until every shard has
    /// answered it. Returns `None` when nothing is in flight.
    pub fn drain_batch(&mut self) -> Option<BatchOutcome> {
        self.runtime.drain()
    }

    /// Number of submitted batches not yet drained.
    pub fn in_flight(&self) -> usize {
        self.runtime.in_flight.len()
    }

    /// Drive a whole stream of pre-stamped batches through the shards,
    /// keeping up to `window` batches in flight (0 = fully synchronous,
    /// equivalent to calling [`ShardedMonitor::process_batch`] per batch).
    /// `on_batch` receives each batch's merged outcome in stream order.
    pub fn run_pipelined<I, F>(&mut self, batches: I, window: usize, mut on_batch: F)
    where
        I: IntoIterator<Item = Vec<Document>>,
        F: FnMut(Vec<EventStats>, Vec<(u32, ResultChange)>),
    {
        for batch in batches {
            self.submit_batch(batch);
            // Drain down to the window immediately after submitting, so at
            // most `window` batches are in flight while the iterator
            // produces the next one (window 0: drained before we return to
            // the iterator — synchronous).
            while self.in_flight() > window {
                let (stats, changes) = self.drain_batch().expect("in-flight batch");
                on_batch(stats, changes);
            }
        }
        while let Some((stats, changes)) = self.drain_batch() {
            on_batch(stats, changes);
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
    use crate::testutil::{doc, spec};
    use ctk_common::{DocId, TermId};

    // --- adaptive batching ---

    #[test]
    fn adaptive_controller_is_aimd_within_bounds() {
        let cfg = AdaptiveConfig::default().chunk_bounds(4, 64).increase_step(10);
        let mut ctl = AdaptiveBatcher::new(cfg);
        assert_eq!(ctl.chunk(), 4, "starts at the lower clamp");
        // Fast drains: additive growth, clamped at the top.
        for _ in 0..10 {
            ctl.observe(0.0);
        }
        assert_eq!(ctl.chunk(), 64);
        // One slow drain: multiplicative halving...
        ctl.observe(cfg.target_drain_ms + 1.0);
        assert_eq!(ctl.chunk(), 32);
        // ...repeated, clamped at the bottom.
        for _ in 0..10 {
            ctl.observe(cfg.target_drain_ms + 1.0);
        }
        assert_eq!(ctl.chunk(), 4);
    }

    #[test]
    fn adaptive_publish_is_bit_identical_to_fixed() {
        // A zero-millisecond target forces a halve on every drain and an
        // unreachable target forces growth on every drain: the two extreme
        // chunk schedules (and a fixed one) must produce identical receipts.
        let batch: Vec<(Vec<(TermId, f32)>, Timestamp)> = (0..60u32)
            .map(|i| (vec![(TermId(i % 4), 1.0), (TermId(4 + i % 3), 0.7)], i as f64))
            .collect();
        let mk = || ShardedMonitor::new(3, || Naive::new(0.01));
        let run = |m: &mut ShardedMonitor| {
            for i in 0..12u32 {
                m.register(spec(&[i % 4, 4 + i % 3], 2));
            }
            let mut r = m.publish_batch(batch.clone());
            r.changes.sort_by_key(|c| (c.query, c.inserted.doc));
            r
        };

        let mut fixed = mk();
        fixed.set_ingest_chunking(7, 1);
        let want = run(&mut fixed);

        for target in [0.0, f64::INFINITY] {
            let mut adaptive = mk();
            adaptive.set_ingest_chunking(7, 1);
            adaptive.set_adaptive_batching(
                AdaptiveConfig::default().target_drain_ms(target).chunk_bounds(2, 16),
            );
            let got = run(&mut adaptive);
            assert_eq!(got, want, "target {target}");
            let chunk = adaptive.adaptive_chunk().unwrap();
            if target == 0.0 {
                assert_eq!(chunk, 2, "every drain over a 0ms target shrinks to the clamp");
            } else {
                assert_eq!(chunk, 16, "every drain under an infinite target grows to the clamp");
            }
            for q in 0..12u32 {
                assert_eq!(adaptive.results(QueryId(q)), fixed.results(QueryId(q)));
            }
        }
    }

    // --- the query-sharded runtime ---

    #[test]
    fn sharded_matches_single_engine() {
        let mut sharded = ShardedMonitor::new(3, || MrioSeg::new(0.001));
        let mut single = Naive::new(0.001);

        let specs: Vec<QuerySpec> =
            (0..30).map(|i| spec(&[i % 7, 7 + i % 4], 2 + (i % 3) as usize)).collect();
        let sharded_ids: Vec<QueryId> = specs.iter().map(|s| sharded.register(s.clone())).collect();
        let single_ids: Vec<QueryId> = specs.iter().map(|s| single.register(s.clone())).collect();
        // Public ids are one monotone space, identical to the single engine's.
        assert_eq!(sharded_ids, single_ids);

        for i in 0..60u64 {
            let d = doc(i, &[((i % 7) as u32, 1.0), ((7 + i % 4) as u32, 0.6)], i as f64);
            sharded.process(d.clone());
            single.process(&d);
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
        let (_, changes) = m.process(doc(0, &[(1, 1.0)], 0.0));
        assert_eq!(changes.len(), 2, "both shards report an insertion");
        // Changes speak public ids, whatever shard they came from.
        let mut qids: Vec<QueryId> = changes.iter().map(|(_, c)| c.query).collect();
        qids.sort();
        assert_eq!(qids, vec![a, b]);
        assert!(m.unregister(a));
        assert!(!m.unregister(a), "double unregister is a no-op");
        let (_, changes) = m.process(doc(1, &[(1, 2.0)], 1.0));
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].1.query, b);
        assert!(m.results(b).is_some());
        assert!(m.results(a).is_none());
        assert_eq!(m.num_queries(), 1);
    }

    #[test]
    fn batch_path_matches_per_doc_path() {
        let mk = || {
            let mut m = ShardedMonitor::new(3, || MrioSeg::new(0.001));
            let ids: Vec<QueryId> = (0..20)
                .map(|i| m.register(spec(&[i % 5, 5 + i % 3], 1 + (i % 2) as usize)))
                .collect();
            (m, ids)
        };
        let docs: Vec<Document> = (0..50u64)
            .map(|i| doc(i, &[((i % 5) as u32, 1.0), ((5 + i % 3) as u32, 0.4)], i as f64))
            .collect();

        let (mut per_doc, ids_a) = mk();
        let mut stats_a = Vec::new();
        let mut changes_a = Vec::new();
        for d in &docs {
            let (ev, ch) = per_doc.process(d.clone());
            stats_a.push(ev);
            changes_a.extend(ch);
        }

        let (mut batched, ids_b) = mk();
        let mut stats_b = Vec::new();
        let mut changes_b = Vec::new();
        for chunk in docs.chunks(16) {
            let (evs, ch) = batched.process_batch(chunk.to_vec());
            stats_b.extend(evs);
            changes_b.extend(ch);
        }

        assert_eq!(stats_a, stats_b, "merged per-document stats must not depend on batching");
        // Changes are reported in unspecified order (per-doc groups by
        // document, the batch path groups by shard): compare as multisets.
        let key = |(shard, c): &(u32, ResultChange)| {
            (*shard, c.query.0, c.inserted.doc.0, c.inserted.score)
        };
        changes_a.sort_by_key(key);
        changes_b.sort_by_key(key);
        assert_eq!(changes_a, changes_b);
        for (a, b) in ids_a.iter().zip(&ids_b) {
            assert_eq!(per_doc.results(*a), batched.results(*b));
        }
        // Every shard saw every document exactly once.
        for cum in batched.shard_cumulative() {
            assert_eq!(cum.events, docs.len() as u64);
        }
    }

    #[test]
    fn pipelined_ingestion_matches_synchronous() {
        let mk = || {
            let mut m = ShardedMonitor::new(2, || MrioSeg::new(0.0));
            let ids: Vec<QueryId> = (0..10).map(|i| m.register(spec(&[i % 4], 2))).collect();
            (m, ids)
        };
        let batches: Vec<Vec<Document>> = (0..8u64)
            .map(|b| {
                (0..16u64)
                    .map(|i| {
                        let id = b * 16 + i;
                        doc(id, &[((id % 4) as u32, 1.0 + (id % 3) as f32)], id as f64)
                    })
                    .collect()
            })
            .collect();

        let (mut sync_m, ids_a) = mk();
        let mut sync_out = Vec::new();
        for b in &batches {
            let (evs, ch) = sync_m.process_batch(b.clone());
            sync_out.push((evs, ch));
        }

        let (mut pipe_m, ids_b) = mk();
        let mut pipe_out = Vec::new();
        pipe_m.run_pipelined(batches.clone(), 2, |evs, ch| pipe_out.push((evs, ch)));
        assert_eq!(pipe_m.in_flight(), 0);

        assert_eq!(sync_out.len(), pipe_out.len());
        for ((ea, ca), (eb, cb)) in sync_out.iter().zip(&pipe_out) {
            assert_eq!(ea, eb);
            assert_eq!(ca, cb);
        }
        for (a, b) in ids_a.iter().zip(&ids_b) {
            assert_eq!(sync_m.results(*a), pipe_m.results(*b));
        }
    }

    #[test]
    fn publish_path_matches_single_monitor() {
        // The same publish sequence through a Monitor and a ShardedMonitor
        // (including a chunked, pipelined configuration) yields identical
        // receipts up to change order, and identical results.
        let specs: Vec<QuerySpec> = (0..12).map(|i| spec(&[i % 4, 4 + i % 3], 2)).collect();
        let mut single = Monitor::new(Naive::new(0.01));
        let mut sharded = ShardedMonitor::new(3, || Naive::new(0.01));
        sharded.set_ingest_chunking(4, 2);
        for s in &specs {
            let a = single.register(s.clone());
            let b = ShardedMonitor::register(&mut sharded, s.clone());
            assert_eq!(a, b);
        }

        let batch: Vec<(Vec<(TermId, f32)>, Timestamp)> = (0..30u32)
            .map(|i| (vec![(TermId(i % 4), 1.0), (TermId(4 + i % 3), 0.7)], i as f64))
            .collect();
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

    #[test]
    fn snapshot_after_prestamped_ingestion_captures_the_stream_position() {
        // `process`/`run_pipelined` take pre-stamped documents and bypass
        // `admit`; the snapshot must still record where the stream got to,
        // or a restore would re-allocate ids colliding with the seeded
        // result sets.
        let mut m = ShardedMonitor::new(2, || MrioSeg::new(0.0));
        let q = m.register(spec(&[1, 2], 3));
        for i in 0..5u64 {
            // Single-term documents: cosine 1/√2 against the two-term query.
            m.process(doc(i, &[(1, 1.0)], i as f64));
        }
        let snap = m.snapshot();
        assert_eq!(snap.next_doc, 5);
        assert_eq!(snap.last_arrival, 4.0);

        let mut restored = ShardedMonitor::new(3, || MrioSeg::new(0.0));
        let mapping = snap.restore_into(&mut restored);
        // A perfect match (cosine 1) published after the restore must beat
        // the seeded history and carry the next id.
        let receipt = restored.publish(vec![(TermId(1), 1.0), (TermId(2), 1.0)], 10.0);
        assert_eq!(receipt.doc_id(), DocId(5), "ids continue past the capture");
        assert!(restored.results(mapping[&q]).unwrap().iter().any(|sd| sd.doc == DocId(5)));
    }

    #[test]
    fn drain_on_empty_pipeline_is_none() {
        let mut m = ShardedMonitor::new(2, || MrioSeg::new(0.0));
        assert!(m.drain_batch().is_none());
        assert_eq!(m.in_flight(), 0);
    }
}
