//! The threaded monitor: batched, pipelined ingestion over worker shards,
//! in two partitioning modes.
//!
//! The paper's goal is "large numbers of users and high stream rates"; a
//! single engine is single-threaded. There are two clean ways to cut the
//! work across worker threads, and [`ShardedMonitor`] is the one
//! [`FrontEnd`] over either (selected by [`ShardingMode`], a construction
//! knob — not a new API):
//!
//! * **Query sharding** ([`ShardingMode::Queries`], `query_shards`): the
//!   query population is spread round-robin across workers that each own a
//!   full engine, and every stream document is broadcast to all of them.
//! * **Document sharding** ([`ShardingMode::Documents`], `doc_shards`):
//!   each ingest batch is split across workers that walk one shared,
//!   read-only index epoch; candidates are merged serially in stream order.
//!
//! Ingestion is **batch-first** in both: the unit of work sent to a shard
//! is an `Arc`-shared batch (query mode broadcasts the whole batch,
//! document mode sends each worker a disjoint slice), so per-document
//! coordination cost shrinks linearly with the batch size. Workers answer
//! in submission order, so the monitor can keep a window of batches **in
//! flight**: [`ShardedMonitor::submit_batch`] hands out batch `n+1` while
//! the merger is still draining batch `n`
//! ([`ShardedMonitor::drain_batch`]), hiding merge latency behind shard
//! compute. [`ShardedMonitor::run_pipelined`] wraps the submit/drain dance
//! for a whole stream of pre-stamped documents; the application-facing
//! `publish_batch` drives the same machinery behind the unified API,
//! chunking by the configured ingest batch size.
//!
//! [`ShardingMode`]: crate::ShardingMode
//! [`ShardingMode::Queries`]: crate::ShardingMode::Queries
//! [`ShardingMode::Documents`]: crate::ShardingMode::Documents

use crate::backend::PublishReceipt;
use crate::config::AdaptiveConfig;
use crate::doc_shards::DocShards;
use crate::frontend::FrontEnd;
use crate::query_shards::QueryShards;
use crate::runtime::ShardRuntime;
use crate::stats::{CumulativeStats, EventStats};
use crate::traits::{ContinuousTopK, ResultChange};
use ctk_common::Document;
use ctk_index::StorageConfig;
use std::sync::Arc;

/// Merged outcome of one batch: per-document work counters (summed across
/// shards in query mode; produced by the owning shard in document mode) and
/// every result change as `(shard, change)` pairs — changes carry **public**
/// query ids; the shard tag is provenance only.
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

/// How a threaded runtime cuts one publish into pipeline chunks.
#[derive(Debug)]
pub struct Pipeline {
    /// Chunk size (0 = whole publish as one batch).
    batch: usize,
    /// Chunks kept in flight while chunking (0 = fully synchronous).
    window: usize,
    /// AIMD chunk-size controller; when set it overrides `batch` with a
    /// chunk size retuned from measured drain latency.
    adaptive: Option<AdaptiveBatcher>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline { batch: 0, window: 1, adaptive: None }
    }
}

/// The threaded runtimes' [`crate::runtime::Runtime::ingest`]: drive the
/// submit/drain pipeline in chunks per the runtime's [`Pipeline`]. Each
/// drain is timed and fed to the AIMD controller (when one is installed):
/// over-target drains halve the next chunk, on-target drains grow it. The
/// chunk schedule never affects the receipt — chunking is result-invariant.
pub(crate) fn ingest_chunked<S: ShardRuntime + ?Sized>(
    rt: &mut S,
    docs: Vec<Document>,
    receipt: &mut PublishReceipt,
) {
    receipt.stats.reserve(docs.len());
    // Stamped arrivals are monotone, so the last one is the stream clock.
    let Some(clock) = docs.last().map(|d| d.arrival) else { return };
    let fixed_chunk = match rt.pipeline().batch {
        0 => docs.len(),
        n => n,
    };
    let window = rt.pipeline().window;
    let drain_into = |rt: &mut S, receipt: &mut PublishReceipt| {
        let started = std::time::Instant::now();
        let (stats, changes) = rt.drain().expect("in-flight batch");
        if let Some(ctl) = &mut rt.pipeline_mut().adaptive {
            ctl.observe(started.elapsed().as_secs_f64() * 1e3);
        }
        receipt.stats.extend(stats);
        receipt.changes.extend(changes.into_iter().map(|(_, c)| c));
    };
    // Split the stamped batch into owned chunks without cloning any
    // document: `split_off` moves the tail, the head is submitted.
    let mut rest = docs;
    while !rest.is_empty() {
        let chunk = rt.pipeline().adaptive.as_ref().map_or(fixed_chunk, AdaptiveBatcher::chunk);
        let tail = rest.split_off(chunk.min(rest.len()));
        let part = std::mem::replace(&mut rest, tail);
        rt.submit(part.into(), clock);
        while rt.in_flight() > window {
            drain_into(rt, receipt);
        }
    }
    while rt.in_flight() > 0 {
        drain_into(rt, receipt);
    }
}

/// A monitor that spreads stream work across `S` worker threads, in either
/// sharding mode (see the module docs and [`ShardingMode`]). The
/// application API is [`MonitorBackend`]; the methods here are the
/// construction knobs and the pre-stamped pipeline API.
///
/// [`ShardingMode`]: crate::ShardingMode
/// [`MonitorBackend`]: crate::MonitorBackend
pub type ShardedMonitor = FrontEnd<dyn ShardRuntime>;

impl ShardedMonitor {
    /// Spawn `shards` query-mode workers, each owning an engine built by
    /// `make_engine` (e.g. `|| MrioSeg::new(lambda)`).
    pub fn new<E, F>(shards: usize, make_engine: F) -> Self
    where
        E: ContinuousTopK + Send + 'static,
        F: Fn() -> E,
    {
        FrontEnd::over(Box::new(QueryShards::spawn(shards, make_engine)))
    }

    /// Spawn `shards` document-mode scorer workers sharing one index epoch.
    /// `lambda` is the decay parameter of the (single, authoritative) decay
    /// model; scoring uses the exact term-filtered walk, so results are
    /// bit-identical to any engine kind.
    pub fn new_doc_parallel(shards: usize, lambda: f64) -> Self {
        ShardedMonitor::new_doc_parallel_with(shards, lambda, &StorageConfig::plain())
    }

    /// As [`ShardedMonitor::new_doc_parallel`], with an explicit postings-
    /// storage configuration for the shared index epoch. Under
    /// [`PostingsStorage::Paged`](crate::PostingsStorage::Paged), every
    /// in-flight batch pins the epoch's RAM-resident pages so the pager
    /// cannot spill them mid-walk.
    pub fn new_doc_parallel_with(shards: usize, lambda: f64, storage: &StorageConfig) -> Self {
        FrontEnd::over(Box::new(DocShards::spawn(shards, lambda, storage)))
    }

    /// Enable tombstone compaction: after a batch boundary where the
    /// (per-shard in query mode, shared in document mode) index has
    /// `tombstone_ratio() >= ratio`, it is compacted and the affected bound
    /// structures rebuilt. `<= 0.0` disables.
    pub fn set_compaction_threshold(&mut self, ratio: f64) {
        self.runtime.set_compaction(ratio);
    }

    /// Configure how `publish_batch` drives the pipeline: the publish is
    /// split into chunks of `batch_size` documents (0 = one chunk) with up
    /// to `window` chunks in flight (0 = fully synchronous).
    pub fn set_ingest_chunking(&mut self, batch_size: usize, window: usize) {
        let pipeline = self.runtime.pipeline_mut();
        pipeline.batch = batch_size;
        pipeline.window = window;
    }

    /// Enable the AIMD chunk-size controller: `publish_batch` re-reads the
    /// controller's chunk size before every submit and feeds it each
    /// drain's wall-clock latency, so sustained ingest pressure grows the
    /// chunk (fewer submit/drain round-trips per document) while a slow
    /// drain halves it (bounded per-chunk latency). Results are unaffected —
    /// chunking is result-invariant (see [`AdaptiveConfig`]).
    pub fn set_adaptive_batching(&mut self, cfg: AdaptiveConfig) {
        self.runtime.pipeline_mut().adaptive = Some(AdaptiveBatcher::new(cfg));
    }

    /// The adaptive controller's current chunk size, when one is installed.
    pub fn adaptive_chunk(&self) -> Option<usize> {
        self.runtime.pipeline().adaptive.as_ref().map(AdaptiveBatcher::chunk)
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

    /// Hand one batch to the shards **without waiting**: query mode
    /// broadcasts the `Arc`-shared batch to every worker, document mode
    /// sends each worker a disjoint slice. Pair with
    /// [`ShardedMonitor::drain_batch`]; replies come back in submission
    /// order, so keeping one or two batches in flight lets the shards score
    /// batch `n+1` while the merger drains batch `n`.
    pub fn submit_batch(&mut self, docs: Vec<Document>) {
        let clock = self.advance_past(&docs);
        self.runtime.submit(Arc::from(docs), clock);
    }

    /// Merge the oldest in-flight batch: blocks until every involved shard
    /// has answered it. Returns `None` when nothing is in flight.
    pub fn drain_batch(&mut self) -> Option<BatchOutcome> {
        self.runtime.drain()
    }

    /// Number of submitted batches not yet drained. Document mode's
    /// `results` reflect **drained** batches only — quiesce an open
    /// pipeline first for an up-to-date answer.
    pub fn in_flight(&self) -> usize {
        self.runtime.in_flight()
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

    /// Lifetime work counters of every shard, shard order.
    ///
    /// The invariant checked by the equivalence tests depends on the mode:
    /// in query mode every document visits every shard exactly once, so
    /// after `n` documents every shard reports `events == n` (summed:
    /// `n × shards`); in document mode every document visits exactly *one*
    /// shard, so the per-shard counters **sum** to `n`.
    pub fn shard_cumulative(&self) -> Vec<CumulativeStats> {
        self.runtime.shard_cumulative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MonitorBackend, ShardingMode};
    use crate::naive::Naive;
    use crate::testutil::spec;
    use ctk_common::{QueryId, TermId, Timestamp};

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
    fn adaptive_publish_is_bit_identical_to_fixed_in_both_modes() {
        // A zero-millisecond target forces a halve on every drain and an
        // unreachable target forces growth on every drain: the two extreme
        // chunk schedules (and a fixed one) must produce identical receipts.
        let batch: Vec<(Vec<(TermId, f32)>, Timestamp)> = (0..60u32)
            .map(|i| (vec![(TermId(i % 4), 1.0), (TermId(4 + i % 3), 0.7)], i as f64))
            .collect();
        for mode in [ShardingMode::Queries, ShardingMode::Documents] {
            let mk = || match mode {
                ShardingMode::Queries => ShardedMonitor::new(3, || Naive::new(0.01)),
                ShardingMode::Documents => ShardedMonitor::new_doc_parallel(3, 0.01),
            };
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
                assert_eq!(got, want, "mode {mode:?}, target {target}");
                let chunk = adaptive.adaptive_chunk().unwrap();
                if target == 0.0 {
                    assert_eq!(chunk, 2, "every drain over a 0ms target shrinks to the clamp");
                } else {
                    assert_eq!(
                        chunk, 16,
                        "every drain under an infinite target grows to the clamp"
                    );
                }
                for q in 0..12u32 {
                    assert_eq!(adaptive.results(QueryId(q)), fixed.results(QueryId(q)));
                }
            }
        }
    }
}
