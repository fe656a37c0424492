//! The doc-parallel runtime: each ingest batch is split across workers that
//! walk one **shared, read-only index epoch** (`Arc<QueryIndex>`), fully
//! scoring their slice's candidate queries in parallel; the per-worker
//! candidate lists are then merged **serially in stream order** against a
//! single authoritative result store. The walk — the expensive part of an
//! event — is paid once in total, so this runtime scales where
//! query-sharding replicates work: small query populations under high
//! stream rates. The shared index *is* the public id space.
//!
//! It stays bit-identical to the single-threaded oracle because the
//! parallel phase is pure scoring: workers compute each candidate's raw
//! cosine with exactly the oracle's arithmetic (same index records, same
//! accumulation order) and the serial merge applies insertions in document
//! order through the same offer path. Workers additionally prune candidates
//! against a submit-time snapshot of every query's threshold `S_k`:
//! thresholds only rise while a batch is in flight (registration churn is
//! fenced to batch boundaries), so the snapshot admits a superset of the
//! true insertions and the merge rejects the rest — no false negatives. The
//! filter is disabled for any batch that could trigger a decay landmark
//! renormalization mid-flight (the score frames would no longer be
//! comparable bit-for-bit); such batches are merged unfiltered, which is
//! merely slower, never wrong.
//!
//! Every worker runs the oracle's exhaustive walk; there is no bounded
//! variant (one over frozen per-list zone maxima lost every measured cell
//! at 10k and 50k queries and was removed).

use crate::backend::{PublishReceipt, ShardingMode};
use crate::engine::EngineBase;
use crate::runtime::{Runtime, ShardRuntime};
use crate::score::DecayModel;
use crate::sharded::{ingest_chunked, BatchOutcome, Pipeline};
use crate::stats::{CumulativeStats, EventStats};
use crate::traits::ResultChange;
use crate::walk::{collect_scored_candidates, MatchScratch};
use crossbeam::channel::{unbounded, Receiver, Sender};
use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc, Timestamp};
use ctk_index::{PagePin, PostingsStorage, QueryIndex, StorageConfig, StorageStats};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Submit-time candidate filter for document-mode workers: the decay frame
/// and every query's threshold `S_k` frozen at submission. Thresholds only
/// rise while the batch is in flight, so `score >= threshold` admits a
/// superset of the true insertions — the serial merge rejects the rest.
#[derive(Clone)]
struct CandidateFilter {
    decay: DecayModel,
    /// Landmark-frame `S_k` per query slot (0.0 for unfilled or dead).
    thresholds: Arc<[f64]>,
}

/// One slice of a batch handed to a document-mode scorer worker.
struct DocJob {
    /// The shared read-only index epoch this slice is scored against.
    index: Arc<QueryIndex>,
    docs: Arc<[Document]>,
    start: usize,
    len: usize,
    /// `None` when a renormalization could fire before the merge — the
    /// worker then forwards every candidate unfiltered.
    filter: Option<CandidateFilter>,
}

enum DocCommand {
    Score(DocJob),
    Shutdown,
}

/// A document-mode worker's answer to one [`DocJob`]: per-document walk
/// counters and the surviving `(query, raw cosine)` candidates, ascending
/// query id per document.
struct DocReply {
    stats: Vec<EventStats>,
    candidates: Vec<Vec<(QueryId, f64)>>,
}

struct DocWorker {
    tx: Sender<DocCommand>,
    reply_rx: Receiver<DocReply>,
    handle: Option<JoinHandle<()>>,
}

/// Split bookkeeping of one in-flight document-mode batch: which worker got
/// how many documents, in stream order.
struct PendingDocBatch {
    docs: Arc<[Document]>,
    /// `(worker, count)` slices in stream order; counts sum to `docs.len()`.
    slices: Vec<(u32, usize)>,
    /// Paged storage only: pins on the epoch's RAM-resident pages, held for
    /// the batch's lifetime so the pager never spills a page out from under
    /// an in-flight walk (dropped — releasing the veto — at drain).
    _pins: Option<Arc<Vec<PagePin>>>,
}

/// Scorer workers over a shared index epoch plus the single authoritative
/// result store the merge applies into.
pub(crate) struct DocShards {
    workers: Vec<DocWorker>,
    /// The current index epoch. Registration churn mutates it copy-on-write
    /// (`Arc::make_mut`), so in-flight batches keep scoring their epoch.
    index: Arc<QueryIndex>,
    /// Authoritative decay model, result states, changes and counters —
    /// only ever touched by the (serial) merge.
    base: EngineBase,
    /// Submitted-but-undrained batches, oldest first.
    pending: VecDeque<PendingDocBatch>,
    /// Per-worker lifetime counters of the documents each worker scored.
    worker_cum: Vec<CumulativeStats>,
    /// Tombstone ratio beyond which batch boundaries compact the epoch
    /// index (0 disables).
    compact_at: f64,
    /// Rotates which worker receives the first slice, so tiny batches do
    /// not pin all work to worker 0.
    next_start: usize,
    /// Memoized candidate filter, shared (`Arc`) with submitted jobs.
    /// Invalidated whenever a threshold could have moved — registration
    /// churn, seeding, a merge that inserted anything, a renormalization —
    /// so quiet stretches of the stream (the common steady state) submit
    /// batch after batch without re-materializing the O(queries) snapshot.
    filter_cache: Option<CandidateFilter>,
    /// Memoized pins on the current epoch's RAM-resident pages (paged
    /// storage only; `None` otherwise or after any epoch mutation). Shared
    /// with in-flight batches so each submit does not re-walk every list.
    epoch_pins: Option<Arc<Vec<PagePin>>>,
    pipeline: Pipeline,
}

/// Score one slice of a batch against an index epoch: the term-filtered
/// exhaustive walk ([`collect_scored_candidates`], the same function with
/// the same arithmetic and counter semantics the [`crate::Naive`] oracle
/// runs), followed by the optional threshold filter. Pure: the only engine
/// state it reads is the immutable epoch.
fn score_slice(
    job: &DocJob,
    scratch: &mut MatchScratch,
    scored: &mut Vec<(QueryId, f64)>,
) -> DocReply {
    let index = &*job.index;
    let mut stats = Vec::with_capacity(job.len);
    let mut candidates = Vec::with_capacity(job.len);
    for doc in &job.docs[job.start..job.start + job.len] {
        let mut ev = EventStats::default();
        collect_scored_candidates(index, doc, scratch, &mut ev, scored);
        let kept = match &job.filter {
            None => scored.clone(),
            Some(f) => {
                // One exp() per document, not per candidate.
                let amp = f.decay.amplification(doc.arrival);
                scored
                    .iter()
                    .filter(|&&(qid, dot)| dot * amp >= f.thresholds[qid.index()])
                    .copied()
                    .collect()
            }
        };
        stats.push(ev);
        candidates.push(kept);
    }
    DocReply { stats, candidates }
}

impl DocShards {
    /// Spawn `shards` scorer workers sharing one (empty) index epoch with
    /// the given postings storage. `lambda` is the decay parameter of the
    /// single, authoritative decay model.
    pub(crate) fn spawn(shards: usize, lambda: f64, storage: &StorageConfig) -> Self {
        assert!(shards >= 1);
        let workers: Vec<DocWorker> = (0..shards)
            .map(|_| {
                let (tx, rx) = unbounded::<DocCommand>();
                let (reply_tx, reply_rx) = unbounded::<DocReply>();
                let handle = std::thread::spawn(move || {
                    let mut scratch = MatchScratch::default();
                    let mut scored: Vec<(QueryId, f64)> = Vec::new();
                    while let Ok(DocCommand::Score(job)) = rx.recv() {
                        let reply = score_slice(&job, &mut scratch, &mut scored);
                        if reply_tx.send(reply).is_err() {
                            break; // monitor gone
                        }
                    }
                });
                DocWorker { tx, reply_rx, handle: Some(handle) }
            })
            .collect();
        DocShards {
            worker_cum: vec![CumulativeStats::default(); shards],
            workers,
            index: Arc::new(QueryIndex::with_storage(storage)),
            base: EngineBase::new(lambda),
            pending: VecDeque::new(),
            compact_at: 0.0,
            next_start: 0,
            filter_cache: None,
            epoch_pins: None,
            pipeline: Pipeline::default(),
        }
    }

    /// Index churn and seeding mutate state that in-flight jobs were
    /// submitted against (and query mode FIFO-orders behind them), so they
    /// are fenced to a quiesced pipeline.
    fn assert_quiesced(&self, what: &str) {
        assert!(
            self.pending.is_empty(),
            "doc-parallel {what} requires a quiesced pipeline; drain first"
        );
    }

    /// Compact the epoch index. In-flight batches keep their
    /// pre-compaction epoch — copy-on-write makes this safe even
    /// mid-pipeline.
    fn compact_epoch(&mut self) {
        self.epoch_pins = None;
        Arc::make_mut(&mut self.index).compact();
    }
}

impl Runtime for DocShards {
    fn place(&mut self, qid: QueryId, spec: &QuerySpec) {
        self.assert_quiesced("registration");
        let placed = Arc::make_mut(&mut self.index).register(&spec.vector, spec.k as u32);
        debug_assert_eq!(placed, qid, "shared index allocates the public id space");
        self.base.push_state(spec.k as u32);
        self.filter_cache = None;
        self.epoch_pins = None;
    }

    fn remove(&mut self, qid: QueryId) {
        self.assert_quiesced("unregistration");
        let record = Arc::make_mut(&mut self.index).unregister(qid);
        debug_assert!(record.is_some(), "spec table said the query was live");
        self.base.drop_state(qid);
        self.filter_cache = None;
        self.epoch_pins = None;
    }

    fn forget(&mut self, qids: &[QueryId]) {
        for &qid in qids {
            self.remove(qid);
        }
        self.compact_epoch();
    }

    /// Reads the authoritative store, which reflects **drained** batches
    /// only.
    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
        self.base.results(qid)
    }

    fn seed(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        self.assert_quiesced("seeding");
        self.base.seed(qid, seeds);
        self.filter_cache = None;
    }

    fn ingest(&mut self, docs: Vec<Document>, receipt: &mut PublishReceipt) {
        ingest_chunked(self, docs, receipt);
    }

    fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn lambda(&self) -> f64 {
        self.base.decay.lambda()
    }

    /// Queries are not partitioned: one section.
    fn landmarks(&self) -> Vec<Timestamp> {
        vec![self.base.decay.landmark()]
    }

    fn restore_landmark(&mut self, landmark: Timestamp) {
        self.base.decay.restore_landmark(landmark);
        self.filter_cache = None;
    }

    fn storage_stats(&self) -> StorageStats {
        self.index.storage_stats()
    }

    fn shards(&self) -> usize {
        self.workers.len()
    }

    fn mode(&self) -> ShardingMode {
        ShardingMode::Documents
    }
}

impl ShardRuntime for DocShards {
    /// Send each worker a disjoint, contiguous slice of the batch.
    fn submit(&mut self, docs: Arc<[Document]>, clock: Timestamp) {
        let n = docs.len();
        let s = self.workers.len();
        // Candidate filter: exact only while the decay frame is stable.
        // `clock` bounds every submitted arrival, so if it does not warrant
        // a renormalization, no in-flight merge can move the landmark under
        // this batch's snapshot. The snapshot itself is memoized: every
        // invalidation point (churn, seeds, insertions, renorms) clears
        // `filter_cache`, so a still-cached filter is exactly the current
        // state and quiet streams pay the O(queries) materialization only
        // after something actually moved a threshold.
        let filter = if self.base.decay.needs_renorm(clock) {
            self.filter_cache = None;
            None
        } else {
            if self.filter_cache.is_none() {
                let thresholds: Arc<[f64]> = (0..self.index.num_slots())
                    .map(|i| self.base.threshold_of(QueryId(i as u32)))
                    .collect();
                self.filter_cache =
                    Some(CandidateFilter { decay: self.base.decay.clone(), thresholds });
            }
            self.filter_cache.clone()
        };
        // Contiguous slices in stream order, rotating the first
        // worker per batch so small batches spread across shards.
        let mut slices = Vec::with_capacity(s);
        let (chunk, rem) = (n / s, n % s);
        let mut start = 0usize;
        for i in 0..s {
            let count = chunk + usize::from(i < rem);
            if count == 0 {
                continue;
            }
            let w = (self.next_start + i) % s;
            self.workers[w]
                .tx
                .send(DocCommand::Score(DocJob {
                    index: Arc::clone(&self.index),
                    docs: Arc::clone(&docs),
                    start,
                    len: count,
                    filter: filter.clone(),
                }))
                .expect("worker alive");
            slices.push((w as u32, count));
            start += count;
        }
        self.next_start = (self.next_start + 1) % s;
        // Paged storage: pin the epoch's resident pages for the
        // batch's flight so worker reads never race an eviction.
        // Memoized per epoch — churn and compaction drop the cache.
        let pins = (self.index.storage_config().storage == PostingsStorage::Paged).then(|| {
            Arc::clone(
                self.epoch_pins.get_or_insert_with(|| Arc::new(self.index.pin_resident_pages())),
            )
        });
        self.pending.push_back(PendingDocBatch { docs, slices, _pins: pins });
    }

    /// Apply the per-worker candidates to the authoritative result store
    /// serially, in stream order — this is where insertions, result changes
    /// and decay renormalizations actually happen.
    fn drain(&mut self) -> Option<BatchOutcome> {
        let pending = self.pending.pop_front()?;
        let mut stats = Vec::with_capacity(pending.docs.len());
        let mut changes: Vec<(u32, ResultChange)> = Vec::new();
        let mut doc_i = 0usize;
        let mut thresholds_moved = false;
        for &(w, count) in &pending.slices {
            let reply = self.workers[w as usize].reply_rx.recv().expect("worker reply");
            debug_assert_eq!(reply.stats.len(), count, "worker answered a different slice");
            for (mut ev, cands) in reply.stats.into_iter().zip(reply.candidates) {
                let doc = &pending.docs[doc_i];
                let (_theta, amp, renorm) = self.base.begin_event(doc.arrival);
                thresholds_moved |= renorm.is_some();
                for (qid, raw_dot) in cands {
                    if self.base.offer(qid, doc, raw_dot, amp) {
                        ev.updates += 1;
                        thresholds_moved = true;
                    }
                }
                changes.extend(self.base.changes.iter().map(|c| (w, *c)));
                ev.accumulate_into(&mut self.base.cum);
                ev.accumulate_into(&mut self.worker_cum[w as usize]);
                stats.push(ev);
                doc_i += 1;
            }
        }
        debug_assert_eq!(doc_i, pending.docs.len(), "slices must cover the batch");
        if thresholds_moved {
            // An insertion or renormalization moved some `S_k` (or
            // the frame): the memoized submit-time filter is stale.
            self.filter_cache = None;
        }
        // Batch boundary: compact the epoch when dead postings pile up.
        if self.compact_at > 0.0 && self.index.tombstone_ratio() >= self.compact_at {
            self.compact_epoch();
        }
        Some((stats, changes))
    }

    fn shard_cumulative(&self) -> Vec<CumulativeStats> {
        self.worker_cum.clone()
    }

    fn set_compaction(&mut self, ratio: f64) {
        self.compact_at = ratio.max(0.0);
    }

    fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }
}

impl Drop for DocShards {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(DocCommand::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::{MonitorBackend, ShardingMode};
    use crate::mrio::MrioSeg;
    use crate::naive::Naive;
    use crate::sharded::ShardedMonitor;
    use crate::testutil::{doc, spec};
    use crate::traits::{ContinuousTopK, ResultChange};
    use ctk_common::{DocId, Document, QueryId};

    // --- document-parallel mode ---

    /// Drive the same registration/stream sequence through a doc-parallel
    /// monitor and a single Naive engine; everything must be bit-identical.
    fn doc_mode_against_naive(shards: usize, lambda: f64, batch: usize, window: usize) {
        let mut sharded = ShardedMonitor::new_doc_parallel(shards, lambda);
        let mut single = Naive::new(lambda);
        let ids: Vec<QueryId> = (0..24)
            .map(|i| {
                let s = spec(&[i % 6, 6 + i % 5], 1 + (i % 3) as usize);
                let qid = sharded.register(s.clone());
                assert_eq!(qid, single.register(s), "one monotone public id space");
                qid
            })
            .collect();

        let docs: Vec<Document> = (0..80u64)
            .map(|i| doc(i, &[((i % 6) as u32, 1.0), ((6 + i % 5) as u32, 0.5)], i as f64 * 3.0))
            .collect();
        let mut single_stats = Vec::new();
        let mut single_changes = Vec::new();
        for d in &docs {
            single_stats.push(single.process(d));
            single_changes.extend_from_slice(single.last_changes());
        }

        let mut sharded_stats = Vec::new();
        let mut sharded_changes = Vec::new();
        sharded.run_pipelined(docs.chunks(batch).map(<[_]>::to_vec), window, |evs, ch| {
            sharded_stats.extend(evs);
            sharded_changes.extend(ch.into_iter().map(|(_, c)| c));
        });

        // Bit-identical per-document work counters: the doc-mode walk *is*
        // the oracle's walk, parallelized (updates included — the filter
        // only drops candidates the merge would reject anyway).
        assert_eq!(single_stats, sharded_stats);
        // Changes come out in stream order in both cases.
        assert_eq!(single_changes, sharded_changes);
        for qid in &ids {
            assert_eq!(sharded.results(*qid), single.results(*qid), "query {qid}");
        }
        // Each document visits exactly one shard: per-shard events sum to n.
        let per_shard = sharded.shard_cumulative();
        assert_eq!(per_shard.iter().map(|c| c.events).sum::<u64>(), docs.len() as u64);
    }

    #[test]
    fn doc_mode_matches_naive_synchronous() {
        doc_mode_against_naive(4, 0.001, 16, 0);
    }

    #[test]
    fn doc_mode_matches_naive_pipelined() {
        doc_mode_against_naive(3, 0.001, 8, 2);
    }

    #[test]
    fn doc_mode_matches_naive_across_renormalization() {
        // λ = 0.5 over arrivals up to ~240 crosses the renorm headroom (60)
        // several times: the filter must disable itself on the crossing
        // batches and the merge must renormalize exactly like the oracle.
        doc_mode_against_naive(2, 0.5, 8, 1);
    }

    #[test]
    fn doc_mode_single_shard_still_pipelines() {
        doc_mode_against_naive(1, 0.01, 4, 2);
    }

    #[test]
    fn doc_mode_unregister_and_results() {
        let mut m = ShardedMonitor::new_doc_parallel(2, 0.0);
        assert_eq!(m.sharding_mode(), ShardingMode::Documents);
        let a = m.register(spec(&[1], 2));
        let b = m.register(spec(&[1], 2));
        let (ev, changes) = m.process(doc(0, &[(1, 1.0)], 0.0));
        assert_eq!(ev.updates, 2, "one insertion per query");
        assert_eq!(changes.len(), 2);
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
    fn doc_mode_threshold_filter_prunes_without_changing_results() {
        // A full result set with a high threshold: weak documents must be
        // filtered worker-side (no update), strong ones must still land.
        let mut m = ShardedMonitor::new_doc_parallel(2, 0.0);
        let q = m.register(spec(&[1, 2], 1));
        m.process(doc(0, &[(1, 1.0), (2, 1.0)], 0.0)); // cosine 1.0, fills k
        let (_, changes) = m.process(doc(1, &[(1, 1.0), (9, 3.0)], 1.0)); // weak
        assert!(changes.is_empty());
        let (_, changes) = m.process(doc(2, &[(1, 1.0), (2, 1.0)], 2.0)); // tie
                                                                          // Equal score, larger doc id: the incumbent stays.
        assert!(changes.is_empty());
        assert_eq!(m.results(q).unwrap()[0].doc, DocId(0));
    }

    #[test]
    fn doc_mode_snapshot_writes_one_section_and_restores_onto_query_mode() {
        let mut m = ShardedMonitor::new_doc_parallel(3, 0.001);
        let ids: Vec<QueryId> = (0..9).map(|i| m.register(spec(&[i % 4], 2))).collect();
        for i in 0..20u64 {
            m.process(doc(i, &[((i % 4) as u32, 1.0)], i as f64));
        }
        let snap = m.snapshot();
        assert_eq!(snap.shards.len(), 1, "doc mode does not partition queries");
        assert_eq!(snap.num_queries(), 9);

        // Doc-parallel capture → query-sharded restore...
        let mut onto_query = ShardedMonitor::new(2, || MrioSeg::new(0.001));
        let mapping = snap.restore_into(&mut onto_query);
        for qid in &ids {
            assert_eq!(onto_query.results(mapping[qid]), m.results(*qid));
        }
        // ...and a query-sharded capture restores onto doc mode.
        let back = onto_query.snapshot();
        assert_eq!(back.shards.len(), 2);
        let mut onto_doc = ShardedMonitor::new_doc_parallel(4, 0.001);
        let mapping2 = back.restore_into(&mut onto_doc);
        for qid in &ids {
            assert_eq!(onto_doc.results(mapping2[&mapping[qid]]), m.results(*qid));
        }
    }

    #[test]
    fn doc_mode_compaction_keeps_results_and_shrinks_the_epoch() {
        let mk = |ratio: f64| {
            let mut m = ShardedMonitor::new_doc_parallel(2, 0.0);
            m.set_compaction_threshold(ratio);
            let ids: Vec<QueryId> =
                (0..30).map(|i| m.register(spec(&[i % 5, 5 + i % 3], 2))).collect();
            (m, ids)
        };
        let (mut compacting, ids_a) = mk(0.2);
        let (mut lazy, ids_b) = mk(0.0);
        for round in 0..3u64 {
            for q in (round * 8)..(round * 8 + 5) {
                assert!(compacting.unregister(QueryId(q as u32)));
                assert!(lazy.unregister(QueryId(q as u32)));
            }
            let batch: Vec<Document> = (0..15u64)
                .map(|i| {
                    let id = round * 15 + i;
                    doc(id, &[((id % 5) as u32, 1.0), ((5 + id % 3) as u32, 0.5)], id as f64)
                })
                .collect();
            let (_, ca) = compacting.process_batch(batch.clone());
            let (_, cb) = lazy.process_batch(batch);
            let strip = |v: Vec<(u32, ResultChange)>| -> Vec<ResultChange> {
                v.into_iter().map(|(_, c)| c).collect()
            };
            assert_eq!(strip(ca), strip(cb), "round {round}");
        }
        for (a, b) in ids_a.iter().zip(&ids_b) {
            assert_eq!(compacting.results(*a), lazy.results(*b));
        }
    }

    #[test]
    fn doc_mode_batches_smaller_than_the_shard_count() {
        let mut m = ShardedMonitor::new_doc_parallel(4, 0.0);
        let q = m.register(spec(&[1], 3));
        // 2-document batches on 4 shards: only some workers get slices.
        let (stats, _) = m.process_batch(vec![doc(0, &[(1, 1.0)], 0.0), doc(1, &[(1, 2.0)], 1.0)]);
        assert_eq!(stats.len(), 2);
        let (stats, _) = m.process_batch(vec![doc(2, &[(1, 3.0)], 2.0)]);
        assert_eq!(stats.len(), 1);
        assert_eq!(m.results(q).unwrap().len(), 3);
        let per_shard = m.shard_cumulative();
        assert_eq!(per_shard.iter().map(|c| c.events).sum::<u64>(), 3);
    }

    #[test]
    fn doc_mode_register_after_renormalizing_compaction_stays_aligned() {
        // A renormalization and a compaction landing in the *same* drain,
        // then a registration: its postings append at post-compaction
        // positions of the new epoch, and the fresh query must still
        // receive the next matching document.
        let mut m = ShardedMonitor::new_doc_parallel(2, 0.5);
        m.set_compaction_threshold(0.1);
        for i in 0..40 {
            m.register(spec(&[1, 2 + i % 3], 1));
        }
        m.process_batch(vec![doc(0, &[(1, 1.0)], 0.0)]);
        // Pile up tombstones, then cross the renorm headroom (λ·Δτ > 60)
        // with one batch: its drain renormalizes AND compacts.
        for q in 0..20u32 {
            assert!(m.unregister(QueryId(q)));
        }
        m.process_batch(vec![doc(1, &[(1, 1.0)], 130.0)]);

        let q = m.register(spec(&[1], 1));
        let (_, changes) = m.process(doc(2, &[(1, 1.0)], 131.0));
        assert!(
            changes.iter().any(|(_, c)| c.query == q),
            "the fresh (unfilled) query must receive the matching document"
        );
    }

    #[test]
    #[should_panic(expected = "quiesced pipeline")]
    fn doc_mode_register_rejects_open_pipeline() {
        let mut m = ShardedMonitor::new_doc_parallel(2, 0.0);
        m.register(spec(&[1], 1));
        m.submit_batch(vec![doc(0, &[(1, 1.0)], 0.0)]);
        m.register(spec(&[2], 1)); // must panic: batch in flight
    }
}
