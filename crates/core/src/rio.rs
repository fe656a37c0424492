//! RIO — Reverse ID-Ordering (paper §III, Eq. 2).
//!
//! The preliminary method of the paper: ID-ordered postings lists over the
//! *queries*, probed by each arriving document with a WAND-style pivot
//! traversal. The upper bound for the prefix of lists `1..i` in the
//! processing order uses each list's **global** maximum normalized
//! preference `max_q w_t(q)/S_k(q)`:
//!
//! ```text
//! UB(i) = Σ_{j≤i} f_j · max_{q∈Q} u_j(q)      (compared against θ_d)
//! ```
//!
//! Global maxima shrink whenever any query's `S_k` grows, so they are
//! maintained with one [`VersionedMaxTracker`] per list. When even `UB(m)`
//! stays below `θ_d` the event terminates outright — a global bound covers
//! every query id, including those beyond the last cursor. Prefix sums are
//! compared with [`EngineBase::bound_floor`], a few ulps under `θ_d`, so a
//! candidate that ties its `S_k` exactly is evaluated like the oracle does.

use crate::engine::{CursorSet, EngineBase};
use crate::stats::{CumulativeStats, EventStats};
use crate::traits::{ContinuousTopK, ResultChange};
use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc};
use ctk_index::{QueryIndex, QueryWeights, StorageConfig, StorageStats, VersionedMaxTracker};

/// The RIO algorithm.
pub struct Rio {
    base: EngineBase,
    index: QueryIndex,
    /// Each query's weights in record order, which every `S_k` change
    /// re-divides.
    weights: QueryWeights,
    /// One tracker per postings list, holding `u = w/S_k` maxima.
    trackers: Vec<VersionedMaxTracker>,
    cursors: CursorSet,
}

impl Rio {
    pub fn new(lambda: f64) -> Self {
        Rio::with_storage(lambda, &StorageConfig::plain())
    }

    /// As [`Rio::new`], with an explicit postings-storage configuration.
    pub fn with_storage(lambda: f64, storage: &StorageConfig) -> Self {
        Rio {
            base: EngineBase::new(lambda),
            index: QueryIndex::with_storage(storage),
            weights: QueryWeights::default(),
            trackers: Vec::new(),
            cursors: CursorSet::default(),
        }
    }

    fn sync_tracker_count(&mut self) {
        while self.trackers.len() < self.index.num_lists() {
            self.trackers.push(VersionedMaxTracker::new());
        }
    }

    /// Push fresh `u` entries for every term of `qid` (called after any
    /// `S_k` change).
    fn push_query_maxima(&mut self, qid: QueryId) {
        let Some(state) = self.base.state(qid) else { return };
        let version = state.version();
        let (Some(rec), Some(weights)) = (self.index.record(qid), self.weights.get(qid)) else {
            return;
        };
        for (e, &w) in rec.entries().zip(weights) {
            let u = state.normalized(w as f64);
            self.trackers[e.list as usize].push(qid, version, u);
        }
    }

    /// After a landmark renormalization every version was bumped; re-push
    /// current maxima for all live queries (rare, amortized negligible).
    fn refresh_all_trackers(&mut self) {
        let qids: Vec<QueryId> = self.index.live_ids().collect();
        for qid in qids {
            self.push_query_maxima(qid);
        }
    }
}

impl ContinuousTopK for Rio {
    fn name(&self) -> &'static str {
        "RIO"
    }

    fn register(&mut self, spec: QuerySpec) -> QueryId {
        let qid = self.index.register(&spec.vector, spec.k as u32);
        self.weights.push(&spec.vector);
        self.base.push_state(spec.k as u32);
        self.sync_tracker_count();
        self.push_query_maxima(qid);
        qid
    }

    fn unregister(&mut self, qid: QueryId) -> bool {
        if self.index.unregister(qid).is_some() {
            self.weights.remove(qid);
            self.base.drop_state(qid);
            // Tracker entries die lazily: no version is current any more.
            true
        } else {
            false
        }
    }

    fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        if self.base.seed(qid, seeds) {
            self.push_query_maxima(qid);
        }
    }

    fn process(&mut self, doc: &Document) -> EventStats {
        let (theta, amp, renorm) = self.base.begin_event(doc.arrival);
        if renorm.is_some() {
            self.refresh_all_trackers();
        }
        let mut ev = EventStats {
            matched_lists: self.cursors.build(&self.index, doc) as u64,
            ..EventStats::default()
        };
        // The rounded prefix sums are compared with a floor a few ulps
        // under θ_d, so a candidate that ties `S_k` is never jumped.
        let floor = EngineBase::bound_floor(theta, ev.matched_lists as usize);

        loop {
            if self.cursors.is_empty() {
                break;
            }
            ev.iterations += 1;

            // Pivot selection over global per-list maxima (Eq. 2).
            let mut pivot_idx = None;
            {
                let base = &self.base;
                let trackers = &mut self.trackers;
                let mut prefix = 0.0f64;
                for (i, c) in self.cursors.cursors.iter().enumerate() {
                    let mx = trackers[c.list as usize].peek_max(|q, v| base.is_current(q, v));
                    ev.bound_computations += 1;
                    if mx > 0.0 {
                        prefix += c.f * mx;
                    }
                    if prefix >= floor {
                        pivot_idx = Some(i);
                        break;
                    }
                }
            }
            let Some(p) = pivot_idx else {
                // Even the full global bound misses θ: nothing anywhere in
                // the index can qualify for this document.
                break;
            };
            let pivot = self.cursors.cursors[p].qid;

            if self.cursors.cursors[0].qid == pivot {
                // Candidate: fully evaluate from the aligned cursors.
                let (dot, aligned) = self.cursors.score_front();
                ev.postings_accessed += aligned as u64;
                ev.full_evaluations += 1;
                if self.base.offer(pivot, doc, dot, amp) {
                    ev.updates += 1;
                    self.push_query_maxima(pivot);
                }
                self.cursors.step_front(&self.index, aligned);
            } else {
                // Jump: queries in [c_1, pivot) are pruned by UB(p-1) < θ.
                let CursorSet { cursors, blocks } = &mut self.cursors;
                for c in cursors[..p].iter_mut() {
                    c.advance_to(&self.index, blocks, pivot);
                    ev.postings_accessed += 1;
                }
                self.cursors.repair_prefix(p);
            }
        }

        // Opportunistic heap hygiene for the touched lists.
        {
            let base = &self.base;
            for c in &self.cursors.cursors {
                self.trackers[c.list as usize].maybe_compact(|q, v| base.is_current(q, v));
            }
        }

        ev.accumulate_into(&mut self.base.cum);
        ev
    }

    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
        self.base.results(qid)
    }

    fn threshold(&self, qid: QueryId) -> Option<f64> {
        self.base.state(qid).map(|s| s.threshold())
    }

    fn num_queries(&self) -> usize {
        self.index.num_live()
    }

    fn last_changes(&self) -> &[ResultChange] {
        &self.base.changes
    }

    fn cumulative(&self) -> &CumulativeStats {
        &self.base.cum
    }

    fn lambda(&self) -> f64 {
        self.base.decay.lambda()
    }

    fn landmark(&self) -> f64 {
        self.base.decay.landmark()
    }

    fn restore_landmark(&mut self, landmark: f64) {
        self.base.decay.restore_landmark(landmark);
    }

    fn tombstone_ratio(&self) -> f64 {
        self.index.tombstone_ratio()
    }

    fn compact_index(&mut self) -> usize {
        // Trackers are keyed by (qid, version), not list position, so the
        // postings can move freely underneath them.
        self.weights.compact();
        self.index.compact().len()
    }

    /// The index and the weight table beside it.
    fn storage_stats(&self) -> StorageStats {
        let mut stats = self.index.storage_stats();
        stats.index_bytes += self.weights.heap_bytes() as u64;
        StorageStats { blocks_decoded: self.cursors.blocks_decoded(), ..stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_common::{DocId, TermId};

    fn spec(terms: &[(u32, f32)], k: usize) -> QuerySpec {
        QuerySpec::new(terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), k).unwrap()
    }

    fn doc(id: u64, terms: &[(u32, f32)], at: f64) -> Document {
        Document::new(DocId(id), terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), at)
    }

    #[test]
    fn single_query_lifecycle() {
        let mut r = Rio::new(0.0);
        let q = r.register(spec(&[(1, 1.0), (2, 1.0)], 2));
        r.process(&doc(1, &[(1, 1.0), (2, 1.0)], 0.0));
        r.process(&doc(2, &[(2, 1.0), (7, 1.0)], 1.0));
        r.process(&doc(3, &[(9, 1.0)], 2.0));
        let res = r.results(q).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].doc, DocId(1));
        assert!((res[0].score.get() - 1.0).abs() < 1e-6);
        assert_eq!(res[1].doc, DocId(2));
    }

    #[test]
    fn pruning_skips_hopeless_queries_but_results_stay_exact() {
        let mut r = Rio::new(0.0);
        let q_easy = r.register(spec(&[(1, 1.0)], 1));
        let q_hard = r.register(spec(&[(2, 1.0)], 3));
        // A perfect match fills q_easy with threshold 1.0 ...
        r.process(&doc(0, &[(1, 1.0)], 0.0));
        // ... then a run of documents that barely touch term 1: their
        // f_1·u_1 = ~0.1 < θ = 1, so q_easy must be pruned, while q_hard
        // still gets its updates.
        for i in 1..21u64 {
            r.process(&doc(i, &[(1, 0.1), (2, 1.0)], i as f64));
        }
        let easy = r.results(q_easy).unwrap();
        assert_eq!(easy.len(), 1);
        assert_eq!(easy[0].doc, DocId(0), "exactness despite pruning");
        assert_eq!(r.results(q_hard).unwrap().len(), 3);
        // 21 events, 2 queries: exhaustive matching would fully evaluate
        // q_easy on every event; pruning must cut that down.
        let cum = r.cumulative();
        assert!(cum.full_evaluations < cum.events * 2, "{cum:?}");
    }

    #[test]
    fn unregister_mid_stream() {
        let mut r = Rio::new(0.0);
        let a = r.register(spec(&[(1, 1.0)], 1));
        let b = r.register(spec(&[(1, 1.0)], 1));
        r.process(&doc(1, &[(1, 1.0)], 0.0));
        assert!(r.unregister(a));
        r.process(&doc(2, &[(1, 2.0)], 1.0));
        assert!(r.results(a).is_none());
        assert_eq!(r.results(b).unwrap().len(), 1);
        assert_eq!(r.num_queries(), 1);
    }

    #[test]
    fn renormalization_keeps_results_consistent() {
        let mut r = Rio::new(0.5);
        // Force frequent renorms.
        r.base.decay = crate::score::DecayModel::new(0.5).with_max_exponent(3.0);
        let q = r.register(spec(&[(1, 1.0)], 2));
        for i in 0..40u64 {
            r.process(&doc(i, &[(1, 1.0), (2, (i % 3) as f32 + 0.1)], i as f64));
        }
        assert!(r.cumulative().renormalizations > 0);
        // With decay, the newest matching docs win.
        let docs: Vec<u64> = r.results(q).unwrap().iter().map(|s| s.doc.0).collect();
        assert_eq!(docs, vec![39, 38]);
    }
}
