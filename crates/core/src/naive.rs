//! The exhaustive gold-standard matcher.
//!
//! For every arriving document, `Naive` collects the union of all queries
//! that share at least one term with it (via the ID-ordered lists) and fully
//! scores each one. Queries sharing no term have cosine 0 and can never enter
//! a result set, so this is exact. Every other algorithm is tested for
//! result-set equality against this one.

use crate::engine::EngineBase;
use crate::stats::{CumulativeStats, EventStats};
use crate::traits::{ContinuousTopK, ResultChange};
use ctk_common::{Document, FxHashMap, QueryId, QuerySpec, ScoredDoc, TermId};
use ctk_index::{QueryIndex, QueryWeights, StorageConfig, StorageStats};

/// Term-filtered exhaustive continuous top-k.
pub struct Naive {
    base: EngineBase,
    index: QueryIndex,
    /// Each query's weights in record order: the index keeps a weight only
    /// in its posting.
    weights: QueryWeights,
    // Reused per-event buffers: the document's term weights, the
    // epoch-stamped dedup array and the collected candidates.
    doc_weights: FxHashMap<TermId, f64>,
    seen: Vec<u32>,
    epoch: u32,
    candidates: Vec<QueryId>,
}

impl Naive {
    pub fn new(lambda: f64) -> Self {
        Naive::with_storage(lambda, &StorageConfig::plain())
    }

    /// As [`Naive::new`], with an explicit postings-storage configuration.
    pub fn with_storage(lambda: f64, storage: &StorageConfig) -> Self {
        Naive {
            base: EngineBase::new(lambda),
            index: QueryIndex::with_storage(storage),
            weights: QueryWeights::default(),
            doc_weights: FxHashMap::default(),
            seen: Vec::new(),
            epoch: 0,
            candidates: Vec::new(),
        }
    }

    /// Reset the per-event buffers: document weights and the dedup stamp.
    fn reset_buffers(&mut self, doc: &Document) {
        self.doc_weights.clear();
        for (t, f) in doc.vector.iter() {
            self.doc_weights.insert(t, f as f64);
        }
        if self.seen.len() < self.index.num_slots() {
            self.seen.resize(self.index.num_slots(), 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: stale marks could alias the new epoch.
            self.seen.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
    }
}

impl ContinuousTopK for Naive {
    fn name(&self) -> &'static str {
        "Naive"
    }

    fn register(&mut self, spec: QuerySpec) -> QueryId {
        let qid = self.index.register(&spec.vector, spec.k as u32);
        self.weights.push(&spec.vector);
        self.base.push_state(spec.k as u32);
        qid
    }

    fn unregister(&mut self, qid: QueryId) -> bool {
        if self.index.unregister(qid).is_some() {
            self.weights.remove(qid);
            self.base.drop_state(qid);
            true
        } else {
            false
        }
    }

    fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        self.base.seed(qid, seeds);
    }

    fn process(&mut self, doc: &Document) -> EventStats {
        let (_theta, amp, _renorm) = self.base.begin_event(doc.arrival);
        let mut ev = EventStats::default();
        self.reset_buffers(doc);

        // Union of matching queries via the live postings, ascending id.
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        for (term, _) in doc.vector.iter() {
            let Some(li) = self.index.list_of_term(term) else { continue };
            let list = self.index.list(li);
            if list.live() == 0 {
                continue;
            }
            ev.matched_lists += 1;
            list.for_each_live(|qid, _| {
                ev.postings_accessed += 1;
                let slot = qid.index();
                if self.seen[slot] != self.epoch {
                    self.seen[slot] = self.epoch;
                    candidates.push(qid);
                }
            });
        }
        candidates.sort_unstable();

        // Each candidate's exact raw cosine: an f64 accumulation over its
        // registration record, in record order.
        for &qid in &candidates {
            let rec = self.index.record(qid).expect("live posting implies record");
            let weights = self.weights.get(qid).expect("a live query has weights");
            let mut dot = 0.0f64;
            for (e, &w) in rec.entries().zip(weights) {
                if let Some(&f) = self.doc_weights.get(&e.term) {
                    dot += f * w as f64;
                }
            }
            ev.full_evaluations += 1;
            ev.iterations += 1;
            if self.base.offer(qid, doc, dot, amp) {
                ev.updates += 1;
            }
        }
        self.candidates = candidates;

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
        self.weights.compact();
        self.index.compact().len()
    }

    /// The index and the weight table beside it.
    fn storage_stats(&self) -> StorageStats {
        let mut stats = self.index.storage_stats();
        stats.index_bytes += self.weights.heap_bytes() as u64;
        stats
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
    fn matches_hand_computed_topk() {
        let mut n = Naive::new(0.0);
        let q = n.register(spec(&[(1, 1.0), (2, 1.0)], 2));
        // doc 1 matches both terms (cosine 1 against the query direction
        // when the doc is the same direction).
        n.process(&doc(1, &[(1, 1.0), (2, 1.0)], 0.0));
        // doc 2 matches one term.
        n.process(&doc(2, &[(2, 1.0), (3, 1.0)], 1.0));
        // doc 3 matches nothing.
        n.process(&doc(3, &[(9, 1.0)], 2.0));
        let res = n.results(q).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].doc, DocId(1));
        assert!((res[0].score.get() - 1.0).abs() < 1e-6);
        assert_eq!(res[1].doc, DocId(2));
        // cos = (1/√2)·(1/√2) = 0.5
        assert!((res[1].score.get() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn decay_prefers_newer_equal_docs() {
        let mut n = Naive::new(0.1);
        let q = n.register(spec(&[(1, 1.0)], 1));
        n.process(&doc(1, &[(1, 1.0)], 0.0));
        n.process(&doc(2, &[(1, 1.0)], 10.0)); // same cosine, newer
        let res = n.results(q).unwrap();
        assert_eq!(res[0].doc, DocId(2));
    }

    #[test]
    fn without_decay_first_equal_doc_wins() {
        let mut n = Naive::new(0.0);
        let q = n.register(spec(&[(1, 1.0)], 1));
        n.process(&doc(5, &[(1, 1.0)], 0.0));
        n.process(&doc(2, &[(1, 1.0)], 1.0));
        // Equal scores: the incumbent stays unless the challenger has a
        // *smaller* doc id — doc 2 < doc 5, so it replaces.
        assert_eq!(n.results(q).unwrap()[0].doc, DocId(2));
    }

    #[test]
    fn unregister_stops_updates() {
        let mut n = Naive::new(0.0);
        let q = n.register(spec(&[(1, 1.0)], 1));
        assert!(n.unregister(q));
        assert!(!n.unregister(q));
        let ev = n.process(&doc(1, &[(1, 1.0)], 0.0));
        assert_eq!(ev.full_evaluations, 0);
        assert_eq!(n.results(q), None);
        assert_eq!(n.num_queries(), 0);
    }

    #[test]
    fn changes_reported_per_event() {
        let mut n = Naive::new(0.0);
        let q = n.register(spec(&[(1, 1.0)], 1));
        n.process(&doc(1, &[(1, 1.0)], 0.0));
        assert_eq!(n.last_changes().len(), 1);
        assert_eq!(n.last_changes()[0].query, q);
        n.process(&doc(2, &[(8, 1.0)], 1.0));
        assert!(n.last_changes().is_empty());
    }

    #[test]
    fn stats_count_candidates() {
        let mut n = Naive::new(0.0);
        n.register(spec(&[(1, 1.0)], 1));
        n.register(spec(&[(1, 1.0), (2, 2.0)], 1));
        n.register(spec(&[(3, 1.0)], 1));
        let ev = n.process(&doc(1, &[(1, 1.0), (2, 1.0)], 0.0));
        assert_eq!(ev.full_evaluations, 2, "q0 and q1 match, q2 does not");
        assert_eq!(ev.matched_lists, 2);
        assert_eq!(n.cumulative().events, 1);
    }
}
