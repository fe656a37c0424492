//! RTA — personalized top-k over web 2.0 streams (Haghani et al., CIKM'10).
//!
//! The frequency-ordered ("impact-ordered") paradigm the paper departs from:
//! per-term lists sorted by descending snapshot impact `u = w/S_k`, probed
//! with a threshold-algorithm (TA) descent. For each document the rails walk
//! their lists in parallel; the running TA threshold
//! `T = Σ_j f_j · bound_j(depth_j)` upper-bounds the normalized score of any
//! *unseen* query, so the walk stops once `T < θ_d`. Every query encountered
//! before the stop is fully evaluated on first sight.
//!
//! Impacts are **snapshots**: `S_k` only grows between rebuilds, so stored
//! bounds stay valid upper bounds, but they loosen over time — lists are
//! re-sorted with fresh impacts every `rebuild_every` events (and forcibly
//! after a landmark renormalization, which *raises* `u` and would otherwise
//! break the upper-bound contract).

use crate::catalog::Catalog;
use ctk_common::{Document, FxHashMap, QueryId, QuerySpec, ScoredDoc, TermId};
use ctk_core::engine::EngineBase;
use ctk_core::stats::{CumulativeStats, EventStats};
use ctk_core::traits::{ContinuousTopK, ResultChange};
use ctk_index::ImpactList;

/// Default list-refresh period (stream events).
pub const DEFAULT_REBUILD_EVERY: u64 = 64;

/// The RTA baseline.
pub struct Rta {
    base: EngineBase,
    catalog: Catalog,
    lists: Vec<ImpactList>,
    term_map: FxHashMap<TermId, u32>,
    rebuild_every: u64,
    events_since_rebuild: u64,
    // Per-event buffers.
    doc_weights: FxHashMap<TermId, f64>,
    seen_epoch: Vec<u32>,
    epoch: u32,
}

impl Rta {
    pub fn new(lambda: f64) -> Self {
        Rta::with_rebuild_every(lambda, DEFAULT_REBUILD_EVERY)
    }

    /// Control how often impact lists are refreshed.
    pub fn with_rebuild_every(lambda: f64, rebuild_every: u64) -> Self {
        assert!(rebuild_every >= 1);
        Rta {
            base: EngineBase::new(lambda),
            catalog: Catalog::new(),
            lists: Vec::new(),
            term_map: FxHashMap::default(),
            rebuild_every,
            events_since_rebuild: 0,
            doc_weights: FxHashMap::default(),
            seen_epoch: Vec::new(),
            epoch: 0,
        }
    }

    fn list_of(&mut self, term: TermId) -> u32 {
        *self.term_map.entry(term).or_insert_with(|| {
            self.lists.push(ImpactList::new());
            (self.lists.len() - 1) as u32
        })
    }

    fn rebuild_lists(&mut self) {
        let base = &self.base;
        for list in &mut self.lists {
            list.rebuild(|qid, w| base.normalized_of(qid, w as f64));
        }
        self.events_since_rebuild = 0;
    }
}

impl ContinuousTopK for Rta {
    fn name(&self) -> &'static str {
        "RTA"
    }

    fn register(&mut self, spec: QuerySpec) -> QueryId {
        let qid = self.catalog.insert(&spec.vector);
        self.base.push_state(spec.k as u32);
        self.seen_epoch.push(0);
        for (term, w) in spec.vector.iter() {
            let li = self.list_of(term);
            // Fresh queries are unfilled: snapshot impact +inf.
            self.lists[li as usize].insert(qid, w, f64::INFINITY);
        }
        qid
    }

    fn unregister(&mut self, qid: QueryId) -> bool {
        let Some(stored) = self.catalog.remove(qid) else { return false };
        for (term, _) in &stored.terms {
            if let Some(&li) = self.term_map.get(term) {
                self.lists[li as usize].remove(qid);
            }
        }
        self.base.drop_state(qid);
        true
    }

    fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        // Raising S_k only shrinks true impacts, so existing snapshot
        // bounds stay valid; the periodic rebuild re-tightens them.
        self.base.seed(qid, seeds);
    }

    fn process(&mut self, doc: &Document) -> EventStats {
        let (theta, amp, renorm) = self.base.begin_event(doc.arrival);
        self.events_since_rebuild += 1;
        if renorm.is_some() || self.events_since_rebuild >= self.rebuild_every {
            self.rebuild_lists();
        }
        let mut ev = EventStats::default();

        self.doc_weights.clear();
        for (t, f) in doc.vector.iter() {
            self.doc_weights.insert(t, f as f64);
        }

        // Rails over the document's matched lists.
        struct Rail {
            list: u32,
            f: f64,
            depth: usize,
        }
        let mut rails: Vec<Rail> = Vec::with_capacity(doc.vector.len());
        for (term, f) in doc.vector.iter() {
            if let Some(&li) = self.term_map.get(&term) {
                if !self.lists[li as usize].is_empty() {
                    rails.push(Rail { list: li, f: f as f64, depth: 0 });
                }
            }
        }
        ev.matched_lists = rails.len() as u64;
        // A sum of `f_j · fl(w_j/S_k)` is a different rounding of the score
        // `offer` compares: it stands for θ_d at the tie floor, a few ulps
        // under it, so a candidate tying `S_k` is never stopped short of.
        let floor = EngineBase::bound_floor(theta, rails.len());

        self.epoch += 1;
        let mut pending: Vec<QueryId> = Vec::new();
        loop {
            // TA threshold at the current depths. Only the comparison with
            // θ matters, so the sum short-circuits once it crosses θ —
            // remaining terms are non-negative.
            let mut t_bound = 0.0f64;
            let mut live_rails = 0usize;
            for r in &rails {
                let entries = self.lists[r.list as usize].as_slice();
                if r.depth < entries.len() {
                    live_rails += 1;
                    let b = entries[r.depth].bound;
                    if b > 0.0 {
                        t_bound += r.f * b;
                    }
                    ev.bound_computations += 1;
                    if t_bound >= floor {
                        break;
                    }
                }
            }
            if live_rails == 0 || t_bound < floor {
                break;
            }
            ev.iterations += 1;

            // One parallel sorted access on every live rail.
            pending.clear();
            for r in &mut rails {
                let entries = self.lists[r.list as usize].as_slice();
                if r.depth >= entries.len() {
                    continue;
                }
                let e = entries[r.depth];
                r.depth += 1;
                ev.postings_accessed += 1;
                let slot = e.qid.index();
                if self.seen_epoch[slot] != self.epoch {
                    self.seen_epoch[slot] = self.epoch;
                    pending.push(e.qid);
                }
            }
            // Evaluate first-sight queries (ascending id for determinism).
            pending.sort_unstable();
            for &qid in &pending {
                let dot = self.catalog.dot(qid, &self.doc_weights);
                ev.full_evaluations += 1;
                if self.base.offer(qid, doc, dot, amp) {
                    ev.updates += 1;
                    // Impacts for qid are now stale-but-valid; the periodic
                    // rebuild re-tightens them.
                }
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
        self.catalog.num_live()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_common::DocId;

    fn spec(terms: &[(u32, f32)], k: usize) -> QuerySpec {
        QuerySpec::new(terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), k).unwrap()
    }

    fn doc(id: u64, terms: &[(u32, f32)], at: f64) -> Document {
        Document::new(DocId(id), terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), at)
    }

    #[test]
    fn basic_results() {
        let mut r = Rta::new(0.0);
        let q = r.register(spec(&[(1, 1.0), (2, 1.0)], 2));
        r.process(&doc(1, &[(1, 1.0), (2, 1.0)], 0.0));
        r.process(&doc(2, &[(2, 1.0), (3, 1.0)], 1.0));
        let res = r.results(q).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].doc, DocId(1));
    }

    #[test]
    fn ta_stop_prunes_after_rebuild() {
        // Rebuild every event so snapshots are always tight, making the TA
        // stop condition observable.
        let mut r = Rta::with_rebuild_every(0.0, 1);
        let q = r.register(spec(&[(1, 1.0)], 1));
        r.process(&doc(0, &[(1, 1.0)], 0.0)); // threshold -> 1.0
        for i in 1..11u64 {
            r.process(&doc(i, &[(1, 0.05), (2, 1.0)], i as f64));
        }
        let cum = r.cumulative();
        assert!(cum.full_evaluations < cum.events, "{cum:?}");
        assert_eq!(r.results(q).unwrap()[0].doc, DocId(0));
    }

    #[test]
    fn stale_snapshots_never_lose_results() {
        // Never rebuild: bounds stay maximally stale; results must still be
        // exact (staleness only over-estimates).
        let mut r = Rta::with_rebuild_every(0.0, u64::MAX);
        let q = r.register(spec(&[(1, 1.0), (7, 0.5)], 2));
        let mut best = Vec::new();
        for i in 0..30u64 {
            let w1 = 0.1 + ((i * 13) % 10) as f32 / 10.0;
            let d = doc(i, &[(1, w1), (2, 1.0)], i as f64);
            best.push((d.vector.weight(TermId(1)) as f64, i));
            r.process(&d);
        }
        // Descending weight; ties broken by *smaller* doc id (the system's
        // tie-break rule).
        best.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let got: Vec<u64> = r.results(q).unwrap().iter().map(|s| s.doc.0).collect();
        assert_eq!(got, vec![best[0].1, best[1].1]);
    }

    #[test]
    fn unregister_removes_from_lists() {
        let mut r = Rta::new(0.0);
        let a = r.register(spec(&[(1, 1.0)], 1));
        let b = r.register(spec(&[(1, 1.0)], 1));
        assert!(r.unregister(a));
        r.process(&doc(1, &[(1, 1.0)], 0.0));
        assert!(r.results(a).is_none());
        assert_eq!(r.results(b).unwrap().len(), 1);
        assert_eq!(r.num_queries(), 1);
    }
}
