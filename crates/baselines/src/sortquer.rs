//! SortQuer — continuous text queries with sorted query lists
//! (Vouzoukidou et al., CIKM 2012).
//!
//! Term-at-a-time over **weight-ordered** lists (the order never changes,
//! since weights are immutable — the structural appeal of this baseline).
//! For one document:
//!
//! 1. matched lists are processed in decreasing `f_j · maxw_j` order;
//! 2. each list is scanned in weight order, accumulating `acc[q] += f_j·w`;
//!    the scan **cuts off** once `f_j·w + P_after(j) < θ_d · minS_k` — past
//!    that point no *new* query can possibly qualify (its whole remaining
//!    potential is below the easiest threshold in the system);
//! 3. every cut contributes `f_j·w_cut` of *slack*: an accumulated query
//!    may be missing at most that much from the cut list, so the final
//!    filter is `acc[q] + slack ≥ θ_d·S_k(q)`;
//! 4. surviving candidates are re-scored exactly from the catalog and
//!    offered to their result sets.
//!
//! `minS_k` is tracked as `1/max(1/S_k)` with a versioned max-heap. While
//! any query is unfilled (`S_k = 0`) the cutoff is disabled and the scan is
//! exhaustive — the same warm-up behaviour as every other method here.

use crate::catalog::Catalog;
use ctk_common::{Document, FxHashMap, QueryId, QuerySpec, ScoredDoc, TermId};
use ctk_core::engine::EngineBase;
use ctk_core::stats::{CumulativeStats, EventStats};
use ctk_core::traits::{ContinuousTopK, ResultChange};
use ctk_index::{VersionedMaxTracker, WeightOrderedList};

/// The SortQuer baseline.
pub struct SortQuer {
    base: EngineBase,
    catalog: Catalog,
    lists: Vec<WeightOrderedList>,
    term_map: FxHashMap<TermId, u32>,
    /// Global max of `1/S_k`, i.e. `1/minS_k`.
    inv_sk: VersionedMaxTracker,
    // Per-event buffers.
    doc_weights: FxHashMap<TermId, f64>,
    acc: FxHashMap<u32, f64>,
    candidates: Vec<u32>,
}

impl SortQuer {
    pub fn new(lambda: f64) -> Self {
        SortQuer {
            base: EngineBase::new(lambda),
            catalog: Catalog::new(),
            lists: Vec::new(),
            term_map: FxHashMap::default(),
            inv_sk: VersionedMaxTracker::new(),
            doc_weights: FxHashMap::default(),
            acc: FxHashMap::default(),
            candidates: Vec::new(),
        }
    }

    fn list_of(&mut self, term: TermId) -> u32 {
        *self.term_map.entry(term).or_insert_with(|| {
            self.lists.push(WeightOrderedList::new());
            (self.lists.len() - 1) as u32
        })
    }

    fn push_inv_sk(&mut self, qid: QueryId) {
        let Some(state) = self.base.state(qid) else { return };
        let t = state.threshold();
        let inv = if t > 0.0 { 1.0 / t } else { f64::INFINITY };
        self.inv_sk.push(qid, state.version(), inv);
    }

    fn refresh_all_inv_sk(&mut self) {
        let qids: Vec<QueryId> = self.catalog.live_ids().collect();
        for qid in qids {
            self.push_inv_sk(qid);
        }
    }
}

impl ContinuousTopK for SortQuer {
    fn name(&self) -> &'static str {
        "SortQuer"
    }

    fn register(&mut self, spec: QuerySpec) -> QueryId {
        let qid = self.catalog.insert(&spec.vector);
        self.base.push_state(spec.k as u32);
        for (term, w) in spec.vector.iter() {
            let li = self.list_of(term);
            self.lists[li as usize].insert(qid, w);
        }
        self.push_inv_sk(qid);
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
        if self.base.seed(qid, seeds) {
            self.push_inv_sk(qid);
        }
    }

    fn process(&mut self, doc: &Document) -> EventStats {
        let (theta, amp, renorm) = self.base.begin_event(doc.arrival);
        if renorm.is_some() {
            self.refresh_all_inv_sk();
        }
        let mut ev = EventStats::default();

        self.doc_weights.clear();
        for (t, f) in doc.vector.iter() {
            self.doc_weights.insert(t, f as f64);
        }

        // Matched lists, ordered by decreasing maximum possible
        // contribution f_j·maxw_j (first entry of each weight-sorted list).
        let mut matched: Vec<(u32, f64, f64)> = Vec::new(); // (list, f, f*maxw)
        for (term, f) in doc.vector.iter() {
            if let Some(&li) = self.term_map.get(&term) {
                let entries = self.lists[li as usize].as_slice();
                if let Some(&(_, w0)) = entries.first() {
                    let fj = f as f64;
                    matched.push((li, fj, fj * w0 as f64));
                }
            }
        }
        matched.sort_unstable_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
        ev.matched_lists = matched.len() as u64;
        // Potentials and partial sums are other roundings of the score
        // `offer` compares (and `minS_k` a rounded reciprocal): both tests
        // below stand for θ_d at the tie floor, a few ulps under it, so a
        // candidate tying `S_k` is never cut.
        let floor = EngineBase::bound_floor(theta, matched.len());

        // Suffix potentials P_after[j] = Σ_{j' > j} f·maxw.
        let mut p_after: Vec<f64> = vec![0.0; matched.len()];
        for j in (0..matched.len().saturating_sub(1)).rev() {
            p_after[j] = p_after[j + 1] + matched[j + 1].2;
        }

        // minS_k over all live queries (0 while anyone is unfilled).
        let inv = {
            let base = &self.base;
            self.inv_sk.peek_max(|q, v| base.is_current(q, v))
        };
        ev.bound_computations += 1;
        let min_sk = if inv.is_infinite() {
            0.0
        } else if inv > 0.0 {
            1.0 / inv
        } else {
            f64::INFINITY // no queries: cut everything immediately
        };

        // Phase 1: accumulate with per-list cutoffs.
        self.acc.clear();
        let mut slack = 0.0f64;
        for (j, &(li, fj, _)) in matched.iter().enumerate() {
            ev.iterations += 1;
            let entries = self.lists[li as usize].as_slice();
            let mut cut = false;
            for &(qid, w) in entries {
                let contribution = fj * w as f64;
                // No new query starting here (or later in this list) can
                // reach even the easiest threshold in the system.
                if contribution + p_after[j] < floor * min_sk {
                    slack += contribution;
                    cut = true;
                    break;
                }
                ev.postings_accessed += 1;
                *self.acc.entry(qid.0).or_insert(0.0) += contribution;
            }
            ev.bound_computations += 1;
            let _ = cut;
        }

        // Phase 2: filter + exact re-score.
        self.candidates.clear();
        self.candidates.extend(self.acc.keys().copied());
        self.candidates.sort_unstable();
        let candidates = std::mem::take(&mut self.candidates);
        for &q in &candidates {
            let qid = QueryId(q);
            let partial = self.acc[&q];
            let sk = self.base.threshold_of(qid);
            if partial + slack < floor * sk {
                continue; // cannot qualify even with all cut contributions
            }
            // Exact score, re-scored from the catalog in record order: the
            // accumulator sums the lists by potential, and even uncut it
            // may be an ulp off the oracle's dot product.
            let dot = self.catalog.dot(qid, &self.doc_weights);
            ev.full_evaluations += 1;
            if self.base.offer(qid, doc, dot, amp) {
                ev.updates += 1;
                self.push_inv_sk(qid);
            }
        }
        self.candidates = candidates;

        {
            let base = &self.base;
            self.inv_sk.maybe_compact(|q, v| base.is_current(q, v));
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
        let mut s = SortQuer::new(0.0);
        let q = s.register(spec(&[(1, 1.0), (2, 1.0)], 2));
        s.process(&doc(1, &[(1, 1.0), (2, 1.0)], 0.0));
        s.process(&doc(2, &[(2, 1.0), (3, 1.0)], 1.0));
        let res = s.results(q).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].doc, DocId(1));
        assert!((res[1].score.get() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cutoff_skips_tail_entries_once_filled() {
        let mut s = SortQuer::new(0.0);
        // Two queries on term 1 with very different weights; both k=1.
        let strong = s.register(spec(&[(1, 1.0)], 1));
        let weak = s.register(spec(&[(1, 0.05), (2, 1.0)], 1));
        // Fill both with a perfect match each.
        s.process(&doc(0, &[(1, 1.0)], 0.0));
        s.process(&doc(1, &[(2, 1.0)], 1.0));
        let before = s.cumulative().postings_accessed;
        // A weak term-1 doc: max contribution 0.05·1.0 < min_sk·θ — the
        // whole term-1 list scan cuts immediately.
        s.process(&doc(2, &[(1, 0.02), (3, 1.0)], 2.0));
        let after = s.cumulative().postings_accessed;
        assert_eq!(after - before, 0, "cutoff should skip all entries");
        assert_eq!(s.results(strong).unwrap()[0].doc, DocId(0));
        let _ = weak;
    }

    #[test]
    fn slack_path_keeps_exactness() {
        let mut s = SortQuer::new(0.0);
        // Query with two terms whose list entries will straddle a cutoff.
        let q = s.register(spec(&[(1, 1.0), (2, 1.0)], 1));
        let filler = s.register(spec(&[(1, 1.0)], 1));
        s.process(&doc(0, &[(1, 1.0), (2, 1.0)], 0.0));
        // Later docs with split weights exercise partial accumulators.
        for i in 1..10u64 {
            s.process(&doc(i, &[(1, 0.4), (2, 0.9), (4, 0.2)], i as f64));
        }
        // Exactness check against a directly computed best.
        let res = s.results(q).unwrap();
        assert_eq!(res[0].doc, DocId(0), "perfect match stays on top");
        let _ = filler;
    }

    #[test]
    fn unregister_removes_query() {
        let mut s = SortQuer::new(0.0);
        let a = s.register(spec(&[(1, 1.0)], 1));
        let b = s.register(spec(&[(1, 1.0)], 1));
        assert!(s.unregister(a));
        assert!(!s.unregister(a));
        s.process(&doc(1, &[(1, 1.0)], 0.0));
        assert!(s.results(a).is_none());
        assert_eq!(s.results(b).unwrap().len(), 1);
    }
}
