//! TPS — top-k publish-subscribe (Shraer et al., PVLDB 2013).
//!
//! Like RIO, TPS indexes subscriptions (queries) in **ID-ordered** lists and
//! skips with a WAND pivot. The difference — and the reason the paper's RIO
//! beats it — is the bound: TPS decouples term weights from thresholds.
//! Each list carries its maximum *raw* weight and its maximum *inverse
//! threshold*, combined only at the prefix level:
//!
//! ```text
//! UB_TPS(i) = ( Σ_{j≤i} f_j · maxw_j ) · max_{j≤i} max_{q∈L_j} 1/S_k(q)
//! ```
//!
//! This is a valid upper bound (any candidate in the prefix lives in some
//! list `j ≤ i`, so its `1/S_k` is covered by the max), but one hard query
//! (small `S_k`, or unfilled) inflates the bound for its *whole list* —
//! where RIO couples weight and threshold per entry, and MRIO narrows both
//! to the current zone. Hence TPS jumps less and evaluates more.

use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc};
use ctk_core::engine::{CursorSet, EngineBase};
use ctk_core::stats::{CumulativeStats, EventStats};
use ctk_core::traits::{ContinuousTopK, ResultChange};
use ctk_index::{QueryIndex, StorageConfig, StorageStats, VersionedMaxTracker};

/// The TPS baseline.
pub struct Tps {
    base: EngineBase,
    index: QueryIndex,
    /// Per-list maximum raw weight (stale-valid under tombstoning).
    wmax: Vec<f64>,
    /// Per-list maximum of `1/S_k` over the queries in the list.
    inv_sk: Vec<VersionedMaxTracker>,
    cursors: CursorSet,
}

impl Tps {
    pub fn new(lambda: f64) -> Self {
        Tps::with_storage(lambda, &StorageConfig::plain())
    }

    /// As [`Tps::new`], with an explicit postings-storage configuration.
    pub fn with_storage(lambda: f64, storage: &StorageConfig) -> Self {
        Tps {
            base: EngineBase::new(lambda),
            index: QueryIndex::with_storage(storage),
            wmax: Vec::new(),
            inv_sk: Vec::new(),
            cursors: CursorSet::default(),
        }
    }

    fn push_inv_sk(&mut self, qid: QueryId) {
        let Some(state) = self.base.state(qid) else { return };
        let t = state.threshold();
        let inv = if t > 0.0 { 1.0 / t } else { f64::INFINITY };
        let version = state.version();
        let Some(rec) = self.index.record(qid) else { return };
        for e in rec.entries() {
            self.inv_sk[e.list as usize].push(qid, version, inv);
        }
    }

    fn refresh_all_inv_sk(&mut self) {
        let qids: Vec<QueryId> = self.index.live_ids().collect();
        for qid in qids {
            self.push_inv_sk(qid);
        }
    }
}

impl ContinuousTopK for Tps {
    fn name(&self) -> &'static str {
        "TPS"
    }

    fn register(&mut self, spec: QuerySpec) -> QueryId {
        let qid = self.index.register(&spec.vector, spec.k as u32);
        self.base.push_state(spec.k as u32);
        while self.wmax.len() < self.index.num_lists() {
            self.wmax.push(0.0);
            self.inv_sk.push(VersionedMaxTracker::new());
        }
        // The weights come from the spec: the index keeps them only in the
        // postings. A term without a list had no positive weight.
        for (term, weight) in spec.vector.iter() {
            if let Some(li) = self.index.list_of_term(term) {
                let wmax = &mut self.wmax[li as usize];
                *wmax = wmax.max(weight as f64);
            }
        }
        self.push_inv_sk(qid);
        qid
    }

    fn unregister(&mut self, qid: QueryId) -> bool {
        if self.index.unregister(qid).is_some() {
            self.base.drop_state(qid);
            // wmax stays as a (stale but valid) upper bound.
            true
        } else {
            false
        }
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
        let mut ev = EventStats {
            matched_lists: self.cursors.build(&self.index, doc) as u64,
            ..EventStats::default()
        };
        // A floor a few ulps under θ_d, as in RIO and MRIO: a candidate that
        // ties `S_k` exactly is never jumped.
        let floor = EngineBase::bound_floor(theta, ev.matched_lists as usize);

        loop {
            if self.cursors.is_empty() {
                break;
            }
            ev.iterations += 1;

            // Pivot: smallest i with
            // (Σ_{j<=i} f_j·wmax_j) · (max_{j<=i} invmax_j) >= theta.
            let mut pivot_idx = None;
            let mut prefix = 0.0f64;
            let mut inv_run = 0.0f64;
            {
                let base = &self.base;
                let inv_sk = &mut self.inv_sk;
                for (i, c) in self.cursors.cursors.iter().enumerate() {
                    prefix += c.f * self.wmax[c.list as usize];
                    let inv = inv_sk[c.list as usize].peek_max(|q, v| base.is_current(q, v));
                    if inv > inv_run {
                        inv_run = inv;
                    }
                    ev.bound_computations += 1;
                    if prefix * inv_run >= floor {
                        pivot_idx = Some(i);
                        break;
                    }
                }
            }
            let Some(p) = pivot_idx else {
                break; // global bound: nothing anywhere qualifies
            };
            let pivot = self.cursors.cursors[p].qid;

            if self.cursors.cursors[0].qid == pivot {
                let (dot, aligned) = self.cursors.score_front();
                ev.postings_accessed += aligned as u64;
                ev.full_evaluations += 1;
                if self.base.offer(pivot, doc, dot, amp) {
                    ev.updates += 1;
                    self.push_inv_sk(pivot);
                }
                self.cursors.step_front(&self.index, aligned);
            } else {
                let CursorSet { cursors, blocks } = &mut self.cursors;
                for c in cursors[..p].iter_mut() {
                    c.advance_to(&self.index, blocks, pivot);
                    ev.postings_accessed += 1;
                }
                self.cursors.repair_prefix(p);
            }
        }

        {
            let base = &self.base;
            for c in &self.cursors.cursors {
                self.inv_sk[c.list as usize].maybe_compact(|q, v| base.is_current(q, v));
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
        // `wmax` is a stale-valid upper bound and the `inv_sk` trackers are
        // keyed by (qid, version), so neither depends on list positions.
        self.index.compact().len()
    }

    fn storage_stats(&self) -> StorageStats {
        StorageStats { blocks_decoded: self.cursors.blocks_decoded(), ..self.index.storage_stats() }
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
    fn basic_results() {
        let mut t = Tps::new(0.0);
        let q = t.register(spec(&[(1, 1.0), (2, 1.0)], 2));
        t.process(&doc(1, &[(1, 1.0), (2, 1.0)], 0.0));
        t.process(&doc(2, &[(2, 1.0), (3, 1.0)], 1.0));
        let res = t.results(q).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].doc, DocId(1));
    }

    #[test]
    fn coarser_bound_still_prunes_eventually() {
        let mut t = Tps::new(0.0);
        let q_easy = t.register(spec(&[(1, 1.0)], 1));
        t.process(&doc(0, &[(1, 1.0)], 0.0)); // threshold 1.0
        for i in 1..11u64 {
            t.process(&doc(i, &[(1, 0.05), (2, 1.0)], i as f64));
        }
        // All queries filled, bound finite: the weak term-1 docs must be
        // prunable (f·wmax·(1/S_k) = 0.05 < 1).
        let cum = t.cumulative();
        assert!(cum.full_evaluations < cum.events, "{cum:?}");
        assert_eq!(t.results(q_easy).unwrap()[0].doc, DocId(0));
    }

    #[test]
    fn unregister_releases_query() {
        let mut t = Tps::new(0.0);
        let a = t.register(spec(&[(1, 1.0)], 1));
        let b = t.register(spec(&[(1, 1.0)], 1));
        t.process(&doc(1, &[(1, 1.0)], 0.0));
        assert!(t.unregister(a));
        t.process(&doc(2, &[(1, 1.0)], 1.0));
        assert!(t.results(a).is_none());
        assert!(t.results(b).unwrap().len() == 1);
    }
}
