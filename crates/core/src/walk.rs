//! The candidate-collection walk strategies shared by the oracle and the
//! doc-parallel scorer workers.
//!
//! [`collect_scored_candidates`] is the term-filtered **exhaustive** walk:
//! the arithmetic that defines correctness. [`Naive`](crate::Naive) runs it
//! verbatim, and so do document-mode workers by default — which is what
//! makes "bit-identical across sharding modes" a structural property rather
//! than two copies kept in sync by hand.
//!
//! [`collect_scored_candidates_bounded`] is the **bounded** walk document
//! mode switches to when pruning is enabled: the same collection semantics,
//! but consulting a frozen [`EpochBounds`] epoch to skip whole zones of a
//! postings list whose score upper bound cannot reach the document's target
//! `θ_d` (see [`ctk_index::epoch_bounds`] for the bound's derivation). Both
//! walks score every surviving candidate with the **same helper over the
//! same registration records in the same accumulation order**, so a
//! candidate collected by either walk carries a bit-identical raw cosine —
//! the bounded walk can only *drop* candidates the submit-time threshold
//! filter would reject anyway, never change one.
//!
//! Work accounting: both walks fill the same [`EventStats`] fields for the
//! work they actually perform; the bounded walk additionally reports
//! `zones_skipped` / `postings_skipped` for the work its bounds proved
//! unnecessary, and `bound_computations` for the zone probes that proved
//! it. Skipping changes the *work* counters (that is the point), never the
//! results, changes or per-document `updates`.

use crate::engine::{CursorSet, EngineBase};
use crate::stats::EventStats;
use ctk_common::{Document, FxHashMap, QueryId, TermId};
use ctk_index::{BlockMax, EpochBounds, QueryIndex};

/// The zone granularity of the bounded walk, aligned with [`BlockMax`]'s
/// default block so every whole-zone probe is answered from the block cache
/// in O(1).
pub const DOC_WALK_ZONE: usize = ctk_index::block_max::DEFAULT_BLOCK;

/// The epoch-bound instantiation document mode uses.
pub type DocEpochBounds = EpochBounds<BlockMax>;

/// Reusable scratch for the collection walks: the per-event document-weight
/// map, the epoch-stamped dedup array, and the bounded walk's cursor set.
#[derive(Debug, Default)]
pub struct MatchScratch {
    doc_weights: FxHashMap<TermId, f64>,
    seen: Vec<u32>,
    epoch: u32,
    /// The bounded walk's per-event cursor working set (one cursor per
    /// matched list, id-ordered — the same machinery MRIO traverses with).
    cursors: CursorSet,
}

impl MatchScratch {
    /// Reset the per-event state shared by both walks: document weights and
    /// the dedup stamp.
    fn begin_event(&mut self, index: &QueryIndex, doc: &Document) {
        self.doc_weights.clear();
        for (t, f) in doc.vector.iter() {
            self.doc_weights.insert(t, f as f64);
        }
        if self.seen.len() < index.num_slots() {
            self.seen.resize(index.num_slots(), 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: stale marks could alias the new epoch.
            self.seen.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
    }
}

/// Fully score every collected candidate: exact raw cosine as f64
/// accumulation over the query's registration record, in record order. One
/// function, called by both walks — the definition of a candidate's score.
fn score_candidates(
    index: &QueryIndex,
    s: &MatchScratch,
    ev: &mut EventStats,
    out: &mut [(QueryId, f64)],
) {
    for (qid, dot) in out.iter_mut() {
        let rec = index.record(*qid).expect("live posting implies record");
        let mut acc = 0.0f64;
        for e in rec.entries() {
            if let Some(&f) = s.doc_weights.get(&e.term) {
                acc += f * e.weight as f64;
            }
        }
        *dot = acc;
        ev.full_evaluations += 1;
        ev.iterations += 1;
    }
}

/// The term-filtered exhaustive walk: collect every live query sharing at
/// least one term with `doc` (via the ID-ordered lists), ascending query
/// id, together with its **exact raw cosine**, updating the walk counters
/// in `ev`.
///
/// This single function is the arithmetic that both the [`crate::Naive`]
/// oracle and the doc-parallel monitor's scorer workers run.
pub fn collect_scored_candidates(
    index: &QueryIndex,
    doc: &Document,
    s: &mut MatchScratch,
    ev: &mut EventStats,
    out: &mut Vec<(QueryId, f64)>,
) {
    out.clear();
    s.begin_event(index, doc);

    // Union of matching queries via the live postings.
    for (term, _) in doc.vector.iter() {
        let Some(li) = index.list_of_term(term) else { continue };
        let list = index.list(li);
        if list.live() == 0 {
            continue;
        }
        ev.matched_lists += 1;
        list.for_each_live(|qid, _| {
            ev.postings_accessed += 1;
            let slot = qid.index();
            if s.seen[slot] != s.epoch {
                s.seen[slot] = s.epoch;
                out.push((qid, 0.0));
            }
        });
    }
    out.sort_unstable_by_key(|&(qid, _)| qid);
    score_candidates(index, s, ev, out);
}

/// Exclusive id bound of zone `i` of a cursor set: the next cursor's id, or
/// one past the last cursor for the final zone (making it inclusive of
/// `c_m`) — MRIO's zone geometry.
fn zone_bound(cursors: &CursorSet, i: usize) -> QueryId {
    let cs = &cursors.cursors;
    if i + 1 < cs.len() {
        cs[i + 1].qid
    } else {
        QueryId(cs[cs.len() - 1].qid.0 + 1)
    }
}

/// `UB*` for the prefix `0..=i` of the cursor set against the frozen
/// bounds: for each prefix list, the zone maximum between its cursor and
/// the zone's id bound. Counts one bound computation per term.
fn prefix_bound(
    index: &QueryIndex,
    bounds: &DocEpochBounds,
    cursors: &mut CursorSet,
    i: usize,
    bound: QueryId,
    ev: &mut EventStats,
) -> f64 {
    let mut sum = 0.0f64;
    let CursorSet { cursors, blocks } = cursors;
    for c in &cursors[..=i] {
        let hi = c.probe(index, blocks, bound);
        let mx = bounds.zone_max(c.list, c.pos(), hi);
        ev.bound_computations += 1;
        if mx > 0.0 {
            sum += c.f * mx;
            if sum >= f64::INFINITY {
                break;
            }
        }
    }
    sum
}

/// The bounded walk: identical collection semantics to
/// [`collect_scored_candidates`], except that id zones whose `UB*` proves
/// no resident query can reach the document's target `θ_d` are skipped
/// wholesale — MRIO's traversal (global pre-filter, galloped minimal
/// pivot, zone jumps) run against the epoch's *frozen* bounds instead of an
/// engine's live ones.
///
/// `bounds` must be a frozen epoch built over (a prefix of the threshold
/// history of) the same `index` epoch, and `theta` the document's pruning
/// target `θ_d = e^{−λΔτ}` in the *same decay frame* the bounds were built
/// in. Conservativeness then follows from threshold monotonicity: `S_k`
/// only rises between bound rebuilds, so every frozen zone value
/// upper-bounds the live `u = w/S_k`, and a skipped query's score is
/// strictly below its own threshold — the submit-time filter (and the
/// merge) would reject it anyway. The walk is therefore a *filter
/// accelerator*: it changes which candidates are even looked at, never
/// which candidates survive.
pub fn collect_scored_candidates_bounded(
    index: &QueryIndex,
    bounds: &DocEpochBounds,
    theta: f64,
    doc: &Document,
    s: &mut MatchScratch,
    ev: &mut EventStats,
    out: &mut Vec<(QueryId, f64)>,
) {
    out.clear();
    s.begin_event(index, doc);
    let mut cursors = std::mem::take(&mut s.cursors);
    let m = cursors.build(index, doc);
    ev.matched_lists += m as u64;
    // A zone is skipped only when its bound is under the tie floor, a few
    // ulps below θ_d: the bound and the oracle's dot product round
    // differently, and a candidate tying `S_k` exactly may still win on its
    // doc id (MRIO, RIO and TPS compare with the same floor).
    let target = EngineBase::bound_floor(theta, m);

    if cursors.len() == 1 {
        // Single matched list: cursor zones degenerate to one id per zone,
        // so jump block-aligned position zones instead — every probe is an
        // O(1) read of a cached block maximum, and the cursor walks the
        // live postings of the zones that survive.
        let CursorSet { cursors: cs, blocks } = &mut cursors;
        let c = &mut cs[0];
        let (list, f) = (c.list, c.f);
        let len = index.list(list).len();
        let mut lo = 0usize;
        while lo < len {
            let hi = (lo + DOC_WALK_ZONE).min(len);
            ev.bound_computations += 1;
            if f * bounds.zone_max(list, lo, hi) < target {
                ev.zones_skipped += 1;
                ev.postings_skipped += (hi - lo) as u64;
            } else {
                c.advance_to_pos(index, blocks, lo);
                while c.pos() < hi {
                    ev.postings_accessed += 1;
                    out.push((c.qid, 0.0));
                    c.advance_past_current(index, blocks);
                }
            }
            lo = hi;
        }
    } else {
        loop {
            if cursors.is_empty() {
                break;
            }
            let m = cursors.len();

            // Phase 1: RIO-style global pre-filter over the cached per-list
            // maxima. If even the sum of global bounds never reaches the
            // target, the entire remaining id space is pruned.
            let mut global_pivot: Option<usize> = None;
            {
                let mut gsum = 0.0f64;
                for (i, c) in cursors.cursors.iter().enumerate() {
                    let g = bounds.global_max(c.list);
                    ev.bound_computations += 1;
                    if g > 0.0 {
                        gsum += c.f * g;
                    }
                    if gsum >= target {
                        global_pivot = Some(i);
                        break;
                    }
                }
            }
            let Some(ig) = global_pivot else {
                ev.zones_skipped += 1;
                for c in &cursors.cursors {
                    ev.postings_skipped += (index.list(c.list).len() - c.pos()) as u64;
                }
                break;
            };

            // Phase 2: smallest i >= ig with UB*(i) >= target (UB* is
            // monotone in i): gallop up, then binary-search the bracket.
            let mut pivot_idx: Option<usize> = None;
            let mut lo = ig;
            let mut step = 0usize;
            loop {
                let i = (ig + step).min(m - 1);
                let b = zone_bound(&cursors, i);
                if prefix_bound(index, bounds, &mut cursors, i, b, ev) >= target {
                    let mut hi = i;
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        let bm = zone_bound(&cursors, mid);
                        if prefix_bound(index, bounds, &mut cursors, mid, bm, ev) >= target {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    pivot_idx = Some(lo);
                    break;
                }
                if i == m - 1 {
                    break; // even UB*(m) < target
                }
                lo = i + 1;
                step = step * 2 + 1;
            }

            match pivot_idx {
                None => {
                    // The bound refutes the whole zone [c_1, c_m]: jump
                    // every cursor past the last covered id.
                    ev.zones_skipped += 1;
                    let jump = zone_bound(&cursors, m - 1);
                    let CursorSet { cursors: cs, blocks } = &mut cursors;
                    for c in cs.iter_mut() {
                        let from = c.pos();
                        c.advance_to(index, blocks, jump);
                        ev.postings_accessed += 1;
                        ev.postings_skipped += (c.pos() - from).saturating_sub(1) as u64;
                    }
                    cursors.sort_full();
                }
                Some(p) => {
                    let pivot = cursors.cursors[p].qid;
                    if cursors.cursors[0].qid == pivot {
                        // Collect the pivot (scored with the shared record
                        // helper below) and consume its aligned postings.
                        out.push((pivot, 0.0));
                        let mut moved = 0usize;
                        let CursorSet { cursors: cs, blocks } = &mut cursors;
                        for c in cs.iter_mut() {
                            if c.qid != pivot {
                                break;
                            }
                            ev.postings_accessed += 1;
                            c.advance_past_current(index, blocks);
                            moved += 1;
                        }
                        cursors.repair_prefix(moved);
                    } else {
                        let CursorSet { cursors: cs, blocks } = &mut cursors;
                        for c in cs[..p].iter_mut() {
                            let from = c.pos();
                            c.advance_to(index, blocks, pivot);
                            ev.postings_accessed += 1;
                            ev.postings_skipped += (c.pos() - from).saturating_sub(1) as u64;
                        }
                        cursors.repair_prefix(p);
                    }
                }
            }
        }
    }
    s.cursors = cursors;
    out.sort_unstable_by_key(|&(qid, _)| qid);
    score_candidates(index, s, ev, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_common::{DocId, SparseVector};

    fn vector(pairs: &[(u32, f32)]) -> SparseVector {
        let mut v = SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)).collect());
        v.normalize();
        v
    }

    fn doc(id: u64, terms: &[(u32, f32)], at: f64) -> Document {
        Document::new(DocId(id), terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), at)
    }

    /// Bounds built from a threshold table, frozen.
    fn bounds_from(index: &QueryIndex, thresholds: &[f64]) -> DocEpochBounds {
        let mut b = DocEpochBounds::new();
        b.rebuild_all(index, |qid, w| {
            let t = thresholds[qid.index()];
            if t > 0.0 {
                w as f64 / t
            } else {
                f64::INFINITY
            }
        });
        b.freeze();
        b
    }

    /// The bounded walk's surviving candidates must be exactly the
    /// exhaustive walk's minus entries failing the threshold test, carrying
    /// bit-identical dots — across a spread of thresholds and documents.
    #[test]
    fn bounded_walk_is_a_lossless_filter_accelerator() {
        let mut index = QueryIndex::new();
        let n = 400usize;
        for i in 0..n {
            index.register(&vector(&[(i as u32 % 7, 1.0), (7 + i as u32 % 5, 0.5)]), 1);
        }
        // A spread of filled thresholds, a few unfilled stragglers, a few
        // tombstones.
        let mut thresholds: Vec<f64> = (0..n).map(|i| 0.2 + (i % 10) as f64 * 0.08).collect();
        for t in thresholds.iter_mut().step_by(97) {
            *t = 0.0; // unfilled: must always be collected when matched
        }
        for q in [13u32, 14, 15, 200] {
            index.unregister(QueryId(q));
        }
        let bounds = bounds_from(&index, &thresholds);

        let mut s_ex = MatchScratch::default();
        let mut s_bd = MatchScratch::default();
        for d in 0..40u64 {
            let docv =
                doc(d, &[((d % 7) as u32, 1.0), ((7 + d % 5) as u32, 0.3), (999, 1.0)], d as f64);
            let theta = 0.9f64; // pure-cosine frame: amp = 1/theta
            let mut ev_ex = EventStats::default();
            let mut ev_bd = EventStats::default();
            let mut out_ex = Vec::new();
            let mut out_bd = Vec::new();
            collect_scored_candidates(&index, &docv, &mut s_ex, &mut ev_ex, &mut out_ex);
            collect_scored_candidates_bounded(
                &index,
                &bounds,
                theta,
                &docv,
                &mut s_bd,
                &mut ev_bd,
                &mut out_bd,
            );

            // Every surviving exhaustive candidate (dot/S_k >= theta, or
            // unfilled) must appear in the bounded output with the same dot.
            for &(qid, dot) in &out_ex {
                let t = thresholds[qid.index()];
                if t == 0.0 || dot / t >= theta {
                    let found = out_bd.iter().find(|&&(q, _)| q == qid);
                    match found {
                        Some(&(_, bdot)) => {
                            assert!(bdot == dot, "query {qid}: dot {bdot} != oracle {dot}")
                        }
                        None => panic!("query {qid} (dot {dot}, S_k {t}) was wrongly pruned"),
                    }
                }
            }
            // And the bounded output is a subset of the exhaustive one.
            for &(qid, dot) in &out_bd {
                let ex = out_ex.iter().find(|&&(q, _)| q == qid);
                assert_eq!(ex, Some(&(qid, dot)), "bounded walk invented a candidate");
            }
            // Conservation: skipped slots at least cover the oracle's extra
            // posting reads.
            assert!(ev_bd.postings_accessed <= ev_ex.postings_accessed);
            assert!(
                ev_bd.postings_accessed + ev_bd.postings_skipped >= ev_ex.postings_accessed,
                "skips must account for the walk delta"
            );
            assert_eq!(ev_bd.matched_lists, ev_ex.matched_lists);
        }
    }

    #[test]
    fn bounded_walk_skips_zones_under_tight_thresholds() {
        // One hot term, hundreds of filled queries with high thresholds: a
        // weak document must skip nearly everything.
        let mut index = QueryIndex::new();
        let n = 512usize;
        for _ in 0..n {
            index.register(&vector(&[(1, 1.0), (2, 1.0)]), 1);
        }
        let thresholds = vec![0.95f64; n];
        let bounds = bounds_from(&index, &thresholds);
        let mut s = MatchScratch::default();
        let mut ev = EventStats::default();
        let mut out = Vec::new();
        // cos(doc, q) = (1/√2)·(1/√10·3) ≈ 0.67 < 0.95: nothing qualifies.
        let weak = doc(0, &[(1, 1.0), (3, 3.0)], 0.0);
        collect_scored_candidates_bounded(&index, &bounds, 1.0, &weak, &mut s, &mut ev, &mut out);
        assert!(out.is_empty(), "no candidate can beat 0.95");
        assert_eq!(ev.postings_accessed, 0, "every zone is skipped");
        assert_eq!(ev.zones_skipped as usize, n.div_ceil(DOC_WALK_ZONE));
        assert_eq!(ev.postings_skipped as usize, n);
        assert_eq!(ev.full_evaluations, 0);

        // A perfect-match document walks everything and keeps all dots.
        let strong = doc(1, &[(1, 1.0), (2, 1.0)], 0.0);
        let mut ev2 = EventStats::default();
        collect_scored_candidates_bounded(
            &index, &bounds, 1.0, &strong, &mut s, &mut ev2, &mut out,
        );
        assert_eq!(out.len(), n);
        assert_eq!(ev2.zones_skipped, 0);
    }

    #[test]
    fn unfilled_queries_are_never_pruned() {
        let mut index = QueryIndex::new();
        for _ in 0..128 {
            index.register(&vector(&[(1, 1.0)]), 1);
        }
        let unfilled = index.register(&vector(&[(1, 1.0)]), 1);
        let mut thresholds = vec![0.99f64; 129];
        thresholds[unfilled.index()] = 0.0;
        let bounds = bounds_from(&index, &thresholds);
        let mut s = MatchScratch::default();
        let mut ev = EventStats::default();
        let mut out = Vec::new();
        let weak = doc(0, &[(1, 0.1), (9, 3.0)], 0.0);
        collect_scored_candidates_bounded(&index, &bounds, 1.0, &weak, &mut s, &mut ev, &mut out);
        assert_eq!(out.len(), 1, "only the unfilled query survives");
        assert_eq!(out[0].0, unfilled);
        assert!(ev.zones_skipped >= 2, "the filled-only zones are skipped");
    }
}
