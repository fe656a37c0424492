//! The candidate-collection walk shared by the oracle and the doc-parallel
//! scorer workers.
//!
//! [`collect_scored_candidates`] is the term-filtered **exhaustive** walk:
//! the arithmetic that defines correctness. [`Naive`](crate::Naive) runs it
//! verbatim, and so does every document-mode worker — which is what makes
//! "bit-identical across sharding modes" a structural property rather than
//! two copies kept in sync by hand. Document mode has no other walk: a
//! bounded variant over frozen zone maxima was measured slower in every
//! cell at 10k and 50k queries and removed.

use crate::stats::EventStats;
use ctk_common::{Document, FxHashMap, QueryId, TermId};
use ctk_index::QueryIndex;

/// Reusable scratch for the collection walk: the per-event document-weight
/// map and the epoch-stamped dedup array.
#[derive(Debug, Default)]
pub struct MatchScratch {
    doc_weights: FxHashMap<TermId, f64>,
    seen: Vec<u32>,
    epoch: u32,
}

impl MatchScratch {
    /// Reset the per-event state: document weights and the dedup stamp.
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

/// The term-filtered exhaustive walk: collect every live query sharing at
/// least one term with `doc` (via the ID-ordered lists), ascending query
/// id, together with its **exact raw cosine**, updating the walk counters
/// in `ev`.
///
/// This single function is the arithmetic that both the [`crate::Naive`]
/// oracle and the doc-parallel monitor's scorer workers run. A candidate's
/// score is an f64 accumulation over its registration record, in record
/// order.
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
