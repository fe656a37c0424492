//! Shared machinery for all algorithm implementations.
//!
//! [`EngineBase`] owns what every algorithm needs regardless of its index
//! paradigm: the decay model (with landmark renormalization), the per-query
//! result sets ([`ResultSets`]), result-change reporting and cumulative
//! counters.
//!
//! [`CursorSet`] is the per-event working set of the ID-ordering family
//! (RIO, MRIO, TPS): one cursor per matched postings list, kept sorted by
//! the query id under the cursor — this ordering *is* the "processing
//! order" of paper §III — plus the decoded blocks those cursors read
//! compressed lists through.

use crate::score::DecayModel;
use crate::stats::CumulativeStats;
use crate::topk::{Offer, ResultSets, TopKState};
use crate::traits::ResultChange;
use ctk_common::{Document, QueryId, ScoredDoc, Timestamp};
use ctk_index::{BlockScratch, ListRef, QueryIndex};

/// Decay + result-set state shared by every algorithm.
#[derive(Debug)]
pub struct EngineBase {
    pub decay: DecayModel,
    sets: ResultSets,
    pub changes: Vec<ResultChange>,
    pub cum: CumulativeStats,
}

impl EngineBase {
    pub fn new(lambda: f64) -> Self {
        EngineBase {
            decay: DecayModel::new(lambda),
            sets: ResultSets::default(),
            changes: Vec::new(),
            cum: CumulativeStats::default(),
        }
    }

    /// Allocate the result state for a newly registered query.
    pub fn push_state(&mut self, k: u32) {
        self.sets.push(k);
    }

    /// Drop the state of an unregistered query.
    pub fn drop_state(&mut self, qid: QueryId) -> bool {
        self.sets.drop_set(qid.index())
    }

    #[inline]
    pub fn state(&self, qid: QueryId) -> Option<TopKState<'_>> {
        self.sets.get(qid.index())
    }

    /// `S_k` of a live query, `0.0` while unfilled.
    #[inline]
    pub fn threshold_of(&self, qid: QueryId) -> f64 {
        self.sets.threshold(qid.index())
    }

    /// Whether [`EngineBase::offer`] would insert this candidate — the same
    /// product and the same comparison ([`TopKState::admits`]), decided from
    /// the dense `S_k` alone unless the score ties it exactly.
    #[inline]
    pub fn admits(&self, qid: QueryId, doc: &Document, raw_dot: f64, amp: f64) -> bool {
        let (score, sk) = (raw_dot * amp, self.threshold_of(qid));
        let tie = || self.state(qid).is_some_and(|s| s.admits(&ScoredDoc::new(doc.id, score)));
        score > sk || (score == sk && tie())
    }

    /// The value a rounded bound over `m` matched lists is compared with
    /// when it stands for `θ_d`: a few ulps under it. A bound sums
    /// `f_j·fl(w_j/S_k)`, the oracle compares `fl(Σ f_j·w_j)·amp` with `S_k`,
    /// and `θ_d = fl(e^{-x})`, `amp = fl(e^{x})`: each side carries at most
    /// `m + 1` roundings plus one per exponential, so a candidate that ties
    /// `S_k` — one [`EngineBase::admits`] lets in on the smaller doc id —
    /// may come out at `θ_d − ulp`. Under `θ_d·(1 − (m + 4)·2⁻⁵²)` no such
    /// candidate is pruned.
    #[inline]
    pub fn bound_floor(theta: f64, m: usize) -> f64 {
        theta * (1.0 - (m + 4) as f64 * f64::EPSILON)
    }

    /// Current `(version, u = w/S_k)` of a live query; used both to push
    /// fresh tracker entries and to validate stale ones.
    #[inline]
    pub fn normalized_of(&self, qid: QueryId, weight: f64) -> f64 {
        self.state(qid).map(|s| s.normalized(weight)).unwrap_or(f64::NEG_INFINITY)
    }

    /// True when `(qid, version)` matches the live state — the validity
    /// check for [`ctk_index::VersionedMaxTracker`] entries.
    #[inline]
    pub fn is_current(&self, qid: QueryId, version: u32) -> bool {
        self.state(qid).is_some_and(|s| s.version() == version)
    }

    /// Per-event prologue: perform a landmark renormalization if due (all
    /// result scores are rescaled here; index-side structures are the
    /// caller's job via the returned factor) and compute the event target
    /// `θ_d`. Returns `(theta, amplification, renorm_factor)`.
    pub fn begin_event(&mut self, arrival: Timestamp) -> (f64, f64, Option<f64>) {
        let mut renorm = None;
        if self.decay.needs_renorm(arrival) {
            let r = self.decay.renormalize(arrival);
            self.sets.rescale(r);
            self.cum.renormalizations += 1;
            renorm = Some(r);
        }
        self.changes.clear();
        (self.decay.theta(arrival), self.decay.amplification(arrival), renorm)
    }

    /// [`EngineBase::begin_event`] for callers that have already
    /// established no renormalization can be due — batched ingestion checks
    /// the batch's *last* arrival once (timestamps are non-decreasing, so
    /// it bounds every event in the batch) and then skips the per-event
    /// decay test in the inner loop.
    pub fn begin_event_steady(&mut self, arrival: Timestamp) -> (f64, f64) {
        debug_assert!(!self.decay.needs_renorm(arrival));
        self.changes.clear();
        (self.decay.theta(arrival), self.decay.amplification(arrival))
    }

    /// Offer a fully evaluated candidate to query `qid`. Records the result
    /// change and returns `true` on insertion (callers then refresh their
    /// bound structures for this query).
    pub fn offer(&mut self, qid: QueryId, doc: &Document, raw_dot: f64, amp: f64) -> bool {
        let cand = ScoredDoc::new(doc.id, raw_dot * amp);
        match self.sets.offer(qid.index(), cand) {
            Offer::Rejected => false,
            Offer::Inserted { evicted } => {
                self.changes.push(ResultChange { query: qid, inserted: cand, evicted });
                true
            }
        }
    }

    /// Bring the result sets of `qids` into cache ahead of offers to them
    /// ([`ResultSets::warm`]).
    #[inline]
    pub fn warm(&self, qids: impl IntoIterator<Item = QueryId>) {
        self.sets.warm(qids.into_iter().map(QueryId::index));
    }

    /// Results of a live query, best first.
    pub fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
        self.state(qid).map(|s| s.sorted_results())
    }

    /// Offer pre-scored history entries to `qid` (warm start). Returns true
    /// when anything was inserted (callers then refresh bound structures).
    pub fn seed(&mut self, qid: QueryId, seeds: &[ScoredDoc]) -> bool {
        let offers = seeds.iter().map(|sd| self.sets.offer(qid.index(), *sd));
        offers.fold(false, |any, offer| any | matches!(offer, Offer::Inserted { .. }))
    }
}

/// One cursor over a matched postings list during an event.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    /// Dense list index in the `QueryIndex`.
    pub list: u32,
    /// The list's slot in the set's decoded-block scratch.
    slot: u32,
    /// Document weight `f_j` for this term.
    pub f: f64,
    /// Current position in the list (always live or == len); see
    /// [`Cursor::pos`].
    pos: u32,
    /// Query id under the cursor (cache of `list[pos].qid`).
    pub qid: QueryId,
    /// Weight under the cursor (cache of `list[pos].weight`; stale once
    /// the cursor is [`EXHAUSTED`]): every front candidate is scored.
    pub weight: f32,
    /// The list's term rank in the document: cursors aligned on one query
    /// are kept in this order, which is its record's (see [`CursorSet`]).
    pub(crate) rank: u32,
}

// Sorting and repairing move whole cursors: the rank rides in what `pos`
// gave up by narrowing to `u32`.
const _: () = assert!(std::mem::size_of::<Cursor>() == 32);

/// The one way the traversals read postings: `probe` (a bound's zone end),
/// `advance_to` / `advance_to_pos` / `advance_past_current` (moves), and
/// `read_below` (a run of postings handed over in one call, MRIO's
/// windows). Every operation takes the [`BlockScratch`] of the set the
/// cursor belongs to ([`CursorSet::blocks`]) beside the index: compressed
/// lists are read through the decoded blocks held there, plain lists in
/// place.
impl Cursor {
    /// Current position in the list (live, or the list's length).
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos as usize
    }

    /// The processing-order key: query id, then term rank.
    #[inline]
    fn key(&self) -> u64 {
        (u64::from(self.qid.0) << 32) | u64::from(self.rank)
    }

    /// First position at or after the cursor whose id is `>= bound`
    /// (tombstones included), or the list's length; the cursor stays put.
    /// This is the zone end of a bound computation.
    #[inline]
    pub fn probe(&self, index: &QueryIndex, blocks: &mut BlockScratch, bound: QueryId) -> usize {
        index.list(self.list).probe_at(blocks, self.slot, self.pos(), bound)
    }

    /// Move to `pos` (live, or the list's length) and refresh the posting
    /// cache ([`EXHAUSTED`] at the end of the list).
    #[inline]
    fn land(&mut self, list: ListRef<'_>, blocks: &mut BlockScratch, pos: usize) {
        self.pos = pos as u32;
        match list.posting_at(blocks, self.slot, pos) {
            Some(p) => (self.qid, self.weight) = (p.qid, p.weight),
            None => self.qid = EXHAUSTED,
        }
    }

    /// Advance to the first live posting with id `>= target`.
    #[inline]
    pub fn advance_to(&mut self, index: &QueryIndex, blocks: &mut BlockScratch, target: QueryId) {
        let list = index.list(self.list);
        let pos = list.seek_live_at(blocks, self.slot, self.pos(), target);
        self.land(list, blocks, pos);
    }

    /// Advance to the first live posting at position `>= pos` (never
    /// backwards).
    #[inline]
    pub fn advance_to_pos(&mut self, index: &QueryIndex, blocks: &mut BlockScratch, pos: usize) {
        let list = index.list(self.list);
        let pos = list.next_live_at(blocks, self.slot, pos.max(self.pos()));
        self.land(list, blocks, pos);
    }

    /// Advance past the current posting.
    #[inline]
    pub fn advance_past_current(&mut self, index: &QueryIndex, blocks: &mut BlockScratch) {
        self.advance_to_pos(index, blocks, self.pos() + 1);
    }

    /// Hand `f` every live posting from the cursor's own up to the first id
    /// `>= end`, as `(pos, qid, weight)` in position order, then land on the
    /// first live posting at or past that id: the postings stepping with
    /// [`Cursor::advance_past_current`] while `qid < end` visits, and where
    /// it stops — read a slice, or a decoded block, at a time.
    #[inline]
    pub fn read_below(
        &mut self,
        index: &QueryIndex,
        blocks: &mut BlockScratch,
        end: QueryId,
        f: impl FnMut(usize, QueryId, f32),
    ) {
        if self.qid < end {
            let list = index.list(self.list);
            let pos = list.read_below_at(blocks, self.slot, self.pos(), end, f);
            self.land(list, blocks, pos);
        }
    }
}

/// Reusable working set of cursors for the ID-ordering traversal.
///
/// The set is kept **sorted by the query id under each cursor** at all
/// times — this ordering *is* the paper's "processing order" — and cursors
/// on the same id by their list's term rank in the document. Documents and
/// registration records both list their terms in ascending term order, so
/// the cursors aligned on a query sum `f_j·w_j` in the order of its record:
/// the order [`crate::Naive`] sums in, which makes their dot product the
/// oracle's bit for bit. (Ordered by id alone, a repaired or unstably
/// sorted set summed in whatever order its cursors landed: one ulp off in
/// 12 of 20 000 seeded three-term cases.) Because an
/// iteration only moves a small prefix of cursors (the aligned lists of the
/// pivot, or the jumping lists), order is restored with an O(m) merge-repair
/// instead of a full re-sort; profiling showed the re-sort dominating event
/// cost at realistic scales.
///
/// Decoded sealed blocks live beside the cursors, not in them: a cursor
/// carries a slot index into a [`BlockScratch`], so sorting and repairing
/// move 32-byte cursors while each compressed list keeps the block under
/// its cursor (and the next one) decoded for the whole event. Plain lists
/// are read in place.
#[derive(Debug, Default)]
pub struct CursorSet {
    pub cursors: Vec<Cursor>,
    /// The decoded blocks the cursors read compressed lists through.
    pub blocks: BlockScratch,
}

impl CursorSet {
    /// Populate from the document's matched terms: one cursor per non-empty
    /// list, positioned at the first live posting, ranked by term, sorted.
    /// Returns the number of matched lists (`m`).
    pub fn build(&mut self, index: &QueryIndex, doc: &Document) -> usize {
        self.cursors.clear();
        self.blocks.reset();
        for (term, f) in doc.vector.iter() {
            let Some(li) = index.list_of_term(term) else { continue };
            let slot = index.list(li).open(&mut self.blocks);
            let rank = self.cursors.len() as u32;
            let (f, qid) = (f as f64, EXHAUSTED);
            let mut cursor = Cursor { list: li, slot, f, pos: 0, qid, weight: 0.0, rank };
            cursor.advance_to_pos(index, &mut self.blocks, 0);
            if cursor.qid != EXHAUSTED {
                self.cursors.push(cursor);
            }
        }
        let m = self.cursors.len();
        self.sort_full();
        m
    }

    /// Sealed blocks the set's cursors have decoded, lifetime total: at
    /// most one per block, per cursor, per event.
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks.blocks_decoded()
    }

    /// Fully evaluate the query under the first cursor: the raw dot product
    /// over the cursors aligned on it — a prefix of the sorted set, summed
    /// in term order — and the prefix's length. The cursors stay where they
    /// are (their positions are what a zone repair of that query needs);
    /// finish with [`CursorSet::step_front`].
    #[inline]
    pub fn score_front(&self) -> (f64, usize) {
        let pivot = self.cursors[0].qid;
        let (mut dot, mut aligned) = (0.0f64, 0usize);
        for c in &self.cursors {
            if c.qid != pivot {
                break; // sorted: aligned cursors form a prefix
            }
            dot += c.f * c.weight as f64;
            aligned += 1;
        }
        (dot, aligned)
    }

    /// Step the first `aligned` cursors past their postings and restore
    /// the processing order.
    #[inline]
    pub fn step_front(&mut self, index: &QueryIndex, aligned: usize) {
        for c in &mut self.cursors[..aligned] {
            c.advance_past_current(index, &mut self.blocks);
        }
        self.repair_prefix(aligned);
    }

    /// Full sort + exhausted-cursor truncation. Needed after *all* cursors
    /// move (MRIO's failed-full-bound skip); otherwise prefer
    /// [`CursorSet::repair_prefix`].
    pub fn sort_full(&mut self) {
        self.cursors.sort_unstable_by_key(Cursor::key);
        while self.cursors.last().is_some_and(|c| c.qid == EXHAUSTED) {
            self.cursors.pop();
        }
    }

    /// Restore the order after the first `t` cursors were advanced (their
    /// qids only grew; [`EXHAUSTED`] sorts last).
    ///
    /// Jumped cursors usually land only a few slots deeper — the pivot was
    /// the id under a nearby cursor — so each moved cursor is *sifted
    /// forward* with short shifts (the classic WAND repair). Worst case
    /// O(t·m), typical cost a handful of moves per advanced cursor.
    pub fn repair_prefix(&mut self, t: usize) {
        let n = self.cursors.len();
        if t == 0 || n == 0 {
            return;
        }
        if t >= n {
            self.sort_full();
            return;
        }
        // Process moved cursors back-to-front: sifting cursors[i] forward
        // never disturbs the (still unsorted) prefix before it.
        for i in (0..t).rev() {
            let cur = self.cursors[i];
            let mut j = i;
            while j + 1 < n && self.cursors[j + 1].key() < cur.key() {
                self.cursors[j] = self.cursors[j + 1];
                j += 1;
            }
            self.cursors[j] = cur;
        }
        while self.cursors.last().is_some_and(|c| c.qid == EXHAUSTED) {
            self.cursors.pop();
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cursors.is_empty()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.cursors.len()
    }
}

/// Sentinel query id marking an exhausted cursor (no u32 query id can reach
/// it in practice: it would require 2^32−1 registrations).
pub const EXHAUSTED: QueryId = QueryId(u32::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_common::{DocId, SparseVector, TermId};

    fn vector(pairs: &[(u32, f32)]) -> SparseVector {
        let mut v = SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)).collect());
        v.normalize();
        v
    }

    #[test]
    fn begin_event_renormalizes_states() {
        let mut base = EngineBase::new(1.0);
        base.decay = DecayModel::new(1.0).with_max_exponent(2.0);
        base.push_state(1);
        let doc = Document::new(DocId(1), vec![(TermId(0), 1.0)], 0.0);
        let (theta, amp, _) = base.begin_event(0.0);
        assert_eq!((theta, amp), (1.0, 1.0));
        base.offer(QueryId(0), &doc, 0.5, 1.0);
        assert_eq!(base.threshold_of(QueryId(0)), 0.5);

        // Past the exponent headroom: renorm fires and rescales thresholds.
        let (theta2, _, renorm) = base.begin_event(10.0);
        let r = renorm.expect("renorm due");
        assert!(r < 1.0);
        assert!((base.threshold_of(QueryId(0)) - 0.5 * r).abs() < 1e-15);
        assert!((theta2 - 1.0).abs() < 1e-12, "theta resets at the new landmark");
        assert_eq!(base.cum.renormalizations, 1);
    }

    #[test]
    fn offer_records_changes() {
        let mut base = EngineBase::new(0.0);
        base.push_state(1);
        let doc = Document::new(DocId(7), vec![(TermId(0), 1.0)], 0.0);
        base.begin_event(0.0);
        assert!(base.offer(QueryId(0), &doc, 0.9, 1.0));
        assert_eq!(base.changes.len(), 1);
        assert_eq!(base.changes[0].query, QueryId(0));
        assert!(!base.offer(QueryId(0), &doc, 0.1, 1.0), "worse score rejected");
        assert_eq!(base.changes.len(), 1);
    }

    #[test]
    fn cursor_set_builds_sorted() {
        let mut ix = QueryIndex::new();
        // q0 has terms 1,2; q1 has term 2.
        ix.register(&vector(&[(1, 1.0), (2, 1.0)]), 1);
        ix.register(&vector(&[(2, 1.0)]), 1);
        let doc = Document::new(DocId(1), vec![(TermId(2), 1.0), (TermId(9), 1.0)], 0.0);
        let mut cs = CursorSet::default();
        let m = cs.build(&ix, &doc);
        assert_eq!(m, 1, "term 9 has no list");
        assert_eq!(cs.cursors[0].qid, QueryId(0));
    }

    #[test]
    fn advance_handles_tombstones_and_exhaustion() {
        let mut ix = QueryIndex::new();
        let q0 = ix.register(&vector(&[(1, 1.0)]), 1);
        let q1 = ix.register(&vector(&[(1, 1.0)]), 1);
        let q2 = ix.register(&vector(&[(1, 1.0)]), 1);
        ix.unregister(q1);
        let doc = Document::new(DocId(1), vec![(TermId(1), 1.0)], 0.0);
        let mut cs = CursorSet::default();
        assert_eq!(cs.build(&ix, &doc), 1);
        assert_eq!(cs.cursors[0].qid, q0);
        let CursorSet { cursors, blocks } = &mut cs;
        let c = &mut cursors[0];
        c.advance_past_current(&ix, blocks);
        assert_eq!(c.qid, q2, "skips the tombstoned q1");
        c.advance_past_current(&ix, blocks);
        assert_eq!(c.qid, EXHAUSTED);
        // advance_to is idempotent at the end.
        c.advance_to(&ix, blocks, QueryId(0));
        assert_eq!(c.qid, EXHAUSTED);
    }

    #[test]
    fn drop_state_and_liveness() {
        let mut base = EngineBase::new(0.0);
        base.push_state(2);
        assert!(base.drop_state(QueryId(0)));
        assert!(!base.drop_state(QueryId(0)));
        assert!(base.state(QueryId(0)).is_none());
        assert!(!base.is_current(QueryId(0), 0));
    }
}
