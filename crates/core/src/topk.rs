//! Per-query top-k result state.
//!
//! Each registered CTQD owns a bounded heap of its `k` best documents, whose
//! root is the k-th best score `S_k(q)` — the paper's "normalized factor"
//! that turns preference weights into the prunable form `u = w/S_k`. A query
//! with fewer than `k` results reports `S_k = 0`, making `u = +∞`: such
//! queries can never be pruned and are always evaluated when touched
//! (warm-up semantics).
//!
//! [`ResultSets`] keeps the heaps of all queries in one slab, `k` entries
//! per query, beside a dense array of their `S_k`: the walk's front test
//! reads one `f64`, and an insertion reaches its heap through one small slot
//! instead of a state and then an allocation of its own.
//!
//! Every change to a result set bumps its **version** counter; the lazy
//! bound structures (`VersionedMaxTracker`) use it to invalidate stale maxima.

use ctk_common::{DocId, ScoredDoc};
use std::collections::BTreeMap;

/// Outcome of offering a candidate to a result set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// The candidate did not beat the current k-th best.
    Rejected,
    /// Inserted; `evicted` is the entry that fell out (None while filling).
    Inserted { evicted: Option<ScoredDoc> },
}

/// `u = w/S_k`, `+∞` while `S_k` is `0` (the set is unfilled).
#[inline]
pub fn normalize(weight: f64, sk: f64) -> f64 {
    if sk > 0.0 {
        weight / sk
    } else {
        f64::INFINITY
    }
}

/// One query's result set, borrowed from the slab.
#[derive(Debug, Clone, Copy)]
pub struct TopKState<'a> {
    k: u32,
    version: u32,
    // [`ScoredDoc`]'s order makes "ranks better" compare as `Less`, so a
    // max-heap keeps the *worst* entry (lowest score, largest doc id on
    // ties) at the root — exactly the k-th best we need for `S_k`.
    heap: &'a [ScoredDoc],
}

impl TopKState<'_> {
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k as usize
    }

    /// Monotone counter bumped on every mutation of the set.
    #[inline]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// `S_k(q)`: score of the k-th best document, or `0.0` while unfilled.
    #[inline]
    pub fn threshold(&self) -> f64 {
        if self.is_full() {
            self.heap[0].score.get()
        } else {
            0.0
        }
    }

    /// Normalized preference `u = w/S_k` for a weight of this query.
    /// `+inf` while the set is unfilled.
    #[inline]
    pub fn normalized(&self, weight: f64) -> f64 {
        normalize(weight, self.threshold())
    }

    /// The exact qualify test (pruning bounds elsewhere must be `>=`-lenient
    /// w.r.t. this): an unfilled set admits everything; a full one admits
    /// what ranks strictly better than the current k-th (higher score, or
    /// equal score with smaller doc id — `Less` in [`ScoredDoc`] order).
    #[inline]
    pub fn admits(&self, cand: &ScoredDoc) -> bool {
        !self.is_full() || *cand < self.heap[0]
    }

    /// The current results, best first.
    pub fn sorted_results(&self) -> Vec<ScoredDoc> {
        let mut v = self.heap.to_vec();
        v.sort();
        v
    }
}

/// Where one query's heap lives in the slab: `entries[offset..][..k]`, the
/// first `len` of them filled. `k == 0` marks a dropped set.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u32,
    k: u32,
    len: u32,
    version: u32,
}

/// The result sets of every query ever registered, addressed by query index.
#[derive(Debug, Default)]
pub struct ResultSets {
    slots: Vec<Slot>,
    entries: Vec<ScoredDoc>,
    /// `S_k` of every set (`0.0` while unfilled or once dropped).
    sk: Vec<f64>,
    /// Slab ranges of dropped sets by their `k`, reused by [`Self::push`].
    free: BTreeMap<u32, Vec<u32>>,
}

impl ResultSets {
    /// Add an empty set of size `k` for the next query index.
    pub fn push(&mut self, k: u32) {
        assert!(k >= 1);
        let offset = self.free.get_mut(&k).and_then(Vec::pop).unwrap_or_else(|| {
            let end = self.entries.len();
            self.entries.resize(end + k as usize, ScoredDoc::new(DocId(0), 0.0));
            u32::try_from(end).expect("result slab within u32 entries")
        });
        self.slots.push(Slot { offset, k, len: 0, version: 0 });
        self.sk.push(0.0);
    }

    /// Drop set `i`; false when it does not exist (any more).
    pub fn drop_set(&mut self, i: usize) -> bool {
        match self.slots.get_mut(i) {
            Some(slot) if slot.k > 0 => {
                self.free.entry(slot.k).or_default().push(slot.offset);
                slot.k = 0;
                self.sk[i] = 0.0;
                true
            }
            _ => false,
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> Option<TopKState<'_>> {
        let slot = self.slots.get(i).filter(|s| s.k > 0)?;
        let heap = &self.entries[slot.offset as usize..][..slot.len as usize];
        Some(TopKState { k: slot.k, version: slot.version, heap })
    }

    /// `S_k` of set `i`, `0.0` while unfilled or when there is no such set.
    #[inline]
    pub fn threshold(&self, i: usize) -> f64 {
        self.sk.get(i).copied().unwrap_or(0.0)
    }

    /// Offer a candidate to set `i`: insert it iff the set
    /// [admits](TopKState::admits) it.
    pub fn offer(&mut self, i: usize, cand: ScoredDoc) -> Offer {
        if !self.get(i).is_some_and(|set| set.admits(&cand)) {
            return Offer::Rejected;
        }
        let slot = &mut self.slots[i];
        let heap = &mut self.entries[slot.offset as usize..][..slot.k as usize];
        let evicted = if slot.len < slot.k {
            heap[slot.len as usize] = cand;
            slot.len += 1;
            sift_up(&mut heap[..slot.len as usize]);
            None
        } else {
            let worst = std::mem::replace(&mut heap[0], cand);
            sift_down(heap, 0);
            Some(worst)
        };
        slot.version += 1;
        let sk = if slot.len == slot.k { heap[0].score.get() } else { 0.0 };
        // `S_k` is monotone inside a decay frame; stale bounds rest on it.
        debug_assert!(sk >= self.sk[i], "offer lowered S_k");
        self.sk[i] = sk;
        Offer::Inserted { evicted }
    }

    /// Load the slot and the heap root of every set in `sets`, so that the
    /// offers to them that follow find both lines in cache. The loads do
    /// not depend on each other, so the core overlaps their misses, where
    /// offers made one after another wait for each in turn.
    pub fn warm(&self, sets: impl IntoIterator<Item = usize>) {
        let mut any = 0u64;
        for i in sets {
            any ^= self.entries[self.slots[i].offset as usize].doc.0;
        }
        std::hint::black_box(any);
    }

    /// Multiply every stored score by `r ∈ [0, 1)` (landmark
    /// renormalization). A far jump in stream time can underflow scores to
    /// equal values, `0.0` at worst, which then order by doc id instead,
    /// so every heap is rebuilt rather than assumed intact.
    pub fn rescale(&mut self, r: f64) {
        debug_assert!(r >= 0.0);
        for (slot, sk) in self.slots.iter_mut().zip(&mut self.sk).filter(|(s, _)| s.k > 0) {
            let heap = &mut self.entries[slot.offset as usize..][..slot.len as usize];
            for e in heap.iter_mut() {
                e.score = ctk_common::OrdF64::new(e.score.get() * r);
            }
            for i in (0..heap.len() / 2).rev() {
                sift_down(heap, i);
            }
            slot.version += 1;
            if slot.len == slot.k {
                *sk = heap[0].score.get();
            }
        }
    }
}

/// Restore the max-heap after its last entry was appended.
fn sift_up(heap: &mut [ScoredDoc]) {
    let mut i = heap.len() - 1;
    while i > 0 && heap[(i - 1) / 2] < heap[i] {
        heap.swap((i - 1) / 2, i);
        i = (i - 1) / 2;
    }
}

/// Restore the max-heap below `i` after the entry at `i` was replaced.
fn sift_down(heap: &mut [ScoredDoc], mut i: usize) {
    loop {
        let mut child = 2 * i + 1;
        if child + 1 < heap.len() && heap[child] < heap[child + 1] {
            child += 1;
        }
        if child >= heap.len() || heap[child] <= heap[i] {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(doc: u64, score: f64) -> ScoredDoc {
        ScoredDoc::new(DocId(doc), score)
    }

    /// One set of size `k` at index 0.
    fn one(k: u32) -> ResultSets {
        let mut sets = ResultSets::default();
        sets.push(k);
        sets
    }

    #[test]
    fn fills_then_thresholds() {
        let mut t = one(2);
        assert_eq!(t.threshold(0), 0.0);
        assert_eq!(t.get(0).unwrap().normalized(0.5), f64::INFINITY);
        assert!(matches!(t.offer(0, sd(1, 1.0)), Offer::Inserted { evicted: None }));
        assert_eq!(t.threshold(0), 0.0, "still unfilled");
        assert!(matches!(t.offer(0, sd(2, 3.0)), Offer::Inserted { evicted: None }));
        assert_eq!(t.threshold(0), 1.0, "k-th best");
        assert_eq!(t.get(0).unwrap().threshold(), 1.0);
        assert_eq!(t.get(0).unwrap().normalized(0.5), 0.5);
    }

    #[test]
    fn eviction_of_worst() {
        let mut t = one(2);
        t.offer(0, sd(1, 1.0));
        t.offer(0, sd(2, 3.0));
        match t.offer(0, sd(3, 2.0)) {
            Offer::Inserted { evicted: Some(e) } => assert_eq!(e, sd(1, 1.0)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(t.threshold(0), 2.0);
        assert!(matches!(t.offer(0, sd(4, 1.5)), Offer::Rejected));
    }

    /// A renormalization far enough ahead underflows every score to 0.0:
    /// the heap then orders by doc id, and the next offer still evicts
    /// the worst entry.
    #[test]
    fn a_rescale_that_underflows_rebuilds_the_heap() {
        let mut t = one(3);
        for (doc, score) in [(1, 1e-300), (2, 2e-300), (3, 3e-300)] {
            t.offer(0, sd(doc, score));
        }
        t.rescale(0.0);
        assert_eq!(t.threshold(0), 0.0);
        match t.offer(0, sd(4, 0.5)) {
            Offer::Inserted { evicted: Some(e) } => assert_eq!(e, sd(3, 0.0)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(t.get(0).unwrap().sorted_results(), vec![sd(4, 0.5), sd(1, 0.0), sd(2, 0.0)]);
    }

    #[test]
    fn tie_breaking_matches_scored_doc_order() {
        let mut t = one(1);
        t.offer(0, sd(5, 2.0));
        // Equal score, smaller doc id ranks better -> replaces.
        assert!(matches!(t.offer(0, sd(3, 2.0)), Offer::Inserted { .. }));
        // Equal score, larger doc id -> rejected.
        assert!(!t.get(0).unwrap().admits(&sd(9, 2.0)));
        assert!(matches!(t.offer(0, sd(9, 2.0)), Offer::Rejected));
        assert_eq!(t.get(0).unwrap().sorted_results(), vec![sd(3, 2.0)]);
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut t = one(1);
        let version = |t: &ResultSets| t.get(0).unwrap().version();
        let v0 = version(&t);
        t.offer(0, sd(1, 1.0));
        let v1 = version(&t);
        assert!(v1 > v0);
        t.offer(0, sd(2, 0.5)); // rejected
        assert_eq!(version(&t), v1);
        t.rescale(0.5);
        assert!(version(&t) > v1);
    }

    #[test]
    fn rescale_preserves_order_and_scales_threshold() {
        let mut t = one(3);
        for (d, s) in [(1, 5.0), (2, 1.0), (3, 3.0)] {
            t.offer(0, sd(d, s));
        }
        t.rescale(0.1);
        assert!((t.threshold(0) - 0.1).abs() < 1e-12);
        let docs: Vec<u64> = t.get(0).unwrap().sorted_results().iter().map(|x| x.doc.0).collect();
        assert_eq!(docs, vec![1, 3, 2]);
    }

    #[test]
    fn sorted_results_best_first() {
        let mut t = one(3);
        for (d, s) in [(10, 0.5), (11, 2.5), (12, 1.5)] {
            t.offer(0, sd(d, s));
        }
        let r = t.get(0).unwrap().sorted_results();
        assert_eq!(r[0], sd(11, 2.5));
        assert_eq!(r[2], sd(10, 0.5));
    }

    #[test]
    fn dropped_sets_hand_their_slab_range_to_the_next_of_their_size() {
        let mut t = ResultSets::default();
        for k in [2, 3, 2] {
            t.push(k);
        }
        for (d, s) in [(1, 1.0), (2, 2.0)] {
            t.offer(2, sd(d, s));
        }
        assert!(t.drop_set(0) && !t.drop_set(0));
        assert!(t.get(0).is_none());
        assert_eq!((t.threshold(0), t.offer(0, sd(9, 9.0))), (0.0, Offer::Rejected));
        let slab = t.entries.len();
        t.push(2); // index 3, in set 0's old range
        t.push(2); // index 4, fresh
        assert_eq!(t.entries.len(), slab + 2);
        t.offer(3, sd(7, 7.0));
        assert_eq!(t.get(3).unwrap().sorted_results(), vec![sd(7, 7.0)], "starts empty");
        assert_eq!(t.get(2).unwrap().sorted_results(), vec![sd(2, 2.0), sd(1, 1.0)]);
        assert_eq!(t.threshold(2), 1.0);
    }
}
