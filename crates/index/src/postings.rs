//! ID-ordered postings lists.
//!
//! Each dictionary term `t` has a list `L_t` of `⟨qID, w⟩` entries for every
//! registered query containing `t`, **sorted by query ID** (paper §III).
//! Because query ids are allocated monotonically, registration appends at the
//! tail in O(1) and never perturbs earlier positions — which is what lets the
//! zone structures cache positions. Deletion tombstones the slot (weight 0);
//! compaction is handled by [`crate::query_index::QueryIndex`].

use crate::growth;
use ctk_common::QueryId;
use ctk_storage::Slots;

/// One entry of an ID-ordered list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    pub qid: QueryId,
    /// The query's preference weight for this term. `0.0` marks a tombstone.
    pub weight: f32,
}

impl Posting {
    /// True when this slot has been deleted.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.weight == 0.0
    }
}

/// What the unused capacity of a list holds.
const VACANT: Posting = Posting { qid: QueryId(0), weight: 0.0 };

/// A postings list sorted by ascending query id.
///
/// 24 bytes: the slots (one posting inline, more in a boxed slice whose
/// length is the capacity, see [`Slots`]) and two `u32` counts. Lists hold
/// query ids, so no count exceeds `u32`.
#[derive(Debug, Clone, Default)]
pub struct PostingsList {
    slots: Slots<Posting>,
    len: u32,
    tombstones: u32,
}

impl PostingsList {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots, including tombstones.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tombstoned slots.
    #[inline]
    pub fn tombstones(&self) -> usize {
        self.tombstones as usize
    }

    /// Number of live postings.
    #[inline]
    pub fn live(&self) -> usize {
        (self.len - self.tombstones) as usize
    }

    #[inline]
    pub fn get(&self, pos: usize) -> Posting {
        self.as_slice()[pos]
    }

    /// The slots in position order.
    #[inline]
    pub fn as_slice(&self) -> &[Posting] {
        &self.slots.all()[..self.len as usize]
    }

    /// Allocated slots — what heap accounting counts. A single posting is
    /// held inline and allocates none.
    #[inline]
    pub fn capacity(&self) -> usize {
        match self.slots {
            Slots::One(_) => 0,
            Slots::Heap(ref slots) => slots.len(),
        }
    }

    /// Append an entry. `qid` must exceed every id already present, and
    /// `weight` must be strictly positive — `0.0` is the tombstone marker,
    /// so a zero here would desync the tombstone counter from
    /// [`Posting::is_tombstone`]. Zero weights are filtered out upstream
    /// (`SparseVector::normalize` drops underflowed entries and
    /// `QueryIndex::register` rejects non-positive weights), which keeps
    /// this a debug-only check on the hot append path.
    ///
    /// The first posting is held inline; the second moves both to a heap
    /// slice of two, which then grows by the index's one rule
    /// ([`crate::growth`]): doubling, then whole chunks.
    pub fn push(&mut self, qid: QueryId, weight: f32) {
        debug_assert!(weight > 0.0);
        debug_assert!(
            self.as_slice().last().is_none_or(|p| p.qid < qid),
            "postings must stay ID-ordered"
        );
        let (len, posting) = (self.len as usize, Posting { qid, weight });
        if len == 0 {
            self.slots = Slots::One(posting);
        } else {
            if len == self.capacity().max(1) {
                let mut grown = vec![VACANT; growth::next_capacity(len)];
                grown[..len].copy_from_slice(self.as_slice());
                self.slots = Slots::Heap(grown.into_boxed_slice());
            }
            self.slots.all_mut()[len] = posting;
        }
        self.len += 1;
    }

    /// Tombstone the slot at `pos`. Position stays valid (stable positions
    /// are what the zone structures index by).
    pub fn tombstone(&mut self, pos: usize) {
        let slot = &mut self.slots.all_mut()[..self.len as usize][pos];
        if !slot.is_tombstone() {
            slot.weight = 0.0;
            self.tombstones += 1;
        }
    }

    /// Binary-search the position of `qid`, if present (tombstoned or not).
    pub fn position_of(&self, qid: QueryId) -> Option<usize> {
        self.as_slice().binary_search_by_key(&qid, |p| p.qid).ok()
    }

    /// First position `>= from` whose query id is `>= target`, using
    /// galloping (exponential) search — the "jump" primitive of the
    /// ID-ordering paradigm. Returns `len()` when exhausted.
    pub fn seek(&self, from: usize, target: QueryId) -> usize {
        let entries = self.as_slice();
        let n = entries.len();
        if from >= n || entries[from].qid >= target {
            return from.min(n);
        }
        // Gallop: bracket the answer in (from + step/2, from + step].
        let mut step = 1usize;
        let mut prev = from;
        let mut probe = from + 1;
        while probe < n && entries[probe].qid < target {
            prev = probe;
            step <<= 1;
            probe = from + step;
        }
        let hi = probe.min(n);
        // Binary search in (prev, hi].
        let (mut lo, mut hi) = (prev + 1, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if entries[mid].qid < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First **live** position `>= pos`, or `len()`.
    #[inline]
    pub fn next_live(&self, pos: usize) -> usize {
        let entries = self.as_slice();
        let mut pos = pos.min(entries.len());
        while pos < entries.len() && entries[pos].is_tombstone() {
            pos += 1;
        }
        pos
    }

    /// First position `>= from` that is **live** and has id `>= target`.
    pub fn seek_live(&self, from: usize, target: QueryId) -> usize {
        self.next_live(self.seek(from, target))
    }

    /// Drop tombstones, returning the surviving postings in order. The
    /// survivors are refitted: inline when one is left, else into a slice
    /// of the capacity the rule reaches for them.
    pub fn compact(&mut self) -> &[Posting] {
        if self.tombstones > 0 {
            let mut survivors: Vec<Posting> = self.iter_live().collect();
            self.len = survivors.len() as u32;
            self.tombstones = 0;
            self.slots = match survivors.len() {
                0 | 1 => Slots::from_slice(&survivors),
                n => {
                    survivors.resize(growth::fitted_capacity(n), VACANT);
                    Slots::Heap(survivors.into_boxed_slice())
                }
            };
        }
        self.as_slice()
    }

    /// Iterate live postings.
    pub fn iter_live(&self) -> impl Iterator<Item = Posting> + '_ {
        self.as_slice().iter().copied().filter(|p| !p.is_tombstone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(ids: &[u32]) -> PostingsList {
        let mut l = PostingsList::new();
        for &i in ids {
            l.push(QueryId(i), 0.5);
        }
        l
    }

    #[test]
    fn push_keeps_order_and_len() {
        let l = list(&[1, 4, 9, 12]);
        assert_eq!(l.len(), 4);
        assert_eq!(l.live(), 4);
        assert_eq!(l.get(2).qid, QueryId(9));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics() {
        let mut l = list(&[5]);
        l.push(QueryId(3), 1.0);
    }

    #[test]
    fn seek_finds_first_geq() {
        let l = list(&[2, 5, 8, 8 + 5, 21, 34, 55]);
        assert_eq!(l.seek(0, QueryId(0)), 0);
        assert_eq!(l.seek(0, QueryId(2)), 0);
        assert_eq!(l.seek(0, QueryId(3)), 1);
        assert_eq!(l.seek(0, QueryId(8)), 2);
        assert_eq!(l.seek(0, QueryId(9)), 3);
        assert_eq!(l.seek(0, QueryId(56)), 7, "past the end");
        assert_eq!(l.seek(3, QueryId(21)), 4, "seek from middle");
        assert_eq!(l.seek(6, QueryId(55)), 6);
        assert_eq!(l.seek(7, QueryId(55)), 7, "from == len");
    }

    #[test]
    fn seek_exhaustive_against_linear_scan() {
        let ids: Vec<u32> = (0..200).map(|i| i * 3 + (i % 2)).collect();
        let l = list(&ids);
        for from in 0..=l.len() {
            for t in 0..620u32 {
                let expect =
                    (from..l.len()).find(|&p| l.get(p).qid >= QueryId(t)).unwrap_or(l.len());
                assert_eq!(l.seek(from, QueryId(t)), expect, "from={from} t={t}");
            }
        }
    }

    #[test]
    fn tombstone_and_seek_live() {
        let mut l = list(&[1, 2, 3, 4]);
        l.tombstone(1);
        l.tombstone(2);
        assert_eq!(l.live(), 2);
        assert_eq!(l.seek_live(0, QueryId(2)), 3, "skips tombstoned 2 and 3");
        assert!(l.get(1).is_tombstone());
    }

    #[test]
    fn compact_removes_tombstones() {
        let mut l = list(&[1, 2, 3, 4, 5]);
        l.tombstone(0);
        l.tombstone(3);
        let survivors: Vec<u32> = l.compact().iter().map(|p| p.qid.0).collect();
        assert_eq!(survivors, vec![2, 3, 5]);
        assert_eq!(l.tombstones(), 0);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn position_of_binary_search() {
        let l = list(&[10, 20, 30]);
        assert_eq!(l.position_of(QueryId(20)), Some(1));
        assert_eq!(l.position_of(QueryId(25)), None);
    }
}
