//! ID-ordered postings lists.
//!
//! Each dictionary term `t` has a list `L_t` of `⟨qID, w⟩` entries for every
//! registered query containing `t`, **sorted by query ID** (paper §III).
//! Because query ids are allocated monotonically, registration appends at the
//! tail in O(1) and never perturbs earlier positions — which is what lets the
//! zone structures cache positions. Deletion tombstones the slot (weight 0);
//! compaction is handled by [`crate::query_index::QueryIndex`].

use ctk_common::QueryId;

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

/// A postings list sorted by ascending query id.
#[derive(Debug, Clone, Default)]
pub struct PostingsList {
    entries: Vec<Posting>,
    tombstones: usize,
}

impl PostingsList {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots, including tombstones.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of tombstoned slots.
    #[inline]
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Number of live postings.
    #[inline]
    pub fn live(&self) -> usize {
        self.entries.len() - self.tombstones
    }

    #[inline]
    pub fn get(&self, pos: usize) -> Posting {
        self.entries[pos]
    }

    #[inline]
    pub fn as_slice(&self) -> &[Posting] {
        &self.entries
    }

    /// Allocated slots (the `Vec`'s capacity) — what heap accounting counts.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Append an entry. `qid` must exceed every id already present, and
    /// `weight` must be strictly positive — `0.0` is the tombstone marker,
    /// so a zero here would desync the tombstone counter from
    /// [`Posting::is_tombstone`]. Zero weights are filtered out upstream
    /// (`SparseVector::normalize` drops underflowed entries and
    /// `QueryIndex::register` rejects non-positive weights), which keeps
    /// this a debug-only check on the hot append path.
    ///
    /// Capacity grows 1 → 2 → 4 → doubling: most lists hold a single
    /// posting, and `Vec`'s own first allocation would reserve four.
    pub fn push(&mut self, qid: QueryId, weight: f32) {
        debug_assert!(weight > 0.0);
        debug_assert!(
            self.entries.last().is_none_or(|p| p.qid < qid),
            "postings must stay ID-ordered"
        );
        if self.entries.len() == self.entries.capacity() {
            self.entries.reserve_exact(self.entries.capacity().max(1));
        }
        self.entries.push(Posting { qid, weight });
    }

    /// Tombstone the slot at `pos`. Position stays valid (stable positions
    /// are what the zone structures index by).
    pub fn tombstone(&mut self, pos: usize) {
        if !self.entries[pos].is_tombstone() {
            self.entries[pos].weight = 0.0;
            self.tombstones += 1;
        }
    }

    /// Binary-search the position of `qid`, if present (tombstoned or not).
    pub fn position_of(&self, qid: QueryId) -> Option<usize> {
        self.entries.binary_search_by_key(&qid, |p| p.qid).ok()
    }

    /// First position `>= from` whose query id is `>= target`, using
    /// galloping (exponential) search — the "jump" primitive of the
    /// ID-ordering paradigm. Returns `len()` when exhausted.
    pub fn seek(&self, from: usize, target: QueryId) -> usize {
        let n = self.entries.len();
        if from >= n || self.entries[from].qid >= target {
            return from.min(n);
        }
        // Gallop: bracket the answer in (from + step/2, from + step].
        let mut step = 1usize;
        let mut prev = from;
        let mut probe = from + 1;
        while probe < n && self.entries[probe].qid < target {
            prev = probe;
            step <<= 1;
            probe = from + step;
        }
        let hi = probe.min(n);
        // Binary search in (prev, hi].
        let (mut lo, mut hi) = (prev + 1, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entries[mid].qid < target {
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
        let mut pos = pos.min(self.entries.len());
        while pos < self.entries.len() && self.entries[pos].is_tombstone() {
            pos += 1;
        }
        pos
    }

    /// First position `>= from` that is **live** and has id `>= target`.
    pub fn seek_live(&self, from: usize, target: QueryId) -> usize {
        self.next_live(self.seek(from, target))
    }

    /// Drop tombstones, returning the surviving postings in order.
    pub fn compact(&mut self) -> &[Posting] {
        if self.tombstones > 0 {
            self.entries.retain(|p| !p.is_tombstone());
            self.tombstones = 0;
        }
        &self.entries
    }

    /// Iterate live postings.
    pub fn iter_live(&self) -> impl Iterator<Item = Posting> + '_ {
        self.entries.iter().copied().filter(|p| !p.is_tombstone())
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
