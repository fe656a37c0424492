//! The term directory: each list's term, and the term → list lookup.
//!
//! A list's term is stored once, in a list → term table indexed by list
//! id. The term → list direction is an open-addressing table of 4-byte
//! buckets that compares its keys through that table, where a map of
//! `(term, list)` pairs spends 8 bytes a bucket plus its control bytes.
//! Lists are never removed, so the table is insert-only: linear probing
//! from the term's Fibonacci hash, a power-of-two bucket count `2^b`, at
//! most 7/8 of the buckets full.
//!
//! At most 7/8 of `2^b` lists are held, so a list id fits in a bucket's
//! low `b` bits, with all ones left over to mark a free bucket. The bits
//! above are a signature of the terms whose probe sequences start at that
//! bucket: each term sets one of them, picked by its hash. Many of a
//! document's terms have no list, and a lookup of one mostly ends at its
//! home bucket, whose signature lacks the term's bit.

use crate::growth;
use ctk_common::TermId;

/// The bucket count of the first table.
const MIN_BUCKETS: usize = 8;

#[derive(Debug, Default)]
pub(crate) struct TermDirectory {
    /// The term of each list, by list id.
    terms: Vec<TermId>,
    /// Bucket `i`: the id of the list that sits there in the low `b` bits
    /// (all ones if none does), and above them the signature of the terms
    /// whose home is `i`. Empty, or `2^b` buckets long.
    buckets: Vec<u32>,
}

impl TermDirectory {
    /// The term of each list, by list id.
    #[inline]
    pub(crate) fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The list of `term`, if it has one: one hash and one probe sequence.
    #[inline]
    pub(crate) fn get(&self, term: TermId) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let (mut at, signature) = self.home(term);
        if self.buckets[at] & signature == 0 {
            return None;
        }
        let (free, mask) = (self.free(), self.buckets.len() - 1);
        loop {
            let list = self.buckets[at] & free;
            if list == free {
                return None;
            }
            if self.terms[list as usize] == term {
                return Some(list);
            }
            at = (at + 1) & mask;
        }
    }

    /// The list of `term`, and whether it is new: a term without one gets
    /// the next list id.
    pub(crate) fn get_or_insert(&mut self, term: TermId) -> (u32, bool) {
        if let Some(list) = self.get(term) {
            return (list, false);
        }
        let list = u32::try_from(self.terms.len()).expect("list ids fit in u32");
        growth::reserve_one(&mut self.terms);
        self.terms.push(term);
        if 8 * self.terms.len() > 7 * self.buckets.len() {
            // Rehash every list, the new one included, into twice the buckets.
            let buckets = (2 * self.buckets.len()).max(MIN_BUCKETS);
            assert!(buckets <= 1 << 31, "term directory full");
            self.buckets = vec![buckets as u32 - 1; buckets];
            for list in 0..=list {
                self.insert(list);
            }
        } else {
            self.insert(list);
        }
        (list, true)
    }

    /// Sign a new list's home and place the list in the first free bucket
    /// from there on.
    fn insert(&mut self, list: u32) {
        let (home, signature) = self.home(self.terms[list as usize]);
        self.buckets[home] |= signature;
        let (free, mask) = (self.free(), self.buckets.len() - 1);
        let mut at = home;
        while self.buckets[at] & free != free {
            at = (at + 1) & mask;
        }
        self.buckets[at] = self.buckets[at] & !free | list;
    }

    /// `term`'s home bucket, and its signature bit. The table is not empty.
    #[inline]
    fn home(&self, term: TermId) -> (usize, u32) {
        let bits = self.buckets.len().trailing_zeros();
        let hash = u64::from(term.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The home is the top `bits` bits; the 32 below pick the signature.
        let below = u64::from((hash >> (32 - bits)) as u32);
        let pick = (below * u64::from(32 - bits)) >> 32;
        ((hash >> (64 - bits)) as usize, 1 << (bits + pick as u32))
    }

    /// The low bits of a bucket, which hold a list id: all ones in a free
    /// bucket.
    #[inline]
    fn free(&self) -> u32 {
        self.buckets.len() as u32 - 1
    }

    /// Heap bytes held, both tables at their capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.terms.capacity() * std::mem::size_of::<TermId>()
            + self.buckets.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every list sits in the run of full buckets that starts at its home,
    /// and its home carries its signature bit.
    fn assert_placed(dir: &TermDirectory) {
        let (free, mask) = (dir.free(), dir.buckets.len() - 1);
        let full = dir.buckets.iter().filter(|&&held| held & free != free).count();
        assert_eq!(full, dir.terms.len());
        for (at, &held) in dir.buckets.iter().enumerate() {
            let list = held & free;
            if list == free {
                continue;
            }
            let (home, signature) = dir.home(dir.terms[list as usize]);
            assert_ne!(dir.buckets[home] & signature, 0, "list {list}'s home is signed");
            let mut run = home;
            while run != at {
                assert_ne!(dir.buckets[run] & free, free, "list {list} is in its home's run");
                run = (run + 1) & mask;
            }
        }
    }

    /// Terms from sequential, strided and scattered ids all find their
    /// lists across every resize, absent terms find none, the table stays
    /// a power of two at most 7/8 full, and the list → term table grows by
    /// the rule.
    #[test]
    fn lookups_agree_with_a_map_across_resizes() {
        let mut dir = TermDirectory::default();
        let mut model = std::collections::HashMap::new();
        assert_eq!(dir.get(TermId(0)), None);
        let terms = (0..700u32).chain((0..700).map(|i| 1_000 + 64 * i)).chain(
            (0..700u32).map(|i| i.wrapping_mul(0x9E37_79B9) | 1 << 31), // scattered, high bit set
        );
        for term in terms.map(TermId) {
            let next = model.len() as u32;
            let fresh = !model.contains_key(&term);
            let want = *model.entry(term).or_insert(next);
            assert_eq!(dir.get_or_insert(term), (want, fresh), "{term:?}");
            assert!(dir.buckets.len().is_power_of_two());
            assert!(8 * dir.terms.len() <= 7 * dir.buckets.len());
            if dir.terms.len().is_power_of_two() {
                assert_placed(&dir);
            }
        }
        assert_placed(&dir);
        for (&term, &list) in &model {
            assert_eq!(dir.get(term), Some(list));
            assert_eq!(dir.terms()[list as usize], term);
        }
        for term in (700..1_000).chain([u32::MAX - 1, u32::MAX]).map(TermId) {
            assert_eq!(dir.get(term), None, "{term:?}");
        }
        let buckets = dir.buckets.len();
        assert_eq!(dir.heap_bytes(), 4 * (dir.terms.capacity() + buckets));
        assert_eq!(buckets, (8 * model.len()).div_ceil(7).next_power_of_two());
        assert_eq!(dir.terms.capacity(), growth::fitted_capacity(model.len()));
    }

    /// Terms whose home is the last bucket run past the table's end into
    /// its first buckets and are found there, beside a list whose home
    /// lies inside that run; absent terms with either home are not found.
    #[test]
    fn runs_wrap_past_the_last_bucket() {
        let mut dir = TermDirectory { terms: Vec::new(), buckets: vec![31; 32] };
        let homed = |home: usize| {
            let dir = &dir;
            (0..).map(TermId).filter(move |&t| dir.home(t).0 == home).take(4).collect::<Vec<_>>()
        };
        let (last, first) = (homed(31), homed(0));
        let placed: Vec<(TermId, u32)> = [last[0], last[1], first[0], last[2]]
            .iter()
            .map(|&t| (t, dir.get_or_insert(t).0))
            .collect();
        assert_eq!(dir.buckets.len(), 32, "4 lists need no resize");
        assert_placed(&dir);
        for (term, list) in placed {
            assert_eq!(dir.get(term), Some(list), "{term:?}");
        }
        assert_eq!(dir.get(last[3]), None);
        assert_eq!(dir.get(first[1]), None);
    }
}
