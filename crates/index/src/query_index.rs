//! The query registry: term → postings list directory plus per-query records.
//!
//! Registration allocates monotonically increasing query ids (so lists stay
//! append-only), creates lists for unseen terms, and records for each query
//! every posting it owns. The record is what lets the algorithms (a) fully
//! re-score a candidate query in O(|q|) and (b) route `S_k`-change updates
//! to the bound structures without searching the lists.
//!
//! Records have one layout on every postings backend: 8-byte entries
//! (`list`, `weight`) in a chunked arena, addressed by an 8-byte slot per
//! query. The term is derived from the list index on read; the *position*
//! is not stored at all — the lists are ID-ordered, so a posting's position
//! is recoverable by a search on the query id (a binary search on a plain
//! list; the block directory, then an ids-only walk of one block, on a
//! compressed one). Full re-scores only need term and weight and never pay
//! for that, and MRIO's bound updates take positions from the cursors
//! standing on the postings. Unregistration goes through
//! [`RecordRef::entries_full`], which searches for every position, so
//! compaction has no positions to refresh. Records never span chunks, so a
//! record is always one contiguous slice; unregistration strands its
//! entries until compaction rebuilds the arena.
//!
//! The slot table and the arena's first chunk double up to their chunk
//! size and then grow in exact chunks, so a few hundred queries pay for a
//! few hundred slots, and hundreds of thousands pay no doubling slack.

use crate::store::{ListRef, Lists, StorageConfig, StorageStats};
use ctk_common::{FxHashMap, QueryId, SparseVector, TermId};

/// One posting owned by a query (the owned, position-carrying form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordEntry {
    pub term: TermId,
    /// Dense list index inside the [`QueryIndex`]'s list table.
    pub list: u32,
    /// Position of this query's entry inside the list.
    pub pos: u32,
    /// The (normalized) preference weight `w_t(q)`.
    pub weight: f32,
}

/// One posting owned by a query, without its list position — everything
/// the O(|q|) re-score path reads. Yielded by [`RecordRef::entries`];
/// consumers that need the position use [`RecordRef::entries_full`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryView {
    pub term: TermId,
    /// Dense list index inside the [`QueryIndex`]'s list table.
    pub list: u32,
    /// The (normalized) preference weight `w_t(q)`.
    pub weight: f32,
}

/// The record [`QueryIndex::unregister`] hands back, positions included,
/// so callers can update their bound structures.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    pub entries: Vec<RecordEntry>,
}

/// A packed record entry: term derived from `list` via the index's list
/// table on read, position derived by a list search when actually needed.
#[derive(Debug, Clone, Copy)]
struct PackedEntry {
    list: u32,
    weight: f32,
}

/// Arena address of one query's packed entries — 8 bytes, one per query
/// ever registered. `offset == DEAD_SLOT` marks an unregistered query;
/// `len` is the query's number of terms.
#[derive(Debug, Clone, Copy)]
struct PackedSlot {
    offset: u32,
    len: u32,
}

const DEAD_SLOT: u32 = u32::MAX;

/// Entries per arena chunk. Chunk `c` owns offsets `[c·CHUNK, c·CHUNK+len)`;
/// a record never spans chunks, so a record whose entries don't fit in the
/// current chunk's remainder starts a fresh one (a record larger than
/// `ARENA_CHUNK` gets a dedicated oversized chunk — its offset is the chunk
/// base, and nothing else allocates there). The first chunk doubles up to
/// this size; later ones are allocated whole.
const ARENA_CHUNK: usize = 4096;

/// Slots past which the slot table (one slot per query ever registered)
/// stops doubling and grows in exact steps of this size: at hundreds of
/// thousands of queries the doubling slack alone is megabytes.
const SLOTS_CHUNK: usize = 4096;

#[derive(Debug, Default)]
struct PackedArena {
    slots: Vec<PackedSlot>,
    chunks: Vec<Vec<PackedEntry>>,
    /// Entries stranded by unregistration, reclaimed when compaction
    /// rebuilds the arena.
    dead_entries: usize,
}

impl PackedArena {
    /// Room for `n` more contiguous entries: returns the global offset of
    /// the first, which the caller pushes onto the last chunk.
    fn alloc(&mut self, n: usize) -> u32 {
        match self.chunks.last_mut() {
            Some(c) if c.len() + n <= ARENA_CHUNK => {
                if c.len() + n > c.capacity() {
                    let cap = (2 * c.capacity()).clamp(c.len() + n, ARENA_CHUNK);
                    c.reserve_exact(cap - c.len());
                }
            }
            last => {
                let cap = if last.is_none() { n } else { n.max(ARENA_CHUNK) };
                self.chunks.push(Vec::with_capacity(cap));
            }
        }
        let chunk = self.chunks.len() - 1;
        ((chunk * ARENA_CHUNK) + self.chunks[chunk].len()) as u32
    }

    fn push_slot(&mut self, slot: PackedSlot) {
        if self.slots.len() == self.slots.capacity() {
            self.slots.reserve_exact(self.slots.capacity().clamp(1, SLOTS_CHUNK));
        }
        self.slots.push(slot);
    }

    fn entries(&self, slot: PackedSlot) -> &[PackedEntry] {
        let (chunk, start) =
            (slot.offset as usize / ARENA_CHUNK, slot.offset as usize % ARENA_CHUNK);
        &self.chunks[chunk][start..start + slot.len as usize]
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<PackedSlot>()
            + self.chunks.capacity() * std::mem::size_of::<Vec<PackedEntry>>()
            + self
                .chunks
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<PackedEntry>())
                .sum::<usize>()
    }

    /// Rebuild the chunks with only live records, refreshing slot offsets.
    fn gc(&mut self) {
        let old = std::mem::take(&mut self.chunks);
        for i in 0..self.slots.len() {
            let slot = self.slots[i];
            if slot.offset == DEAD_SLOT {
                continue;
            }
            let (chunk, start) =
                (slot.offset as usize / ARENA_CHUNK, slot.offset as usize % ARENA_CHUNK);
            let offset = self.alloc(slot.len as usize);
            let dst = self.chunks.last_mut().expect("alloc pushed a chunk");
            dst.extend_from_slice(&old[chunk][start..start + slot.len as usize]);
            self.slots[i].offset = offset;
        }
        self.dead_entries = 0;
    }
}

/// Borrowed view of one query's registration record.
/// [`RecordRef::entries`] iterates position-free [`EntryView`]s (the
/// hot-path shape); [`RecordRef::entries_full`] materializes
/// [`RecordEntry`]s, deriving positions by a list search.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    qid: QueryId,
    entries: &'a [PackedEntry],
    terms: &'a [TermId],
    lists: &'a Lists,
}

impl<'a> RecordRef<'a> {
    /// Number of postings the query owns.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate the record's entries in registration order, without list
    /// positions — O(1) per entry.
    #[inline]
    pub fn entries(self) -> impl ExactSizeIterator<Item = EntryView> + 'a {
        let terms = self.terms;
        self.entries.iter().map(move |e| EntryView {
            term: terms[e.list as usize],
            list: e.list,
            weight: e.weight,
        })
    }

    /// Iterate the record's entries with list positions. Records don't
    /// store positions, so each is recovered by a search of the ID-ordered
    /// list — for the paths that need every position and have no better
    /// source (unregistration).
    #[inline]
    pub fn entries_full(self) -> impl ExactSizeIterator<Item = RecordEntry> + 'a {
        let (qid, terms, lists) = (self.qid, self.terms, self.lists);
        self.entries.iter().map(move |e| RecordEntry {
            term: terms[e.list as usize],
            list: e.list,
            pos: lists
                .get(e.list)
                .position_of(qid)
                .expect("record entry implies a posting (live or tombstoned)")
                as u32,
            weight: e.weight,
        })
    }
}

/// The shared ID-ordered query index.
#[derive(Debug)]
pub struct QueryIndex {
    lists: Lists,
    list_terms: Vec<TermId>,
    term_map: FxHashMap<TermId, u32>,
    records: PackedArena,
    live_queries: usize,
    /// Running totals across all lists, so [`QueryIndex::tombstone_ratio`]
    /// is O(1) — compaction policies probe it at every batch boundary.
    total_postings: usize,
    total_tombstones: usize,
    config: StorageConfig,
}

impl Default for QueryIndex {
    fn default() -> Self {
        Self::with_storage(&StorageConfig::plain())
    }
}

impl QueryIndex {
    /// An index over plain (Vec-backed) postings lists, the default backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index using the given postings backend (see [`StorageConfig`]).
    pub fn with_storage(config: &StorageConfig) -> Self {
        QueryIndex {
            lists: Lists::new(config.storage),
            list_terms: Vec::new(),
            term_map: FxHashMap::default(),
            records: PackedArena::default(),
            live_queries: 0,
            total_postings: 0,
            total_tombstones: 0,
            config: config.clone(),
        }
    }

    /// The storage configuration this index was built with.
    #[inline]
    pub fn storage_config(&self) -> &StorageConfig {
        &self.config
    }

    /// Number of queries ever registered (= next query id).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.records.slots.len()
    }

    /// Number of currently registered queries.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.live_queries
    }

    /// Number of distinct terms with a list.
    #[inline]
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Register a query; returns its new id. The vector must be non-empty
    /// and normalized (enforced upstream by `QuerySpec`). The result size
    /// `_k` is not stored: each engine keeps it in its own per-query state.
    ///
    /// Non-positive weights are rejected here rather than trusted from the
    /// caller: `weight == 0.0` doubles as the tombstone marker inside the
    /// postings lists, so a zero slipping through (e.g. an `f32` underflow
    /// during normalization upstream) would register a posting that *reads*
    /// as deleted while the list's tombstone counter says otherwise,
    /// desyncing `live()` from the live iteration paths.
    pub fn register(&mut self, vector: &SparseVector, _k: u32) -> QueryId {
        let qid = QueryId(self.num_slots() as u32);
        let postings = || vector.iter().filter(|&(_, weight)| weight > 0.0);
        let len = postings().count();
        let offset = self.records.alloc(len);
        let dst = self.records.chunks.last_mut().expect("alloc ensured a chunk");
        for (term, weight) in postings() {
            let list = *self.term_map.entry(term).or_insert_with(|| {
                self.lists.push_list();
                self.list_terms.push(term);
                (self.lists.len() - 1) as u32
            });
            self.lists.push_posting(list, qid, weight);
            dst.push(PackedEntry { list, weight });
        }
        self.records.push_slot(PackedSlot { offset, len: len as u32 });
        self.total_postings += len;
        self.live_queries += 1;
        qid
    }

    /// Unregister a query: tombstones every posting and drops the record.
    /// Returns the record (so callers can update bound structures), or `None`
    /// if the query was unknown / already removed.
    pub fn unregister(&mut self, qid: QueryId) -> Option<QueryRecord> {
        let record = QueryRecord { entries: self.record(qid)?.entries_full().collect() };
        let slot = &mut self.records.slots[qid.index()];
        slot.offset = DEAD_SLOT;
        self.records.dead_entries += slot.len as usize;
        for e in &record.entries {
            self.lists.tombstone(e.list, e.pos as usize);
        }
        self.total_tombstones += record.entries.len();
        self.live_queries -= 1;
        Some(record)
    }

    /// The record of a live query.
    #[inline]
    pub fn record(&self, qid: QueryId) -> Option<RecordRef<'_>> {
        let slot = *self.records.slots.get(qid.index())?;
        (slot.offset != DEAD_SLOT).then(|| RecordRef {
            qid,
            entries: self.records.entries(slot),
            terms: &self.list_terms,
            lists: &self.lists,
        })
    }

    /// Dense list index of a term's list, if any query uses the term.
    #[inline]
    pub fn list_of_term(&self, term: TermId) -> Option<u32> {
        self.term_map.get(&term).copied()
    }

    /// The list at a dense index.
    #[inline]
    pub fn list(&self, idx: u32) -> ListRef<'_> {
        self.lists.get(idx)
    }

    /// The term that owns list `idx`.
    #[inline]
    pub fn term_of_list(&self, idx: u32) -> TermId {
        self.list_terms[idx as usize]
    }

    /// Fraction of tombstoned slots across all lists, used to decide when a
    /// compaction pass pays off. O(1): maintained incrementally.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.total_postings == 0 {
            0.0
        } else {
            debug_assert_eq!(
                self.total_tombstones,
                (0..self.lists.len() as u32).map(|i| self.lists.get(i).tombstones()).sum::<usize>()
            );
            self.total_tombstones as f64 / self.total_postings as f64
        }
    }

    /// Drop all tombstones. Returns the indices of the lists that changed
    /// (so callers can rebuild their bound structures for exactly those
    /// lists). Records store no positions, so nothing in them goes stale;
    /// this is instead the arena's garbage-collection point: entries
    /// stranded by unregistration are reclaimed once they outnumber half
    /// the live ones.
    pub fn compact(&mut self) -> Vec<u32> {
        let mut changed = Vec::new();
        for idx in 0..self.lists.len() as u32 {
            let removed = self.lists.get(idx).tombstones();
            if removed == 0 {
                continue;
            }
            changed.push(idx);
            self.total_postings -= removed;
            self.total_tombstones -= removed;
            self.lists.compact_list(idx);
        }
        if self.records.dead_entries * 2 > self.total_postings.max(1) {
            self.records.gc();
        }
        changed
    }

    /// Iterate ids of live queries (ascending).
    pub fn live_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.records
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| (s.offset != DEAD_SLOT).then_some(QueryId(i as u32)))
    }

    /// Estimated heap bytes held by this index: lists (their table counted
    /// at capacity times the actual per-backend element size), records, and
    /// the term directory, every allocation at its capacity.
    pub fn heap_bytes(&self) -> usize {
        // Hash-map estimate: std's SwissTable keeps ~8/7 of capacity in
        // (key, value) pairs plus one control byte per bucket.
        let directory = self.list_terms.capacity() * std::mem::size_of::<TermId>()
            + self.term_map.capacity()
                * (std::mem::size_of::<(TermId, u32)>() + std::mem::size_of::<u8>());
        self.lists.heap_bytes() + self.records.heap_bytes() + directory
    }

    /// Point-in-time storage counters (the heap estimate).
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats { index_bytes: self.heap_bytes() as u64, ..StorageStats::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PostingsStorage;

    fn vector(pairs: &[(u32, f32)]) -> SparseVector {
        let mut v = SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)).collect());
        v.normalize();
        v
    }

    fn all_configs() -> Vec<StorageConfig> {
        vec![StorageConfig::plain(), StorageConfig::new(PostingsStorage::Compressed)]
    }

    #[test]
    fn register_builds_lists_and_records() {
        for cfg in all_configs() {
            let mut ix = QueryIndex::with_storage(&cfg);
            let q0 = ix.register(&vector(&[(1, 1.0), (2, 1.0)]), 3);
            let q1 = ix.register(&vector(&[(2, 1.0), (3, 1.0)]), 3);
            assert_eq!((q0, q1), (QueryId(0), QueryId(1)));
            assert_eq!(ix.num_lists(), 3);
            assert_eq!(ix.num_live(), 2);

            let l2 = ix.list(ix.list_of_term(TermId(2)).unwrap());
            assert_eq!(l2.len(), 2);
            assert_eq!(l2.get(0).qid, q0);
            assert_eq!(l2.get(1).qid, q1);

            let rec = ix.record(q1).unwrap();
            assert_eq!(rec.len(), 2);
            // Full entries point back at the actual postings.
            for e in rec.entries_full() {
                assert_eq!(ix.list(e.list).get(e.pos as usize).qid, q1);
                assert_eq!(ix.term_of_list(e.list), e.term);
            }
            // The position-free view agrees with the full one.
            for (v, e) in rec.entries().zip(rec.entries_full()) {
                assert_eq!((v.term, v.list, v.weight), (e.term, e.list, e.weight));
            }
        }
    }

    #[test]
    fn unregister_tombstones_postings() {
        for cfg in all_configs() {
            let mut ix = QueryIndex::with_storage(&cfg);
            let q0 = ix.register(&vector(&[(1, 1.0), (2, 1.0)]), 1);
            let q1 = ix.register(&vector(&[(1, 1.0)]), 1);
            let rec = ix.unregister(q0).expect("was live");
            assert_eq!(rec.entries.len(), 2);
            assert!(ix.unregister(q0).is_none(), "double unregister is a no-op");
            assert_eq!(ix.num_live(), 1);
            assert!(ix.record(q0).is_none());

            let l1 = ix.list(ix.list_of_term(TermId(1)).unwrap());
            assert!(l1.get(0).is_tombstone());
            assert!(!l1.get(1).is_tombstone());
            assert_eq!(l1.live(), 1);
            let _ = q1;
        }
    }

    #[test]
    fn tombstone_ratio_and_compaction() {
        for cfg in all_configs() {
            let mut ix = QueryIndex::with_storage(&cfg);
            let ids: Vec<QueryId> =
                (0..10).map(|i| ix.register(&vector(&[(1, 1.0), (100 + i, 1.0)]), 1)).collect();
            for qid in ids.iter().take(5) {
                ix.unregister(*qid);
            }
            assert!(ix.tombstone_ratio() > 0.4);

            let changed = ix.compact();
            assert!(!changed.is_empty());
            assert_eq!(ix.tombstone_ratio(), 0.0);

            // Positions are re-derived from the compacted lists.
            for qid in ids.iter().skip(5) {
                let rec = ix.record(*qid).unwrap();
                for e in rec.entries_full() {
                    let p = ix.list(e.list).get(e.pos as usize);
                    assert_eq!(p.qid, *qid);
                    assert_eq!(p.weight, e.weight);
                }
            }
        }
    }

    #[test]
    fn zero_weights_never_register_as_tombstones() {
        // A subnormal weight next to a huge one underflows to exactly 0.0
        // during normalization (1e-42 / ~1e4 < f32::MIN_POSITIVE). Pre-fix,
        // the zero-weight posting registered as a phantom tombstone:
        // `live()` counted it while every live-iteration path skipped it.
        let mut raw = SparseVector::from_pairs(vec![(TermId(1), 1e-42), (TermId(2), 1e4)]);
        raw.normalize();
        let mut ix = QueryIndex::new();
        let qid = ix.register(&raw, 1);

        for li in 0..ix.num_lists() as u32 {
            let list = ix.list(li);
            let mut live_count = 0usize;
            list.for_each_live(|_, _| live_count += 1);
            assert_eq!(list.live(), live_count, "tombstone accounting desynced on list {li}");
            assert_eq!(list.tombstones(), 0);
        }
        // The record only owns live postings.
        let rec = ix.record(qid).unwrap();
        for e in rec.entries_full() {
            assert!(e.weight > 0.0);
            assert!(!ix.list(e.list).get(e.pos as usize).is_tombstone());
        }
    }

    #[test]
    fn live_ids_iterates_survivors() {
        for cfg in all_configs() {
            let mut ix = QueryIndex::with_storage(&cfg);
            let a = ix.register(&vector(&[(1, 1.0)]), 1);
            let b = ix.register(&vector(&[(1, 1.0)]), 1);
            let c = ix.register(&vector(&[(1, 1.0)]), 1);
            ix.unregister(b);
            let live: Vec<QueryId> = ix.live_ids().collect();
            assert_eq!(live, vec![a, c]);
        }
    }

    #[test]
    fn ids_are_monotone() {
        let mut ix = QueryIndex::new();
        let a = ix.register(&vector(&[(1, 1.0)]), 1);
        ix.unregister(a);
        let b = ix.register(&vector(&[(1, 1.0)]), 1);
        assert!(b > a, "ids are never reused, keeping lists append-only");
    }

    /// A record longer than a whole arena chunk, or than `u16::MAX` terms,
    /// gets a dedicated chunk and reads back whole, beside short records
    /// on either side of it.
    #[test]
    fn records_longer_than_a_chunk_round_trip() {
        let terms = u16::MAX as u32 + 1;
        let long = vector(&(0..terms).map(|t| (t, 1.0)).collect::<Vec<_>>());
        for cfg in all_configs() {
            let mut ix = QueryIndex::with_storage(&cfg);
            let a = ix.register(&vector(&[(1, 1.0)]), 1);
            let b = ix.register(&long, 1 << 16);
            let c = ix.register(&vector(&[(2, 1.0)]), 1);
            assert_eq!(ix.record(b).unwrap().len(), terms as usize);
            for (i, e) in ix.record(b).unwrap().entries().enumerate() {
                assert_eq!(e.term, TermId(i as u32));
            }
            for (q, t) in [(a, 1), (c, 2)] {
                let e: Vec<EntryView> = ix.record(q).unwrap().entries().collect();
                assert_eq!(e.len(), 1);
                assert_eq!(e[0].term, TermId(t));
            }
            assert_eq!(ix.unregister(b).unwrap().entries.len(), terms as usize);
            ix.compact();
            assert_eq!(ix.record(c).unwrap().entries().next().unwrap().term, TermId(2));
        }
    }

    /// Every backend observes the same records and lists across a
    /// register/unregister/compact churn, and the compressed lists are
    /// smaller than plain `Vec<Posting>`s at scale.
    #[test]
    fn backends_agree_and_compressed_lists_shrink() {
        let mut plain = QueryIndex::new();
        let mut others: Vec<QueryIndex> =
            all_configs()[1..].iter().map(QueryIndex::with_storage).collect();
        // Big enough that per-chunk and per-list constants amortize away —
        // compression buys its win at scale.
        let n = 4000u32;
        for i in 0..n {
            let v = vector(&[(i % 17, 1.0), (17 + i % 11, 0.7), (40 + i % 29, 0.3)]);
            let qid = plain.register(&v, 1 + i % 4);
            for ix in &mut others {
                assert_eq!(ix.register(&v, 1 + i % 4), qid);
            }
        }
        for i in (0..n).step_by(3) {
            let a = plain.unregister(QueryId(i));
            for ix in &mut others {
                let b = ix.unregister(QueryId(i));
                assert_eq!(a.as_ref().map(|r| r.entries.clone()), b.map(|r| r.entries));
            }
        }
        let changed = plain.compact();
        for ix in &mut others {
            assert_eq!(ix.compact(), changed);
        }
        for ix in &others {
            assert_eq!(ix.num_live(), plain.num_live());
            for qid in plain.live_ids() {
                let a: Vec<RecordEntry> = plain.record(qid).unwrap().entries_full().collect();
                let b: Vec<RecordEntry> = ix.record(qid).unwrap().entries_full().collect();
                assert_eq!(a, b);
            }
            for li in 0..plain.num_lists() as u32 {
                let (pl, ol) = (plain.list(li), ix.list(li));
                assert_eq!(pl.len(), ol.len());
                for pos in 0..pl.len() {
                    assert_eq!(pl.get(pos), ol.get(pos));
                }
            }
            assert_eq!(ix.records.heap_bytes(), plain.records.heap_bytes(), "one record layout");
            assert!(
                3 * ix.lists.heap_bytes() < 2 * plain.lists.heap_bytes(),
                "{} lists must save a third of plain's RAM at scale ({} vs {})",
                ix.storage_config().storage,
                ix.lists.heap_bytes(),
                plain.lists.heap_bytes()
            );
        }
    }

    /// `heap_bytes` is exactly the capacities of the allocations it names,
    /// and records cost 8 bytes per slot and per term plus at most the
    /// doubling slack — at 300 queries, without a whole chunk's worth of
    /// slots or entries.
    #[test]
    fn heap_bytes_counts_capacities_and_records_fit_the_population() {
        for cfg in all_configs() {
            for n in [300u32, 20_000] {
                let mut ix = QueryIndex::with_storage(&cfg);
                let mut terms = 0usize;
                for i in 0..n {
                    let len = 1 + i % 6;
                    let pairs: Vec<(u32, f32)> =
                        (0..len).map(|j| ((i * 7 + j * 131) % 5_000, 1.0 + j as f32)).collect();
                    terms += pairs.len();
                    ix.register(&vector(&pairs), 1);
                }
                let a = &ix.records;
                let lists = match &ix.lists {
                    Lists::Plain(v) => {
                        v.capacity() * std::mem::size_of::<crate::PostingsList>()
                            + v.iter().map(|l| 8 * l.capacity()).sum::<usize>()
                    }
                    Lists::Compressed(v) => {
                        v.capacity() * std::mem::size_of::<ctk_storage::CompressedList>()
                            + v.iter().map(|l| l.heap_bytes()).sum::<usize>()
                    }
                };
                let records = 8 * a.slots.capacity()
                    + 24 * a.chunks.capacity()
                    + a.chunks.iter().map(|c| 8 * c.capacity()).sum::<usize>();
                let directory = 4 * ix.list_terms.capacity() + 9 * ix.term_map.capacity();
                assert_eq!(ix.heap_bytes(), lists + records + directory, "{cfg:?} at {n}");

                let exact = 8 * (n as usize + terms);
                assert!(records <= 2 * exact, "{cfg:?} at {n}: {records} B of records for {exact}");
                if n == 300 {
                    assert!(a.slots.capacity() < SLOTS_CHUNK, "{cfg:?}: a full slot table");
                    assert_eq!(a.chunks.len(), 1);
                    assert!(a.chunks[0].capacity() < ARENA_CHUNK, "{cfg:?}: a full chunk");
                }
            }
        }
    }
}
