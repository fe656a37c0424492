//! The query registry: term → postings list directory plus per-query records.
//!
//! Registration allocates monotonically increasing query ids (so lists stay
//! append-only), creates lists for unseen terms, and records for each query
//! every list it has a posting in. The record is what lets the algorithms
//! (a) fully re-score a candidate query in O(|q|) and (b) route
//! `S_k`-change updates to the bound structures without searching the
//! lists.
//!
//! Records have one layout on every postings backend: each entry is a list
//! id as a LEB128 varint (one byte below 128 lists, two below 16 384), in
//! a chunked byte arena addressed by a 4-byte offset per query. The term is
//! derived from the list id on read. A weight is stored once, in its
//! posting; MRIO never reads it from the record, and the engines that
//! re-score from weights (the `Naive` oracle, RIO) keep them beside the
//! index in a [`QueryWeights`] table in record order. The *position* is
//! not stored at all — the lists are ID-ordered, so a posting's position is
//! recoverable by a search on the query id (a binary search on a plain
//! list; the block directory, then an ids-only walk of one block, on a
//! compressed one). Full re-scores never pay for that, and MRIO's bound
//! updates take positions from the cursors standing on the postings.
//! Unregistration goes through [`RecordRef::entries_full`], which searches
//! for every position, so compaction has no positions to refresh.
//!
//! A record's length is not stored either: it runs to the next query's
//! offset, or to the end of its chunk when the next record starts a new
//! one, and its entries are its bytes without the varint continuation
//! bit. Records never span chunks, so a record is always one contiguous
//! slice; unregistration strands its bytes until compaction rebuilds the
//! arena.
//!
//! The term directory keeps each list's term once and finds a term's list
//! through an open-addressing table of 4-byte buckets, which doubles. The
//! slot table, the arena and the list → term table grow by the index's one
//! rule ([`crate::growth`]): doubling up to a chunk, then whole chunks. So
//! a few hundred queries pay for a few hundred slots, and hundreds of
//! thousands pay no doubling slack.

use crate::directory::TermDirectory;
use crate::growth::{self, GROWTH_CHUNK};
use crate::store::{ListRef, Lists, StorageConfig, StorageStats};
use ctk_common::{QueryId, SparseVector, TermId};

/// One posting owned by a query (the owned, position-carrying form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordEntry {
    pub term: TermId,
    /// Dense list index inside the [`QueryIndex`]'s list table.
    pub list: u32,
    /// Position of this query's entry inside the list.
    pub pos: u32,
}

/// One posting owned by a query, without its list position — everything
/// the O(|q|) re-score path reads besides the weight. Yielded by
/// [`RecordRef::entries`]; consumers that need the position use
/// [`RecordRef::entries_full`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryView {
    pub term: TermId,
    /// Dense list index inside the [`QueryIndex`]'s list table.
    pub list: u32,
}

/// The record [`QueryIndex::unregister`] hands back, positions included,
/// so callers can update their bound structures.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    pub entries: Vec<RecordEntry>,
}

/// Set in a slot's offset once its query is removed.
const DEAD: u32 = 1 << 31;

/// Bytes per arena chunk.
const CHUNK_BYTES: usize = 4 * GROWTH_CHUNK;

/// Per-query records of `T`s, one 4-byte slot per query ever pushed.
///
/// The arena is cut into chunks of [`CHUNK_BYTES`] bytes, `CHUNK` entries:
/// chunk `c` owns offsets `[c·CHUNK, c·CHUNK+len)`. A record never spans
/// chunks, so a record whose entries don't fit in the current chunk's
/// remainder starts a fresh one (a record larger than a chunk gets a
/// dedicated oversized chunk — its offset is the chunk base, and nothing
/// else allocates there). The first chunk grows by the rule up to a whole
/// chunk; later ones are allocated whole.
///
/// A slot is the record's offset, with [`DEAD`] set once it is removed;
/// offsets never decrease from one slot to the next in the same chunk, so a
/// record ends where the next slot's begins, or at its chunk's end when the
/// next slot points into another chunk.
#[derive(Debug)]
struct RecordArena<T> {
    slots: Vec<u32>,
    chunks: Vec<Vec<T>>,
    /// Entries stranded by removal, reclaimed by [`RecordArena::compact`].
    dead_entries: usize,
}

impl<T> Default for RecordArena<T> {
    fn default() -> Self {
        RecordArena { slots: Vec::new(), chunks: Vec::new(), dead_entries: 0 }
    }
}

impl<T: Copy> RecordArena<T> {
    /// Entries per chunk.
    const CHUNK: usize = CHUNK_BYTES / std::mem::size_of::<T>();

    /// Records ever pushed, removed ones included.
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// `(chunk, start, end)` of slot `i`'s record within `chunks`.
    fn span(slots: &[u32], chunks: &[Vec<T>], i: usize) -> (usize, usize, usize) {
        let at = (slots[i] & !DEAD) as usize;
        let (chunk, start) = (at / Self::CHUNK, at % Self::CHUNK);
        let end = match slots.get(i + 1).map(|&next| (next & !DEAD) as usize) {
            Some(next) if next / Self::CHUNK == chunk => next % Self::CHUNK,
            _ => chunks[chunk].len(),
        };
        (chunk, start, end)
    }

    /// Room for `n` more contiguous entries: returns the global offset of
    /// the first, which the caller pushes onto the last chunk. A chunk
    /// that is already full takes no record, not even an empty one, so
    /// every offset handed out lies in a chunk that exists.
    fn alloc(&mut self, n: usize) -> u32 {
        match self.chunks.last_mut() {
            Some(c) if c.len() < Self::CHUNK && c.len() + n <= Self::CHUNK => {
                if c.len() + n > c.capacity() {
                    let cap = growth::next_capacity(c.capacity()).clamp(c.len() + n, Self::CHUNK);
                    c.reserve_exact(cap - c.len());
                }
            }
            last => {
                let cap = if last.is_none() { n } else { n.max(Self::CHUNK) };
                self.chunks.push(Vec::with_capacity(cap));
            }
        }
        let chunk = self.chunks.len() - 1;
        let offset = chunk * Self::CHUNK + self.chunks[chunk].len();
        assert!(offset < DEAD as usize, "record arena full");
        offset as u32
    }

    /// Append the next slot's record: `len` entries drawn from `entries`.
    fn push(&mut self, len: usize, entries: impl IntoIterator<Item = T>) {
        let offset = self.alloc(len);
        let chunk = self.chunks.last_mut().expect("alloc ensured a chunk");
        let before = chunk.len();
        chunk.extend(entries);
        assert_eq!(chunk.len() - before, len, "a record holds the entries it announced");
        growth::reserve_one(&mut self.slots);
        self.slots.push(offset);
    }

    /// The record of slot `i`, unless it was removed or never pushed.
    #[inline]
    fn get(&self, i: usize) -> Option<&[T]> {
        let at = *self.slots.get(i)?;
        (at & DEAD == 0).then(|| {
            let (chunk, start, end) = Self::span(&self.slots, &self.chunks, i);
            &self.chunks[chunk][start..end]
        })
    }

    /// Remove slot `i`'s record; false if it was not live.
    fn remove(&mut self, i: usize) -> bool {
        let Some(len) = self.get(i).map(<[T]>::len) else { return false };
        self.slots[i] |= DEAD;
        self.dead_entries += len;
        true
    }

    /// Indices of the live records, ascending.
    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, &at)| (at & DEAD == 0).then_some(i))
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
            + self.chunks.capacity() * std::mem::size_of::<Vec<T>>()
            + self.chunks.iter().map(|c| c.capacity() * std::mem::size_of::<T>()).sum::<usize>()
    }

    /// Rebuild the chunks with only the live records once the stranded
    /// entries outnumber half the live ones.
    fn compact(&mut self) {
        let stored: usize = self.chunks.iter().map(Vec::len).sum();
        if self.dead_entries * 2 > (stored - self.dead_entries).max(1) {
            self.gc();
        }
    }

    /// Copy the live records into fresh chunks, in slot order. A removed
    /// slot takes the end offset of the live record before it, so every
    /// live record still ends where the next slot begins.
    fn gc(&mut self) {
        let old = std::mem::take(&mut self.chunks);
        let mut end = 0;
        for i in 0..self.slots.len() {
            if self.slots[i] & DEAD != 0 {
                self.slots[i] = DEAD | end;
                continue;
            }
            // Slot `i + 1` still holds its old offset, which bounds `i`.
            let (chunk, start, stop) = Self::span(&self.slots, &old, i);
            let offset = self.alloc(stop - start);
            let dst = self.chunks.last_mut().expect("alloc ensured a chunk");
            dst.extend_from_slice(&old[chunk][start..stop]);
            self.slots[i] = offset;
            end = offset + (stop - start) as u32;
        }
        self.dead_entries = 0;
    }
}

/// The bytes of `id`'s LEB128 varint: 1 for ids below 2^7, 2 below 2^14,
/// and so on up to 5.
#[inline]
fn varint_len(id: u32) -> usize {
    (32 - (id | 1).leading_zeros() as usize).div_ceil(7)
}

/// The list ids a record's varints encode, in order.
#[inline]
fn list_ids(record: &[u8]) -> impl Iterator<Item = u32> + '_ {
    let mut bytes = record.iter();
    std::iter::from_fn(move || {
        let (mut id, mut shift) = (0u32, 0);
        loop {
            let byte = *bytes.next()?;
            id |= u32::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Some(id);
            }
            shift += 7;
        }
    })
}

impl RecordArena<u8> {
    /// Append the next slot's record: `ids` as LEB128 varints — seven bits
    /// a byte, low bits first, the high bit set on every byte of an id but
    /// its last — in at most `most` bytes.
    fn push_ids(&mut self, most: usize, ids: impl IntoIterator<Item = u32>) {
        let offset = self.alloc(most);
        let chunk = self.chunks.last_mut().expect("alloc ensured a chunk");
        let before = chunk.len();
        #[cfg(debug_assertions)]
        let mut pushed = Vec::new();
        for id in ids {
            #[cfg(debug_assertions)]
            pushed.push(id);
            let mut rest = id;
            while rest >= 0x80 {
                chunk.push(rest as u8 | 0x80);
                rest >>= 7;
            }
            chunk.push(rest as u8);
        }
        assert!(chunk.len() - before <= most, "a record fits the bytes it announced");
        growth::reserve_one(&mut self.slots);
        self.slots.push(offset);
        #[cfg(debug_assertions)]
        assert!(
            self.get(self.len() - 1).is_some_and(|record| list_ids(record).eq(pushed)),
            "a record decodes to the ids it was given"
        );
    }
}

/// The postings a query's vector registers, in record order: its terms
/// with a positive weight (see [`QueryIndex::register`]).
fn record_postings(vector: &SparseVector) -> impl Iterator<Item = (TermId, f32)> + '_ {
    vector.iter().filter(|&(_, weight)| weight > 0.0)
}

/// Each query's weights in its record's order, for an engine that
/// re-scores from weights and keeps them beside its [`QueryIndex`]: the
/// index stores a weight once, in its posting. Pushed in step with
/// [`QueryIndex::register`], so a query's id is its slot here too.
#[derive(Debug, Default)]
pub struct QueryWeights {
    arena: RecordArena<f32>,
}

impl QueryWeights {
    /// Record the weights of the query [`QueryIndex::register`] just took
    /// `vector` for.
    pub fn push(&mut self, vector: &SparseVector) {
        let weights = || record_postings(vector).map(|(_, weight)| weight);
        self.arena.push(weights().count(), weights());
    }

    /// A live query's weights, entry for entry beside
    /// [`RecordRef::entries`].
    #[inline]
    pub fn get(&self, qid: QueryId) -> Option<&[f32]> {
        self.arena.get(qid.index())
    }

    /// Drop an unregistered query's weights.
    pub fn remove(&mut self, qid: QueryId) {
        self.arena.remove(qid.index());
    }

    /// Reclaim removed queries' weights by the index's own rule: once they
    /// outnumber half the live ones.
    pub fn compact(&mut self) {
        self.arena.compact();
    }

    /// Heap bytes held, every allocation at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
    }
}

/// Borrowed view of one query's registration record.
/// [`RecordRef::entries`] iterates position-free [`EntryView`]s (the
/// hot-path shape); [`RecordRef::entries_full`] materializes
/// [`RecordEntry`]s, deriving positions by a list search.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    qid: QueryId,
    /// The record's list ids, as varints.
    bytes: &'a [u8],
    terms: &'a [TermId],
    lists: &'a Lists,
}

impl<'a> RecordRef<'a> {
    /// Number of postings the query owns: the varints' last bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.iter().filter(|&&byte| byte < 0x80).count()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Iterate the record's entries in registration order, without list
    /// positions — O(1) per entry.
    #[inline]
    pub fn entries(self) -> impl Iterator<Item = EntryView> + 'a {
        let terms = self.terms;
        list_ids(self.bytes).map(move |list| EntryView { term: terms[list as usize], list })
    }

    /// Iterate the record's entries with list positions. Records don't
    /// store positions, so each is recovered by a search of the ID-ordered
    /// list — for the paths that need every position and have no better
    /// source (unregistration).
    #[inline]
    pub fn entries_full(self) -> impl Iterator<Item = RecordEntry> + 'a {
        let (qid, terms, lists) = (self.qid, self.terms, self.lists);
        list_ids(self.bytes).map(move |list| RecordEntry {
            term: terms[list as usize],
            list,
            pos: lists
                .get(list)
                .position_of(qid)
                .expect("record entry implies a posting (live or tombstoned)")
                as u32,
        })
    }
}

/// The shared ID-ordered query index.
#[derive(Debug)]
pub struct QueryIndex {
    lists: Lists,
    directory: TermDirectory,
    /// Each query's list ids as varints, in the order of its vector.
    records: RecordArena<u8>,
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
    /// An index over plain (uncompressed) postings lists, the default backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index using the given postings backend (see [`StorageConfig`]).
    pub fn with_storage(config: &StorageConfig) -> Self {
        QueryIndex {
            lists: Lists::new(config.storage),
            directory: TermDirectory::default(),
            records: RecordArena::default(),
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
        self.records.len()
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
        let len = record_postings(vector).count();
        // No list id of this record is longer than the largest it can be
        // given, so the arena takes the record in one pass.
        let most = len * varint_len((self.directory.terms().len() + len) as u32);
        let (directory, lists) = (&mut self.directory, &mut self.lists);
        self.records.push_ids(
            most,
            record_postings(vector).map(|(term, weight)| {
                let (list, fresh) = directory.get_or_insert(term);
                if fresh {
                    lists.push_list();
                }
                lists.push_posting(list, qid, weight);
                list
            }),
        );
        self.total_postings += len;
        self.live_queries += 1;
        qid
    }

    /// Unregister a query: tombstones every posting and drops the record.
    /// Returns the record (so callers can update bound structures), or `None`
    /// if the query was unknown / already removed.
    pub fn unregister(&mut self, qid: QueryId) -> Option<QueryRecord> {
        let record = QueryRecord { entries: self.record(qid)?.entries_full().collect() };
        self.records.remove(qid.index());
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
        self.records.get(qid.index()).map(|bytes| RecordRef {
            qid,
            bytes,
            terms: self.directory.terms(),
            lists: &self.lists,
        })
    }

    /// Dense list index of a term's list, if any query uses the term.
    #[inline]
    pub fn list_of_term(&self, term: TermId) -> Option<u32> {
        let list = self.directory.get(term);
        debug_assert!(list.is_none_or(|list| self.term_of_list(list) == term));
        list
    }

    /// The list at a dense index.
    #[inline]
    pub fn list(&self, idx: u32) -> ListRef<'_> {
        self.lists.get(idx)
    }

    /// The term that owns list `idx`.
    #[inline]
    pub fn term_of_list(&self, idx: u32) -> TermId {
        self.directory.terms()[idx as usize]
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
        self.records.compact();
        changed
    }

    /// Iterate ids of live queries (ascending).
    pub fn live_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.records.live().map(|i| QueryId(i as u32))
    }

    /// Heap bytes held by this index: lists (their table counted at
    /// capacity times the actual per-backend element size), records, and
    /// the term directory, every allocation at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.lists.heap_bytes() + self.records.heap_bytes() + self.directory.heap_bytes()
    }

    /// Point-in-time storage counters: [`QueryIndex::heap_bytes`].
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
                assert_eq!((v.term, v.list), (e.term, e.list));
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
                    assert!(!p.is_tombstone());
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
        assert_eq!(rec.len(), 1);
        for e in rec.entries_full() {
            assert_eq!(e.term, TermId(2));
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
    /// and records cost 4 bytes per slot plus their varints' bytes, plus at
    /// most the doubling slack. The slot table holds the capacity the
    /// growth rule reaches for its population, and the arena less than a
    /// chunk beyond its bytes and the ends of chunks a record did not fit
    /// in.
    #[test]
    fn heap_bytes_counts_capacities_and_records_fit_the_population() {
        for cfg in all_configs() {
            for n in [300u32, 20_000] {
                let mut ix = QueryIndex::with_storage(&cfg);
                let mut varints = 0usize;
                for i in 0..n {
                    let len = 1 + i % 6;
                    let pairs: Vec<(u32, f32)> =
                        (0..len).map(|j| ((i * 7 + j * 131) % 5_000, 1.0 + j as f32)).collect();
                    let qid = ix.register(&vector(&pairs), 1);
                    let record = ix.record(qid).unwrap();
                    assert_eq!(record.len(), pairs.len());
                    varints += record.entries().map(|e| varint_len(e.list)).sum::<usize>();
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
                let records = 4 * a.slots.capacity()
                    + 24 * a.chunks.capacity()
                    + a.chunks.iter().map(Vec::capacity).sum::<usize>();
                let directory = ix.directory.heap_bytes();
                assert_eq!(ix.heap_bytes(), lists + records + directory, "{cfg:?} at {n}");

                let exact = 4 * n as usize + varints;
                assert!(records <= 2 * exact, "{cfg:?} at {n}: {records} B of records for {exact}");
                assert_eq!(a.slots.capacity(), growth::fitted_capacity(n as usize), "{cfg:?}");
                let bytes: usize = a.chunks.iter().map(|c| c.capacity()).sum();
                let ends = 11 * (a.chunks.len() - 1); // a record holds at most 6 two-byte ids
                assert!(bytes < varints + ends + CHUNK_BYTES, "{cfg:?} at {n}: {bytes}");
            }
        }
    }

    /// The arena's records read back whole through removals and rebuilds:
    /// empty records, records that end exactly at a chunk's end, records
    /// that start a fresh chunk and oversized ones, with removed slots on
    /// either side of each.
    #[test]
    fn arena_records_end_where_the_next_slot_begins() {
        let mut arena = RecordArena::<u32>::default();
        let mut model: Vec<Option<Vec<u32>>> = Vec::new();
        let lens = [0, 3, 253, 0, 0, 1, 300, 0, 2, 254, 0, 256, 1, 0, 255, 600];
        for round in 0..4 {
            for &len in &lens {
                let rec: Vec<u32> = (0..len).map(|j| (model.len() * 1_000 + j) as u32).collect();
                arena.push(len, rec.iter().copied());
                assert_eq!(arena.get(model.len()), Some(&rec[..]), "the newest record reads back");
                model.push(Some(rec));
            }
            for i in (round..model.len()).step_by(2 + round) {
                assert_eq!(arena.remove(i), model[i].take().is_some(), "slot {i}");
            }
            let check = |arena: &RecordArena<u32>| {
                for (i, want) in model.iter().enumerate() {
                    assert_eq!(arena.get(i), want.as_deref(), "round {round}, slot {i}");
                }
                let live: Vec<usize> = arena.live().collect();
                let want: Vec<usize> = (0..model.len()).filter(|&i| model[i].is_some()).collect();
                assert_eq!(live, want);
            };
            check(&arena);
            arena.gc();
            assert_eq!(arena.dead_entries, 0);
            let stored: usize = arena.chunks.iter().map(Vec::len).sum();
            assert_eq!(stored, model.iter().flatten().map(Vec::len).sum::<usize>());
            check(&arena);
        }
    }

    /// The byte arena's records read back exactly, with ids at every LEB128
    /// length boundary, through removals, rebuilds and records larger than
    /// a chunk.
    #[test]
    fn varint_records_round_trip_at_every_length_boundary() {
        let boundaries =
            [0, 127, 128, 16_383, 16_384, (1 << 21) - 1, 1 << 21, (1 << 28) - 1, 1 << 28, u32::MAX];
        for (&id, len) in boundaries.iter().zip([1, 1, 2, 2, 3, 3, 4, 4, 5, 5]) {
            assert_eq!(varint_len(id), len, "{id}");
        }
        let mut arena = RecordArena::<u8>::default();
        let mut model: Vec<Option<Vec<u32>>> = Vec::new();
        // 400 ids average 3.2 bytes, past a 1 KiB chunk.
        let lens = [0, 1, 10, 3, 0, 400, 2, 17, 250, 5, 1, 0];
        for round in 0..4 {
            for &len in &lens {
                let ids: Vec<u32> =
                    (0..len).map(|j| boundaries[(model.len() + j) % boundaries.len()]).collect();
                arena.push_ids(5 * len, ids.iter().copied());
                model.push(Some(ids));
            }
            for i in (round..model.len()).step_by(2 + round) {
                assert_eq!(arena.remove(i), model[i].take().is_some(), "slot {i}");
            }
            let check = |arena: &RecordArena<u8>| {
                for (i, want) in model.iter().enumerate() {
                    let read = arena.get(i).map(|record| list_ids(record).collect::<Vec<_>>());
                    assert_eq!(read.as_ref(), want.as_ref(), "round {round}, slot {i}");
                }
            };
            check(&arena);
            arena.gc();
            check(&arena);
            let stored: usize = arena.chunks.iter().map(Vec::len).sum();
            let want = model.iter().flatten().flatten().map(|&id| varint_len(id)).sum::<usize>();
            assert_eq!(stored, want);
        }
        assert!(arena.chunks.iter().any(|c| c.len() > CHUNK_BYTES), "an oversized record");
    }
}
