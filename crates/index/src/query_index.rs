//! The query registry: term → postings list directory plus per-query records.
//!
//! Registration allocates monotonically increasing query ids (so lists stay
//! append-only), creates lists for unseen terms, and records for each query
//! every posting it owns. The record is what lets the algorithms (a) fully
//! re-score a candidate query in O(|q|) and (b) route `S_k`-change updates
//! to the bound structures without searching the lists.
//!
//! Records have two layouts behind [`RecordRef`], selected together with the
//! postings backend by [`StorageConfig`]:
//!
//! * **Plain** — one `Vec<RecordEntry>` per query (16 bytes/entry plus a
//!   `Vec` each, positions cached). The default, byte-for-byte the
//!   historical layout.
//! * **Packed** — 8-byte entries (`list`, `weight`) in a chunked arena,
//!   addressed by a 12-byte slot per query. The term is derived from the
//!   list index on read; the *position* is not stored at all — the lists
//!   are ID-ordered, so a posting's position is recoverable by a search
//!   on the query id (block directory, then an ids-only walk of one
//!   block). Full re-scores only need term and weight and never pay for
//!   that, and MRIO's bound updates take positions from the cursors
//!   standing on the postings. Unregistration and the
//!   owned form go through [`RecordRef::entries_full`], which searches
//!   for every position. Dropping the position also means compaction has
//!   no packed positions to refresh. Records never span
//!   chunks, so a record is always one contiguous slice; unregistration
//!   strands its entries until compaction rebuilds the arena. Used by the
//!   compressed and paged backends, where the records — not the lists —
//!   dominate per-query memory.

use crate::postings::Posting;
use crate::store::{ListRef, Lists, PostingsStorage, StorageConfig, StorageStats};
use ctk_common::{FxHashMap, QueryId, SparseVector, TermId};
use ctk_storage::{PageManager, StoreContext};
use std::sync::Arc;

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

/// Per-query registration record (owned form; see [`RecordRef`] for the
/// borrowed view the index hands out).
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    pub entries: Vec<RecordEntry>,
    /// Result size requested by the user.
    pub k: u32,
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
/// `len` (terms per query) and `k` both fit `u16` with room to spare.
#[derive(Debug, Clone, Copy)]
struct PackedSlot {
    offset: u32,
    len: u16,
    k: u16,
}

const DEAD_SLOT: u32 = u32::MAX;

/// Entries per arena chunk. Chunk `c` owns offsets `[c·CHUNK, c·CHUNK+len)`;
/// a record never spans chunks, so a record whose entries don't fit in the
/// current chunk's remainder starts a fresh one (a record larger than
/// `ARENA_CHUNK` gets a dedicated oversized chunk — its offset is the chunk
/// base, and nothing else allocates there).
const ARENA_CHUNK: usize = 4096;

/// Growth step of the slot table (one slot per query ever registered).
/// Exact-chunk growth instead of `Vec` doubling: at hundreds of thousands
/// of queries the doubling slack alone is megabytes.
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
    /// Reserve space for `n` contiguous entries; returns the global offset.
    fn alloc(&mut self, n: usize) -> u32 {
        let fits_last = self
            .chunks
            .last()
            .is_some_and(|c| c.capacity() == ARENA_CHUNK && c.len() + n <= ARENA_CHUNK);
        if !fits_last {
            self.chunks.push(Vec::with_capacity(n.max(ARENA_CHUNK)));
        }
        let chunk = self.chunks.len() - 1;
        ((chunk * ARENA_CHUNK) + self.chunks[chunk].len()) as u32
    }

    fn push_slot(&mut self, slot: PackedSlot) {
        if self.slots.len() == self.slots.capacity() {
            self.slots.reserve_exact(SLOTS_CHUNK);
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

#[derive(Debug)]
enum Records {
    Plain(Vec<Option<QueryRecord>>),
    Packed(PackedArena),
}

/// Borrowed view of one query's registration record, independent of the
/// record layout. [`RecordRef::entries`] iterates position-free
/// [`EntryView`]s (the hot-path shape);
/// [`RecordRef::entries_full`] materializes [`RecordEntry`]s, deriving
/// packed positions by a list search; [`RecordRef::to_record`] clones into
/// the owned form.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    k: u32,
    qid: QueryId,
    inner: RecordRefInner<'a>,
}

#[derive(Clone, Copy)]
enum RecordRefInner<'a> {
    Plain(&'a [RecordEntry]),
    Packed { entries: &'a [PackedEntry], terms: &'a [TermId], lists: &'a Lists },
}

impl<'a> RecordRef<'a> {
    /// Result size requested by the user.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of postings the query owns.
    #[inline]
    pub fn len(&self) -> usize {
        match self.inner {
            RecordRefInner::Plain(es) => es.len(),
            RecordRefInner::Packed { entries, .. } => entries.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the record's entries in registration order, without list
    /// positions — O(1) per entry for every layout.
    #[inline]
    pub fn entries(self) -> RecordEntries<'a> {
        RecordEntries {
            inner: match self.inner {
                RecordRefInner::Plain(es) => RecordEntriesInner::Plain(es.iter()),
                RecordRefInner::Packed { entries, terms, .. } => {
                    RecordEntriesInner::Packed { it: entries.iter(), terms }
                }
            },
        }
    }

    /// Iterate the record's entries with list positions. Packed layouts
    /// don't store positions, so each is recovered by a search of the
    /// ID-ordered list (directory, then an ids-only decode of one block) —
    /// for the paths that need every position and have no better source
    /// (unregistration, the owned form).
    #[inline]
    pub fn entries_full(self) -> RecordEntriesFull<'a> {
        RecordEntriesFull {
            qid: self.qid,
            inner: match self.inner {
                RecordRefInner::Plain(es) => RecordEntriesFullInner::Plain(es.iter()),
                RecordRefInner::Packed { entries, terms, lists } => {
                    RecordEntriesFullInner::Packed { it: entries.iter(), terms, lists }
                }
            },
        }
    }

    /// Clone into the owned (position-carrying) record form.
    pub fn to_record(&self) -> QueryRecord {
        QueryRecord { entries: self.entries_full().collect(), k: self.k }
    }
}

/// Iterator over a [`RecordRef`]'s position-free entries.
pub struct RecordEntries<'a> {
    inner: RecordEntriesInner<'a>,
}

enum RecordEntriesInner<'a> {
    Plain(std::slice::Iter<'a, RecordEntry>),
    Packed { it: std::slice::Iter<'a, PackedEntry>, terms: &'a [TermId] },
}

impl Iterator for RecordEntries<'_> {
    type Item = EntryView;

    #[inline]
    fn next(&mut self) -> Option<EntryView> {
        match &mut self.inner {
            RecordEntriesInner::Plain(it) => {
                it.next().map(|e| EntryView { term: e.term, list: e.list, weight: e.weight })
            }
            RecordEntriesInner::Packed { it, terms } => it.next().map(|e| EntryView {
                term: terms[e.list as usize],
                list: e.list,
                weight: e.weight,
            }),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            RecordEntriesInner::Plain(it) => it.size_hint(),
            RecordEntriesInner::Packed { it, .. } => it.size_hint(),
        }
    }
}

/// Iterator over a [`RecordRef`]'s full entries (positions included).
pub struct RecordEntriesFull<'a> {
    qid: QueryId,
    inner: RecordEntriesFullInner<'a>,
}

enum RecordEntriesFullInner<'a> {
    Plain(std::slice::Iter<'a, RecordEntry>),
    Packed { it: std::slice::Iter<'a, PackedEntry>, terms: &'a [TermId], lists: &'a Lists },
}

impl Iterator for RecordEntriesFull<'_> {
    type Item = RecordEntry;

    #[inline]
    fn next(&mut self) -> Option<RecordEntry> {
        match &mut self.inner {
            RecordEntriesFullInner::Plain(it) => it.next().copied(),
            RecordEntriesFullInner::Packed { it, terms, lists } => {
                let qid = self.qid;
                it.next().map(|e| RecordEntry {
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
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            RecordEntriesFullInner::Plain(it) => it.size_hint(),
            RecordEntriesFullInner::Packed { it, .. } => it.size_hint(),
        }
    }
}

/// The shared ID-ordered query index.
#[derive(Debug)]
pub struct QueryIndex {
    lists: Lists,
    list_terms: Vec<TermId>,
    term_map: FxHashMap<TermId, u32>,
    records: Records,
    live_queries: usize,
    /// Running totals across all lists, so [`QueryIndex::tombstone_ratio`]
    /// is O(1) — compaction policies probe it at every batch boundary.
    total_postings: usize,
    total_tombstones: usize,
    config: StorageConfig,
    /// Sealing policy shared by every list (the pager).
    cx: StoreContext,
}

impl Default for QueryIndex {
    fn default() -> Self {
        Self::with_storage(&StorageConfig::plain())
    }
}

impl QueryIndex {
    /// A plain (Vec-backed) index — the historical default layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index using the given storage backend (see [`StorageConfig`]).
    /// The backend also selects the record layout: plain storage keeps
    /// per-query `Vec`s, compressed/paged pack records into an arena.
    pub fn with_storage(config: &StorageConfig) -> Self {
        let records = match config.storage {
            PostingsStorage::Plain => Records::Plain(Vec::new()),
            _ => Records::Packed(PackedArena::default()),
        };
        let cx = match config.storage {
            PostingsStorage::Paged => {
                StoreContext::paged(Arc::new(PageManager::new(config.page_budget(), None)))
            }
            _ => StoreContext::raw(),
        };
        QueryIndex {
            lists: Lists::new(config.storage),
            list_terms: Vec::new(),
            term_map: FxHashMap::default(),
            records,
            live_queries: 0,
            total_postings: 0,
            total_tombstones: 0,
            config: config.clone(),
            cx,
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
        match &self.records {
            Records::Plain(v) => v.len(),
            Records::Packed(a) => a.slots.len(),
        }
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
    /// and normalized (enforced upstream by `QuerySpec`).
    ///
    /// Non-positive weights are rejected here rather than trusted from the
    /// caller: `weight == 0.0` doubles as the tombstone marker inside the
    /// postings lists, so a zero slipping through (e.g. an `f32` underflow
    /// during normalization upstream) would register a posting that *reads*
    /// as deleted while the list's tombstone counter says otherwise,
    /// desyncing `live()` from the live iteration paths.
    pub fn register(&mut self, vector: &SparseVector, k: u32) -> QueryId {
        let qid = QueryId(self.num_slots() as u32);
        let mut count = 0usize;
        let mut first: Option<(u32, u32, f32)> = None; // (list, pos, weight)
        let mut scratch: Vec<(u32, u32, f32)> = Vec::new();
        for (term, weight) in vector.iter() {
            if weight <= 0.0 {
                continue;
            }
            let list_idx = *self.term_map.entry(term).or_insert_with(|| {
                self.lists.push_list();
                self.list_terms.push(term);
                (self.lists.len() - 1) as u32
            });
            let pos = self.lists.get(list_idx).len() as u32;
            self.lists.push_posting(list_idx, qid, weight, &self.cx);
            if count == 0 {
                first = Some((list_idx, pos, weight));
            } else {
                if count == 1 {
                    scratch.reserve(vector.len());
                    scratch.push(first.expect("first entry recorded"));
                }
                scratch.push((list_idx, pos, weight));
            }
            count += 1;
        }
        let entries: &[(u32, u32, f32)] = if count == 1 {
            std::slice::from_ref(first.as_ref().expect("single entry"))
        } else {
            &scratch
        };
        self.total_postings += count;
        self.live_queries += 1;
        match &mut self.records {
            Records::Plain(v) => {
                v.push(Some(QueryRecord {
                    entries: entries
                        .iter()
                        .map(|&(list, pos, weight)| RecordEntry {
                            term: self.list_terms[list as usize],
                            list,
                            pos,
                            weight,
                        })
                        .collect(),
                    k,
                }));
            }
            Records::Packed(a) => {
                let offset = a.alloc(count);
                let dst = a.chunks.last_mut().expect("alloc ensured a chunk");
                dst.extend(entries.iter().map(|&(list, _, weight)| PackedEntry { list, weight }));
                let len = u16::try_from(count).expect("terms per query fit u16");
                let k = u16::try_from(k).expect("k fits u16");
                a.push_slot(PackedSlot { offset, len, k });
            }
        }
        qid
    }

    /// Unregister a query: tombstones every posting and drops the record.
    /// Returns the record (so callers can update bound structures), or `None`
    /// if the query was unknown / already removed.
    pub fn unregister(&mut self, qid: QueryId) -> Option<QueryRecord> {
        let record = match &mut self.records {
            Records::Plain(v) => v.get_mut(qid.index())?.take()?,
            Records::Packed(a) => {
                let slot = *a.slots.get(qid.index())?;
                if slot.offset == DEAD_SLOT {
                    return None;
                }
                a.slots[qid.index()].offset = DEAD_SLOT;
                a.dead_entries += slot.len as usize;
                let (terms, lists) = (&self.list_terms, &self.lists);
                QueryRecord {
                    entries: a
                        .entries(slot)
                        .iter()
                        .map(|e| RecordEntry {
                            term: terms[e.list as usize],
                            list: e.list,
                            pos: lists
                                .get(e.list)
                                .position_of(qid)
                                .expect("record entry implies a posting")
                                as u32,
                            weight: e.weight,
                        })
                        .collect(),
                    k: slot.k as u32,
                }
            }
        };
        for e in &record.entries {
            self.lists.tombstone(e.list, e.pos as usize);
        }
        self.total_tombstones += record.entries.len();
        self.live_queries -= 1;
        Some(record)
    }

    /// The record of a live query, as a layout-independent view.
    #[inline]
    pub fn record(&self, qid: QueryId) -> Option<RecordRef<'_>> {
        match &self.records {
            Records::Plain(v) => v.get(qid.index())?.as_ref().map(|r| RecordRef {
                k: r.k,
                qid,
                inner: RecordRefInner::Plain(&r.entries),
            }),
            Records::Packed(a) => {
                let slot = *a.slots.get(qid.index())?;
                (slot.offset != DEAD_SLOT).then(|| RecordRef {
                    k: slot.k as u32,
                    qid,
                    inner: RecordRefInner::Packed {
                        entries: a.entries(slot),
                        terms: &self.list_terms,
                        lists: &self.lists,
                    },
                })
            }
        }
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

    /// Drop all tombstones and refresh the cached positions in every record.
    /// Returns the indices of the lists that changed (so callers can rebuild
    /// their bound structures for exactly those lists). Packed records
    /// store no positions, so only plain records need the refresh; for
    /// packed records this is instead the arena's garbage-collection point:
    /// entries stranded by unregistration are reclaimed once they outnumber
    /// half the live ones.
    pub fn compact(&mut self) -> Vec<u32> {
        let mut changed = Vec::new();
        let mut survivors: Vec<Posting> = Vec::new();
        for idx in 0..self.lists.len() as u32 {
            if self.lists.get(idx).tombstones() == 0 {
                continue;
            }
            changed.push(idx);
            let removed = self.lists.get(idx).tombstones();
            self.total_postings -= removed;
            self.total_tombstones -= removed;
            survivors.clear();
            self.lists.compact_list(idx, &mut survivors, &self.cx);
            // Refresh positions: walk the compacted list once.
            if let Records::Plain(v) = &mut self.records {
                for (new_pos, p) in survivors.iter().enumerate() {
                    if let Some(rec) = v[p.qid.index()].as_mut() {
                        for e in &mut rec.entries {
                            if e.list == idx {
                                e.pos = new_pos as u32;
                            }
                        }
                    }
                }
            }
        }
        if let Records::Packed(a) = &mut self.records {
            if a.dead_entries * 2 > self.total_postings.max(1) {
                a.gc();
            }
        }
        changed
    }

    /// Iterate ids of live queries (ascending).
    pub fn live_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        let (plain, packed) = match &self.records {
            Records::Plain(v) => (Some(v), None),
            Records::Packed(a) => (None, Some(a)),
        };
        let plain_it = plain
            .into_iter()
            .flatten()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| QueryId(i as u32)));
        let packed_it = packed
            .into_iter()
            .flat_map(|a| a.slots.iter())
            .enumerate()
            .filter_map(|(i, s)| (s.offset != DEAD_SLOT).then_some(QueryId(i as u32)));
        plain_it.chain(packed_it)
    }

    /// Estimated heap bytes held by this index: lists (their table counted
    /// at capacity times the actual per-backend element size), records, and
    /// the term directory. For paged storage, disk-resident payloads are
    /// excluded (only their page handles count) — spilling is what makes
    /// `index_bytes` drop.
    pub fn heap_bytes(&self) -> usize {
        let lists = self.lists.heap_bytes();
        let records = match &self.records {
            Records::Plain(v) => {
                v.capacity() * std::mem::size_of::<Option<QueryRecord>>()
                    + v.iter()
                        .flatten()
                        .map(|r| r.entries.capacity() * std::mem::size_of::<RecordEntry>())
                        .sum::<usize>()
            }
            Records::Packed(a) => a.heap_bytes(),
        };
        // Hash-map estimate: std's SwissTable keeps ~8/7 of capacity in
        // (key, value) pairs plus one control byte per bucket.
        let directory = self.list_terms.capacity() * std::mem::size_of::<TermId>()
            + self.term_map.capacity()
                * (std::mem::size_of::<(TermId, u32)>() + std::mem::size_of::<u8>());
        lists + records + directory
    }

    /// Point-in-time storage counters (heap estimate + pager activity).
    pub fn storage_stats(&self) -> StorageStats {
        let pager = self.cx.pager.as_ref().map(|p| p.stats()).unwrap_or_default();
        StorageStats {
            index_bytes: self.heap_bytes() as u64,
            hot_pages: pager.hot_pages,
            cold_pages: pager.cold_pages,
            page_faults: pager.page_faults,
            blocks_decoded: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(pairs: &[(u32, f32)]) -> SparseVector {
        let mut v = SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)).collect());
        v.normalize();
        v
    }

    fn all_configs() -> Vec<StorageConfig> {
        vec![
            StorageConfig::plain(),
            StorageConfig::new(PostingsStorage::Compressed),
            StorageConfig {
                storage: PostingsStorage::Paged,
                page_budget_bytes: 256, // tiny: force spills in tests
            },
        ]
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
            assert_eq!(rec.k(), 3);
            // Full entries point back at the actual postings, and the view
            // round-trips through the owned form.
            for e in rec.entries_full() {
                assert_eq!(ix.list(e.list).get(e.pos as usize).qid, q1);
                assert_eq!(ix.term_of_list(e.list), e.term);
            }
            // The position-free view agrees with the full one.
            for (v, e) in rec.entries().zip(rec.entries_full()) {
                assert_eq!((v.term, v.list, v.weight), (e.term, e.list, e.weight));
            }
            assert_eq!(rec.to_record().entries.len(), 2);
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

            // Positions visible through records must be refreshed (plain)
            // or re-derived correctly (packed).
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

    /// The packed layouts must be observably identical to plain across a
    /// register/unregister/compact churn, and strictly smaller at scale.
    #[test]
    fn packed_layouts_match_plain_and_shrink() {
        let mut plain = QueryIndex::new();
        let mut others: Vec<QueryIndex> =
            all_configs()[1..].iter().map(QueryIndex::with_storage).collect();
        // Big enough that per-chunk and per-list constants amortize away —
        // the packed layouts buy their win at scale.
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
                let a = plain.record(qid).unwrap().to_record();
                let b = ix.record(qid).unwrap().to_record();
                assert_eq!(a.k, b.k);
                assert_eq!(a.entries, b.entries);
            }
            for li in 0..plain.num_lists() as u32 {
                let (pl, ol) = (plain.list(li), ix.list(li));
                assert_eq!(pl.len(), ol.len());
                for pos in 0..pl.len() {
                    assert_eq!(pl.get(pos), ol.get(pos));
                }
            }
            assert!(
                2 * ix.heap_bytes() < plain.heap_bytes(),
                "{} must halve plain's RAM at scale ({} vs {})",
                ix.storage_config().storage,
                ix.heap_bytes(),
                plain.heap_bytes()
            );
        }
    }

    #[test]
    fn paged_storage_reports_pager_activity() {
        let cfg = StorageConfig { storage: PostingsStorage::Paged, page_budget_bytes: 256 };
        let mut ix = QueryIndex::with_storage(&cfg);
        for i in 0..600u32 {
            ix.register(&vector(&[(1, 1.0), (2 + i, 0.5)]), 1);
        }
        let stats = ix.storage_stats();
        assert!(stats.cold_pages > 0, "tiny budget must spill");
        assert!(stats.index_bytes > 0);
        // Reading every posting faults cold pages back in.
        let mut n = 0usize;
        ix.list(0).for_each_live(|_, _| n += 1);
        assert_eq!(n, 600);
        assert!(ix.storage_stats().page_faults > 0);
    }
}
