//! The postings-storage seam: backend selection, the [`PostingsStore`]
//! trait, and the `Lists` table the [`crate::QueryIndex`] actually holds.
//!
//! Two backends, one read/write contract:
//!
//! * [`PostingsStorage::Plain`] — the Vec-backed [`PostingsList`]; the
//!   default, and the layout every result must stay bit-identical to.
//! * [`PostingsStorage::Compressed`] — [`CompressedList`]: sealed
//!   delta + bit-packed blocks (raw f32 weights, so reads are lossless)
//!   with an uncompressed tail; compaction is the re-compression point.
//!
//! Backends are dispatched at the *table* level (`Lists` is an enum of
//! homogeneous `Vec`s, readers get a [`ListRef`]), not per list: a
//! per-element enum would cost every backend the size of the fattest
//! variant per list — which, under heavy-tailed term distributions where
//! most lists hold a handful of postings, is exactly the fixed overhead
//! that decides whether compression wins at all.
//!
//! Blocks hold exactly [`ctk_storage::BLOCK_LEN`] postings so they align
//! 1:1 with [`crate::BlockMax`]'s default zones.
//!
//! **Two ways to read.** [`ListRef`]'s stateless methods (`get`, `seek`,
//! `position_of`, `for_each_*`) serve scans and one-off look-ups; on the
//! compressed backend each decodes what it needs on the stack. The
//! ID-ordered walks instead read through a *forward reader*: they
//! [`ListRef::open`] a slot in their per-event [`BlockScratch`] and call
//! the `*_at` methods (`posting_at`, `probe_at`, `seek_live_at`,
//! `next_live_at`, and `read_below_at` for a whole run of postings), which
//! answer from the decoded block under the reader —
//! no shared cache, no lock, no thread-local — and decode every sealed
//! block at most once per reader per event. For a plain list the slot is
//! empty and the same calls read the `Vec` in place, so the engines are
//! written once against this API and never ask which backend they are on.

use crate::postings::{Posting, PostingsList};
use ctk_common::QueryId;
use ctk_storage::{BlockCursor, CompressedList, StoreContext};

// The block codec and the zone structures agree on the zone size, so a
// default `BlockMax` zone covers exactly one sealed block.
const _: () = assert!(ctk_storage::BLOCK_LEN == crate::block_max::DEFAULT_BLOCK);

/// Which postings layout a [`crate::QueryIndex`] uses (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PostingsStorage {
    /// Uncompressed `Vec`-backed lists.
    #[default]
    Plain,
    /// Compressed sealed blocks.
    Compressed,
}

impl PostingsStorage {
    pub const ALL: [PostingsStorage; 2] = [PostingsStorage::Plain, PostingsStorage::Compressed];

    pub fn name(&self) -> &'static str {
        match self {
            PostingsStorage::Plain => "plain",
            PostingsStorage::Compressed => "compressed",
        }
    }
}

impl std::fmt::Display for PostingsStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PostingsStorage {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "plain" => Ok(PostingsStorage::Plain),
            "compressed" => Ok(PostingsStorage::Compressed),
            other => Err(format!("unknown storage '{other}' (expected plain|compressed)")),
        }
    }
}

/// The storage selection of a [`crate::QueryIndex`]. A one-field struct
/// because the benchmark crate builds it through [`StorageConfig::new`]
/// (ROADMAP 13(c)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageConfig {
    pub storage: PostingsStorage,
}

impl StorageConfig {
    pub fn new(storage: PostingsStorage) -> Self {
        StorageConfig { storage }
    }

    pub fn plain() -> Self {
        Self::default()
    }
}

/// Point-in-time storage counters, surfaced on the server's `/stats` and in
/// the bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Estimated heap bytes held by the index (lists + records + tables).
    pub index_bytes: u64,
    /// Always 0: nothing pages. Kept because the benchmark crate reads it
    /// (ROADMAP 13(c)).
    pub page_faults: u64,
    /// Sealed blocks decoded into cursor buffers by the ID-ordered walks
    /// (at most one per block, per cursor, per event — see
    /// [`BlockScratch`]), lifetime total. Zero for plain storage. The
    /// ids-only stack walks of position look-ups and far probes are not
    /// block decodes and are not counted.
    pub blocks_decoded: u64,
}

impl StorageStats {
    /// Fold another index's counters into this one (sharded aggregation).
    pub fn merge(&mut self, other: &StorageStats) {
        self.index_bytes += other.index_bytes;
        self.blocks_decoded += other.blocks_decoded;
    }
}

/// The contract every postings backend satisfies — the seam the engines
/// read through. Semantics (and the tests pinning them) come from
/// [`PostingsList`]: ID-ordered slots with stable positions, tombstones as
/// zero-weight slots that keep their query id, `seek` as "first position
/// `>= from` with id `>= target`".
pub trait PostingsStore {
    /// Slots, including tombstones.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstoned slots.
    fn tombstones(&self) -> usize;

    /// Live postings.
    fn live(&self) -> usize;

    /// The slot at `pos` (tombstones read as weight `0.0`).
    fn get(&self, pos: usize) -> Posting;

    /// Append a live posting; `qid` must exceed every id present.
    fn push(&mut self, qid: QueryId, weight: f32);

    /// Tombstone the slot at `pos` (idempotent; position stays valid).
    fn tombstone(&mut self, pos: usize);

    /// Position of `qid` (live or tombstoned), if present.
    fn position_of(&self, qid: QueryId) -> Option<usize>;

    /// First position `>= from` with id `>= target`, or `len()`.
    fn seek(&self, from: usize, target: QueryId) -> usize;

    /// First **live** position `>= from` with id `>= target`, or `len()`.
    fn seek_live(&self, from: usize, target: QueryId) -> usize;

    /// Visit every slot in position order (tombstones as zero weights).
    fn for_each_slot(&self, f: &mut dyn FnMut(QueryId, f32));

    /// Visit every live posting in position order.
    fn for_each_live(&self, f: &mut dyn FnMut(QueryId, f32));

    /// Drop tombstones; the survivors keep their order, and their positions
    /// restart from zero.
    fn compact(&mut self);

    /// RAM bytes owned by this list, excluding `size_of::<Self>()` (the
    /// containing table accounts for its slots).
    fn heap_bytes(&self) -> usize;
}

impl PostingsStore for PostingsList {
    fn len(&self) -> usize {
        PostingsList::len(self)
    }

    fn tombstones(&self) -> usize {
        PostingsList::tombstones(self)
    }

    fn live(&self) -> usize {
        PostingsList::live(self)
    }

    fn get(&self, pos: usize) -> Posting {
        PostingsList::get(self, pos)
    }

    fn push(&mut self, qid: QueryId, weight: f32) {
        PostingsList::push(self, qid, weight)
    }

    fn tombstone(&mut self, pos: usize) {
        PostingsList::tombstone(self, pos)
    }

    fn position_of(&self, qid: QueryId) -> Option<usize> {
        PostingsList::position_of(self, qid)
    }

    fn seek(&self, from: usize, target: QueryId) -> usize {
        PostingsList::seek(self, from, target)
    }

    fn seek_live(&self, from: usize, target: QueryId) -> usize {
        PostingsList::seek_live(self, from, target)
    }

    fn for_each_slot(&self, f: &mut dyn FnMut(QueryId, f32)) {
        for p in self.as_slice() {
            f(p.qid, p.weight);
        }
    }

    fn for_each_live(&self, f: &mut dyn FnMut(QueryId, f32)) {
        for p in self.iter_live() {
            f(p.qid, p.weight);
        }
    }

    fn compact(&mut self) {
        PostingsList::compact(self);
    }

    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<Posting>()
    }
}

impl PostingsStore for CompressedList {
    fn len(&self) -> usize {
        CompressedList::len(self)
    }

    fn tombstones(&self) -> usize {
        CompressedList::tombstones(self)
    }

    fn live(&self) -> usize {
        CompressedList::live(self)
    }

    fn get(&self, pos: usize) -> Posting {
        let (qid, weight) = CompressedList::get(self, pos);
        Posting { qid: QueryId(qid), weight }
    }

    fn push(&mut self, qid: QueryId, weight: f32) {
        CompressedList::push(self, qid.0, weight, &StoreContext)
    }

    fn tombstone(&mut self, pos: usize) {
        CompressedList::tombstone(self, pos)
    }

    fn position_of(&self, qid: QueryId) -> Option<usize> {
        CompressedList::position_of(self, qid.0)
    }

    fn seek(&self, from: usize, target: QueryId) -> usize {
        CompressedList::seek(self, from, target.0)
    }

    fn seek_live(&self, from: usize, target: QueryId) -> usize {
        CompressedList::seek_live(self, from, target.0)
    }

    fn for_each_slot(&self, f: &mut dyn FnMut(QueryId, f32)) {
        CompressedList::for_each_slot(self, |q, w| f(QueryId(q), w));
    }

    fn for_each_live(&self, f: &mut dyn FnMut(QueryId, f32)) {
        CompressedList::for_each_live(self, |q, w| f(QueryId(q), w));
    }

    fn compact(&mut self) {
        self.compact_into(&mut Vec::new());
    }

    fn heap_bytes(&self) -> usize {
        CompressedList::heap_bytes(self)
    }
}

/// Borrowed view of one postings list under whichever backend the index
/// was built with. Statically dispatched (an enum of references, not a
/// `dyn` pointer) so the plain path stays exactly as cheap as before the
/// seam existed.
#[derive(Clone, Copy)]
pub enum ListRef<'a> {
    Plain(&'a PostingsList),
    Compressed(&'a CompressedList),
}

macro_rules! dispatch_ref {
    ($self:expr, $list:ident => $body:expr) => {
        match $self {
            ListRef::Plain($list) => $body,
            ListRef::Compressed($list) => $body,
        }
    };
}

impl<'a> ListRef<'a> {
    /// Slots, including tombstones.
    #[inline]
    pub fn len(&self) -> usize {
        dispatch_ref!(self, l => PostingsStore::len(*l))
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstoned slots.
    #[inline]
    pub fn tombstones(&self) -> usize {
        dispatch_ref!(self, l => PostingsStore::tombstones(*l))
    }

    /// Live postings.
    #[inline]
    pub fn live(&self) -> usize {
        dispatch_ref!(self, l => PostingsStore::live(*l))
    }

    /// The slot at `pos` (tombstones read as weight `0.0`).
    #[inline]
    pub fn get(&self, pos: usize) -> Posting {
        dispatch_ref!(self, l => PostingsStore::get(*l, pos))
    }

    /// Position of `qid` (live or tombstoned), if present.
    #[inline]
    pub fn position_of(&self, qid: QueryId) -> Option<usize> {
        dispatch_ref!(self, l => PostingsStore::position_of(*l, qid))
    }

    /// First position `>= from` with id `>= target`, or `len()`.
    #[inline]
    pub fn seek(&self, from: usize, target: QueryId) -> usize {
        dispatch_ref!(self, l => PostingsStore::seek(*l, from, target))
    }

    /// First live position `>= from` with id `>= target`, or `len()`.
    #[inline]
    pub fn seek_live(&self, from: usize, target: QueryId) -> usize {
        dispatch_ref!(self, l => PostingsStore::seek_live(*l, from, target))
    }

    /// Claim the decoded-block slot a forward reader of this list reads
    /// through. Only a list with sealed blocks needs one: plain lists, and
    /// compressed lists that never sealed a block (most of them), are read
    /// in place.
    #[inline(always)]
    pub fn open(&self, scratch: &mut BlockScratch) -> u32 {
        match self {
            ListRef::Compressed(l) if l.sealed_blocks() > 0 => scratch.claim(),
            _ => NO_SLOT,
        }
    }

    /// First live position `>= pos` (or `len()`) for the forward reader
    /// holding `slot`.
    #[inline(always)]
    pub fn next_live_at(&self, scratch: &mut BlockScratch, slot: u32, pos: usize) -> usize {
        match self {
            ListRef::Plain(l) => l.next_live(pos),
            ListRef::Compressed(l) => match scratch.cursor(slot) {
                Some(bc) => l.cursor_next_live(bc, pos),
                None => l.tail().next_live(pos),
            },
        }
    }

    /// The slot at `pos` — or `None` at the end of the list — for the
    /// forward reader holding `slot`, which moves there.
    #[inline(always)]
    pub fn posting_at(&self, scratch: &mut BlockScratch, slot: u32, pos: usize) -> Option<Posting> {
        match self {
            ListRef::Plain(l) => l.as_slice().get(pos).copied(),
            ListRef::Compressed(l) => match scratch.cursor(slot) {
                Some(bc) => l.cursor_posting(bc, pos),
                None => l.tail().posting(pos),
            }
            .map(|(qid, weight)| Posting { qid: QueryId(qid), weight }),
        }
    }

    /// [`ListRef::seek`] from the position `from` of the forward reader
    /// holding `slot`, without moving it (the pivot search's bound probe).
    #[inline(always)]
    pub fn probe_at(
        &self,
        scratch: &mut BlockScratch,
        slot: u32,
        from: usize,
        target: QueryId,
    ) -> usize {
        match self {
            ListRef::Plain(l) => l.seek(from, target),
            ListRef::Compressed(l) => match scratch.cursor(slot) {
                Some(bc) => l.cursor_probe(bc, from, target.0),
                None => l.tail().seek(from, target.0),
            },
        }
    }

    /// [`ListRef::seek_live`] for the forward reader holding `slot`, which
    /// is about to move to the answer.
    #[inline(always)]
    pub fn seek_live_at(
        &self,
        scratch: &mut BlockScratch,
        slot: u32,
        from: usize,
        target: QueryId,
    ) -> usize {
        match self {
            ListRef::Plain(l) => l.seek_live(from, target),
            ListRef::Compressed(l) => match scratch.cursor(slot) {
                Some(bc) => l.cursor_seek_live(bc, from, target.0),
                None => l.tail().seek_live(from, target.0),
            },
        }
    }

    /// The run of the forward reader holding `slot` at `from` (live, or the
    /// length): `f` gets every live posting up to the first id `>= end`, as
    /// `(pos, qid, weight)` in position order; returns the first live
    /// position at or after that posting, or `len()` — where stepping with
    /// [`ListRef::next_live_at`] would stop. A plain list is read as a
    /// slice, a sealed block from its decoded buffer, a tail in place.
    #[inline(always)]
    pub fn read_below_at(
        &self,
        scratch: &mut BlockScratch,
        slot: u32,
        from: usize,
        end: QueryId,
        mut f: impl FnMut(usize, QueryId, f32),
    ) -> usize {
        match self {
            ListRef::Plain(l) => {
                let (slots, mut pos) = (l.as_slice(), from);
                while let Some(p) = slots.get(pos).filter(|p| p.qid < end) {
                    if !p.is_tombstone() {
                        f(pos, p.qid, p.weight);
                    }
                    pos += 1;
                }
                l.next_live(pos)
            }
            ListRef::Compressed(l) => {
                let g = |pos, qid, weight| f(pos, QueryId(qid), weight);
                match scratch.cursor(slot) {
                    Some(bc) => l.cursor_read_below(bc, from, end.0, g),
                    None => l.tail().read_below(from, end.0, g),
                }
            }
        }
    }

    /// Visit every slot in position order (tombstones as zero weights).
    pub fn for_each_slot(&self, mut f: impl FnMut(QueryId, f32)) {
        dispatch_ref!(self, l => PostingsStore::for_each_slot(*l, &mut f))
    }

    /// Visit every live posting in position order.
    pub fn for_each_live(&self, mut f: impl FnMut(QueryId, f32)) {
        dispatch_ref!(self, l => PostingsStore::for_each_live(*l, &mut f))
    }
}

/// Slot of a list that is read in place (see [`ListRef::open`]): beyond any
/// slot a [`BlockScratch`] can hand out.
const NO_SLOT: u32 = u32::MAX;

/// The decoded sealed blocks of one event's forward readers — the side
/// array a cursor set addresses by slot. Each list with sealed blocks a
/// reader opens gets a [`BlockCursor`] (the block under the reader plus the
/// next one, about 1 KiB); lists read in place get none. The buffers are scratch: they
/// are recycled by [`BlockScratch::reset`] at the start of every event and
/// are never part of the index's footprint.
#[derive(Debug, Default)]
pub struct BlockScratch {
    slots: Vec<BlockCursor>,
    used: usize,
    /// Decodes of the events already reset away.
    decoded: u64,
}

impl BlockScratch {
    /// Release every slot: the lists may have changed since they were
    /// decoded. The finished event's decode count is folded into the total.
    pub fn reset(&mut self) {
        for bc in &mut self.slots[..self.used] {
            self.decoded += bc.decoded() as u64;
            bc.reset();
        }
        self.used = 0;
    }

    /// Sealed blocks decoded through this scratch so far (lifetime total,
    /// the event in progress included).
    pub fn blocks_decoded(&self) -> u64 {
        self.decoded + self.slots[..self.used].iter().map(|bc| bc.decoded() as u64).sum::<u64>()
    }

    /// The cursor in `slot`; none for a list that is read in place.
    #[inline(always)]
    fn cursor(&mut self, slot: u32) -> Option<&mut BlockCursor> {
        self.slots.get_mut(slot as usize)
    }

    fn claim(&mut self) -> u32 {
        if self.used == self.slots.len() {
            self.slots.push(BlockCursor::default());
        }
        self.used += 1;
        (self.used - 1) as u32
    }
}

/// The index's list table: one homogeneous `Vec` per backend, so each
/// backend pays its own per-list footprint and nothing more.
#[derive(Debug)]
pub(crate) enum Lists {
    Plain(Vec<PostingsList>),
    Compressed(Vec<CompressedList>),
}

/// Growth step, in lists, of the compressed table. The plain table keeps
/// `Vec`'s doubling (the historical layout); the compressed backends grow
/// in exact chunks instead — at hundreds of thousands of lists, doubling
/// slack on the table itself would rival the postings it holds.
const LISTS_CHUNK: usize = 1024;

impl Lists {
    pub(crate) fn new(storage: PostingsStorage) -> Lists {
        match storage {
            PostingsStorage::Plain => Lists::Plain(Vec::new()),
            PostingsStorage::Compressed => Lists::Compressed(Vec::new()),
        }
    }

    /// Number of lists.
    pub(crate) fn len(&self) -> usize {
        match self {
            Lists::Plain(v) => v.len(),
            Lists::Compressed(v) => v.len(),
        }
    }

    /// Append a fresh empty list.
    pub(crate) fn push_list(&mut self) {
        match self {
            Lists::Plain(v) => v.push(PostingsList::new()),
            Lists::Compressed(v) => {
                if v.len() == v.capacity() {
                    v.reserve_exact(LISTS_CHUNK);
                }
                v.push(CompressedList::new());
            }
        }
    }

    /// Borrow list `idx` for reading.
    #[inline]
    pub(crate) fn get(&self, idx: u32) -> ListRef<'_> {
        match self {
            Lists::Plain(v) => ListRef::Plain(&v[idx as usize]),
            Lists::Compressed(v) => ListRef::Compressed(&v[idx as usize]),
        }
    }

    /// Append a live posting to list `idx`.
    #[inline]
    pub(crate) fn push_posting(&mut self, idx: u32, qid: QueryId, weight: f32) {
        match self {
            Lists::Plain(v) => v[idx as usize].push(qid, weight),
            Lists::Compressed(v) => v[idx as usize].push(qid.0, weight, &StoreContext),
        }
    }

    /// Tombstone slot `pos` of list `idx`.
    #[inline]
    pub(crate) fn tombstone(&mut self, idx: u32, pos: usize) {
        match self {
            Lists::Plain(v) => v[idx as usize].tombstone(pos),
            Lists::Compressed(v) => v[idx as usize].tombstone(pos),
        }
    }

    /// Drop the tombstones of list `idx`.
    pub(crate) fn compact_list(&mut self, idx: u32) {
        match self {
            Lists::Plain(v) => PostingsStore::compact(&mut v[idx as usize]),
            Lists::Compressed(v) => PostingsStore::compact(&mut v[idx as usize]),
        }
    }

    /// RAM bytes of the table and every list it holds: the backing array
    /// is counted at capacity times the *actual* per-list element size —
    /// the accounting the per-element-enum design would have made
    /// impossible to keep honest.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Lists::Plain(v) => {
                v.capacity() * std::mem::size_of::<PostingsList>()
                    + v.iter().map(PostingsStore::heap_bytes).sum::<usize>()
            }
            Lists::Compressed(v) => {
                v.capacity() * std::mem::size_of::<CompressedList>()
                    + v.iter().map(PostingsStore::heap_bytes).sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_round_trips_through_strings() {
        for s in PostingsStorage::ALL {
            assert_eq!(s.name().parse::<PostingsStorage>().unwrap(), s);
        }
        assert!("mmap".parse::<PostingsStorage>().is_err());
        assert!("paged".parse::<PostingsStorage>().is_err());
    }

    /// Both backends satisfy the same `PostingsStore` contract on the same
    /// operation sequence.
    #[test]
    fn backends_agree_through_the_trait() {
        let mut plain = PostingsList::new();
        let mut comp = CompressedList::new();
        {
            let both: [&mut dyn PostingsStore; 2] = [&mut plain, &mut comp];
            for l in both {
                for i in 0..200u32 {
                    l.push(QueryId(i * 3), 0.25 + i as f32);
                }
                for p in (0..200).step_by(7) {
                    l.tombstone(p);
                }
            }
        }
        let (plain, comp): (&dyn PostingsStore, &dyn PostingsStore) = (&plain, &comp);
        assert_eq!(plain.len(), comp.len());
        assert_eq!(plain.live(), comp.live());
        for pos in 0..plain.len() {
            assert_eq!(plain.get(pos), comp.get(pos));
        }
        for from in 0..plain.len() {
            for t in [0u32, 100, 300, 700] {
                assert_eq!(plain.seek(from, QueryId(t)), comp.seek(from, QueryId(t)));
                assert_eq!(plain.seek_live(from, QueryId(t)), comp.seek_live(from, QueryId(t)));
            }
        }
    }

    /// The table-level dispatch exists to keep per-backend footprints
    /// independent: a plain slot must stay the size of a bare
    /// `PostingsList`, not of the fattest backend.
    #[test]
    fn table_slots_cost_their_own_backend_only() {
        let mut plain = Lists::new(PostingsStorage::Plain);
        let mut comp = Lists::new(PostingsStorage::Compressed);
        for _ in 0..100 {
            plain.push_list();
            comp.push_list();
        }
        let plain_cap = match &plain {
            Lists::Plain(v) => v.capacity(),
            _ => unreachable!(),
        };
        let comp_cap = match &comp {
            Lists::Compressed(v) => v.capacity(),
            _ => unreachable!(),
        };
        assert_eq!(plain.heap_bytes(), plain_cap * std::mem::size_of::<PostingsList>());
        assert_eq!(comp.heap_bytes(), comp_cap * std::mem::size_of::<CompressedList>());
        assert_eq!(comp_cap, LISTS_CHUNK, "compressed table grows in exact chunks");
    }
}
