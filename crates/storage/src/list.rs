//! A compressed ID-ordered postings list.
//!
//! Full blocks of [`BLOCK_LEN`] postings are sealed through the block codec
//! (delta + bit-packed ids, raw f32 weights); the newest postings
//! live in an uncompressed tail until it fills. Sealed payloads are
//! immutable: a block is written once and only compaction replaces it.
//!
//! Tombstones never rewrite sealed bytes: a per-block liveness word (one
//! bit per slot) overrides the stored weight with the `0.0` sentinel on
//! read, and `seek_live` skips dead runs by scanning liveness words without
//! decoding. Compaction re-encodes the survivors — sealed blocks are
//! rebuilt, which is exactly the "compaction is the re-compression point"
//! design from the storage subsystem issue.
//!
//! **Reading.** There is no shared decode cache. A reader that walks the
//! list forward — one cursor of an ID-ordered traversal — brings its own
//! [`BlockCursor`]: the decoded block under the cursor plus the block after
//! it, so `cursor_posting`, `cursor_seek_live` (the advancing seek) and
//! `cursor_probe` (the non-advancing bound probe) are array reads while the
//! target stays inside those blocks, and a block is decoded at most once per
//! cursor per pass. Everything else — the stateless `get` / `seek` /
//! `position_of`, the `for_each_*` scans, a probe landing two or more blocks
//! ahead — decodes on the stack, ids only where the weights are not read,
//! and stops the delta walk at the answer.
//!
//! **Memory layout.** Real-world term/query distributions are heavy-tailed:
//! most lists hold a handful of postings and never seal a block, so the
//! per-list *fixed* cost decides whether compression wins at all. The
//! struct is therefore minimal — an exact-fit tail that holds a single
//! posting inline ([`Slots`]) and an `Option<Box>` of sealed-side tables
//! (`SealedState`, allocated on the first seal) — 24 bytes, the size of a
//! plain list's slot; and a list of one posting allocates nothing, so a
//! short list never costs more compressed than plain.

use crate::codec::{decode_block, decode_slot, encode_block, seek_ids, Block, BLOCK_LEN};
use crate::slots::Slots;
use ctk_common::is_tombstone_weight;

/// The argument [`CompressedList::push`] still takes and ignores; it carries
/// nothing. Kept only because the benchmark crate names it (ROADMAP 13(c)).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreContext;

impl StoreContext {
    /// The one (empty) context.
    pub fn raw() -> Self {
        StoreContext
    }
}

/// The sealed side of a list: every table that only exists once at least
/// one block has been sealed. Boxed inside [`CompressedList`] so the ~99%
/// of lists that stay shorter than [`BLOCK_LEN`] never pay for it.
#[derive(Debug)]
struct SealedState {
    /// Encoded payload of each sealed block.
    blocks: Vec<Box<[u8]>>,
    /// First query id of each sealed block, for block-level binary search.
    first_qids: Vec<u32>,
    /// One liveness word per sealed block, bit `i` = slot `i` is live.
    live_bits: Vec<u64>,
    sealed_live: u32,
}

impl SealedState {
    fn seal_block(&mut self, slots: &[(u32, f32)]) {
        let mut bytes = Vec::new();
        encode_block(slots, &mut bytes);
        let mut word = 0u64;
        for (i, &(_, w)) in slots.iter().enumerate() {
            if !is_tombstone_weight(w) {
                word |= 1 << i;
            }
        }
        self.sealed_live += word.count_ones();
        self.live_bits.push(word);
        self.first_qids.push(slots[0].0);
        self.blocks.push(bytes.into_boxed_slice());
    }

    /// Decode block `b` into a reader's buffer, with the block's liveness
    /// word beside it; tombstoned slots get the `0.0` weight sentinel here,
    /// so a reader of the buffer never goes back to the list for either.
    fn decode(&self, b: usize, out: &mut Resident) {
        decode_block(&self.blocks[b], &mut out.data);
        out.block = b as u32;
        out.live = self.live_bits[b];
        let mut dead = !out.live;
        while dead != 0 {
            out.data.weights[dead.trailing_zeros() as usize] = 0.0;
            dead &= dead - 1;
        }
    }
}

/// Sentinel block index of an empty [`BlockCursor`] buffer.
const NO_BLOCK: u32 = u32::MAX;

/// One decoded block in a reader's hands.
#[derive(Debug, Clone)]
struct Resident {
    block: u32,
    /// The block's liveness word when it was decoded.
    live: u64,
    data: Block,
}

/// The decoded blocks one forward reader of one [`CompressedList`] holds:
/// the block under the reader's position and the block after it.
///
/// A reader only moves forward, a block enters `cur` when the reader's
/// position does, and the look-ahead buffer only ever takes the block right
/// after `cur` (which is then *promoted*, not decoded again, when the
/// reader crosses into it) — so between two [`BlockCursor::reset`]s every
/// sealed block is decoded into these buffers at most once.
/// [`BlockCursor::decoded`] counts those decodes.
///
/// The buffers are only valid while the list is not mutated: reset the
/// cursor whenever the list may have changed (the engines do so at the
/// start of every event).
#[derive(Debug, Clone)]
pub struct BlockCursor {
    bufs: [Resident; 2],
    /// Which of `bufs` holds the block under the reader; the other one is
    /// the look-ahead.
    cur: usize,
    decoded: u32,
}

impl Default for BlockCursor {
    fn default() -> Self {
        let empty = Resident { block: NO_BLOCK, live: 0, data: Block::zeroed() };
        BlockCursor { bufs: [empty.clone(), empty], cur: 0, decoded: 0 }
    }
}

impl BlockCursor {
    /// Forget both blocks and zero the decode counter (the start of a new
    /// pass, or a different list).
    pub fn reset(&mut self) {
        self.bufs[0].block = NO_BLOCK;
        self.bufs[1].block = NO_BLOCK;
        self.decoded = 0;
    }

    /// Sealed blocks decoded into this cursor since the last reset.
    pub fn decoded(&self) -> u32 {
        self.decoded
    }

    /// The current block, if it is block `b`.
    #[inline]
    fn current(&self, b: usize) -> Option<&Resident> {
        let buf = &self.bufs[self.cur];
        (buf.block as usize == b).then_some(buf)
    }

    /// The answer of a seek from `from` when both `from` and the answer lie
    /// in the current block — the common case, settled without touching the
    /// list at all.
    #[inline]
    fn seek_current(&self, from: usize, target: u32) -> Option<usize> {
        let ids = &self.current(from / BLOCK_LEN)?.data.ids;
        (target <= ids[BLOCK_LEN - 1])
            .then(|| from + gallop(&ids[from % BLOCK_LEN..], |&q| q < target))
    }
}

/// Compressed block postings with an uncompressed tail (see module docs).
#[derive(Debug, Default)]
pub struct CompressedList {
    /// Exact fit, one posting inline (regrown one slot at a time —
    /// bounded by [`BLOCK_LEN`], so reallocation cost is capped, and zero
    /// capacity slack accumulates across tens of thousands of short lists).
    tail: Slots<(u32, f32)>,
    sealed: Option<Box<SealedState>>,
}

impl CompressedList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn sealed_len(&self) -> usize {
        self.sealed.as_ref().map_or(0, |s| s.blocks.len() * BLOCK_LEN)
    }

    /// Total slots, live + tombstoned.
    #[inline]
    pub fn len(&self) -> usize {
        self.sealed_len() + self.tail.all().len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstoned slots. The tail (at most [`BLOCK_LEN`] − 1 slots) is
    /// scanned; the sealed side is O(1) from its live counter.
    pub fn tombstones(&self) -> usize {
        let sealed_dead =
            self.sealed.as_ref().map_or(0, |s| s.blocks.len() * BLOCK_LEN - s.sealed_live as usize);
        sealed_dead + self.tail.all().iter().filter(|&&(_, w)| is_tombstone_weight(w)).count()
    }

    /// Live slots.
    pub fn live(&self) -> usize {
        self.len() - self.tombstones()
    }

    /// Number of sealed (compressed) blocks.
    #[inline]
    pub fn sealed_blocks(&self) -> usize {
        self.sealed.as_ref().map_or(0, |s| s.blocks.len())
    }

    /// True when slot `pos` is live.
    #[inline]
    pub fn is_live(&self, pos: usize) -> bool {
        let sealed = self.sealed_len();
        if pos < sealed {
            let s = self.sealed.as_ref().expect("sealed_len > 0");
            s.live_bits[pos / BLOCK_LEN] >> (pos % BLOCK_LEN) & 1 == 1
        } else {
            !is_tombstone_weight(self.tail.all()[pos - sealed].1)
        }
    }

    /// The slot at `pos`: `(qid, weight)`, weight `0.0` when tombstoned.
    /// Stateless: a sealed slot is read straight from its payload (the id
    /// walk stops at the slot). Forward readers use [`Self::cursor_posting`].
    pub fn get(&self, pos: usize) -> (u32, f32) {
        let sealed = self.sealed_len();
        if pos < sealed {
            let s = self.sealed.as_ref().expect("sealed_len > 0");
            let (qid, w) = decode_slot(&s.blocks[pos / BLOCK_LEN], pos % BLOCK_LEN);
            if self.is_live(pos) {
                (qid, w)
            } else {
                (qid, 0.0)
            }
        } else {
            self.tail.all()[pos - sealed]
        }
    }

    /// Make block `b` the cursor's current block and return it: a no-op
    /// when it already is, a promotion when it is the look-ahead, a decode
    /// otherwise.
    #[inline]
    fn enter<'c>(s: &SealedState, bc: &'c mut BlockCursor, b: usize) -> &'c Block {
        if bc.bufs[bc.cur].block != b as u32 {
            if bc.bufs[bc.cur ^ 1].block == b as u32 {
                bc.cur ^= 1;
            } else {
                s.decode(b, &mut bc.bufs[bc.cur]);
                bc.decoded += 1;
            }
        }
        &bc.bufs[bc.cur].data
    }

    /// Block `b`, the one right after the cursor's current block, through
    /// the look-ahead buffer.
    #[inline]
    fn look_ahead<'c>(s: &SealedState, bc: &'c mut BlockCursor, b: usize) -> &'c Block {
        debug_assert_eq!(bc.bufs[bc.cur].block as usize + 1, b);
        let buf = &mut bc.bufs[bc.cur ^ 1];
        if buf.block != b as u32 {
            s.decode(b, buf);
            bc.decoded += 1;
        }
        &buf.data
    }

    // The cursor operations below are split in two: the case the decoded
    // current block answers is `#[inline]` and touches nothing but the
    // cursor; everything else (another block, the tail, a decode) is an
    // out-of-line call, so the callers' loops stay small.

    /// The slot at `pos`, or `None` at the end of the list: what a forward
    /// reader takes with it every time it lands somewhere (the id to order
    /// by, the weight because every front candidate is scored). The
    /// cursor's current block becomes the block holding `pos`; inside it
    /// the list is not touched at all, not even for its length.
    #[inline]
    pub fn cursor_posting(&self, bc: &mut BlockCursor, pos: usize) -> Option<(u32, f32)> {
        match bc.current(pos / BLOCK_LEN) {
            Some(buf) => Some((buf.data.ids[pos % BLOCK_LEN], buf.data.weights[pos % BLOCK_LEN])),
            None => (pos < self.len()).then(|| self.cursor_get_elsewhere(bc, pos)),
        }
    }

    #[inline(never)]
    fn cursor_get_elsewhere(&self, bc: &mut BlockCursor, pos: usize) -> (u32, f32) {
        let sealed = self.sealed_len();
        if pos < sealed {
            let s = self.sealed.as_ref().expect("sealed_len > 0");
            let blk = Self::enter(s, bc, pos / BLOCK_LEN);
            (blk.ids[pos % BLOCK_LEN], blk.weights[pos % BLOCK_LEN])
        } else {
            self.tail.all()[pos - sealed]
        }
    }

    /// [`Self::next_live`] for a forward reader: inside the cursor's
    /// current block its copy of the liveness word answers; past it, the
    /// list's own words do.
    #[inline]
    pub fn cursor_next_live(&self, bc: &BlockCursor, pos: usize) -> usize {
        let b = pos / BLOCK_LEN;
        match bc.current(b) {
            Some(buf) => match buf.live >> (pos % BLOCK_LEN) {
                0 => self.next_live((b + 1) * BLOCK_LEN),
                rest => pos + rest.trailing_zeros() as usize,
            },
            None => self.next_live(pos),
        }
    }

    /// [`Self::seek`] from the reader's own position `from`, without moving
    /// it — the bound probe of a pivot search. A target inside the current
    /// block is answered without touching the list; one in the next block
    /// from the look-ahead buffer; one further ahead costs an ids-only walk
    /// of its block on the stack.
    #[inline]
    pub fn cursor_probe(&self, bc: &mut BlockCursor, from: usize, target: u32) -> usize {
        match bc.seek_current(from, target) {
            Some(pos) => pos,
            None => self.cursor_probe_elsewhere(bc, from, target),
        }
    }

    #[inline(never)]
    fn cursor_probe_elsewhere(&self, bc: &mut BlockCursor, from: usize, target: u32) -> usize {
        let b0 = from / BLOCK_LEN;
        self.seek_by(from, target, |s, b, lo| {
            let blk = if b == b0 {
                Self::enter(s, bc, b)
            } else if b == b0 + 1 {
                Self::enter(s, bc, b0);
                Self::look_ahead(s, bc, b)
            } else {
                return seek_ids(&s.blocks[b], lo, target).0;
            };
            lo + gallop(&blk.ids[lo..], |&q| q < target)
        })
    }

    /// [`Self::seek_live`] for a forward reader that is about to move to
    /// the answer: the landing block becomes the cursor's current block.
    #[inline]
    pub fn cursor_seek_live(&self, bc: &mut BlockCursor, from: usize, target: u32) -> usize {
        let pos = match bc.seek_current(from, target) {
            Some(pos) => pos,
            None => self.cursor_seek_elsewhere(bc, from, target),
        };
        self.cursor_next_live(bc, pos)
    }

    #[inline(never)]
    fn cursor_seek_elsewhere(&self, bc: &mut BlockCursor, from: usize, target: u32) -> usize {
        self.seek_by(from, target, |s, b, lo| {
            lo + gallop(&Self::enter(s, bc, b).ids[lo..], |&q| q < target)
        })
    }

    /// A forward reader's run: hand `f` every live slot from `pos` (live,
    /// or the length) up to the first id `>= end`, as `(pos, qid, weight)`
    /// in position order, and return the first live position at or after
    /// that slot — the slots stepping with [`Self::cursor_next_live`] would
    /// land on, and where it would stop. Sealed blocks are read a decoded
    /// block at a time, entered as [`Self::cursor_posting`] enters them (so
    /// still at most one decode per block per cursor), with the list's
    /// liveness word beside them; a block with no live slot left is passed
    /// on that word alone, undecoded. The tail is read in place.
    pub fn cursor_read_below(
        &self,
        bc: &mut BlockCursor,
        mut pos: usize,
        end: u32,
        mut f: impl FnMut(usize, u32, f32),
    ) -> usize {
        let sealed = self.sealed_len();
        if let Some(s) = self.sealed.as_deref() {
            while pos < sealed {
                let (b, lo) = (pos / BLOCK_LEN, pos % BLOCK_LEN);
                let live = s.live_bits[b] >> lo << lo;
                if live == 0 {
                    pos = (b + 1) * BLOCK_LEN;
                    continue;
                }
                let blk = Self::enter(s, bc, b);
                let stop = if blk.ids[BLOCK_LEN - 1] < end {
                    BLOCK_LEN
                } else {
                    lo + blk.ids[lo..].partition_point(|&q| q < end)
                };
                let mut run = if stop < BLOCK_LEN { live & ((1 << stop) - 1) } else { live };
                while run != 0 {
                    let i = run.trailing_zeros() as usize;
                    f(b * BLOCK_LEN + i, blk.ids[i], blk.weights[i]);
                    run &= run - 1;
                }
                if stop < BLOCK_LEN {
                    return self.cursor_next_live(bc, b * BLOCK_LEN + stop);
                }
                pos = (b + 1) * BLOCK_LEN;
            }
        }
        sealed + self.tail().read_below(pos - sealed, end, |i, q, w| f(sealed + i, q, w))
    }

    /// Append a live posting; ids must be strictly increasing. Seals the
    /// tail into a compressed block when it reaches [`BLOCK_LEN`].
    /// `_cx` is ignored: the benchmark crate still passes it (ROADMAP 13(c)).
    pub fn push(&mut self, qid: u32, weight: f32, _cx: &StoreContext) {
        debug_assert!(!is_tombstone_weight(weight), "zero-weight pushes would read as deleted");
        debug_assert!(
            self.is_empty() || qid > self.get(self.len() - 1).0,
            "ids must be pushed in order"
        );
        let tail = self.tail.all();
        if tail.is_empty() {
            self.tail = Slots::One((qid, weight));
            return;
        }
        let mut grown = Vec::with_capacity(tail.len() + 1);
        grown.extend_from_slice(tail);
        grown.push((qid, weight));
        if grown.len() == BLOCK_LEN {
            self.tail = Slots::default();
            self.sealed_mut().seal_block(&grown);
        } else {
            self.tail = Slots::Heap(grown.into_boxed_slice());
        }
    }

    /// The sealed state, created on first use.
    fn sealed_mut(&mut self) -> &mut SealedState {
        self.sealed.get_or_insert_with(|| {
            Box::new(SealedState {
                blocks: Vec::new(),
                first_qids: Vec::new(),
                live_bits: Vec::new(),
                sealed_live: 0,
            })
        })
    }

    /// Tombstone the slot at `pos` (idempotent). Sealed bytes are never
    /// rewritten: only the liveness word flips.
    pub fn tombstone(&mut self, pos: usize) {
        let sealed = self.sealed_len();
        if pos < sealed {
            let s = self.sealed.as_mut().expect("sealed_len > 0");
            let (word, bit) = (pos / BLOCK_LEN, pos % BLOCK_LEN);
            if s.live_bits[word] >> bit & 1 == 1 {
                s.live_bits[word] &= !(1u64 << bit);
                s.sealed_live -= 1;
            }
        } else {
            self.tail.all_mut()[pos - sealed].1 = 0.0;
        }
    }

    /// The uncompressed tail. It is the whole list — positions and all —
    /// exactly when [`Self::sealed_blocks`] is zero.
    #[inline]
    pub fn tail(&self) -> Unsealed<'_> {
        Unsealed(self.tail.all())
    }

    /// The one seek: first position `>= from` whose query id is `>= target`
    /// (tombstones included), or `len()`. The sealed region is narrowed to
    /// one block by a galloping search of the first-id directory starting
    /// at `from`'s block; `in_block(sealed, block, lo)` then returns the
    /// first slot `>= lo` of that block with id `>= target` (or
    /// [`BLOCK_LEN`]) — how it reads the block is the caller's business.
    #[inline]
    fn seek_by(
        &self,
        from: usize,
        target: u32,
        in_block: impl FnOnce(&SealedState, usize, usize) -> usize,
    ) -> usize {
        let n = self.len();
        let sealed = self.sealed_len();
        if from >= n {
            return n;
        }
        if from >= sealed {
            return sealed + self.tail().seek(from - sealed, target);
        }
        let s = self.sealed.as_ref().expect("sealed_len > 0");
        let b0 = from / BLOCK_LEN;
        // The last block from `b0` on whose first id is <= target holds the
        // answer (or is exhausted by it); no such block means every id from
        // `from` on is already >= target.
        let b = b0 + gallop(&s.first_qids[b0 + 1..], |&first| first <= target);
        if b == b0 && s.first_qids[b0] > target {
            return from;
        }
        let lo = if b == b0 { from % BLOCK_LEN } else { 0 };
        let i = in_block(s, b, lo);
        let pos = b * BLOCK_LEN + i;
        if i < BLOCK_LEN || pos < sealed {
            // In-block hit, or the exhausted block's successor (whose first
            // id exceeds the target by choice of `b`).
            pos
        } else {
            sealed + self.tail().seek(0, target)
        }
    }

    /// First position `>= from` whose query id is `>= target` (tombstones
    /// included), or `len()`. Stateless: the landing block's ids are walked
    /// on the stack up to the answer.
    pub fn seek(&self, from: usize, target: u32) -> usize {
        self.seek_by(from, target, |s, b, lo| seek_ids(&s.blocks[b], lo, target).0)
    }

    /// First **live** position `>= pos`, or `len()`. Dead sealed runs are
    /// skipped by scanning liveness words — no block is decoded.
    pub fn next_live(&self, mut pos: usize) -> usize {
        let n = self.len();
        let sealed = self.sealed_len();
        while pos < n {
            if pos < sealed {
                let s = self.sealed.as_ref().expect("sealed_len > 0");
                let word = pos / BLOCK_LEN;
                let rest = s.live_bits[word] >> (pos % BLOCK_LEN);
                if rest != 0 {
                    return pos + rest.trailing_zeros() as usize;
                }
                pos = (word + 1) * BLOCK_LEN;
            } else if is_tombstone_weight(self.tail.all()[pos - sealed].1) {
                pos += 1;
            } else {
                return pos;
            }
        }
        n
    }

    /// First live position `>= from` with id `>= target`.
    pub fn seek_live(&self, from: usize, target: u32) -> usize {
        self.next_live(self.seek(from, target))
    }

    /// Position of `qid` (live or tombstoned), if present: binary searches
    /// of the block directory and the tail, and in between an ids-only walk
    /// of the one candidate block that stops at the answer — no weight is
    /// read, nothing is materialized.
    pub fn position_of(&self, qid: u32) -> Option<usize> {
        if let Some(s) = &self.sealed {
            // The last block whose first id is <= qid is the only sealed
            // block that can hold it.
            let after = s.first_qids.partition_point(|&first| first <= qid);
            if let Some(b) = after.checked_sub(1) {
                let (i, hit) = seek_ids(&s.blocks[b], 0, qid);
                if hit {
                    return Some(b * BLOCK_LEN + i);
                }
            }
        }
        let i = self.tail.all().binary_search_by_key(&qid, |&(q, _)| q).ok()?;
        Some(self.sealed_len() + i)
    }

    /// Visit every slot in position order (tombstones as zero weights).
    pub fn for_each_slot(&self, mut f: impl FnMut(u32, f32)) {
        if let Some(s) = &self.sealed {
            let mut blk = Block::zeroed();
            for (b, &word) in s.live_bits.iter().enumerate() {
                decode_block(&s.blocks[b], &mut blk);
                for (i, (&q, &w)) in blk.ids.iter().zip(&blk.weights).enumerate() {
                    f(q, if word >> i & 1 == 1 { w } else { 0.0 });
                }
            }
        }
        for &(q, w) in self.tail.all() {
            f(q, w);
        }
    }

    /// Visit every live posting in position order.
    pub fn for_each_live(&self, mut f: impl FnMut(u32, f32)) {
        if let Some(s) = &self.sealed {
            let mut blk = Block::zeroed();
            for (b, &word) in s.live_bits.iter().enumerate() {
                if word == 0 {
                    continue;
                }
                decode_block(&s.blocks[b], &mut blk);
                for (i, (&q, &w)) in blk.ids.iter().zip(&blk.weights).enumerate() {
                    if word >> i & 1 == 1 {
                        f(q, w);
                    }
                }
            }
        }
        for &(q, w) in self.tail.all() {
            if !is_tombstone_weight(w) {
                f(q, w);
            }
        }
    }

    /// Drop tombstones and re-encode: survivors are appended to `out` (for
    /// the caller's record refresh) and the list is rebuilt from them —
    /// full blocks re-seal, the remainder becomes the new tail.
    pub fn compact_into(&mut self, out: &mut Vec<(u32, f32)>) {
        let start = out.len();
        self.for_each_live(|q, w| out.push((q, w)));
        self.sealed = None;
        let survivors = &out[start..];
        let mut chunks = survivors.chunks_exact(BLOCK_LEN);
        for chunk in &mut chunks {
            self.sealed_mut().seal_block(chunk);
        }
        self.tail = Slots::from_slice(chunks.remainder());
    }

    /// RAM bytes *owned* by this list — tables, tail, and every sealed
    /// block's payload. Excludes `size_of::<Self>()`: the container holding
    /// the list accounts for its slot, whatever it is embedded in.
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = self.tail.heap_bytes();
        if let Some(s) = &self.sealed {
            bytes += std::mem::size_of::<SealedState>()
                + s.blocks.capacity() * std::mem::size_of::<Box<[u8]>>()
                + s.first_qids.capacity() * 4
                + s.live_bits.capacity() * 8
                + s.blocks.iter().map(|payload| payload.len()).sum::<usize>();
        }
        bytes
    }
}

/// Number of leading elements of `sorted` for which `below` holds (`below`
/// is true on a prefix and false after it), by galloping: a seek rarely
/// leaves the neighbourhood it starts in, so the answer is almost always
/// within the first few entries.
#[inline]
fn gallop<T>(sorted: &[T], below: impl Fn(&T) -> bool) -> usize {
    let n = sorted.len();
    let (mut lo, mut step) = (0usize, 1usize);
    while lo + step <= n && below(&sorted[lo + step - 1]) {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step - 1).min(n);
    lo + sorted[lo..hi].partition_point(below)
}

/// The uncompressed slots of a list, read in place: the tail of a sealed
/// list, and the *whole* of a list that never sealed a block — which is
/// most lists (see the module docs), so a reader of such a list goes
/// through this view and never sets up a [`BlockCursor`]. Positions are
/// slice indices; the semantics are [`CompressedList`]'s.
#[derive(Debug, Clone, Copy)]
pub struct Unsealed<'a>(&'a [(u32, f32)]);

impl Unsealed<'_> {
    /// The slot at `pos`, or `None` at the end.
    #[inline]
    pub fn posting(self, pos: usize) -> Option<(u32, f32)> {
        self.0.get(pos).copied()
    }

    /// First live position `>= pos`, or the length.
    #[inline]
    pub fn next_live(self, pos: usize) -> usize {
        let pos = pos.min(self.0.len());
        pos + self.0[pos..]
            .iter()
            .position(|&(_, w)| !is_tombstone_weight(w))
            .unwrap_or(self.0.len() - pos)
    }

    /// First position `>= from` with id `>= target`, or the length.
    #[inline]
    pub fn seek(self, from: usize, target: u32) -> usize {
        let from = from.min(self.0.len());
        from + gallop(&self.0[from..], |&(q, _)| q < target)
    }

    /// First live position `>= from` with id `>= target`, or the length.
    #[inline]
    pub fn seek_live(self, from: usize, target: u32) -> usize {
        self.next_live(self.seek(from, target))
    }

    /// [`CompressedList::cursor_read_below`] on these slots: `f` gets every
    /// live slot from `from` up to the first id `>= end`; returns the first
    /// live position at or after that slot, or the length.
    #[inline]
    pub fn read_below(self, from: usize, end: u32, mut f: impl FnMut(usize, u32, f32)) -> usize {
        let mut pos = from;
        while let Some(&(q, w)) = self.0.get(pos).filter(|&&(q, _)| q < end) {
            if !is_tombstone_weight(w) {
                f(pos, q, w);
            }
            pos += 1;
        }
        self.next_live(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixed footprint is the whole game for heavy-tailed term
    /// distributions: a never-sealed list must cost no more than a plain
    /// one (a 16-byte tail + an 8-byte `Option<Box>`, against a plain
    /// list's 16-byte slots + two `u32` counts), and one posting is held
    /// without an allocation.
    #[test]
    fn struct_stays_small() {
        assert_eq!(std::mem::size_of::<CompressedList>(), 24);
        assert!(CompressedList::new().heap_bytes() == 0, "empty list owns nothing");
        let one = build(&[9]);
        assert_eq!((one.heap_bytes(), one.get(0)), (0, (9, 9.5)), "one posting is inline");
        assert_eq!(build(&[9, 12]).heap_bytes(), 16);
    }

    /// Plain mirror of the expected slot sequence.
    fn mirror(list: &CompressedList) -> Vec<(u32, f32)> {
        (0..list.len()).map(|p| list.get(p)).collect()
    }

    fn build(ids: &[u32]) -> CompressedList {
        let cx = StoreContext::raw();
        let mut l = CompressedList::new();
        for &i in ids {
            l.push(i, 0.5 + i as f32, &cx);
        }
        l
    }

    #[test]
    fn push_seals_full_blocks_and_reads_back() {
        let ids: Vec<u32> = (0..200).map(|i| i * 3 + (i % 2)).collect();
        let l = build(&ids);
        assert_eq!(l.sealed_blocks(), 3);
        assert_eq!(l.len(), 200);
        assert_eq!(l.live(), 200);
        for (p, &i) in ids.iter().enumerate() {
            assert_eq!(l.get(p), (i, 0.5 + i as f32));
        }
    }

    #[test]
    fn seek_exhaustive_against_linear_scan() {
        let ids: Vec<u32> = (0..200).map(|i| i * 3 + (i % 2)).collect();
        let l = build(&ids);
        let slots = mirror(&l);
        for from in 0..=l.len() {
            for t in 0..620u32 {
                let expect = (from..l.len()).find(|&p| slots[p].0 >= t).unwrap_or(l.len());
                assert_eq!(l.seek(from, t), expect, "from={from} t={t}");
            }
        }
    }

    #[test]
    fn tombstones_and_seek_live_across_blocks() {
        let ids: Vec<u32> = (0..160).collect();
        let mut l = build(&ids);
        // Kill a whole sealed block plus a tail stretch.
        for p in 64..128 {
            l.tombstone(p);
        }
        l.tombstone(130);
        l.tombstone(130); // idempotent
        assert_eq!(l.tombstones(), 65);
        assert_eq!(l.live(), 95);
        assert_eq!(l.get(70), (70, 0.0), "dead sealed slot keeps its id, zeroes its weight");
        assert_eq!(l.seek_live(0, 64), 128, "skips the dead block without decoding");
        assert_eq!(l.seek_live(0, 130), 131);
        // seek (not seek_live) still lands on tombstones.
        assert_eq!(l.seek(0, 70), 70);
    }

    #[test]
    fn seek_live_matches_linear_oracle_after_churn() {
        let ids: Vec<u32> = (0..300).map(|i| i * 2).collect();
        let mut l = build(&ids);
        for p in (0..300).step_by(3) {
            l.tombstone(p);
        }
        let slots = mirror(&l);
        for from in 0..=l.len() {
            for t in (0..620u32).step_by(7) {
                let expect = (from..l.len())
                    .find(|&p| slots[p].0 >= t && !is_tombstone_weight(slots[p].1))
                    .unwrap_or(l.len());
                assert_eq!(l.seek_live(from, t), expect, "from={from} t={t}");
            }
        }
    }

    #[test]
    fn compact_reseals_survivors() {
        let ids: Vec<u32> = (0..150).collect();
        let mut l = build(&ids);
        for p in (0..150).step_by(2) {
            l.tombstone(p);
        }
        let mut survivors = Vec::new();
        l.compact_into(&mut survivors);
        assert_eq!(survivors.len(), 75);
        assert_eq!(l.len(), 75);
        assert_eq!(l.tombstones(), 0);
        assert_eq!(l.sealed_blocks(), 1);
        for (p, &(q, w)) in survivors.iter().enumerate() {
            assert_eq!(l.get(p), (q, w));
            assert!(q % 2 == 1);
        }
    }

    #[test]
    fn position_of_finds_sealed_and_tail_slots() {
        let ids: Vec<u32> = (0..100).map(|i| i * 5).collect();
        let l = build(&ids);
        assert_eq!(l.position_of(0), Some(0));
        assert_eq!(l.position_of(5 * 80), Some(80), "tail slot");
        assert_eq!(l.position_of(5 * 63), Some(63), "sealed slot");
        assert_eq!(l.position_of(7), None);
    }

    #[test]
    fn for_each_slot_and_live_agree_with_get() {
        let ids: Vec<u32> = (0..130).collect();
        let mut l = build(&ids);
        l.tombstone(5);
        l.tombstone(128);
        let mut slots = Vec::new();
        l.for_each_slot(|q, w| slots.push((q, w)));
        assert_eq!(slots, mirror(&l));
        let mut live = Vec::new();
        l.for_each_live(|q, w| live.push((q, w)));
        assert_eq!(live.len(), 128);
        assert!(live.iter().all(|&(_, w)| !is_tombstone_weight(w)));
    }
}
