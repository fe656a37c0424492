//! MRIO — Minimal RIO (paper §III, Eq. 3).
//!
//! RIO's bounds use list-wide maxima; MRIO replaces them with maxima **local
//! to the zone a bound actually prunes**, which is exactly the id range
//! between the first cursor and the cursor after the prefix:
//!
//! ```text
//! UB*(i) = Σ_{j≤i} f_j · max_{q ∈ zone_i} u_j(q)
//! zone_i = [c_1, c_{i+1})  for i < m,   [c_1, c_m]  for i = m
//! ```
//!
//! For list `j` only positions at or after its own cursor can contribute, so
//! the implementation queries `[pos(c_j), pos(bound))` per list. `UB*` is
//! monotone in `i` (ranges extend, non-negative terms accumulate), so the
//! *smallest* `i` with `UB*(i) ≥ θ_d` — the pivot that makes MRIO minimal —
//! is found by galloping + binary search instead of a linear scan.
//!
//! Unlike RIO, a failed full bound (`UB*(m) < θ_d`) only prunes `[c_1, c_m]`;
//! the traversal jumps past `c_m` and continues, because local bounds say
//! nothing about ids beyond the last cursor.
//!
//! # The front candidate is tested exactly, first
//!
//! Every iteration starts with the front candidate `q = c_1` and asks the
//! one question that matters, in the oracle's own arithmetic: would `offer`
//! insert this document? The cursors aligned on `q` sit on its already
//! decoded postings, so `fl(Σ f_j·w_j)` summed in term order is the very dot
//! product `Naive` computes, and [`EngineBase::admits`] compares
//! `fl(Σ f_j·w_j)·amp` (and the doc id, on an exact tie) with one dense
//! `S_k` read. The test is a window one id wide (below), so the exact test
//! and the leaf tightening exist once.
//!
//! * admitted: `offer` inserts it — full evaluations equal updates exactly —
//!   and the walk tests the next front.
//! * not admitted: `q` alone is pruned, and the pivot search decides how far
//!   everything its zone proves prunable may *jump*.
//!
//! # Ties
//!
//! The exact test cannot disagree with `Naive`, so it carries no ε. The
//! zone sums of the pivot search are a different rounding of the same
//! quantity, `fl(Σ f_j·fl(w_j/S_k))` against `θ_d = fl(e^{-x})` where
//! `amp = fl(e^{x})`: for a candidate that ties `S_k` (a republished vector
//! under a smaller doc id) they can come out at `θ_d − ulp`. `find_pivot`
//! therefore compares its sums with [`EngineBase::bound_floor`],
//! `θ_d · (1 − (m + 4)·ε)`, `ε = 2⁻⁵²` — the floor RIO and TPS use too: a
//! zone holding a winner is never jumped.
//!
//! # Stale leaves
//!
//! A leaf holds `u = w/S_k` as of the last time the walk stood on that
//! posting, not as of now. Inside a decay frame `S_k` only rises (`offer`
//! never lowers a full set's threshold; nothing removes a result), and a
//! correctly rounded quotient is monotone in its divisor, so a stale leaf
//! is `≥` the fresh value: still an upper bound, which is all a zone
//! maximum has to be (the threshold-monotonicity argument of Vouzoukidou
//! et al. and Xu, PAPERS.md). Leaves are tightened where the position is
//! in hand and the line is hot — under every posting a window reads:
//! rewritten after an update, and on a pruned candidate wherever the same
//! read that scores it finds one of its leaves stale (`Mrio::score_window`)
//! — and never on the lists a document does not match; nothing is queued.
//! A stale leaf can make a zone look passable once: the walk then lands on
//! it, tests it exactly, and leaves it tight, so the extra tests are
//! bounded by the repairs no longer made. `unregister` still writes `−∞` at
//! once, and renormalisation (the one event that lowers `S_k`) and
//! compaction still rebuild. `seed_results` writes nothing: a restored
//! engine starts from `+∞` leaves and tightens them as it walks (at 50 000
//! queries its first publishes were faster than after the eager repairs
//! they replace).
//!
//! # Windows
//!
//! Where candidates are dense — the update-heavy half of Vouzoukidou et
//! al.'s evaluation, and every `bench_ledger` workload — a pivot search
//! buys nothing: its jump moves each cursor a posting or two, at 3–4 times
//! the cost of testing those candidates. A jump that moved its cursors no
//! more than `SHORT_JUMP` (4) postings each is *short*, and where one is
//! short the next ones tend to be: the matched lists interleave, so every
//! zone between two cursors is a handful of postings wide.
//!
//! A short jump therefore grants a **window**, scored in three passes:
//!
//! 1. *Accumulate.* Every live posting with an id in `[front, E)` is read
//!    term-at-a-time, list by list in the document's term order, into a
//!    dense accumulator (one `f64` per id, a bitmap of the ids read). Each
//!    cursor hands over its whole run in one
//!    [`Cursor::read_below`](crate::engine::Cursor::read_below): a
//!    slice, a decoded block or the tail at a time, not one out-of-line
//!    advance per posting. Each id's sum starts at zero and adds its lists
//!    in term order, which is its record's order, so the sum is `Naive`'s
//!    bit for bit.
//! 2. *Test, then offer.* The ids read are tested in ascending order with
//!    `admits`, and the admitted ones collected. Their result sets are then
//!    warmed all at once — independent loads of each slot and heap root,
//!    whose misses the core overlaps — and offered in the same order, so
//!    changes keep stream order. `admits(q)` reads q's own set alone, so
//!    testing every id before offering to any changes nothing but when the
//!    misses are paid.
//! 3. *Tighten.* The leaves of the admitted and the stale ids are
//!    rewritten, one list at a time: a list with two writes or more takes
//!    one [`ZoneMax::update_run`] over the span they cover, which the
//!    segment tree refreshes once, level by level, instead of one root walk
//!    per write. Its nodes come out the exact maxima either way, so every
//!    later bound is bit-identical.
//!
//! A width-one window (the front test) admits at most one id and writes at
//! most one leaf per list, so it skips the warm-up and `update_run`. The
//! cursors end at or past `E`, and one repair restores their order. The
//! grant doubles with every short jump in a row, up to `RUN_CAP` (256), and
//! a long jump takes it back to zero:
//!
//! ```text
//! E = front + min(grant · WINDOW, walked + 1)      WINDOW = 64
//! ```
//!
//! `walked` is the id distance covered since the last long jump, so a
//! window never reads more than the walk already did posting by posting
//! since then, plus one id: the skip-dominated regime the paper optimises
//! walks as before. Uncapped, `stale_leaves_…`'s second walk read 224 of
//! 1 001 postings instead of ≤ 100 (ISSUE 26's prototype).
//!
//! Before windows, a granted *run* stepped the aligned cursors one candidate
//! at a time: 89 % of the ≈ 13 900 candidates per document on
//! `embedded_large` were stepped, 1.13 aligned cursors each, and each step's
//! order repair moved 4.7 cursors of 32 bytes with an unpredictable loop
//! exit (gprofng: repair 25 % of the walk, stepping 20 %, `offer` 20 %, the
//! test 26 %, tightening 8 %). With windows read posting by posting
//! (gprofng, `embedded_large`, seed 1) the windows were 98 % of the walk,
//! and their cost memory traffic: `offer` 26 % (half of it stalled on each
//! admitted set's slot and heap lines in turn), one `MaxSegTree::update`
//! root walk per tightened leaf 10 %, out-of-line cursor advances and
//! block decodes 18 %. Run reads, warm-then-offer and `update_run` took
//! `embedded_large` from 2 476 to 3 176 docs/s (medians of ten alternating
//! pairs, 2 vCPUs); the walk is now 96 % windows: the passes' own loops
//! 33 %, run reads with the accumulate body 23 %, block decodes 8 %, offers
//! with the warm-up 20 %, leaf writes 10 % (`update_run` 8 %).
//!
//! The windows are part of the traversal, not a tunable: their state lives
//! in one event and in scratch the engine reuses, they read only cursor
//! positions (equal on every storage layout, so `EventStats` stay
//! layout-independent), and their constants are compile-time. `WINDOW` 64
//! and 1 024 measured within noise of each other. Making the front test a
//! width-one window, with an insertion repair in place of a full sort, was
//! no slower on `embedded_large` / `churn_mixed` and cut `sweep_lambda
//! --scale smoke` MRIO at λ = 0 from 0.046 to 0.041 ms per event. No
//! `bench_ledger` workload is skip-dominated, so the pivot-search side is
//! held by `tests/equivalence.rs::skip_regime_…` (3 % of the postings
//! touched) and `stale_leaves_…` alone, not by an end-to-end number —
//! ROADMAP direction 4 is the benchmark that keeps or deletes it.
//!
//! Counters: an iteration is one id tested, as a front candidate or inside
//! a window; `postings_accessed` counts each posting a window reads and
//! each cursor a jump moves; `bound_computations` counts one leaf read per
//! posting a window reads, like any other zone query, besides the pivot
//! search's terms.
//!
//! The zone-maximum structure is pluggable ([`ZoneMax`]): segment tree
//! (exact, O(log n)), block maxima, or suffix snapshot — the three
//! implementations the TKDE paper ablates (`ctk-bench`'s `ablation_zonemax`
//! regenerates that comparison).

use crate::engine::{CursorSet, EngineBase, EXHAUSTED};
use crate::stats::{CumulativeStats, EventStats};
use crate::topk::normalize;
use crate::traits::{ContinuousTopK, ResultChange};
use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc};
use ctk_index::{
    growth, BlockMax, MaxSegTree, QueryIndex, StorageConfig, StorageStats, SuffixMax, ZoneMax,
};

/// MRIO with a segment-tree zone index (the default, exact variant).
pub type MrioSeg = Mrio<MaxSegTree>;
/// MRIO with block maxima.
pub type MrioBlock = Mrio<BlockMax>;
/// MRIO with suffix-max snapshots (loosest bounds, cheapest maintenance).
pub type MrioSuffix = Mrio<SuffixMax>;

/// The MRIO algorithm, generic over the zone-maximum structure.
pub struct Mrio<Z: ZoneMax> {
    base: EngineBase,
    index: QueryIndex,
    /// One zone structure per postings list; position-aligned with the
    /// list. Grows by the index's rule, like the list table it mirrors.
    zones: Vec<Z>,
    cursors: CursorSet,
    window: Window,
    name: &'static str,
}

/// Fill `vals` with the bound values of list `li`, position-aligned with
/// its postings: `-inf` for tombstones, otherwise `u_of(qid, weight)` (the
/// caller's `u = w/S_k`, `+inf` for unfilled queries).
fn list_bound_values(
    index: &QueryIndex,
    li: u32,
    mut u_of: impl FnMut(QueryId, f32) -> f64,
    vals: &mut Vec<f64>,
) {
    let list = index.list(li);
    vals.clear();
    vals.reserve(list.len());
    list.for_each_slot(|qid, weight| {
        vals.push(if ctk_common::is_tombstone_weight(weight) {
            f64::NEG_INFINITY
        } else {
            u_of(qid, weight)
        });
    });
}

/// The largest grant: a window is at most `RUN_CAP · WINDOW` ids wide
/// (module docs, "Windows").
const RUN_CAP: u32 = 256;

/// Ids a window spans per unit of grant.
const WINDOW: u32 = 64;

/// A jump is short when its cursors moved at most this many postings each,
/// tombstones included: with a pivot search + jump at 3–4 times the cost of
/// testing a candidate, reading those postings would have been as cheap.
const SHORT_JUMP: usize = 4;

/// A leaf counts as stale once it exceeds `u = w/S_k` by more than the
/// rounding of the quotient can account for.
const ROUNDING: f64 = 1.0 + 4.0 * f64::EPSILON;

/// The scratch of a window, owned by the engine and reused: a dense
/// accumulator over the window's ids, one bit per id for the ids with a
/// posting in it and for those whose leaves are tightened, every posting it
/// read (list by list: the tightening pass writes those leaves back), the
/// admitted ids with their dot products, and one list's leaf writes.
#[derive(Default)]
struct Window {
    acc: Vec<f64>,
    touched: Vec<u64>,
    tighten: Vec<u64>,
    read: Vec<WindowPosting>,
    admitted: Vec<(u32, f64)>,
    writes: Vec<(usize, f64)>,
}

/// One posting read by a window: where its leaf is, and whose it is.
#[derive(Clone, Copy)]
struct WindowPosting {
    list: u32,
    pos: u32,
    /// The id's offset from the window's first id.
    off: u32,
    weight: f32,
}

impl Window {
    /// Size the buffers for a window of `width` ids (growing only).
    fn reserve(&mut self, width: usize) {
        if self.acc.len() < width {
            self.acc.resize(width, 0.0);
            self.touched.resize(width.div_ceil(64), 0);
            self.tighten.resize(width.div_ceil(64), 0);
        }
    }
}

/// Write list `list`'s tightened leaves, `writes` in ascending position
/// order: one `update` for a single write, one `update_run` over the span
/// of several. Leaves `writes` empty.
fn write_leaves<Z: ZoneMax>(zones: &mut [Z], list: u32, writes: &mut Vec<(usize, f64)>) {
    match writes[..] {
        [] => {}
        [(pos, u)] => zones[list as usize].update(pos, u),
        [(lo, _), .., (last, _)] => zones[list as usize].update_run(lo, last + 1, writes),
    }
    writes.clear();
}

#[inline]
fn set_bit(bits: &mut [u64], off: usize) {
    bits[off / 64] |= 1 << (off % 64);
}

#[inline]
fn bit(bits: &[u64], off: usize) -> bool {
    bits[off / 64] >> (off % 64) & 1 != 0
}

impl Mrio<MaxSegTree> {
    /// MRIO with exact segment-tree zone maxima.
    pub fn new(lambda: f64) -> Self {
        Mrio::with_name(lambda, &StorageConfig::plain(), "MRIO")
    }

    /// As [`Mrio::new`], with an explicit postings-storage configuration.
    pub fn with_storage(lambda: f64, storage: &StorageConfig) -> Self {
        Mrio::with_name(lambda, storage, "MRIO")
    }
}

impl Mrio<BlockMax> {
    /// MRIO with block-max zone maxima.
    pub fn new(lambda: f64) -> Self {
        Mrio::with_name(lambda, &StorageConfig::plain(), "MRIO-block")
    }

    /// As [`Mrio::new`], with an explicit postings-storage configuration.
    pub fn with_storage(lambda: f64, storage: &StorageConfig) -> Self {
        Mrio::with_name(lambda, storage, "MRIO-block")
    }
}

impl Mrio<SuffixMax> {
    /// MRIO with suffix-snapshot zone maxima.
    pub fn new(lambda: f64) -> Self {
        Mrio::with_name(lambda, &StorageConfig::plain(), "MRIO-suffix")
    }

    /// As [`Mrio::new`], with an explicit postings-storage configuration.
    pub fn with_storage(lambda: f64, storage: &StorageConfig) -> Self {
        Mrio::with_name(lambda, storage, "MRIO-suffix")
    }
}

impl<Z: ZoneMax + Default> Mrio<Z> {
    fn with_name(lambda: f64, storage: &StorageConfig, name: &'static str) -> Self {
        Mrio {
            base: EngineBase::new(lambda),
            index: QueryIndex::with_storage(storage),
            zones: Vec::new(),
            cursors: CursorSet::default(),
            window: Window::default(),
            name,
        }
    }
}

impl<Z: ZoneMax> Mrio<Z> {
    /// Score the window `[front, end)` term-at-a-time (module docs,
    /// "Windows"): every live posting with an id in it is read, list by list
    /// in the document's term order, into the accumulator; the ids read are
    /// then tested in ascending order with `offer`'s own comparison, the
    /// admitted ones offered in that order, and the leaves of the admitted
    /// or stale ones tightened, one list at a time. Leaves the cursors at or
    /// past `end`, in order.
    fn score_window(&mut self, doc: &Document, amp: f64, end: QueryId, ev: &mut EventStats) {
        let CursorSet { cursors, blocks } = &mut self.cursors;
        let front = cursors[0].qid.0;
        let width = (end.0 - front) as usize;
        let (base, win) = (&mut self.base, &mut self.window);
        win.reserve(width);

        // Accumulate: the cursors inside the window, in term order, each
        // handing over its run in one read.
        let inside = cursors.partition_point(|c| c.qid < end);
        cursors[..inside].sort_unstable_by_key(|c| c.rank);
        for c in &mut cursors[..inside] {
            let (zone, list, f) = (&self.zones[c.list as usize], c.list, c.f);
            c.read_below(&self.index, blocks, end, |pos, q, weight| {
                let off = (q.0 - front) as usize;
                let (w, sk) = (weight as f64, base.threshold_of(q));
                let leaf = zone.value_at(pos);
                debug_assert!(leaf >= normalize(w, sk), "leaf {leaf} under its fresh value");
                win.acc[off] += f * w;
                set_bit(&mut win.touched, off);
                if leaf * sk > w * ROUNDING {
                    set_bit(&mut win.tighten, off);
                }
                win.read.push(WindowPosting { list, pos: pos as u32, off: off as u32, weight });
            });
        }
        ev.postings_accessed += win.read.len() as u64;
        ev.bound_computations += win.read.len() as u64;

        // Test: every id read, in stream order, with `offer`'s comparison.
        // `admits(q)` reads q's own set alone, so testing them all before
        // offering any changes nothing but the order of the misses.
        for (i, word) in win.touched[..width.div_ceil(64)].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let off = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (q, dot) = (QueryId(front + off as u32), std::mem::take(&mut win.acc[off]));
                ev.iterations += 1;
                if base.admits(q, doc, dot, amp) {
                    win.admitted.push((off as u32, dot));
                }
            }
        }

        // Offer: the admitted ids in the same order, their sets warmed all
        // at once first.
        if win.admitted.len() >= 2 {
            base.warm(win.admitted.iter().map(|&(off, _)| QueryId(front + off)));
        }
        for (off, dot) in win.admitted.drain(..) {
            let inserted = base.offer(QueryId(front + off), doc, dot, amp);
            debug_assert!(inserted, "the window's test is offer's own comparison");
            set_bit(&mut win.tighten, off as usize);
            ev.full_evaluations += 1;
            ev.updates += 1;
        }

        // Tighten the leaves of the admitted and the stale ids. `read` holds
        // each list's postings together, so a list's writes are complete,
        // and written as one run, where the next list's postings begin.
        let Window { read, tighten, writes, .. } = win;
        let mut list = u32::MAX;
        for p in read.iter().filter(|p| bit(tighten, p.off as usize)) {
            if p.list != list {
                write_leaves(&mut self.zones, list, writes);
                list = p.list;
            }
            let u = normalize(p.weight as f64, base.threshold_of(QueryId(front + p.off)));
            if self.zones[list as usize].value_at(p.pos as usize) != u {
                writes.push((p.pos as usize, u));
            }
        }
        write_leaves(&mut self.zones, list, writes);
        read.clear();
        tighten[..width.div_ceil(64)].fill(0);
        self.cursors.repair_prefix(inside);
    }

    /// Rebuild list `li`'s zone structure from its postings: live entries
    /// map to their current `u = w/S_k`, tombstones to `-∞` (see
    /// [`list_bound_values`]). `vals` is the caller's scratch buffer (reused
    /// across lists).
    fn rebuild_zone(&mut self, li: u32, vals: &mut Vec<f64>) {
        let base = &self.base;
        list_bound_values(&self.index, li, |qid, w| base.normalized_of(qid, w as f64), vals);
        self.zones[li as usize].rebuild(vals);
    }

    /// Rebuild every zone structure from the postings (after a landmark
    /// renormalization, which rescales all thresholds at once).
    fn rebuild_all_zones(&mut self) {
        let mut vals: Vec<f64> = Vec::new();
        for li in 0..self.index.num_lists() as u32 {
            self.rebuild_zone(li, &mut vals);
        }
    }

    /// `UB*` for the prefix `0..=i` of the sorted cursor set, compared
    /// against `theta`. `bound` is the exclusive id limit of the zone.
    /// Counts one bound computation per list term.
    fn prefix_bound(&mut self, i: usize, bound: QueryId, ev: &mut EventStats) -> f64 {
        let mut sum = 0.0f64;
        let CursorSet { cursors, blocks } = &mut self.cursors;
        for c in &cursors[..=i] {
            let hi = c.probe(&self.index, blocks, bound);
            let mx = self.zones[c.list as usize].range_max(c.pos(), hi);
            ev.bound_computations += 1;
            if mx > 0.0 {
                sum += c.f * mx;
                if sum >= f64::INFINITY {
                    break;
                }
            }
        }
        sum
    }

    /// Exclusive id bound of zone `i`: the next cursor's id, or one past the
    /// last cursor for the final zone (making it inclusive of `c_m`).
    fn zone_bound(&self, i: usize) -> QueryId {
        let cs = &self.cursors.cursors;
        if i + 1 < cs.len() {
            cs[i + 1].qid
        } else {
            QueryId(cs[cs.len() - 1].qid.0 + 1)
        }
    }

    /// The smallest `i` with `UB*(i) ≥ theta`, or `Found::Nothing` when even
    /// the global bounds cannot reach `theta` anywhere in the index, or
    /// `Found::NoPivot` when `UB*(m) < theta`.
    fn find_pivot(&mut self, theta: f64, ev: &mut EventStats) -> Found {
        let m = self.cursors.len();

        // --- Phase 1: cheap global-bound pre-filter (RIO's Eq. 2 with the
        // zone structures' O(1) global maxima). Since UB* <= UB, the zone
        // pivot can only be at or after the global pivot, so the zone
        // refinement starts there; and if even the global bound never
        // reaches theta, the whole event terminates (global maxima cover
        // every query id).
        let mut global_pivot: Option<usize> = None;
        let mut gsum = 0.0f64;
        for (i, c) in self.cursors.cursors.iter().enumerate() {
            let g = self.zones[c.list as usize].global_max();
            ev.bound_computations += 1;
            if g > 0.0 {
                gsum += c.f * g;
            }
            if gsum >= theta {
                global_pivot = Some(i);
                break;
            }
        }
        let Some(ig) = global_pivot else {
            return Found::Nothing;
        };

        // --- Phase 2: find the smallest i >= ig with UB*(i) >= theta
        // (monotone in i): gallop up, then binary search the bracket.
        let mut lo = ig; // smallest untested index
        let mut step = 0usize;
        loop {
            let i = (ig + step).min(m - 1);
            let b = self.zone_bound(i);
            if self.prefix_bound(i, b, ev) >= theta {
                // Bracket (lo-1, i]; binary search the boundary.
                let mut hi = i;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let bm = self.zone_bound(mid);
                    if self.prefix_bound(mid, bm, ev) >= theta {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                return Found::Pivot(lo);
            }
            if i == m - 1 {
                return Found::NoPivot; // even UB*(m) < theta
            }
            lo = i + 1;
            step = step * 2 + 1;
        }
    }

    /// Advance the first `n` cursors to the first live posting with id
    /// `>= target` and restore the processing order. Returns whether the
    /// jump was *short*: the cursors moved at most [`SHORT_JUMP`] postings
    /// each, tombstones included.
    fn jump(&mut self, n: usize, target: QueryId, ev: &mut EventStats) -> bool {
        let CursorSet { cursors, blocks } = &mut self.cursors;
        let mut moved = 0usize;
        for c in cursors[..n].iter_mut() {
            let from = c.pos();
            c.advance_to(&self.index, blocks, target);
            moved += c.pos() - from;
        }
        ev.postings_accessed += n as u64;
        self.cursors.repair_prefix(n);
        moved <= SHORT_JUMP * n
    }

    /// The traversal body of one event, after the decay prologue has run.
    /// Shared by the per-document and batched entry points.
    fn run_event(&mut self, doc: &Document, theta: f64, amp: f64) -> EventStats {
        let mut ev = EventStats {
            matched_lists: self.cursors.build(&self.index, doc) as u64,
            ..EventStats::default()
        };
        // The rounded zone sums of the pivot search are compared with a
        // floor a few ulps under θ_d (module docs, "Ties").
        let floor = EngineBase::bound_floor(theta, ev.matched_lists as usize);
        // Windows (module docs): each short jump in a row doubles `grant`,
        // a long one takes it back to zero and moves `since`, the first id
        // of the stretch walked since.
        let mut grant = 0u32;
        let mut since = self.front_id();

        while !self.cursors.is_empty() {
            // The front candidate, tested as `offer` will test it: a window
            // one id wide. Admitted, the walk moves on to the next front.
            let (front, updates) = (self.front_id(), ev.updates);
            self.score_window(doc, amp, QueryId(front.0 + 1), &mut ev);
            if ev.updates > updates || self.cursors.is_empty() {
                continue;
            }
            let short = match self.find_pivot(floor, &mut ev) {
                Found::Nothing => break,
                // Local bounds prune [c_1, c_m] only: skip past the last
                // cursor id and keep going.
                Found::NoPivot => {
                    let m = self.cursors.len();
                    self.jump(m, self.zone_bound(m - 1), &mut ev)
                }
                // A pivot at the front moves no cursor: a short jump.
                Found::Pivot(p) => {
                    let pivot = self.cursors.cursors[p].qid;
                    self.jump(p, pivot, &mut ev)
                }
            };
            let front = self.front_id();
            if !short {
                (grant, since) = (0, front);
            } else if front != EXHAUSTED {
                // Never wider than the stretch walked since the last long
                // jump, plus one id.
                grant = (grant * 2).clamp(1, RUN_CAP);
                let width = (grant * WINDOW).min(front.0 - since.0 + 1);
                self.score_window(doc, amp, QueryId(front.0.saturating_add(width)), &mut ev);
            }
        }

        ev.accumulate_into(&mut self.base.cum);
        ev
    }

    /// The id under the first cursor, [`EXHAUSTED`] once the set is empty.
    fn front_id(&self) -> QueryId {
        self.cursors.cursors.first().map_or(EXHAUSTED, |c| c.qid)
    }
}

/// Outcome of [`Mrio::find_pivot`].
enum Found {
    /// No query anywhere in the index can qualify: the event is over.
    Nothing,
    /// `UB*(m) < θ_d`: everything up to the last cursor is pruned.
    NoPivot,
    /// The smallest cursor index whose prefix bound reaches `θ_d`.
    Pivot(usize),
}

impl<Z: ZoneMax + Default> ContinuousTopK for Mrio<Z> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn register(&mut self, spec: QuerySpec) -> QueryId {
        let qid = self.index.register(&spec.vector, spec.k as u32);
        self.base.push_state(spec.k as u32);
        // New lists may have been created; keep zones aligned.
        while self.zones.len() < self.index.num_lists() {
            growth::reserve_one(&mut self.zones);
            self.zones.push(Z::default());
        }
        // Append the new postings' u values (positions align by append order
        // because lists are append-only).
        let state_u = f64::INFINITY; // fresh queries are unfilled
        if let Some(rec) = self.index.record(qid) {
            for e in rec.entries() {
                // The fresh posting is the list's last slot, so the zone's
                // next append position must be that slot's index.
                debug_assert_eq!(
                    self.zones[e.list as usize].len() + 1,
                    self.index.list(e.list).len()
                );
                self.zones[e.list as usize].append(state_u);
            }
        }
        qid
    }

    fn unregister(&mut self, qid: QueryId) -> bool {
        match self.index.unregister(qid) {
            Some(rec) => {
                for e in &rec.entries {
                    self.zones[e.list as usize].update(e.pos as usize, f64::NEG_INFINITY);
                }
                self.base.drop_state(qid);
                true
            }
            None => false,
        }
    }

    fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        // The leaves stay where they are: looser than the seeded `S_k`
        // warrants, tightened by the first walk that stands on them.
        self.base.seed(qid, seeds);
    }

    fn process(&mut self, doc: &Document) -> EventStats {
        let (theta, amp, renorm) = self.base.begin_event(doc.arrival);
        if renorm.is_some() {
            self.rebuild_all_zones();
        }
        self.run_event(doc, theta, amp)
    }

    fn process_batch_into(
        &mut self,
        docs: &[Document],
        changes_out: &mut Vec<ResultChange>,
    ) -> Vec<EventStats> {
        let mut stats = Vec::with_capacity(docs.len());
        // Arrivals are non-decreasing, so if the *last* document of the
        // batch stays inside the decay headroom, every document does — one
        // check replaces a per-event test-and-branch in the steady state.
        let renorm_possible = docs.last().is_some_and(|d| self.base.decay.needs_renorm(d.arrival));
        for doc in docs {
            let ev = if renorm_possible {
                self.process(doc)
            } else {
                let (theta, amp) = self.base.begin_event_steady(doc.arrival);
                self.run_event(doc, theta, amp)
            };
            stats.push(ev);
            changes_out.extend_from_slice(&self.base.changes);
        }
        stats
    }

    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
        self.base.results(qid)
    }

    fn threshold(&self, qid: QueryId) -> Option<f64> {
        self.base.state(qid).map(|s| s.threshold())
    }

    fn num_queries(&self) -> usize {
        self.index.num_live()
    }

    fn last_changes(&self) -> &[ResultChange] {
        &self.base.changes
    }

    fn cumulative(&self) -> &CumulativeStats {
        &self.base.cum
    }

    fn lambda(&self) -> f64 {
        self.base.decay.lambda()
    }

    fn landmark(&self) -> f64 {
        self.base.decay.landmark()
    }

    fn restore_landmark(&mut self, landmark: f64) {
        self.base.decay.restore_landmark(landmark);
    }

    fn tombstone_ratio(&self) -> f64 {
        self.index.tombstone_ratio()
    }

    fn compact_index(&mut self) -> usize {
        let changed = self.index.compact();
        // Rebuild the zone structure of exactly the lists whose layout
        // moved; untouched lists keep their (position-aligned) zones.
        let mut vals: Vec<f64> = Vec::new();
        for &li in &changed {
            self.rebuild_zone(li, &mut vals);
        }
        changed.len()
    }

    fn storage_stats(&self) -> StorageStats {
        let zone_bytes = self.zones.capacity() * std::mem::size_of::<Z>()
            + self.zones.iter().map(Z::heap_bytes).sum::<usize>();
        StorageStats {
            zone_bytes: zone_bytes as u64,
            blocks_decoded: self.cursors.blocks_decoded(),
            ..self.index.storage_stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_common::{DocId, TermId};

    fn spec(terms: &[(u32, f32)], k: usize) -> QuerySpec {
        QuerySpec::new(terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), k).unwrap()
    }

    fn doc(id: u64, terms: &[(u32, f32)], at: f64) -> Document {
        Document::new(DocId(id), terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), at)
    }

    fn check_variant<Z: ZoneMax + Default>(mut m: Mrio<Z>) {
        let q1 = m.register(spec(&[(1, 1.0), (2, 1.0)], 2));
        let q2 = m.register(spec(&[(2, 2.0), (3, 1.0)], 1));
        m.process(&doc(1, &[(1, 1.0), (2, 1.0)], 0.0));
        m.process(&doc(2, &[(2, 1.0), (3, 1.0)], 1.0));
        m.process(&doc(3, &[(5, 1.0)], 2.0));

        let r1 = m.results(q1).unwrap();
        assert_eq!(r1[0].doc, DocId(1));
        assert!((r1[0].score.get() - 1.0).abs() < 1e-6);
        assert_eq!(r1.len(), 2);

        let r2 = m.results(q2).unwrap();
        assert_eq!(r2.len(), 1);
        // doc2 · q2 = (1/√2)(2/√5) + (1/√2)(1/√5) = 3/√10
        assert!((r2[0].score.get() - 3.0 / 10f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn seg_variant_basics() {
        check_variant(MrioSeg::new(0.0));
    }

    #[test]
    fn block_variant_basics() {
        check_variant(MrioBlock::new(0.0));
    }

    #[test]
    fn suffix_variant_basics() {
        check_variant(MrioSuffix::new(0.0));
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(MrioSeg::new(0.0).name(), "MRIO");
        assert_eq!(MrioBlock::new(0.0).name(), "MRIO-block");
        assert_eq!(MrioSuffix::new(0.0).name(), "MRIO-suffix");
    }

    #[test]
    fn unregister_updates_zones() {
        let mut m = MrioSeg::new(0.0);
        let a = m.register(spec(&[(1, 1.0)], 1));
        let b = m.register(spec(&[(1, 1.0)], 1));
        m.process(&doc(1, &[(1, 1.0)], 0.0));
        assert!(m.unregister(a));
        m.process(&doc(2, &[(1, 1.0)], 1.0));
        assert!(m.results(a).is_none());
        let rb = m.results(b).unwrap();
        assert_eq!(rb.len(), 1);
    }

    #[test]
    fn renorm_rebuilds_zones() {
        let mut m = MrioSeg::new(0.5);
        m.base.decay = crate::score::DecayModel::new(0.5).with_max_exponent(3.0);
        let q = m.register(spec(&[(1, 1.0)], 2));
        for i in 0..40u64 {
            m.process(&doc(i, &[(1, 1.0), (2, (i % 3) as f32 + 0.1)], i as f64));
        }
        assert!(m.cumulative().renormalizations > 0);
        let docs: Vec<u64> = m.results(q).unwrap().iter().map(|s| s.doc.0).collect();
        assert_eq!(docs, vec![39, 38]);
    }

    #[test]
    fn batched_processing_is_bit_identical_to_looped() {
        // Exercise the steady fast path AND the renorm slow path: λ = 0.5
        // with the default headroom of 60 renormalizes at arrival > 120.
        let mk = || {
            let mut m = MrioSeg::new(0.5);
            for i in 0..20u32 {
                m.register(spec(&[(i % 5, 1.0), (5 + i % 3, 0.5)], 2));
            }
            m
        };
        let docs: Vec<Document> = (0..150u64)
            .map(|i| doc(i, &[((i % 5) as u32, 1.0), ((5 + i % 3) as u32, 0.7)], i as f64 * 1.1))
            .collect();

        let mut looped = mk();
        let mut loop_changes = Vec::new();
        let mut loop_stats = Vec::new();
        for d in &docs {
            loop_stats.push(looped.process(d));
            loop_changes.extend_from_slice(looped.last_changes());
        }

        let mut batched = mk();
        let mut batch_changes = Vec::new();
        let mut batch_stats = Vec::new();
        for chunk in docs.chunks(32) {
            batch_stats.extend(batched.process_batch_into(chunk, &mut batch_changes));
        }

        assert!(looped.cumulative().renormalizations > 0, "stream must cross a renorm");
        assert_eq!(loop_stats, batch_stats);
        assert_eq!(loop_changes, batch_changes);
        assert_eq!(looped.cumulative(), batched.cumulative());
        for q in 0..20u32 {
            assert_eq!(looped.results(QueryId(q)), batched.results(QueryId(q)), "query {q}");
        }
    }

    /// A population where every candidate but one is pruned by the exact
    /// test while an unfilled query keeps every list-wide bound at `+∞`:
    /// the walk is pivot searches with width-one jumps, i.e. short ones, so
    /// the windows double. `also` adds a second term to the queries in that
    /// id range. Returns the plain and compressed engines and the oracle,
    /// result sets filled (`S_k = 1`) except for `unfilled`.
    fn pruned_population(
        n: u32,
        also: std::ops::Range<u32>,
        unfilled: u32,
    ) -> (MrioSeg, MrioSeg, crate::naive::Naive) {
        let mut plain = MrioSeg::new(0.0);
        let mut packed =
            MrioSeg::with_storage(0.0, &StorageConfig::new(ctk_index::PostingsStorage::Compressed));
        let mut oracle = crate::naive::Naive::new(0.0);
        for i in 0..n {
            let terms: &[(u32, f32)] =
                if also.contains(&i) { &[(1, 1.0), (2, 1.0)] } else { &[(1, 1.0)] };
            let s = spec(terms, if i == unfilled { 100 } else { 1 });
            plain.register(s.clone());
            packed.register(s.clone());
            oracle.register(s);
        }
        for (id, terms) in [&[(1, 1.0)][..], &[(1, 1.0), (2, 1.0)][..]].into_iter().enumerate() {
            let d = doc(id as u64, terms, id as f64);
            plain.process(&d);
            packed.process(&d);
            oracle.process(&d);
        }
        (plain, packed, oracle)
    }

    /// One more document, weak on every query term: nothing but the
    /// unfilled query can take it. Returns MRIO's counters (equal on both
    /// storages, results and changes equal to the oracle's).
    fn walk_pruned(
        (mut plain, mut packed, mut oracle): (MrioSeg, MrioSeg, crate::naive::Naive),
        terms: &[(u32, f32)],
        n: u32,
    ) -> EventStats {
        let d = doc(2, terms, 2.0);
        let ev = plain.process(&d);
        assert_eq!(packed.process(&d), ev, "storage must not change the walk");
        oracle.process(&d);
        assert_eq!(plain.last_changes(), oracle.last_changes());
        assert_eq!(packed.last_changes(), oracle.last_changes());
        for q in 0..n {
            assert_eq!(plain.results(QueryId(q)), oracle.results(QueryId(q)), "query {q}");
        }
        assert_eq!((ev.full_evaluations, ev.updates), (1, 1), "only the unfilled query");
        ev
    }

    #[test]
    fn windows_cross_tombstones() {
        let n = 300u32;
        let (mut plain, mut packed, mut oracle) = pruned_population(n, 0..0, n - 1);
        // A tombstone every third id where the windows are tens of ids wide.
        let mut live = n as u64;
        for q in (60..200).step_by(3) {
            assert!(plain.unregister(QueryId(q)) && packed.unregister(QueryId(q)));
            assert!(oracle.unregister(QueryId(q)));
            live -= 1;
        }
        let ev = walk_pruned((plain, packed, oracle), &[(1, 1.0), (9, 5.0)], n);
        // One list: every live posting is read by a window or passed by a
        // jump, once, and no tombstone is counted. Each pivot search costs
        // two bound terms (list-wide, then the width-one zone) and its
        // width-one jump passes the one candidate that zone pruned; every
        // other candidate is tested. Too few searches for the 140 ids of the
        // tombstoned stretch to be anything but windows.
        assert_eq!(ev.postings_accessed, live);
        let searches = (ev.bound_computations - ev.iterations) / 2;
        assert_eq!(ev.iterations + searches, live, "{ev:?}");
        assert!((4..=10).contains(&searches), "windows must double: {ev:?}");
    }

    #[test]
    fn windows_cross_list_ends_and_truncation() {
        // Queries 100..160 are also on a second list, which therefore ends
        // (its cursor turns EXHAUSTED and is truncated away) inside a window
        // over the first; the unfilled query sits mid-list and is inserted
        // by a window, and the first list ends inside one too, leaving the
        // set empty.
        let n = 300u32;
        let population = pruned_population(n, 100..160, 250);
        let ev = walk_pruned(population, &[(1, 1.0), (2, 1.0), (9, 5.0)], n);
        assert_eq!(ev.matched_lists, 2);
        // The first search jumps the first list to the second's first id
        // (a long jump: no window); from there on every id is tested once,
        // but for the few the pivot searches' width-one jumps pass.
        assert!((190..=1 + 199).contains(&ev.iterations), "{ev:?}");
        assert!(ev.postings_accessed >= 2 + 199 + 59, "{ev:?}");
        assert!(ev.bound_computations < 2 * ev.iterations, "windows must carry the walk: {ev:?}");
    }

    /// The skip regime with stale leaves in it. Every query has the common
    /// term, every hundredth also the rare one, and ten *special* queries
    /// (k = 2) also a term of their own: a document of that term alone
    /// raises their `S_k` while the walk stands on none of their common-list
    /// postings, whose leaves go stale (1.41 where 1.0 is due). The next
    /// document of the common and rare terms prunes everything; the stale
    /// leaves make zones look passable, so the lazy walk steps up to each,
    /// tests it and leaves it tight. The one after that must walk exactly
    /// like an engine whose leaves were repaired at once, the way the
    /// deferred repairs used to. `skips`: the structure's range maxima are
    /// narrow enough that the stale leaves cost the first visit anything.
    fn stale_leaves_tighten_on_the_first_visit<Z: ZoneMax + Default>(
        mk: impl Fn(&StorageConfig) -> Mrio<Z>,
        skips: bool,
    ) {
        const COMMON: u32 = 1;
        const RARE: u32 = 2;
        const OWN: u32 = 3;
        let n = 1_000u32;
        let special = |q: u32| q % 100 == 25;
        let mut per_storage = Vec::new();
        for storage in [ctk_index::PostingsStorage::Plain, ctk_index::PostingsStorage::Compressed] {
            // [0] tightens lazily, [1] is repaired eagerly after the update.
            let mut engines = [mk(&StorageConfig::new(storage)), mk(&StorageConfig::new(storage))];
            let mut oracle = crate::naive::Naive::new(0.0);
            for q in 0..=n {
                let s = if q == n {
                    spec(&[(COMMON, 1.0)], 1_000) // never fills: global bounds stay +∞
                } else if special(q) {
                    spec(&[(OWN, 3.0), (COMMON, 1.0)], 2)
                } else if q % 100 == 50 {
                    spec(&[(COMMON, 1.0), (RARE, 1.0)], 1)
                } else {
                    spec(&[(COMMON, 1.0)], 1)
                };
                for m in &mut engines {
                    m.register(s.clone());
                }
                oracle.register(s);
            }
            let mut next = 0u64;
            let mut publish = |engines: &mut [Mrio<Z>; 2], terms: &[(u32, f32)]| {
                let d = doc(next, terms, next as f64);
                next += 1;
                oracle.process(&d);
                engines.each_mut().map(|m| {
                    let ev = m.process(&d);
                    assert_eq!(m.last_changes(), oracle.last_changes(), "doc {}", d.id.0);
                    ev
                })
            };
            // Fill every result set, then raise the special queries' `S_k`
            // through their own term alone.
            publish(&mut engines, &[(COMMON, 1.0), (9, 2.0)]);
            publish(&mut engines, &[(COMMON, 1.0)]);
            publish(&mut engines, &[(COMMON, 1.0), (RARE, 1.0)]);
            let [raised, _] = publish(&mut engines, &[(OWN, 1.0)]);
            assert_eq!(raised.updates, 10);
            let common = engines[0].index.list_of_term(TermId(COMMON)).unwrap();
            let leaf = |m: &Mrio<Z>, q: u32| {
                let rec = m.index.record(QueryId(q)).unwrap();
                let e = rec.entries_full().find(|e| e.list == common).unwrap();
                let weight = m.index.list(common).get(e.pos as usize).weight;
                (m.zones[common as usize].value_at(e.pos as usize), e, weight)
            };
            for q in (0..n).filter(|&q| special(q)) {
                let (stored, e, weight) = leaf(&engines[0], q);
                let fresh = engines[0].base.normalized_of(QueryId(q), weight as f64);
                assert!(stored > fresh, "query {q}: the leaf must have gone stale");
                engines[1].zones[common as usize].update(e.pos as usize, fresh);
            }

            let [first, eager] = publish(&mut engines, &[(COMMON, 1.0), (RARE, 0.5)]);
            assert_eq!((first.updates, eager.updates), (1, 1), "only the unfilled query");
            assert_eq!(first.full_evaluations, 1);
            assert!(first.postings_accessed >= eager.postings_accessed);
            assert_eq!(first.postings_accessed > eager.postings_accessed, skips, "{first:?}");
            for q in (0..n).filter(|&q| special(q)) {
                let (stored, _, weight) = leaf(&engines[0], q);
                assert_eq!(stored, engines[0].base.normalized_of(QueryId(q), weight as f64));
            }
            let [second, eager] = publish(&mut engines, &[(COMMON, 1.0), (RARE, 0.5)]);
            assert_eq!(second, eager, "a tightened walk is an eagerly repaired one");
            if skips {
                assert!(second.postings_accessed * 10 <= n as u64, "{second:?}");
            }
            for q in 0..=n {
                assert_eq!(engines[0].results(QueryId(q)), oracle.results(QueryId(q)));
            }
            per_storage.push((first, second));
        }
        assert_eq!(per_storage[0], per_storage[1], "storage must not change the walk");
    }

    #[test]
    fn stale_leaves_tighten_on_the_first_visit_on_every_zone_structure() {
        stale_leaves_tighten_on_the_first_visit(|s| MrioSeg::with_storage(0.0, s), true);
        stale_leaves_tighten_on_the_first_visit(|s| MrioBlock::with_storage(0.0, s), true);
        // A suffix maximum reaches the unfilled query from anywhere: this
        // structure never skips here, stale leaves or not.
        stale_leaves_tighten_on_the_first_visit(|s| MrioSuffix::with_storage(0.0, s), false);
    }

    #[test]
    fn minimality_vs_rio_on_small_stream() {
        use crate::rio::Rio;
        let mut rio = Rio::new(0.01);
        let mut mrio = MrioSeg::new(0.01);
        // Mixed difficulty queries to spread thresholds apart.
        for i in 0..30u32 {
            let s = spec(&[(i % 7, 1.0), (7 + i % 5, 0.5)], 1 + (i % 3) as usize);
            rio.register(s.clone());
            mrio.register(s);
        }
        for i in 0..200u64 {
            let terms =
                [((i % 7) as u32, 1.0f32), ((7 + i % 5) as u32, 0.8), ((12 + i % 3) as u32, 0.3)];
            let d = doc(i, &terms, i as f64);
            rio.process(&d);
            mrio.process(&d);
        }
        // Identical results...
        for q in 0..30u32 {
            assert_eq!(rio.results(QueryId(q)), mrio.results(QueryId(q)), "query {q}");
        }
        // ...with MRIO doing no more full evaluations (Lemma 2's claim).
        assert!(
            mrio.cumulative().full_evaluations <= rio.cumulative().full_evaluations,
            "MRIO {} > RIO {}",
            mrio.cumulative().full_evaluations,
            rio.cumulative().full_evaluations
        );
    }
}
