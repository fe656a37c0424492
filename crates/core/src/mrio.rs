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
//! The zone structures keep the value of every position, so the narrowest
//! zone there is — `[q, q]` for the front candidate `q = c_1`, width one —
//! costs one array read per cursor aligned on `q`
//! ([`ZoneMax::value_at`]), and over it `UB*` *is* the candidate's
//! normalised score:
//!
//! ```text
//! s(q) = Σ_{j aligned on q} f_j · u_j(q)        (u_j = w_j / S_k(q))
//! ```
//!
//! Every iteration computes `s(q)` before any other bound.
//!
//! * `s(q) ≥ θ_d`: evaluate at once. The pivot search could only have
//!   returned `q`: with cursors `c_1 … c_a` aligned on `q`, zone `a` is the
//!   first that is not empty, it holds `q`, and a maximum over a zone
//!   holding `q` is at least `u_j(q)`, so `UB*(a) ≥ s(q) ≥ θ_d` — the
//!   smallest passing prefix ends at or before `c_a`, on a cursor whose id
//!   is `q`. Phase 1 and phase 2 are skipped for every query that is going
//!   to be updated, which on update-heavy streams is most of what they
//!   were spent on.
//! * `s(q) < θ_d`: `q` alone is pruned, by the same `≥`-lenient comparison
//!   every zone bound uses (today's `UB*` over a zone that happens to hold
//!   one posting is this very sum). What is left to decide is how to move
//!   on: *step* the aligned cursors past `q`, or run the pivot search and
//!   *jump* everything its zone proves prunable.
//!
//! # Ties
//!
//! `offer` inserts on `fl(Σ f_j·w_j)·amp ≥ S_k` with the smaller doc id
//! winning an equal score, so a republished vector — or any candidate that
//! ties `S_k` exactly — is an insertion. The walk's sums are a different
//! rounding of the same quantity, `fl(Σ f_j·fl(w_j/S_k))` against
//! `θ_d = fl(e^{-x})` where `amp = fl(e^{x})`: for a tie they can come out
//! at `θ_d − ulp`. Each side carries at most `m + 1` roundings over `m`
//! matched lists plus one per exponential, so `run_event` compares every
//! sum — the exact test and the zone bounds of the pivot search alike —
//! with `θ_d · (1 − (m + 4)·ε)`, `ε = 2⁻⁵²`. The walk may evaluate a
//! candidate that misses `S_k` by a few ulps (`offer` rejects it); it never
//! prunes one `Naive` inserts.
//!
//! # The run controller
//!
//! Measured on `bench_ledger`'s `embedded_large` (50 000 queries, ≈ 33
//! matched lists per document; `rdtsc` around each part, timer included):
//! the exact test plus a step cost ≈ 160 cycles, a pivot search plus its
//! jump ≈ 430 averaged over the old walk and ≈ 680 where candidates are
//! dense — a ratio of 3–4. A jump that moves its cursors no more than
//! `SHORT_JUMP` (4) postings each therefore bought nothing a few steps would
//! not have, and where one jump is short the next ones tend to be: the
//! candidates of the matched lists interleave, so every zone between two
//! cursors is a handful of postings wide. (That is also the update-heavy
//! regime: ≈ 9 800 pivot searches per document for ≈ 13 900 postings.)
//!
//! So a pivot search whose jump was short *grants a run* of linear steps —
//! pruned candidates are stepped past without consulting the zones — and
//! the grant doubles with every consecutive short jump, up to `RUN_CAP` (256);
//! a long jump takes it back to zero. Dense stretches pay one pivot search
//! per few hundred candidates; the skip-dominated regime the paper
//! optimises walks as before, since a long jump grants nothing and
//! a run is never longer than the stretch already walked posting by posting
//! since the last long jump, plus one. Candidates that pass the exact test
//! are evaluated inside a run like anywhere else and do not use it up.
//!
//! The controller is part of the traversal, not a tunable: its state lives
//! in one event, it reads only cursor positions (equal on every storage
//! layout, so `EventStats` stay layout-independent), and its two constants
//! are compile-time. Against the alternatives on `embedded_large` /
//! `churn_mixed` (docs/s, ISSUE 19's prototype, where the walk without the
//! exact test ran 480 / 1 250): the exact test *without* runs 386 / 1 119
//! — worse than not testing —, always stepping 595 / 2 024, the controller
//! 630–700 / 1 850. On the shipped code, `SHORT_JUMP` 2–8 and `RUN_CAP`
//! 256–2 048 stayed inside run-to-run noise; a cap of 32 cost `churn_mixed`
//! a sixth. No `bench_ledger` workload is skip-dominated, so the pivot-search
//! side is held by `tests/equivalence.rs::skip_regime_…` alone (3 % of the
//! postings touched, 100 % when always stepping), not by an end-to-end
//! number — ROADMAP's walk item (c) is the benchmark that keeps or deletes it.
//!
//! Counters: an iteration is one front candidate tested, whichever way the
//! walk then moves; `bound_computations` counts the `value_at` reads of the
//! exact test like any other zone query.
//!
//! The zone-maximum structure is pluggable ([`ZoneMax`]): segment tree
//! (exact, O(log n)), block maxima, or suffix snapshot — the three
//! implementations the TKDE paper ablates (DESIGN.md A1).

use crate::engine::{CursorSet, EngineBase};
use crate::stats::{CumulativeStats, EventStats};
use crate::topk::TopKState;
use crate::traits::{ContinuousTopK, ResultChange};
use ctk_common::{Document, QueryId, QuerySpec, ScoredDoc};
use ctk_index::{
    BlockMax, MaxSegTree, QueryIndex, StorageConfig, StorageStats, SuffixMax, ZoneMax,
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
    /// One zone structure per postings list; position-aligned with the list.
    zones: Vec<Z>,
    cursors: CursorSet,
    /// Zone repairs of this event on lists the document does not match
    /// (see [`Mrio::update_query_zones`]); empty between events.
    deferred: Vec<DeferredRepair>,
    name: &'static str,
}

/// Queued repairs are settled at the latest once this many have gathered
/// (about one steady-state document's worth at 50 000 queries): enough to
/// overlap their cache misses, small enough that the queue stays scratch.
const DEFERRED_BATCH: usize = 4096;

/// Longest run of linear steps one pivot search can grant (module docs).
const RUN_CAP: u32 = 256;

/// A jump is short when its cursors moved at most this many postings each,
/// tombstones included: with a pivot search + jump at 3–4 times the cost of
/// an exact test + step, stepping would have been as cheap.
const SHORT_JUMP: usize = 4;

/// A zone repair on a list the current document does not match: the new
/// bound value `u` of `qid`'s posting in `list`.
#[derive(Debug, Clone, Copy)]
struct DeferredRepair {
    list: u32,
    qid: QueryId,
    /// The posting's position, where the record stores it; otherwise it is
    /// searched for when the repair is settled.
    pos: Option<u32>,
    u: f64,
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
            deferred: Vec::new(),
            name,
        }
    }
}

impl<Z: ZoneMax> Mrio<Z> {
    /// Write the current `u = w/S_k` of every term of `qid` into the zones.
    ///
    /// The lists the document matches are exactly those of the `aligned`
    /// cursors at the front of the set, still positioned on `qid`'s
    /// postings: their zones are repaired at once, because later bounds of
    /// this event read them. Every other posting of the query sits on a
    /// list no bound of this event consults; those repairs are queued and
    /// settled by [`Mrio::settle_deferred_repairs`], at the latest before
    /// the event returns. Run back to back, their cache misses (a cold list
    /// and a cold zone tree each) overlap instead of stalling the walk one
    /// at a time, and the traversal cannot tell the difference.
    fn update_query_zones(&mut self, qid: QueryId, aligned: usize) {
        let Some(state) = self.base.state(qid) else { return };
        let Some(rec) = self.index.record(qid) else { return };
        for e in rec.entries_located() {
            let u = state.normalized(e.weight as f64);
            match self.cursors.cursors[..aligned].iter().find(|c| c.list == e.list) {
                Some(c) => self.zones[e.list as usize].update(c.pos, u),
                None => self.deferred.push(DeferredRepair { list: e.list, qid, pos: e.pos, u }),
            }
        }
        // Bound the queue: while result sets are still filling, one
        // document can update most of the queries it matches.
        if self.deferred.len() >= DEFERRED_BATCH {
            self.settle_deferred_repairs();
        }
    }

    /// Apply the queued repairs, searching the list for the position where
    /// the record does not store it (an ids-only walk of one block).
    fn settle_deferred_repairs(&mut self) {
        for r in &self.deferred {
            let pos = match r.pos {
                Some(pos) => pos as usize,
                None => self
                    .index
                    .list(r.list)
                    .position_of(r.qid)
                    .expect("a record entry implies a posting"),
            };
            self.zones[r.list as usize].update(pos, r.u);
        }
        self.deferred.clear();
    }

    /// Rebuild list `li`'s zone structure from its postings: live entries
    /// map to their current `u = w/S_k`, tombstones to `-∞` — one shared
    /// definition ([`ctk_index::list_bound_values`]) with the doc-parallel
    /// epoch bounds. `vals` is the caller's scratch buffer (reused across
    /// lists).
    fn rebuild_zone(&mut self, li: u32, vals: &mut Vec<f64>) {
        let base = &self.base;
        ctk_index::list_bound_values(
            &self.index,
            li,
            |qid, w| base.normalized_of(qid, w as f64),
            vals,
        );
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
            let mx = self.zones[c.list as usize].range_max(c.pos, hi);
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

    /// Exact normalised score `Σ f_j · u_j(q)` of the front candidate `q` —
    /// `UB*` over the zone of width one that holds only `q` — and the
    /// number of cursors aligned on it. Counts one bound computation per
    /// aligned cursor.
    #[inline]
    fn front_score(&self, ev: &mut EventStats) -> (f64, usize) {
        let cursors = &self.cursors.cursors;
        let q = cursors[0].qid;
        let (mut sum, mut aligned) = (0.0f64, 0usize);
        for c in cursors {
            if c.qid != q {
                break; // sorted: aligned cursors form a prefix
            }
            sum += c.f * self.zones[c.list as usize].value_at(c.pos);
            aligned += 1;
        }
        ev.bound_computations += aligned as u64;
        (sum, aligned)
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
            let from = c.pos;
            c.advance_to(&self.index, blocks, target);
            moved += c.pos - from;
        }
        ev.postings_accessed += n as u64;
        self.cursors.repair_prefix(n);
        moved <= SHORT_JUMP * n
    }

    /// Step the `aligned` front cursors past the candidate they sit on.
    #[inline]
    fn pass_front(&mut self, aligned: usize, ev: &mut EventStats) {
        self.cursors.step_front(&self.index, aligned);
        ev.postings_accessed += aligned as u64;
    }

    /// The traversal body of one event, after the decay prologue has run.
    /// Shared by the per-document and batched entry points.
    fn run_event(&mut self, doc: &Document, theta: f64, amp: f64) -> EventStats {
        let mut ev = EventStats {
            matched_lists: self.cursors.build(&self.index, doc) as u64,
            ..EventStats::default()
        };
        // Every comparison below is against a floor a few ulps under θ_d
        // (module docs, "Ties"): the sums are rounded, `offer` is not.
        let theta = theta * (1.0 - (ev.matched_lists + 4) as f64 * f64::EPSILON);
        // The run controller (module docs): `run` linear steps are left
        // before the next pivot search, which grants `grant` more if its
        // jump is short again.
        let (mut run, mut grant) = (0u32, 0u32);

        while !self.cursors.is_empty() {
            ev.iterations += 1;

            // The front candidate, tested exactly before any zone bound.
            let (score, aligned) = self.front_score(&mut ev);
            if score >= theta {
                let q = self.cursors.cursors[0].qid;
                let (dot, _) = self.cursors.score_front(&self.index);
                ev.full_evaluations += 1;
                if self.base.offer(q, doc, dot, amp) {
                    ev.updates += 1;
                    self.update_query_zones(q, aligned);
                }
                self.pass_front(aligned, &mut ev);
                continue;
            }

            // The candidate is pruned. Step past it alone while the run
            // lasts, otherwise ask the zones how far the cursors may jump.
            if run > 0 {
                run -= 1;
                self.pass_front(aligned, &mut ev);
                continue;
            }
            let short = match self.find_pivot(theta, &mut ev) {
                Found::Nothing => break,
                // Local bounds prune [c_1, c_m] only: skip past the last
                // cursor id and keep going.
                Found::NoPivot => {
                    let m = self.cursors.len();
                    self.jump(m, self.zone_bound(m - 1), &mut ev)
                }
                Found::Pivot(p) => {
                    let pivot = self.cursors.cursors[p].qid;
                    if self.cursors.cursors[0].qid == pivot {
                        // The zone also held the ids between the candidate
                        // and the next cursor; the candidate itself is
                        // already pruned.
                        self.pass_front(aligned, &mut ev);
                        true
                    } else {
                        self.jump(p, pivot, &mut ev)
                    }
                }
            };
            grant = if short { (grant * 2).clamp(1, RUN_CAP) } else { 0 };
            run = grant;
        }

        self.settle_deferred_repairs();
        ev.accumulate_into(&mut self.base.cum);
        ev
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
        if self.base.seed(qid, seeds) {
            self.update_query_zones(qid, 0);
            self.settle_deferred_repairs();
        }
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
        self.base.state(qid).map(TopKState::threshold)
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
        StorageStats { blocks_decoded: self.cursors.blocks_decoded(), ..self.index.storage_stats() }
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
    /// the runs of linear steps double. `also` adds a second term to the
    /// queries in that id range. Returns the plain and compressed engines
    /// and the oracle, result sets filled (`S_k = 1`) except for `unfilled`.
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
    fn runs_of_linear_steps_cross_tombstones() {
        let n = 300u32;
        let (mut plain, mut packed, mut oracle) = pruned_population(n, 0..0, n - 1);
        // Tombstones where the runs are 32 and 64 steps long.
        let mut live = n as u64;
        for q in (60..200).step_by(3) {
            assert!(plain.unregister(QueryId(q)) && packed.unregister(QueryId(q)));
            assert!(oracle.unregister(QueryId(q)));
            live -= 1;
        }
        let ev = walk_pruned((plain, packed, oracle), &[(1, 1.0), (9, 5.0)], n);
        // One list: every live candidate is the front exactly once, and the
        // bounds beyond its exact test are the few pivot searches (two terms
        // each: list-wide, then the width-one zone) that granted the runs.
        assert_eq!(ev.iterations, live);
        assert_eq!(ev.postings_accessed, live);
        let searches = (ev.bound_computations - live) / 2;
        assert!((8..=10).contains(&searches), "runs must double: {ev:?}");
    }

    #[test]
    fn runs_of_linear_steps_cross_list_ends_and_truncation() {
        // Queries 100..160 are also on a second list, which therefore ends
        // (its cursor turns EXHAUSTED and is truncated away) inside a run
        // over the first; the unfilled query sits mid-list, so the first
        // list ends inside a run too, leaving the set empty.
        let n = 300u32;
        let population = pruned_population(n, 100..160, 250);
        let ev = walk_pruned(population, &[(1, 1.0), (2, 1.0), (9, 5.0)], n);
        assert_eq!(ev.matched_lists, 2);
        // The first search jumps the first list to the second's first id
        // (a long jump: no run); from there on the candidates are adjacent.
        assert_eq!(ev.iterations, 1 + 199);
        assert!(ev.bound_computations < 2 * ev.iterations, "runs must carry the walk: {ev:?}");
    }

    /// A republished vector ties `S_k` exactly and wins on the smaller doc
    /// id, while its normalised sum `Σ f_j · fl(w_j/S_k)` may round to
    /// `1 − ulp`: the walk must still evaluate it, on the front test and
    /// behind a jump alike.
    fn exact_ties_follow_the_oracle<Z: ZoneMax + Default>(mk: impl Fn() -> Mrio<Z>) {
        let mut rounded_below = 0;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 40) as f32 / (1u64 << 24) as f32) + 0.01
        };
        for _ in 0..300 {
            let (mut mrio, mut oracle) = (mk(), crate::naive::Naive::new(0.0));
            let shapes: [Vec<(u32, f32)>; 3] = [
                vec![(1, next()), (2, next())],
                vec![(1, next()), (2, next()), (3, next())],
                vec![(2, next()), (3, next())],
            ];
            for terms in &shapes {
                mrio.register(spec(terms, 1));
                oracle.register(spec(terms, 1));
            }
            let terms = [(1, next()), (2, next()), (3, next())];
            for id in [10u64, 5] {
                let d = doc(id, &terms, 0.0);
                mrio.process(&d);
                oracle.process(&d);
                assert_eq!(mrio.last_changes(), oracle.last_changes(), "doc {id}: {terms:?}");
            }
            assert_eq!(oracle.last_changes().len(), 3, "the smaller id wins every tie");
            // How often the plain comparison would have pruned a winner.
            let d = doc(5, &terms, 0.0);
            mrio.cursors.build(&mrio.index, &d);
            let (s, _) = mrio.front_score(&mut EventStats::default());
            rounded_below += (s < 1.0) as u32;
        }
        assert!(rounded_below > 0, "no case exercised the rounding");
    }

    #[test]
    fn exact_ties_follow_the_oracle_on_every_zone_structure() {
        exact_ties_follow_the_oracle(|| MrioSeg::new(0.0));
        exact_ties_follow_the_oracle(|| MrioBlock::new(0.0));
        exact_ties_follow_the_oracle(|| MrioSuffix::new(0.0));
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
