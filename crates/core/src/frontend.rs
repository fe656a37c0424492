//! The one monitor front-end.
//!
//! The paper's contribution is the RIO/MRIO walk; everything a deployment
//! needs around it is written here exactly once, over the one
//! [`ContinuousTopK`] engine that does the scoring, called directly on the
//! publisher's thread:
//!
//! * the public query-id space, its map onto the engine's dense slots,
//!   and the registered-spec table;
//! * document id allocation and monotone arrival-time clamping — every
//!   document enters through a publish, whole, so the stream position is
//!   always this type's own;
//! * the lifecycle layer — TTL expiry at publish entry, cap eviction at
//!   registration, and their attribution on the next receipt;
//! * snapshot capture and restore;
//! * the tombstone-compaction policy, applied at batch boundaries;
//! * the single [`MonitorBackend`] implementation.
//!
//! [`crate::Monitor`] is the public name of this type.

use crate::backend::{MonitorBackend, PublishReceipt, PublishRequest};
use crate::lifecycle::{
    pick_victim, LifecycleManager, NamespaceStats, QueryOptions, RetentionPolicy,
};
use crate::snapshot::{ShardSnapshot, Snapshot, SnapshotPolicy, SnapshotQuery, SNAPSHOT_VERSION};
use crate::traits::ContinuousTopK;
use ctk_common::{
    DocId, Document, Namespace, NamespaceRegistry, QueryId, QuerySpec, ScoredDoc, TermId, Timestamp,
};
use ctk_index::StorageStats;

/// A monitor: the application-facing state plus the engine `E` behind it
/// (see the module docs). All of the application API is the
/// [`MonitorBackend`] impl below.
pub struct FrontEnd<E> {
    /// The public id of each slot, the engine's and the lifecycle layer's
    /// dense id for a query. Slots are placed in order and ids only grow,
    /// so the table ascends and no slot is above its id: the two are equal
    /// until a restore leaves out the ids its capture no longer held.
    ids: Vec<QueryId>,
    /// Registered specs by slot (`None` after removal).
    specs: Vec<Option<QuerySpec>>,
    /// The id the next registration gets: none is handed out twice.
    next_query: u32,
    live: usize,
    next_doc: u64,
    last_arrival: Timestamp,
    lifecycle: LifecycleManager,
    /// Cap evictions since the last publish. Registration produces no
    /// receipt, so they ride on the next receipt's first document.
    pending_evicted: u64,
    engine: E,
    /// Tombstone ratio beyond which batch boundaries compact the index
    /// (`0.0` disables the policy).
    compact_at: f64,
}

impl<E: ContinuousTopK> FrontEnd<E> {
    /// `engine` must be fresh: the front-end and the engine allocate query
    /// ids (slots) in lockstep.
    pub fn new(engine: E) -> Self {
        FrontEnd {
            ids: Vec::new(),
            specs: Vec::new(),
            next_query: 0,
            live: 0,
            next_doc: 0,
            last_arrival: 0.0,
            lifecycle: LifecycleManager::new(),
            pending_evicted: 0,
            engine,
            compact_at: 0.0,
        }
    }

    /// Enable tombstone compaction: whenever a publish leaves the engine's
    /// index with `tombstone_ratio() >= ratio`, the index is compacted (and
    /// the affected bound structures rebuilt) before the next batch. Ratios
    /// `<= 0.0` disable the policy.
    pub fn with_compaction(mut self, ratio: f64) -> Self {
        self.compact_at = ratio.max(0.0);
        self
    }

    /// The wrapped engine (read access for stats etc.).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Rebuild a monitor from a snapshot using a fresh engine (which must
    /// have been constructed with `snapshot.lambda`), every query under its
    /// captured id. Convenience wrapper around
    /// [`MonitorBackend::apply_snapshot`].
    pub fn restore(engine: E, snapshot: &Snapshot) -> Self {
        let mut monitor = FrontEnd::new(engine);
        monitor.apply_snapshot(snapshot);
        monitor
    }

    /// The slot of a live query: `qid` itself unless a restore left out
    /// ids below it, and then a binary search away.
    fn slot_of(&self, qid: QueryId) -> Option<QueryId> {
        let upto = &self.ids[..self.ids.len().min(qid.index() + 1)];
        let slot = match upto.last() {
            Some(&last) if last == qid => upto.len() - 1,
            _ => upto.binary_search(&qid).ok()?,
        };
        self.specs[slot].is_some().then_some(QueryId(slot as u32))
    }

    /// Drop a live query by slot (tombstone now, compaction later).
    fn remove(&mut self, slot: QueryId) {
        let removed = self.engine.unregister(slot);
        debug_assert!(removed, "live slot {slot} must be live in the engine");
        self.specs[slot.index()] = None;
        self.live -= 1;
        self.lifecycle.on_unregister(slot);
    }

    /// `Namespace(pub u16)` is constructible by anyone: refuse a handle this
    /// backend never interned *before* any state changes, so the engine
    /// and the lifecycle layer can never disagree about a query.
    fn check_namespace(&self, ns: Namespace) {
        assert!(
            self.lifecycle.name(ns).is_some(),
            "namespace handle {ns} was never interned on this backend (use intern_namespace)"
        );
    }

    /// Stamp one incoming document: next id, monotone-clamped arrival.
    fn admit(&mut self, pairs: Vec<(TermId, f32)>, arrival: Timestamp) -> Document {
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        let id = DocId(self.next_doc);
        self.next_doc += 1;
        Document::new(id, pairs, arrival)
    }

    /// Expire every query whose deadline has passed, relative to the later
    /// of the stream clock and the first arrival of the batch about to be
    /// published — so an expiring query never sees documents past its
    /// deadline, the exact moment an oracle unregistering at this boundary
    /// would remove it. O(1) when no TTLs are in play.
    fn expire_due(&mut self, first_arrival: Timestamp) -> u64 {
        if self.lifecycle.no_deadlines() {
            return 0;
        }
        let due = self.lifecycle.take_expired(first_arrival.max(self.last_arrival));
        for &slot in &due {
            debug_assert!(self.specs[slot.index()].is_some(), "expired slot {slot} must be live");
            self.remove(slot);
        }
        due.len() as u64
    }

    /// Evict until the namespace is back under its cap, per its policy's
    /// victim selection. `protect` (a just-registered newcomer) is never a
    /// candidate, which also guarantees termination for a cap of 0.
    fn enforce_cap(&mut self, ns: Namespace, protect: Option<QueryId>) {
        loop {
            let Some(policy) = self.lifecycle.policy(ns) else { return };
            let Some(cap) = policy.max_queries else { return };
            if self.lifecycle.live(ns) <= cap {
                return;
            }
            let candidates = self.lifecycle.members(ns).filter(|&q| Some(q) != protect);
            let engine = &self.engine;
            let Some(victim) = pick_victim(candidates, policy.eviction, |q| {
                engine.results(q).and_then(|r| r.first().map(|sd| sd.score.get())).unwrap_or(0.0)
            }) else {
                return;
            };
            debug_assert!(self.specs[victim.index()].is_some(), "cap victim {victim} must be live");
            self.lifecycle.note_evicted(victim);
            self.remove(victim);
            self.pending_evicted += 1;
        }
    }

    /// Surface the boundary's lifecycle removals on the receipt's first
    /// document (the boundary the removals happened at).
    fn attribute_lifecycle(&mut self, receipt: &mut PublishReceipt, expired: u64) {
        if let Some(first) = receipt.stats.first_mut() {
            first.expired += expired;
            first.evicted += std::mem::take(&mut self.pending_evicted);
        }
    }
}

impl<E: ContinuousTopK> MonitorBackend for FrontEnd<E> {
    fn register_with(&mut self, spec: QuerySpec, opts: QueryOptions) -> QueryId {
        self.check_namespace(opts.namespace);
        assert!(self.next_query < u32::MAX, "every query id below u32::MAX was handed out");
        let qid = QueryId(self.next_query);
        let slot = QueryId(self.ids.len() as u32);
        let placed = self.engine.register(spec.clone());
        assert_eq!(placed, slot, "Monitor::new needs a fresh engine");
        self.ids.push(qid);
        self.specs.push(Some(spec));
        self.next_query += 1;
        self.live += 1;
        self.lifecycle.on_register(slot, opts, self.last_arrival);
        self.enforce_cap(opts.namespace, Some(slot));
        qid
    }

    fn next_query_id(&self) -> QueryId {
        QueryId(self.next_query)
    }

    fn unregister(&mut self, qid: QueryId) -> bool {
        let Some(slot) = self.slot_of(qid) else { return false };
        self.remove(slot);
        true
    }

    fn intern_namespace(&mut self, name: &str) -> Namespace {
        self.lifecycle.intern(name)
    }

    fn find_namespace(&self, name: &str) -> Option<Namespace> {
        self.lifecycle.find(name)
    }

    fn namespaces_full(&self) -> bool {
        self.lifecycle.names().len() >= NamespaceRegistry::CAPACITY
    }

    fn set_retention(&mut self, ns: Namespace, policy: RetentionPolicy) {
        self.check_namespace(ns);
        self.lifecycle.set_policy(ns, policy);
        self.enforce_cap(ns, None);
    }

    fn retention(&self, ns: Namespace) -> Option<RetentionPolicy> {
        self.lifecycle.policy(ns)
    }

    fn forget_namespace(&mut self, ns: Namespace) -> usize {
        self.check_namespace(ns);
        let members: Vec<QueryId> = self.lifecycle.members(ns).collect();
        if members.is_empty() {
            return 0;
        }
        for &slot in &members {
            self.remove(slot);
        }
        // Shed the namespace's postings now instead of waiting for the
        // ratio policy.
        self.engine.compact_index();
        members.len()
    }

    fn namespace_of(&self, qid: QueryId) -> Option<Namespace> {
        self.lifecycle.namespace_of(self.slot_of(qid)?)
    }

    fn namespace_stats(&self) -> Vec<NamespaceStats> {
        self.lifecycle.stats()
    }

    fn lifecycle_totals(&self) -> (u64, u64) {
        self.lifecycle.totals()
    }

    fn publish_request(&mut self, request: PublishRequest) -> PublishReceipt {
        // An empty publish is not a batch boundary: no expiry sweep.
        let expired = request.first_arrival().map_or(0, |at| self.expire_due(at));
        let docs: Vec<Document> = request
            .into_batch()
            .into_iter()
            .map(|(pairs, arrival)| self.admit(pairs, arrival))
            .collect();
        let mut receipt = PublishReceipt {
            doc_ids: docs.iter().map(|d| d.id).collect(),
            changes: Vec::new(),
            stats: Vec::new(),
        };
        receipt.stats = self.engine.process_batch_into(&docs, &mut receipt.changes);
        // Batch boundary: no event is mid-flight here, so the index can
        // reorganize safely.
        if self.compact_at > 0.0 && self.engine.tombstone_ratio() >= self.compact_at {
            self.engine.compact_index();
        }
        if self.ids.len() != self.next_query as usize {
            for change in &mut receipt.changes {
                change.query = self.ids[change.query.index()];
            }
        }
        self.attribute_lifecycle(&mut receipt, expired);
        receipt
    }

    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
        self.engine.results(self.slot_of(qid)?)
    }

    fn num_queries(&self) -> usize {
        self.live
    }

    fn lambda(&self) -> f64 {
        self.engine.lambda()
    }

    fn storage_stats(&self) -> StorageStats {
        self.engine.storage_stats()
    }

    /// One [`ShardSnapshot`] section, at the engine's landmark, holding
    /// the queries in ascending public id.
    fn snapshot(&self) -> Snapshot {
        let mut queries = Vec::with_capacity(self.live);
        for (i, (qid, spec)) in self.ids.iter().zip(&self.specs).enumerate() {
            let Some(spec) = spec else { continue };
            let slot = QueryId(i as u32);
            let (registered_at, max_age, deadline) =
                self.lifecycle.meta_of(slot).unwrap_or((self.last_arrival, None, None));
            queries.push(SnapshotQuery {
                qid: qid.0,
                spec: spec.clone(),
                results: self.engine.results(slot).unwrap_or_default(),
                namespace: self.lifecycle.namespace_of(slot).unwrap_or(Namespace::DEFAULT).0,
                registered_at,
                max_age,
                deadline,
            });
        }
        let policies = self.lifecycle.policies().into_iter().map(|(ns, p)| SnapshotPolicy {
            namespace: ns.0,
            max_age: p.max_age,
            max_queries: p.max_queries,
            eviction: p.eviction,
        });
        Snapshot {
            version: SNAPSHOT_VERSION,
            lambda: self.engine.lambda(),
            next_doc: self.next_doc,
            next_query: self.next_query,
            last_arrival: self.last_arrival,
            namespaces: self.lifecycle.names().to_vec(),
            policies: policies.collect(),
            shards: vec![ShardSnapshot { landmark: self.engine.landmark(), queries }],
        }
    }

    /// Queries are re-registered in ascending captured-id order, whatever
    /// section of the capture holds them, each under its captured id and in
    /// the next slot. The ids between them take no slot, so a restore costs
    /// the live queries, not the history of ids behind them.
    fn apply_snapshot(&mut self, snapshot: &Snapshot) {
        assert_eq!(
            self.engine.lambda(),
            snapshot.lambda,
            "backend must be constructed with the snapshot's lambda"
        );
        assert_eq!(self.live, 0, "restore target must be freshly built");
        // Adopt the snapshot's decay landmark before seeding: the seeded
        // scores are expressed relative to it. A fresh engine sits at
        // landmark 0, so skipping this step after any renormalization had
        // fired would re-inflate (and soon re-renormalize) the seeds in the
        // wrong frame, corrupting every threshold.
        self.engine.restore_landmark(snapshot.landmark());
        self.next_doc = snapshot.next_doc;
        self.last_arrival = snapshot.last_arrival;

        // Rebuild the lifecycle layer first: intern the capture's namespace
        // table (the restore target may renumber handles) and install the
        // policies. No members exist yet, so a `max_queries` cap cannot
        // evict here.
        let ns_map: Vec<Namespace> =
            snapshot.namespaces.iter().map(|name| self.lifecycle.intern(name)).collect();
        let map_ns = |handle: u16| -> Namespace {
            ns_map.get(handle as usize).copied().unwrap_or(Namespace::DEFAULT)
        };
        for p in &snapshot.policies {
            self.set_retention(
                map_ns(p.namespace),
                RetentionPolicy {
                    max_age: p.max_age,
                    max_queries: p.max_queries,
                    eviction: p.eviction,
                },
            );
        }

        let mut captured: Vec<&SnapshotQuery> = snapshot.queries().collect();
        captured.sort_by_key(|q| q.qid);
        for q in captured {
            assert!(q.qid >= self.next_query, "a capture holds each query id once");
            self.next_query = q.qid;
            let qid = self.register_with(
                q.spec.clone(),
                QueryOptions { namespace: map_ns(q.namespace), max_age: q.max_age },
            );
            // Pin the *captured* registration time and deadline: the
            // restore-time stream clock must not stretch TTLs.
            let slot = QueryId(self.ids.len() as u32 - 1);
            self.lifecycle.restore_pin(slot, q.registered_at, q.deadline);
            self.seed_results(qid, &q.results);
        }
        self.next_query = self.next_query.max(snapshot.next_query);
    }

    fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        if let Some(slot) = self.slot_of(qid) {
            self.engine.seed_results(slot, seeds);
        }
    }
}
