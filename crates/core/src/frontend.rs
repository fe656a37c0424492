//! The one monitor front-end.
//!
//! The paper's contribution is the RIO/MRIO walk; everything a deployment
//! needs around it is written here exactly once, over whichever
//! [`Runtime`] does the scoring:
//!
//! * the public query-id space and the registered-spec table;
//! * document id allocation and monotone arrival-time clamping — every
//!   document enters through a publish, whole, so the stream position is
//!   always this type's own;
//! * the lifecycle layer — TTL expiry at publish entry, cap eviction at
//!   registration, and their attribution on the next receipt;
//! * snapshot capture and restore;
//! * the single [`MonitorBackend`] implementation.
//!
//! [`crate::Monitor`] and [`crate::ShardedMonitor`] are this type over the
//! in-thread engine and the query-sharded workers respectively.

use crate::backend::{MonitorBackend, PublishReceipt, PublishRequest};
use crate::lifecycle::{
    pick_victim, LifecycleManager, NamespaceStats, QueryOptions, RetentionPolicy,
};
use crate::runtime::Runtime;
use crate::snapshot::{ShardSnapshot, Snapshot, SnapshotPolicy, SnapshotQuery, SNAPSHOT_VERSION};
use ctk_common::{
    DocId, Document, FxHashMap, Namespace, NamespaceRegistry, QueryId, QuerySpec, ScoredDoc,
    TermId, Timestamp,
};
use ctk_index::StorageStats;

/// A monitor: the application-facing state plus the runtime `R` behind it
/// (see the module docs). All of the application API is the
/// [`MonitorBackend`] impl below.
pub struct FrontEnd<R: Runtime> {
    /// Registered specs by public query id (`None` after removal).
    specs: Vec<Option<QuerySpec>>,
    live: usize,
    next_doc: u64,
    last_arrival: Timestamp,
    lifecycle: LifecycleManager,
    /// Cap evictions since the last publish. Registration produces no
    /// receipt, so they ride on the next receipt's first document.
    pending_evicted: u64,
    pub(crate) runtime: R,
}

impl<R: Runtime> FrontEnd<R> {
    pub(crate) fn over(runtime: R) -> Self {
        FrontEnd {
            specs: Vec::new(),
            live: 0,
            next_doc: 0,
            last_arrival: 0.0,
            lifecycle: LifecycleManager::new(),
            pending_evicted: 0,
            runtime,
        }
    }

    fn is_live(&self, qid: QueryId) -> bool {
        self.specs.get(qid.index()).is_some_and(Option::is_some)
    }

    /// `Namespace(pub u16)` is constructible by anyone: refuse a handle this
    /// backend never interned *before* any state changes, so the runtime
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
        for &qid in &due {
            let removed = self.unregister(qid);
            debug_assert!(removed, "expired query {qid} must be live");
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
            let runtime = &self.runtime;
            let Some(victim) = pick_victim(candidates, policy.eviction, |q| {
                runtime.results(q).and_then(|r| r.first().map(|sd| sd.score.get())).unwrap_or(0.0)
            }) else {
                return;
            };
            self.lifecycle.note_evicted(victim);
            let removed = self.unregister(victim);
            debug_assert!(removed, "cap victim {victim} must be live");
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

impl<R: Runtime> MonitorBackend for FrontEnd<R> {
    fn register_with(&mut self, spec: QuerySpec, opts: QueryOptions) -> QueryId {
        self.check_namespace(opts.namespace);
        let qid = self.next_query_id();
        self.runtime.place(qid, &spec);
        self.specs.push(Some(spec));
        self.live += 1;
        self.lifecycle.on_register(qid, opts, self.last_arrival);
        self.enforce_cap(opts.namespace, Some(qid));
        qid
    }

    fn next_query_id(&self) -> QueryId {
        QueryId(self.specs.len() as u32)
    }

    fn unregister(&mut self, qid: QueryId) -> bool {
        if !self.is_live(qid) {
            return false;
        }
        self.runtime.remove(qid);
        self.specs[qid.index()] = None;
        self.live -= 1;
        self.lifecycle.on_unregister(qid);
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
        self.runtime.forget(&members);
        for &qid in &members {
            self.lifecycle.on_unregister(qid);
            self.specs[qid.index()] = None;
        }
        self.live -= members.len();
        members.len()
    }

    fn namespace_of(&self, qid: QueryId) -> Option<Namespace> {
        self.lifecycle.namespace_of(qid)
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
        self.runtime.ingest(docs, &mut receipt);
        self.attribute_lifecycle(&mut receipt, expired);
        receipt
    }

    fn results(&self, qid: QueryId) -> Option<Vec<ScoredDoc>> {
        if self.is_live(qid) {
            self.runtime.results(qid)
        } else {
            None
        }
    }

    fn num_queries(&self) -> usize {
        self.live
    }

    fn shards(&self) -> usize {
        self.runtime.shards()
    }

    fn lambda(&self) -> f64 {
        self.runtime.lambda()
    }

    fn storage_stats(&self) -> StorageStats {
        self.runtime.storage_stats()
    }

    /// One [`ShardSnapshot`] section per landmark the runtime reports (one
    /// per query shard; a single one otherwise), queries in ascending
    /// public id within their section.
    fn snapshot(&self) -> Snapshot {
        let mut shards: Vec<ShardSnapshot> = self
            .runtime
            .landmarks()
            .into_iter()
            .map(|landmark| ShardSnapshot { landmark, queries: Vec::new() })
            .collect();
        for (i, spec) in self.specs.iter().enumerate() {
            let Some(spec) = spec else { continue };
            let qid = QueryId(i as u32);
            let (registered_at, max_age, deadline) =
                self.lifecycle.meta_of(qid).unwrap_or((self.last_arrival, None, None));
            shards[self.runtime.section_of(qid)].queries.push(SnapshotQuery {
                qid: qid.0,
                spec: spec.clone(),
                results: self.runtime.results(qid).unwrap_or_default(),
                namespace: self.lifecycle.namespace_of(qid).unwrap_or(Namespace::DEFAULT).0,
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
            lambda: self.runtime.lambda(),
            next_doc: self.next_doc,
            last_arrival: self.last_arrival,
            namespaces: self.lifecycle.names().to_vec(),
            policies: policies.collect(),
            shards,
        }
    }

    /// Queries are re-registered in ascending captured-id order — a sharded
    /// runtime thereby rebalances them round-robin over *its* shards, so the
    /// capture's partitioning does not constrain the restore target.
    fn apply_snapshot(&mut self, snapshot: &Snapshot) -> FxHashMap<QueryId, QueryId> {
        assert_eq!(
            self.runtime.lambda(),
            snapshot.lambda,
            "backend must be constructed with the snapshot's lambda"
        );
        assert_eq!(self.live, 0, "restore target must be freshly built");
        // Adopt the snapshot's decay landmark before seeding: the seeded
        // scores are expressed relative to it. A fresh engine sits at
        // landmark 0, so skipping this step after any renormalization had
        // fired would re-inflate (and soon re-renormalize) the seeds in the
        // wrong frame, corrupting every threshold.
        self.runtime.restore_landmark(snapshot.landmark());
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
        let mut mapping = FxHashMap::default();
        for q in captured {
            let new_qid = self.register_with(
                q.spec.clone(),
                QueryOptions { namespace: map_ns(q.namespace), max_age: q.max_age },
            );
            // Pin the *captured* registration time and deadline: the
            // restore-time stream clock must not stretch TTLs.
            self.lifecycle.restore_pin(new_qid, q.registered_at, q.deadline);
            self.seed_results(new_qid, &q.results);
            mapping.insert(QueryId(q.qid), new_qid);
        }
        mapping
    }

    fn seed_results(&mut self, qid: QueryId, seeds: &[ScoredDoc]) {
        if self.is_live(qid) {
            self.runtime.seed(qid, seeds);
        }
    }
}
