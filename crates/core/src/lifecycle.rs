//! Query lifecycle: namespaces, TTLs and retention-driven eviction.
//!
//! The paper's model registers queries once and monitors them forever; real
//! subscriber populations churn. This module adds the bookkeeping side of
//! that churn — *when* a query should leave — while the actual removal stays
//! the ordinary [`unregister`](crate::MonitorBackend::unregister) path
//! (tombstone now, compaction later), so a monitor with lifecycle policies
//! active remains **bit-identical** to one whose caller issues the same
//! unregisters by hand at the same batch boundaries.
//!
//! Three forces remove a query:
//!
//! - **Expiry**: a per-query `max_age` (or its namespace's
//!   [`RetentionPolicy::max_age`]) sets a deadline in *stream time*
//!   (`registered_at + max_age`). The manager keeps deadlines in a lazy
//!   min-heap; front-ends probe it once per publish batch, which is O(1)
//!   when nothing is due and costs nothing at all when no policy is set.
//! - **Cap eviction**: a namespace's [`RetentionPolicy::max_queries`] bounds
//!   its live population; crossing the cap evicts per
//!   [`EvictionPolicy`] (`Oldest` registration or `LowestScore` top result),
//!   never the query that just registered.
//! - **Bulk forget**: `forget_namespace` tombstones a whole tenant at once
//!   and forces a compaction, the hausKI-style "filtered forget".
//!
//! Deadlines use **stream time** (document arrival timestamps), not wall
//! time: the monitor's only clock is the stream, decay already runs on it,
//! and it keeps every lifecycle decision deterministic and replayable.

use ctk_common::{FxHashMap, Namespace, NamespaceRegistry, OrdF64, QueryId, Timestamp};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Per-query registration options. [`Default`] reproduces the pre-lifecycle
/// behaviour exactly: default namespace, no expiry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// The namespace this query belongs to (intern names via the backend's
    /// `intern_namespace`).
    pub namespace: Namespace,
    /// Per-query TTL in stream-time units, measured from registration. When
    /// set, it overrides the namespace policy's `max_age` for this query.
    pub max_age: Option<f64>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { namespace: Namespace::DEFAULT, max_age: None }
    }
}

/// Which query a namespace over its cap gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// The longest-registered member (smallest query id — ids are monotone).
    Oldest,
    /// The member with the lowest current top-1 score (an empty result set
    /// scores 0); ties fall back to the smallest id. "Least interesting
    /// first", per hausKI's `LowestScore` purge strategy.
    LowestScore,
}

/// Per-namespace retention: how long members live and how many may coexist.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Default TTL (stream time) for members without a per-query `max_age`.
    pub max_age: Option<f64>,
    /// Cap on live members; crossing it evicts per `eviction`.
    pub max_queries: Option<u64>,
    /// Victim selection when `max_queries` is exceeded.
    pub eviction: EvictionPolicy,
}

/// Observable lifecycle state of one namespace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NamespaceStats {
    /// The interned name ("" is the default namespace).
    pub namespace: String,
    /// Currently registered members.
    pub live: u64,
    /// Members removed by TTL expiry since process start.
    pub expired: u64,
    /// Members removed by cap eviction since process start.
    pub evicted: u64,
}

#[derive(Debug, Clone, Copy)]
struct QueryMeta {
    ns: Namespace,
    registered_at: Timestamp,
    /// The per-query override, kept so a later `set_policy` can recompute
    /// the effective deadline without losing it.
    max_age: Option<f64>,
    deadline: Option<Timestamp>,
}

#[derive(Debug, Clone, Default)]
struct NsState {
    /// Live members by raw query id. Ids are monotone, so ascending order
    /// is registration order: `Oldest` eviction reads the first element,
    /// `LowestScore` scans this set and nothing else.
    members: BTreeSet<u32>,
    expired: u64,
    evicted: u64,
}

/// The lifecycle bookkeeping a monitor front-end owns: namespace interning,
/// retention policies, per-query deadlines and the expiry heap. Its query
/// ids are the front-end's slots, which ascend with the public ids.
///
/// The manager never touches an engine. It answers "which queries are due"
/// and "who is over cap"; the front-end performs the removals through its
/// ordinary unregister path so a monitor stays bit-identical to an
/// explicit-unregister oracle.
#[derive(Debug)]
pub struct LifecycleManager {
    registry: NamespaceRegistry,
    policies: FxHashMap<u16, RetentionPolicy>,
    /// Indexed by raw query id; `None` = never registered here or removed.
    meta: Vec<Option<QueryMeta>>,
    /// Lazy-deletion min-heap of `(deadline, qid)`. Entries may be stale
    /// (deadline recomputed, query removed); `take_expired` revalidates
    /// against `meta` on pop.
    deadlines: BinaryHeap<Reverse<(OrdF64, u32)>>,
    namespaces: Vec<NsState>,
    total_expired: u64,
    total_evicted: u64,
}

impl Default for LifecycleManager {
    fn default() -> Self {
        LifecycleManager {
            registry: NamespaceRegistry::new(),
            policies: FxHashMap::default(),
            meta: Vec::new(),
            deadlines: BinaryHeap::new(),
            namespaces: vec![NsState::default()],
            total_expired: 0,
            total_evicted: 0,
        }
    }
}

impl LifecycleManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a namespace name (see [`NamespaceRegistry::intern`]).
    pub fn intern(&mut self, name: &str) -> Namespace {
        let ns = self.registry.intern(name);
        if ns.index() >= self.namespaces.len() {
            self.namespaces.resize_with(ns.index() + 1, NsState::default);
        }
        ns
    }

    /// Look up an interned namespace without creating it.
    pub fn find(&self, name: &str) -> Option<Namespace> {
        self.registry.find(name)
    }

    /// The name behind a handle.
    pub fn name(&self, ns: Namespace) -> Option<&str> {
        self.registry.name(ns)
    }

    /// All interned names, handle order.
    pub fn names(&self) -> &[String] {
        self.registry.names()
    }

    /// Install (or replace) a namespace's retention policy and recompute the
    /// deadlines of its existing members (a member's own `max_age` still
    /// wins). Cap enforcement is the front-end's job — it follows up while
    /// it can consult result scores.
    pub fn set_policy(&mut self, ns: Namespace, policy: RetentionPolicy) {
        debug_assert!(ns.index() < self.namespaces.len(), "policy on un-interned namespace");
        self.policies.insert(ns.0, policy);
        for &raw in &self.namespaces[ns.index()].members {
            let meta = self.meta[raw as usize].as_mut().expect("a member is live");
            let effective = meta.max_age.or(policy.max_age);
            let deadline = effective.map(|age| meta.registered_at + age);
            if deadline != meta.deadline {
                meta.deadline = deadline;
                if let Some(d) = deadline {
                    self.deadlines.push(Reverse((OrdF64::new(d), raw)));
                }
            }
        }
    }

    /// The namespace's policy, if one was set.
    pub fn policy(&self, ns: Namespace) -> Option<RetentionPolicy> {
        self.policies.get(&ns.0).copied()
    }

    /// Record a registration at stream time `now`. The deadline is
    /// `now + max_age` where `max_age` is the per-query override or the
    /// namespace policy's default.
    pub fn on_register(&mut self, qid: QueryId, opts: QueryOptions, now: Timestamp) {
        debug_assert!(opts.namespace.index() < self.namespaces.len(), "un-interned namespace");
        if self.meta.len() <= qid.index() {
            self.meta.resize(qid.index() + 1, None);
        }
        let effective =
            opts.max_age.or_else(|| self.policies.get(&opts.namespace.0).and_then(|p| p.max_age));
        let deadline = effective.map(|age| now + age);
        self.meta[qid.index()] = Some(QueryMeta {
            ns: opts.namespace,
            registered_at: now,
            max_age: opts.max_age,
            deadline,
        });
        if let Some(d) = deadline {
            self.deadlines.push(Reverse((OrdF64::new(d), qid.0)));
        }
        self.namespaces[opts.namespace.index()].members.insert(qid.0);
    }

    /// Record an explicit removal (caller-initiated unregister or bulk
    /// forget). No-op if the query is unknown or already removed — expiry
    /// and eviction clear the slot first, so the follow-up engine
    /// unregister doesn't double-count.
    pub fn on_unregister(&mut self, qid: QueryId) -> Option<Namespace> {
        let meta = self.meta.get_mut(qid.index())?.take()?;
        self.namespaces[meta.ns.index()].members.remove(&qid.0);
        Some(meta.ns)
    }

    /// Record a cap eviction (counts toward `evicted`; the caller performs
    /// the engine-side unregister afterwards).
    pub fn note_evicted(&mut self, qid: QueryId) {
        if let Some(meta) = self.meta.get_mut(qid.index()).and_then(Option::take) {
            let state = &mut self.namespaces[meta.ns.index()];
            state.members.remove(&qid.0);
            state.evicted += 1;
            self.total_evicted += 1;
        }
    }

    /// Pop every query whose deadline is strictly before `now`, ascending by
    /// id. O(1) when nothing is due (a heap peek); the caller unregisters
    /// the returned ids through its normal path.
    pub fn take_expired(&mut self, now: Timestamp) -> Vec<QueryId> {
        let mut due = Vec::new();
        while let Some(&Reverse((d, _))) = self.deadlines.peek() {
            if d.get() >= now {
                break;
            }
            let Reverse((_, raw)) = self.deadlines.pop().unwrap();
            let qid = QueryId(raw);
            // Lazy deletion: the entry may be stale (query gone, or its
            // deadline recomputed by a later `set_policy`). Only the meta
            // slot is authoritative.
            let expired = match self.meta.get(qid.index()).and_then(|m| *m) {
                Some(meta) => meta.deadline.is_some_and(|dl| dl < now),
                None => false,
            };
            if expired {
                let meta = self.meta[qid.index()].take().unwrap();
                let state = &mut self.namespaces[meta.ns.index()];
                state.members.remove(&raw);
                state.expired += 1;
                self.total_expired += 1;
                due.push(qid);
            }
        }
        due.sort_unstable();
        due
    }

    /// True when no query has a deadline (modulo stale heap entries): the
    /// per-batch expiry probe reduces to this one check.
    pub fn no_deadlines(&self) -> bool {
        self.deadlines.is_empty()
    }

    /// Live members of a namespace, ascending by id (oldest first).
    pub fn members(&self, ns: Namespace) -> impl Iterator<Item = QueryId> + '_ {
        self.namespaces[ns.index()].members.iter().map(|&raw| QueryId(raw))
    }

    /// Number of live members of a namespace. O(1).
    pub fn live(&self, ns: Namespace) -> u64 {
        self.namespaces[ns.index()].members.len() as u64
    }

    /// The namespace a live query belongs to.
    pub fn namespace_of(&self, qid: QueryId) -> Option<Namespace> {
        self.meta.get(qid.index()).and_then(|m| m.map(|meta| meta.ns))
    }

    /// `(registered_at, max_age, deadline)` of a live query, for snapshots.
    pub fn meta_of(&self, qid: QueryId) -> Option<(Timestamp, Option<f64>, Option<Timestamp>)> {
        self.meta
            .get(qid.index())
            .and_then(|m| m.map(|meta| (meta.registered_at, meta.max_age, meta.deadline)))
    }

    /// Pin a restored query's exact lifecycle coordinates (snapshot path):
    /// the registration time and deadline recorded at capture replace
    /// whatever `on_register` computed from the restore-time stream clock.
    pub fn restore_pin(&mut self, qid: QueryId, registered_at: Timestamp, deadline: Option<f64>) {
        if let Some(meta) = self.meta.get_mut(qid.index()).and_then(Option::as_mut) {
            meta.registered_at = registered_at;
            meta.deadline = deadline;
            if let Some(d) = deadline {
                // A stale entry from `on_register` may coexist; lazy
                // deletion discards it on pop.
                self.deadlines.push(Reverse((OrdF64::new(d), qid.0)));
            }
        }
    }

    /// Per-namespace lifecycle stats, handle order.
    pub fn stats(&self) -> Vec<NamespaceStats> {
        self.registry
            .names()
            .iter()
            .zip(&self.namespaces)
            .map(|(name, c)| NamespaceStats {
                namespace: name.clone(),
                live: c.members.len() as u64,
                expired: c.expired,
                evicted: c.evicted,
            })
            .collect()
    }

    /// `(expired, evicted)` lifetime totals across all namespaces.
    pub fn totals(&self) -> (u64, u64) {
        (self.total_expired, self.total_evicted)
    }

    /// Installed policies as `(namespace, policy)` pairs, handle order (for
    /// snapshots).
    pub fn policies(&self) -> Vec<(Namespace, RetentionPolicy)> {
        let mut out: Vec<(Namespace, RetentionPolicy)> =
            self.policies.iter().map(|(&ns, &p)| (Namespace(ns), p)).collect();
        out.sort_unstable_by_key(|(ns, _)| ns.0);
        out
    }
}

/// Pick the cap-eviction victim among `candidates` (live members of the
/// namespace, ascending, the protected newcomer already excluded).
/// `top_score` maps a query to its current top-1 result score (0 when the
/// result set is empty). `None` when there is no candidate. `Oldest` reads
/// one candidate; `LowestScore` reads them all.
pub fn pick_victim<F>(
    mut candidates: impl Iterator<Item = QueryId>,
    policy: EvictionPolicy,
    mut top_score: F,
) -> Option<QueryId>
where
    F: FnMut(QueryId) -> f64,
{
    match policy {
        EvictionPolicy::Oldest => candidates.next(),
        EvictionPolicy::LowestScore => candidates.min_by_key(|&q| (OrdF64::new(top_score(q)), q.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(ns: Namespace, max_age: Option<f64>) -> QueryOptions {
        QueryOptions { namespace: ns, max_age }
    }

    #[test]
    fn default_options_have_no_lifecycle() {
        let mut lc = LifecycleManager::new();
        lc.on_register(QueryId(0), QueryOptions::default(), 5.0);
        assert!(lc.no_deadlines());
        assert!(lc.take_expired(1e12).is_empty());
        assert_eq!(lc.namespace_of(QueryId(0)), Some(Namespace::DEFAULT));
        assert_eq!(lc.totals(), (0, 0));
    }

    #[test]
    fn per_query_ttl_expires_strictly_after_deadline() {
        let mut lc = LifecycleManager::new();
        lc.on_register(QueryId(0), opts(Namespace::DEFAULT, Some(10.0)), 0.0);
        assert!(lc.take_expired(10.0).is_empty(), "deadline is inclusive");
        assert_eq!(lc.take_expired(10.1), vec![QueryId(0)]);
        assert_eq!(lc.totals(), (1, 0));
        assert!(lc.take_expired(100.0).is_empty(), "expiry is recorded once");
        assert_eq!(lc.namespace_of(QueryId(0)), None);
    }

    #[test]
    fn namespace_policy_supplies_default_ttl_and_override_wins() {
        let mut lc = LifecycleManager::new();
        let ns = lc.intern("alerts");
        lc.set_policy(
            ns,
            RetentionPolicy {
                max_age: Some(5.0),
                max_queries: None,
                eviction: EvictionPolicy::Oldest,
            },
        );
        lc.on_register(QueryId(0), opts(ns, None), 0.0); // deadline 5
        lc.on_register(QueryId(1), opts(ns, Some(20.0)), 0.0); // deadline 20
        assert_eq!(lc.take_expired(6.0), vec![QueryId(0)]);
        assert!(lc.take_expired(19.0).is_empty());
        assert_eq!(lc.take_expired(21.0), vec![QueryId(1)]);
    }

    #[test]
    fn set_policy_recomputes_existing_members() {
        let mut lc = LifecycleManager::new();
        let ns = lc.intern("t");
        lc.on_register(QueryId(0), opts(ns, None), 10.0);
        assert!(lc.no_deadlines());
        lc.set_policy(
            ns,
            RetentionPolicy {
                max_age: Some(2.0),
                max_queries: None,
                eviction: EvictionPolicy::Oldest,
            },
        );
        assert!(!lc.no_deadlines());
        // Deadline is registered_at + age = 12, not set_policy-time based.
        assert!(lc.take_expired(12.0).is_empty());
        assert_eq!(lc.take_expired(12.5), vec![QueryId(0)]);
        // Raising the age leaves a stale heap entry that must not fire.
        lc.on_register(QueryId(1), opts(ns, None), 20.0); // deadline 22
        lc.set_policy(
            ns,
            RetentionPolicy {
                max_age: Some(9.0),
                max_queries: None,
                eviction: EvictionPolicy::Oldest,
            },
        );
        assert!(lc.take_expired(23.0).is_empty(), "stale shorter deadline is lazily dropped");
        assert_eq!(lc.take_expired(29.5), vec![QueryId(1)]);
    }

    #[test]
    fn expired_batch_comes_out_ascending_by_id() {
        let mut lc = LifecycleManager::new();
        // Deadlines in reverse id order.
        lc.on_register(QueryId(0), opts(Namespace::DEFAULT, Some(3.0)), 0.0);
        lc.on_register(QueryId(1), opts(Namespace::DEFAULT, Some(2.0)), 0.0);
        lc.on_register(QueryId(2), opts(Namespace::DEFAULT, Some(1.0)), 0.0);
        assert_eq!(lc.take_expired(10.0), vec![QueryId(0), QueryId(1), QueryId(2)]);
    }

    #[test]
    fn unregister_and_evict_update_counters() {
        let mut lc = LifecycleManager::new();
        let ns = lc.intern("t");
        lc.on_register(QueryId(0), opts(ns, Some(5.0)), 0.0);
        lc.on_register(QueryId(1), opts(ns, None), 0.0);
        lc.on_register(QueryId(2), opts(ns, None), 0.0);
        assert_eq!(lc.members(ns).collect::<Vec<_>>(), vec![QueryId(0), QueryId(1), QueryId(2)]);
        assert_eq!(lc.live(ns), 3);
        assert_eq!(lc.on_unregister(QueryId(1)), Some(ns));
        assert_eq!(lc.on_unregister(QueryId(1)), None, "second removal is a no-op");
        lc.note_evicted(QueryId(2));
        assert_eq!(lc.take_expired(6.0), vec![QueryId(0)]);
        let stats = lc.stats();
        assert_eq!(stats.len(), 2, "default namespace plus the interned one");
        assert_eq!(stats[1].namespace, "t");
        assert_eq!((stats[1].live, stats[1].expired, stats[1].evicted), (0, 1, 1));
        assert_eq!(lc.totals(), (1, 1));
    }

    #[test]
    fn restore_pin_overrides_the_computed_deadline() {
        let mut lc = LifecycleManager::new();
        lc.on_register(QueryId(0), opts(Namespace::DEFAULT, Some(100.0)), 50.0);
        lc.restore_pin(QueryId(0), 7.0, Some(30.0));
        assert_eq!(lc.meta_of(QueryId(0)), Some((7.0, Some(100.0), Some(30.0))));
        assert_eq!(lc.take_expired(31.0), vec![QueryId(0)]);
    }

    #[test]
    fn victim_selection_policies() {
        let c = [QueryId(3), QueryId(5), QueryId(9)];
        let c = || c.iter().copied();
        assert_eq!(pick_victim(c(), EvictionPolicy::Oldest, |_| 1.0), Some(QueryId(3)));
        let scores = |q: QueryId| match q.0 {
            3 => 0.8,
            5 => 0.2,
            _ => 0.5,
        };
        assert_eq!(pick_victim(c(), EvictionPolicy::LowestScore, scores), Some(QueryId(5)));
        // Ties break toward the smallest id; empty candidate set is None.
        assert_eq!(pick_victim(c(), EvictionPolicy::LowestScore, |_| 0.0), Some(QueryId(3)));
        assert_eq!(pick_victim(std::iter::empty(), EvictionPolicy::Oldest, |_| 0.0), None);
    }
}
