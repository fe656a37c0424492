//! Equivalence of the query-sharded runtime with a single `Naive` engine,
//! through the lifecycle layer, churn, renormalization and compaction.
//!
//! Each query's score accumulates from its own registration record, so
//! partitioning queries across shards must not change a single bit of any
//! result. Since the sharded monitor allocates public ids from one
//! monotone space, the same registration sequence yields the *same*
//! `QueryId`s on both front-ends — the tests address both with one handle.
//! (The daemon's seeded simulator, `ctk_server`'s `sim` module, drives the
//! same comparison through generated op sequences and crashes.)

use continuous_topk::prelude::*;
use proptest::prelude::*;

type RawVec = Vec<(u32, f32)>;

fn make_spec(terms: &RawVec, k: usize) -> Option<QuerySpec> {
    QuerySpec::new(terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), k).ok()
}

/// One namespace's sampled retention setup for the lifecycle proptest.
#[derive(Debug, Clone)]
struct NsSetup {
    max_age: Option<f64>,
    max_queries: Option<u64>,
    eviction: EvictionPolicy,
}

/// The oracle's replica of the lifecycle rules: who belongs where, when
/// each query dies, what has been counted. Everything it does to the
/// `Naive` engine is an explicit `unregister` at a batch boundary — the
/// exact claim under test is that the monitor's expiry/eviction is nothing
/// more than that.
struct LifecycleOracle {
    /// Per live query: `(namespace index, deadline)`.
    meta: std::collections::HashMap<QueryId, (usize, Option<f64>)>,
    expired: u64,
    evicted: u64,
}

impl LifecycleOracle {
    fn members(&self, ns: usize) -> Vec<QueryId> {
        let mut m: Vec<QueryId> =
            self.meta.iter().filter(|(_, &(n, _))| n == ns).map(|(&q, _)| q).collect();
        m.sort_unstable();
        m
    }
}

/// The front-end axis of the lifecycle proptest: every runtime the one
/// front-end can sit on, at every small shard count.
#[derive(Debug, Clone, Copy)]
enum Front {
    /// The in-thread single engine (what `ctk-serve --shards 1` runs).
    Single,
    Queries(usize),
}

impl Front {
    const ALL: [Front; 4] =
        [Front::Single, Front::Queries(1), Front::Queries(2), Front::Queries(3)];

    fn build(self, lambda: f64) -> Box<dyn MonitorBackend + Send> {
        match self {
            Front::Single => MonitorBuilder::new(EngineKind::Naive).lambda(lambda).build(),
            // The builder maps one query shard to the single engine, so the
            // one-worker threaded runtime is constructed directly.
            Front::Queries(shards) => {
                Box::new(ShardedMonitor::new(shards, move || Naive::new(lambda)))
            }
        }
    }

    /// A differently shaped restore target: another shard count, so every
    /// front restores across a re-partitioning (and the two-shard one back
    /// onto the single engine).
    fn other(self, lambda: f64) -> MonitorBuilder {
        let shards = match self {
            Front::Single => 3,
            Front::Queries(2) => 1,
            Front::Queries(_) => 2,
        };
        MonitorBuilder::new(EngineKind::Mrio).lambda(lambda).shards(shards)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(21))]

    /// TTL expiry and cap eviction, on every runtime behind the one
    /// front-end, must be bit-identical to an oracle that explicitly
    /// unregisters the same queries at the same publish boundaries —
    /// including across a snapshot-v3 round trip into a *different* backend
    /// configuration.
    #[test]
    fn lifecycle_matches_an_explicitly_unregistering_oracle(
        front in prop::sample::select(Front::ALL.to_vec()),
        setups in prop::collection::vec(
            (
                prop::option::of(4.0f64..30.0),
                prop::option::of(1u64..4),
                prop::sample::select(vec![EvictionPolicy::Oldest, EvictionPolicy::LowestScore]),
            ),
            1..4,
        ),
        initial in prop::collection::vec(
            // (terms, k, namespace slot, per-query TTL override)
            (
                prop::collection::vec((0u32..30, 0.1f32..2.0), 1..4),
                1usize..4,
                0usize..8,
                prop::option::of(3.0f64..25.0),
            ),
            3..10,
        ),
        rounds in prop::collection::vec(
            (
                // This round's documents (arrivals advance 1.0 per doc).
                prop::collection::vec(prop::collection::vec((0u32..30, 0.1f32..2.0), 1..6), 1..8),
                // A candidate registration, applied when gate > 0.
                (
                    prop::collection::vec((0u32..30, 0.1f32..2.0), 1..4),
                    1usize..4,
                    0usize..8,
                    prop::option::of(3.0f64..25.0),
                ),
                0usize..3,
            ),
            2..7,
        ),
        lambda in prop::sample::select(vec![0.0, 0.05]),
    ) {
        let setups: Vec<NsSetup> = setups
            .into_iter()
            .map(|(max_age, max_queries, eviction)| NsSetup { max_age, max_queries, eviction })
            .collect();
        let mut sharded = front.build(lambda);
        let mut single = Naive::new(lambda);
        let mut oracle =
            LifecycleOracle { meta: std::collections::HashMap::new(), expired: 0, evicted: 0 };

        // Install every policy up front (no members yet, so nothing evicts).
        let handles: Vec<Namespace> = setups
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let ns = sharded.intern_namespace(&format!("ns{i}"));
                sharded.set_retention(
                    ns,
                    RetentionPolicy {
                        max_age: s.max_age,
                        max_queries: s.max_queries,
                        eviction: s.eviction,
                    },
                );
                ns
            })
            .collect();

        let mut last_arrival = 0.0f64;
        let mut next_doc = 0u64;
        let mut receipt_expired = 0u64;

        // Register on both front-ends, replicate deadline + cap eviction on
        // the oracle with explicit unregisters.
        let register =
            |sharded: &mut dyn MonitorBackend,
             single: &mut Naive,
             oracle: &mut LifecycleOracle,
             terms: &RawVec,
             k: usize,
             slot: usize,
             ttl: Option<f64>,
             last_arrival: f64|
             -> Option<QueryId> {
                let spec = make_spec(terms, k)?;
                let ns_idx = slot % setups.len();
                let qid = sharded.register_with(
                    spec.clone(),
                    QueryOptions { namespace: handles[ns_idx], max_age: ttl },
                );
                assert_eq!(qid, single.register(spec), "one monotone public id space");
                let setup = &setups[ns_idx];
                let deadline = ttl.or(setup.max_age).map(|age| last_arrival + age);
                oracle.meta.insert(qid, (ns_idx, deadline));
                if let Some(cap) = setup.max_queries {
                    loop {
                        let members = oracle.members(ns_idx);
                        if members.len() as u64 <= cap {
                            break;
                        }
                        let candidates: Vec<QueryId> =
                            members.into_iter().filter(|&q| q != qid).collect();
                        let victim = match setup.eviction {
                            EvictionPolicy::Oldest => candidates[0],
                            EvictionPolicy::LowestScore => *candidates
                                .iter()
                                .min_by(|&&a, &&b| {
                                    let top = |q: QueryId| {
                                        single
                                            .results(q)
                                            .and_then(|r| r.first().map(|sd| sd.score.get()))
                                            .unwrap_or(0.0)
                                    };
                                    (top(a), a).partial_cmp(&(top(b), b)).unwrap()
                                })
                                .unwrap(),
                        };
                        assert!(single.unregister(victim));
                        oracle.meta.remove(&victim);
                        oracle.evicted += 1;
                    }
                }
                Some(qid)
            };

        for (terms, k, slot, ttl) in &initial {
            register(&mut *sharded, &mut single, &mut oracle, terms, *k, *slot, *ttl, last_arrival);
        }
        prop_assume!(!oracle.meta.is_empty());

        for (doc_batches, (reg_terms, reg_k, reg_slot, reg_ttl), reg_gate) in &rounds {
            // Publish boundary: the oracle expires first — strictly-before
            // the batch's first arrival, exactly the monitor's rule.
            let first_arrival = last_arrival + 1.0;
            let mut due: Vec<QueryId> = oracle
                .meta
                .iter()
                .filter(|(_, &(_, dl))| dl.is_some_and(|dl| dl < first_arrival))
                .map(|(&q, _)| q)
                .collect();
            due.sort_unstable();
            for qid in due {
                assert!(single.unregister(qid));
                oracle.meta.remove(&qid);
                oracle.expired += 1;
            }

            let batch: Vec<(Vec<(TermId, f32)>, f64)> = doc_batches
                .iter()
                .map(|pairs| {
                    last_arrival += 1.0;
                    next_doc += 1;
                    (
                        pairs.iter().map(|&(t, w)| (TermId(t), w)).collect::<Vec<_>>(),
                        last_arrival,
                    )
                })
                .collect();
            let base = next_doc - batch.len() as u64;
            for (i, (pairs, at)) in batch.iter().enumerate() {
                single.process(&Document::new(DocId(base + i as u64), pairs.clone(), *at));
            }
            let receipt = sharded.publish_batch(batch);
            receipt_expired += receipt.stats.iter().map(|s| s.expired).sum::<u64>();

            if *reg_gate > 0 {
                register(
                    &mut *sharded, &mut single, &mut oracle, reg_terms, *reg_k, *reg_slot,
                    *reg_ttl, last_arrival,
                );
            }
        }

        // Bit-identical results for every survivor; the dead are dead on
        // both sides.
        for &qid in oracle.meta.keys() {
            prop_assert_eq!(
                sharded.results(qid),
                single.results(qid),
                "{:?}, query {:?}",
                front,
                qid
            );
        }
        prop_assert_eq!(sharded.num_queries(), oracle.meta.len());
        prop_assert_eq!(sharded.lifecycle_totals(), (oracle.expired, oracle.evicted));
        // Every expiry was attributed to the (non-empty) publish that
        // triggered it.
        prop_assert_eq!(receipt_expired, oracle.expired);

        // Snapshot-v3 round trip into a different shard count: results,
        // policies and deadlines must all survive.
        let snap = sharded.snapshot();
        prop_assert_eq!(snap.version, SNAPSHOT_VERSION);
        // Every id ever handed out answers as before, the dead ones `None`.
        let mut restored = front.other(lambda).restore(&snap);
        prop_assert_eq!(restored.next_query_id(), sharded.next_query_id());
        let ids: Vec<QueryId> = (0..sharded.next_query_id().0).map(QueryId).collect();
        for &qid in &ids {
            prop_assert_eq!(restored.results(qid), sharded.results(qid));
        }
        for (i, s) in setups.iter().enumerate() {
            let ns = restored.find_namespace(&format!("ns{i}"));
            prop_assert!(ns.is_some(), "policy namespaces survive the round trip");
            let policy = restored.retention(ns.unwrap());
            prop_assert_eq!(policy.map(|p| (p.max_age, p.max_queries)),
                Some((s.max_age, s.max_queries)));
        }
        // A far-future publish expires the same queries on both sides:
        // deadlines survived the round trip bit-exactly.
        let late = vec![(vec![(TermId(0), 1.0)], last_arrival + 1000.0)];
        sharded.publish_batch(late.clone());
        restored.publish_batch(late);
        for &qid in &ids {
            prop_assert_eq!(
                restored.results(qid).is_some(),
                sharded.results(qid).is_some(),
                "query {:?} must be alive (or dead) on both sides",
                qid
            );
        }
    }
}

/// Query-sharded MRIO in one deterministic test: a four-digit query
/// population with tight thresholds, register/unregister churn, a λ = 0.5
/// renormalization crossing and threshold-triggered compaction — changes
/// and results must stay bit-identical to the oracle, and the shards'
/// insertions must add up to the oracle's.
#[test]
fn sharded_mrio_through_churn_renorm_and_compaction_stays_bit_identical() {
    let lambda = 0.5;
    let mut sharded = ShardedMonitor::new(3, move || MrioSeg::new(lambda));
    sharded.set_compaction_threshold(0.15);
    let mut single = Naive::new(lambda);

    // A homogeneous block of queries over two hot terms (contiguous ids ⇒
    // homogeneous zones), plus a fringe over rarer terms.
    let mut live: Vec<QueryId> = Vec::new();
    for i in 0..1200u32 {
        let spec = if i % 4 == 3 {
            QuerySpec::uniform(&[TermId(1), TermId(10 + i % 7)], 1).unwrap()
        } else {
            QuerySpec::uniform(&[TermId(1), TermId(2)], 1).unwrap()
        };
        let qid = sharded.register(spec.clone());
        assert_eq!(qid, single.register(spec));
        live.push(qid);
    }

    // Each round: one perfect match re-tightens every threshold, then a
    // burst of weak documents arrives *shortly after* it — under λ = 0.5
    // a 4.5×-weaker document only overtakes a strong incumbent once
    // e^(λ·Δτ) exceeds the strength ratio (Δτ ≈ 7.5), so the sub-unit
    // burst spacing keeps every weak document out and the zone bounds
    // prune it. Rounds advance the clock 16 units, so round 8 crosses the
    // λ·Δτ > 60 renormalization headroom (t > 120) mid-stream.
    let mut next_doc = 0u64;
    let mut all_changes_sharded: Vec<ResultChange> = Vec::new();
    let mut all_changes_single: Vec<ResultChange> = Vec::new();
    let mk = |terms: &[(u32, f32)], at: f64| {
        (terms.iter().map(|&(t, w)| (TermId(t), w)).collect::<Vec<_>>(), at)
    };
    for round in 0..10u64 {
        // Churn between batches: retire a slab (tombstones for compaction).
        if round > 0 {
            for _ in 0..25 {
                let qid = live.remove((round as usize * 7) % live.len());
                assert!(sharded.unregister(qid));
                assert!(single.unregister(qid));
            }
        }
        let t0 = round as f64 * 16.0;
        let strong = vec![mk(&[(1, 1.0), (2, 1.0)], t0)];
        let weak: Vec<_> =
            (0..19).map(|i| mk(&[(1, 0.1), (9, 3.0)], t0 + 0.05 * (i + 1) as f64)).collect();
        for batch in [strong, weak] {
            for (pairs, at) in &batch {
                single.process(&Document::new(DocId(next_doc), pairs.clone(), *at));
                next_doc += 1;
                all_changes_single.extend_from_slice(single.last_changes());
            }
            all_changes_sharded.extend(sharded.publish_batch(batch).changes);
        }
    }
    assert!(single.cumulative().renormalizations > 0, "the stream must cross a renorm");

    // Bit-identical outcomes: changes are grouped by shard within a batch,
    // so compare them as sets...
    let canon = |mut changes: Vec<ResultChange>| {
        changes.sort_by_key(|c| (c.inserted.doc, c.query));
        changes
    };
    assert_eq!(canon(all_changes_sharded), canon(all_changes_single));
    for qid in &live {
        assert_eq!(sharded.results(*qid), single.results(*qid), "query {qid}");
    }
    // ...and every insertion happened in exactly one shard.
    let per_shard = sharded.shard_cumulative();
    let updates: u64 = per_shard.iter().map(|c| c.updates).sum();
    assert_eq!(updates, single.cumulative().updates);
}

/// The storage-subsystem scenario in one deterministic test: every postings
/// backend (plain Vec, compressed blocks), sharded over two workers, driven through
/// registration churn, threshold-triggered compaction and a λ = 0.5
/// renormalization crossing — all against one plain-storage `Naive` oracle.
/// Results must stay bit-identical: the storage layer is a representation
/// choice, never a semantics choice.
#[test]
fn storage_backends_stay_bit_identical_across_compaction_and_renorm() {
    let lambda = 0.5;
    let mk = |terms: &[(u32, f32)], at: f64| {
        (terms.iter().map(|&(t, w)| (TermId(t), w)).collect::<Vec<_>>(), at)
    };
    for storage in PostingsStorage::ALL {
        let cfg = StorageConfig::new(storage);
        let mut sharded = ShardedMonitor::new(2, || Naive::with_storage(lambda, &cfg));
        sharded.set_compaction_threshold(0.15);
        let mut single = Naive::new(lambda);

        // Two hot terms shared by most queries (their lists seal many
        // blocks) plus a fringe of short lists that never seal.
        let mut live: Vec<QueryId> = Vec::new();
        for i in 0..600u32 {
            let spec = if i % 4 == 3 {
                QuerySpec::uniform(&[TermId(1), TermId(10 + i % 7)], 1).unwrap()
            } else {
                QuerySpec::uniform(&[TermId(1), TermId(2)], 1).unwrap()
            };
            let qid = sharded.register(spec.clone());
            assert_eq!(qid, single.register(spec));
            live.push(qid);
        }

        // Rounds advance the clock 16 units; round 8 crosses the
        // λ·Δτ > 60 renormalization headroom (t > 120) mid-stream, and
        // per-round unregister slabs push tombstone ratios over the
        // compaction threshold — so sealed blocks get re-encoded while
        // the stream is still running.
        let mut next_doc = 0u64;
        for round in 0..9u64 {
            if round > 0 {
                for _ in 0..20 {
                    let qid = live.remove((round as usize * 7) % live.len());
                    assert!(sharded.unregister(qid));
                    assert!(single.unregister(qid));
                }
            }
            let t0 = round as f64 * 16.0;
            let docs: Vec<_> = (0..12)
                .map(|i| {
                    let terms: &[(u32, f32)] =
                        if i % 3 == 0 { &[(1, 1.0), (2, 1.0)] } else { &[(1, 0.2), (12, 2.0)] };
                    mk(terms, t0 + 0.1 * i as f64)
                })
                .collect();
            for (pairs, at) in &docs {
                single.process(&Document::new(DocId(next_doc), pairs.clone(), *at));
                next_doc += 1;
            }
            sharded.publish_batch(docs);
        }
        assert!(single.cumulative().renormalizations > 0, "stream must cross a renorm");

        for qid in &live {
            assert_eq!(
                sharded.results(*qid),
                single.results(*qid),
                "storage {storage}, query {qid}"
            );
        }
        assert!(sharded.storage_stats().index_bytes > 0);
    }
}
