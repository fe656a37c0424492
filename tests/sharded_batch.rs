//! Equivalence of the monitor with a bare `Naive` engine through the
//! lifecycle layer, churn, renormalization and compaction, and across
//! restarts from captures in the shape the query-sharded builds wrote (one
//! section per shard, see `support/sections.rs`).
//!
//! Each query's score accumulates from its own registration record, so
//! neither a restart nor the sections a capture spreads its queries over
//! may change a single bit of any result. The monitor allocates public ids
//! from one monotone space, so the same registration sequence yields the
//! *same* `QueryId`s on both sides — the tests address both with one
//! handle. (The daemon's seeded simulator, `ctk_server`'s `sim` module,
//! drives the same comparison through generated op sequences and crashes.)

#[path = "support/sections.rs"]
mod sections;

use continuous_topk::prelude::*;
use proptest::prelude::*;
use sections::dealt;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(21))]

    /// TTL expiry and cap eviction, on either postings layout, must be
    /// bit-identical to an oracle that explicitly unregisters the same
    /// queries at the same publish boundaries — including across a
    /// snapshot-v3 round trip, dealt into 1 to 3 sections, into a
    /// *different* engine.
    #[test]
    fn lifecycle_matches_an_explicitly_unregistering_oracle(
        storage in prop::sample::select(PostingsStorage::ALL.to_vec()),
        sections in 1usize..4,
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
        let mut monitor =
            MonitorBuilder::new(EngineKind::Naive).lambda(lambda).postings_storage(storage).build();
        let mut single = Naive::new(lambda);
        let mut oracle =
            LifecycleOracle { meta: std::collections::HashMap::new(), expired: 0, evicted: 0 };

        // Install every policy up front (no members yet, so nothing evicts).
        let handles: Vec<Namespace> = setups
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let ns = monitor.intern_namespace(&format!("ns{i}"));
                monitor.set_retention(
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
            |monitor: &mut dyn MonitorBackend,
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
                let qid = monitor.register_with(
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
            register(&mut *monitor, &mut single, &mut oracle, terms, *k, *slot, *ttl, last_arrival);
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
            let receipt = monitor.publish_batch(batch);
            receipt_expired += receipt.stats.iter().map(|s| s.expired).sum::<u64>();

            if *reg_gate > 0 {
                register(
                    &mut *monitor, &mut single, &mut oracle, reg_terms, *reg_k, *reg_slot,
                    *reg_ttl, last_arrival,
                );
            }
        }

        // Bit-identical results for every survivor; the dead are dead on
        // both sides.
        for &qid in oracle.meta.keys() {
            prop_assert_eq!(
                monitor.results(qid),
                single.results(qid),
                "{}, query {:?}",
                storage,
                qid
            );
        }
        prop_assert_eq!(monitor.num_queries(), oracle.meta.len());
        prop_assert_eq!(monitor.lifecycle_totals(), (oracle.expired, oracle.evicted));
        // Every expiry was attributed to the (non-empty) publish that
        // triggered it.
        prop_assert_eq!(receipt_expired, oracle.expired);

        // Snapshot-v3 round trip, in `sections` sections, into MRIO:
        // results, policies and deadlines must all survive.
        let snap = dealt(&monitor.snapshot(), sections);
        prop_assert_eq!(snap.version, SNAPSHOT_VERSION);
        // Every id ever handed out answers as before, the dead ones `None`.
        let mut restored = MonitorBuilder::new(EngineKind::Mrio).lambda(lambda).restore(&snap);
        prop_assert_eq!(restored.next_query_id(), monitor.next_query_id());
        let ids: Vec<QueryId> = (0..monitor.next_query_id().0).map(QueryId).collect();
        for &qid in &ids {
            prop_assert_eq!(restored.results(qid), monitor.results(qid));
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
        monitor.publish_batch(late.clone());
        restored.publish_batch(late);
        for &qid in &ids {
            prop_assert_eq!(
                restored.results(qid).is_some(),
                monitor.results(qid).is_some(),
                "query {:?} must be alive (or dead) on both sides",
                qid
            );
        }
    }
}

/// MRIO in one deterministic test: a four-digit query population with
/// tight thresholds, register/unregister churn, a λ = 0.5 renormalization
/// crossing, threshold-triggered compaction and, halfway, a restart from
/// the monitor's capture dealt into three sections — changes and results
/// must stay bit-identical to the oracle, and the receipts' insertions
/// must add up to the oracle's.
#[test]
fn sharded_mrio_through_churn_renorm_and_compaction_stays_bit_identical() {
    let lambda = 0.5;
    let config = MonitorBuilder::new(EngineKind::Mrio).lambda(lambda).compact_at(0.15);
    let mut monitor = config.build();
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
        let qid = monitor.register(spec.clone());
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
    let mut all_changes_monitor: Vec<ResultChange> = Vec::new();
    let mut all_changes_single: Vec<ResultChange> = Vec::new();
    let mut monitor_updates = 0u64;
    let mk = |terms: &[(u32, f32)], at: f64| {
        (terms.iter().map(|&(t, w)| (TermId(t), w)).collect::<Vec<_>>(), at)
    };
    for round in 0..10u64 {
        if round == 5 {
            monitor = config.restore(&dealt(&monitor.snapshot(), 3));
        }
        // Churn between batches: retire a slab (tombstones for compaction).
        if round > 0 {
            for _ in 0..25 {
                let qid = live.remove((round as usize * 7) % live.len());
                assert!(monitor.unregister(qid));
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
            let receipt = monitor.publish_batch(batch);
            monitor_updates += receipt.merged_stats().updates;
            all_changes_monitor.extend(receipt.changes);
        }
    }
    assert!(single.cumulative().renormalizations > 0, "the stream must cross a renorm");

    // Bit-identical outcomes, change for change...
    assert_eq!(all_changes_monitor, all_changes_single);
    for qid in &live {
        assert_eq!(monitor.results(*qid), single.results(*qid), "query {qid}");
    }
    // ...and every insertion was reported exactly once.
    assert_eq!(monitor_updates, single.cumulative().updates);
}

/// The storage-subsystem scenario in one deterministic test: every postings
/// backend (plain Vec, compressed blocks) driven through registration
/// churn, threshold-triggered compaction and a λ = 0.5 renormalization
/// crossing — all against one plain-storage `Naive` oracle. Results must
/// stay bit-identical: the storage layer is a representation choice, never
/// a semantics choice.
#[test]
fn storage_backends_stay_bit_identical_across_compaction_and_renorm() {
    let lambda = 0.5;
    let mk = |terms: &[(u32, f32)], at: f64| {
        (terms.iter().map(|&(t, w)| (TermId(t), w)).collect::<Vec<_>>(), at)
    };
    for storage in PostingsStorage::ALL {
        let cfg = StorageConfig::new(storage);
        let mut monitor = Monitor::new(Naive::with_storage(lambda, &cfg)).with_compaction(0.15);
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
            let qid = monitor.register(spec.clone());
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
                    assert!(monitor.unregister(qid));
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
            monitor.publish_batch(docs);
        }
        assert!(single.cumulative().renormalizations > 0, "stream must cross a renorm");

        for qid in &live {
            assert_eq!(
                monitor.results(*qid),
                single.results(*qid),
                "storage {storage}, query {qid}"
            );
        }
        assert!(monitor.storage_stats().index_bytes > 0);
    }
}
