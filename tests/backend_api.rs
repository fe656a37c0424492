//! The unified `MonitorBackend` contract, end to end.
//!
//! One test body — registrations with churn, single publishes, batched
//! publishes, receipt bookkeeping — parameterized **only** by a
//! [`MonitorBuilder`] configuration, runs against the `Naive` oracle for
//! the single-engine monitor and the sharded monitor alike: same public
//! query ids, same document ids, the same changes (as sets), bit-identical
//! results. Plus the sharded snapshot → restore cycle across *different*
//! shard counts, verified against an oracle that never went down.

use continuous_topk::prelude::*;

fn corpus(seed: u64) -> CorpusConfig {
    CorpusConfig { vocab_size: 2_000, avg_tokens: 50, seed, ..CorpusConfig::default() }
}

fn specs(n: usize, seed: u64) -> Vec<QuerySpec> {
    let cfg = WorkloadConfig {
        workload: QueryWorkload::Connected,
        terms_min: 2,
        terms_max: 4,
        k: 4,
        seed,
    };
    QueryGenerator::new(cfg, &corpus(seed)).generate_batch(n)
}

fn sorted_changes(mut changes: Vec<ResultChange>) -> Vec<ResultChange> {
    changes.sort_by_key(|c| (c.query, c.inserted.doc));
    changes
}

/// Each round's batched publish as one call of 40 documents.
const WHOLE: &[usize] = &[40];

/// Each round's batched publishes cycling through sizes 1, 7 and 64: 72
/// documents a round, so the 308 unit-clock documents of a λ = 0.5 run
/// cross a renormalization.
const SIZES: &[usize] = &[1, 7, 64];

fn backend_matches_oracle(config: MonitorBuilder, lambda: f64, sizes: &[usize]) {
    runs_like_the_oracle(config.lambda(lambda).build(), lambda, sizes);
}

/// One query-sharded worker. The builder maps `shards(1)` to the in-thread
/// engine, so the threaded runtime's single-worker form is built directly.
fn one_worker(lambda: f64) -> ShardedMonitor {
    ShardedMonitor::new(1, move || MrioSeg::new(lambda))
}

/// The shared test body: everything it does goes through `dyn
/// MonitorBackend`, so the only degrees of freedom are the backend's
/// configuration and the sizes of the batched publishes.
fn runs_like_the_oracle(mut backend: Box<dyn MonitorBackend + Send>, lambda: f64, sizes: &[usize]) {
    let mut oracle = MonitorBuilder::new(EngineKind::Naive).lambda(lambda).build();

    let all_specs = specs(60, 42);
    let mut qids: Vec<QueryId> = Vec::new();
    for s in &all_specs {
        let qid = backend.register(s.clone());
        assert_eq!(qid, oracle.register(s.clone()), "one monotone public id space");
        qids.push(qid);
    }

    let mut driver = StreamDriver::new(corpus(42), ArrivalClock::unit());
    for round in 0..4u32 {
        // Churn a few queries between batches.
        for q in (round * 12)..(round * 12 + 5) {
            assert!(backend.unregister(QueryId(q)));
            assert!(oracle.unregister(QueryId(q)));
        }
        let fresh = specs(2, 1000 + round as u64);
        for s in fresh {
            let qid = backend.register(s.clone());
            assert_eq!(qid, oracle.register(s));
            qids.push(qid);
        }

        // Batched publishes...
        for &size in sizes {
            let batch = PublishRequest::from(driver.take_batch(size).as_slice());
            let ra = backend.publish_request(batch.clone());
            let rb = oracle.publish_request(batch);
            assert_eq!(ra.doc_ids, rb.doc_ids, "same id allocation, round {round}");
            assert_eq!(
                sorted_changes(ra.changes),
                sorted_changes(rb.changes),
                "same change set, round {round}"
            );
            assert_eq!(
                ra.stats.iter().map(|e| e.updates).collect::<Vec<_>>(),
                rb.stats.iter().map(|e| e.updates).collect::<Vec<_>>(),
                "same per-document insertion counts, round {round}"
            );
        }

        // ...and a few single publishes through the same surface.
        for d in driver.take_batch(5) {
            let pairs: Vec<(TermId, f32)> = d.vector.iter().collect();
            let ra = backend.publish(pairs.clone(), d.arrival);
            let rb = oracle.publish(pairs, d.arrival);
            assert_eq!(ra.doc_ids, rb.doc_ids);
            assert_eq!(sorted_changes(ra.changes), sorted_changes(rb.changes));
        }
    }

    // Bit-identical results for every query, live or gone.
    for qid in &qids {
        assert_eq!(backend.results(*qid), oracle.results(*qid), "query {qid}");
    }
    assert_eq!(backend.num_queries(), oracle.num_queries());
}

#[test]
fn single_engine_backend_matches_oracle() {
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio), 1e-3, WHOLE);
}

#[test]
fn sharded_backend_matches_oracle() {
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).shards(4), 1e-3, WHOLE);
}

#[test]
fn sharded_publishes_of_every_size_match_oracle() {
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).shards(4), 1e-3, SIZES);
}

#[test]
fn single_worker_sharded_backend_matches_oracle() {
    // Every document still crosses the worker channel and the merge, with
    // nothing to partition.
    runs_like_the_oracle(Box::new(one_worker(1e-3)), 1e-3, WHOLE);
}

#[test]
fn backend_matches_oracle_across_renormalization() {
    // λ = 0.5 with the default headroom of 60 renormalizes once arrivals
    // pass 120 — the 180 unit-clock documents cross it on every backend.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).shards(2), 0.5, WHOLE);
}

#[test]
fn compacting_backend_matches_oracle() {
    // The churn in the shared body leaves ~30% tombstones; a 0.15 threshold
    // forces several compactions without changing any result.
    backend_matches_oracle(
        MonitorBuilder::new(EngineKind::Mrio).shards(2).compact_at(0.15),
        1e-3,
        WHOLE,
    );
}

// --- the stressors combined ---

#[test]
fn sharded_publishes_of_every_size_match_oracle_across_renormalization() {
    // The renormalization lands inside one of the publishes; every shard
    // must cross it at the same document.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).shards(4), 0.5, SIZES);
}

#[test]
fn three_shard_publishes_of_every_size_match_oracle_across_renormalization() {
    // Three shards split the population unevenly.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).shards(3), 0.5, SIZES);
}

#[test]
fn descending_publish_sizes_match_oracle() {
    // The largest publish lands right after the churn, the single
    // documents last.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).shards(2), 1e-3, &[64, 7, 1]);
}

#[test]
fn compacting_backend_matches_oracle_across_renormalization() {
    // Registrations land after compactions that follow renormalizations;
    // every shard's index must stay aligned with its result sets.
    backend_matches_oracle(
        MonitorBuilder::new(EngineKind::Mrio).shards(2).compact_at(0.15),
        0.5,
        WHOLE,
    );
}

#[test]
fn single_engine_compacting_backend_matches_oracle_across_renormalization() {
    // The in-thread runtime's own compaction policy, between
    // renormalizations.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).compact_at(0.15), 0.5, WHOLE);
}

#[test]
fn compacting_publishes_of_every_size_match_oracle() {
    // A single-document publish is a batch boundary too: compaction may
    // run between any two documents.
    backend_matches_oracle(
        MonitorBuilder::new(EngineKind::Mrio).shards(2).compact_at(0.15),
        1e-3,
        SIZES,
    );
}

#[test]
fn single_worker_compacting_publishes_of_every_size_match_oracle() {
    let mut sharded = one_worker(1e-3);
    sharded.set_compaction_threshold(0.15);
    runs_like_the_oracle(Box::new(sharded), 1e-3, SIZES);
}

/// Snapshot under one configuration, restore under another (different
/// shard count), verified against an oracle that never restarted, id for
/// id — including the ids removed before the capture, and on the
/// continuation stream.
fn snapshot_rebalances_across(
    from: MonitorBuilder,
    expected_sections: usize,
    to: MonitorBuilder,
    to_shards: usize,
) {
    let lambda = 1e-3;
    let mut source = from.lambda(lambda).build();
    let mut oracle = MonitorBuilder::new(EngineKind::Naive).lambda(lambda).build();

    let all_specs = specs(80, 7);
    let qids: Vec<QueryId> = all_specs
        .iter()
        .map(|s| {
            let qid = source.register(s.clone());
            assert_eq!(qid, oracle.register(s.clone()));
            qid
        })
        .collect();

    let mut driver = StreamDriver::new(corpus(7), ArrivalClock::unit());
    let batch: Vec<(Vec<(TermId, f32)>, Timestamp)> = driver
        .take_batch(250)
        .into_iter()
        .map(|d| (d.vector.iter().collect(), d.arrival))
        .collect();
    source.publish_batch(batch.clone());
    oracle.publish_batch(batch);
    // Remove every ninth query and the last one, so the captured ids have
    // gaps and a removed tail.
    for qid in qids.iter().step_by(9).chain(qids.last()) {
        assert!(source.unregister(*qid) && oracle.unregister(*qid));
    }
    let live = oracle.num_queries();

    // Capture → JSON → restore into the other configuration.
    let snap = source.snapshot();
    assert_eq!(snap.shards.len(), expected_sections, "sections mirror the source partitioning");
    assert_eq!(snap.num_queries(), live);
    let parsed = Snapshot::from_json(&snap.to_json().unwrap()).unwrap();
    let mut restored = to.restore(&parsed);
    assert_eq!(restored.shards(), to_shards);
    assert_eq!(restored.num_queries(), live);
    assert_eq!(restored.next_query_id(), source.next_query_id());

    for qid in &qids {
        assert_eq!(restored.results(*qid), source.results(*qid), "restored query {qid}");
        assert_eq!(restored.results(*qid), oracle.results(*qid), "restored query {qid}");
    }

    // The restored, re-partitioned deployment continues bit-identically.
    let tail: Vec<(Vec<(TermId, f32)>, Timestamp)> = driver
        .take_batch(100)
        .into_iter()
        .map(|d| (d.vector.iter().collect(), d.arrival))
        .collect();
    let ra = restored.publish_batch(tail.clone());
    let rb = oracle.publish_batch(tail);
    assert_eq!(ra.doc_ids, rb.doc_ids, "id allocation resumes from the snapshot position");
    let spec = all_specs[0].clone();
    assert_eq!(restored.register(spec.clone()), oracle.register(spec), "ids are never reused");
    for qid in &qids {
        assert_eq!(restored.results(*qid), oracle.results(*qid), "continued query {qid}");
    }
}

#[test]
fn snapshot_restores_from_one_shard_to_four() {
    snapshot_rebalances_across(
        MonitorBuilder::new(EngineKind::Mrio).shards(1),
        1,
        MonitorBuilder::new(EngineKind::Mrio).shards(4),
        4,
    );
}

#[test]
fn snapshot_restores_from_four_shards_to_two() {
    snapshot_rebalances_across(
        MonitorBuilder::new(EngineKind::Mrio).shards(4),
        4,
        MonitorBuilder::new(EngineKind::Mrio).shards(2),
        2,
    );
}

#[test]
fn snapshot_restores_from_four_shards_to_three() {
    // Four sections do not divide evenly over three workers.
    snapshot_rebalances_across(
        MonitorBuilder::new(EngineKind::Mrio).shards(4),
        4,
        MonitorBuilder::new(EngineKind::Mrio).shards(3),
        3,
    );
}

#[test]
fn snapshot_restores_from_three_shards_onto_the_single_engine() {
    // Three sections fold back into the in-thread runtime's one.
    snapshot_rebalances_across(
        MonitorBuilder::new(EngineKind::Mrio).shards(3),
        3,
        MonitorBuilder::new(EngineKind::Mrio),
        1,
    );
}

/// `Namespace(pub u16)` is constructible by anyone. A handle the backend
/// never interned is refused at the front-end's door — a panic naming the
/// handle — before the runtime sees the call, so the backend stays usable
/// and consistent afterwards, whichever runtime sits behind it.
#[test]
fn un_interned_namespace_handles_are_refused_before_any_state_changes() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let bogus = Namespace(7);
    let spec = || QuerySpec::uniform(&[TermId(1)], 1).unwrap();
    let policy =
        RetentionPolicy { max_age: None, max_queries: Some(1), eviction: EvictionPolicy::Oldest };
    let single = MonitorBuilder::new(EngineKind::Mrio);
    for config in [single.clone(), single.shards(2)] {
        let mut backend = config.build();
        let kept = backend.register(spec());
        type Call<'a> = Box<dyn FnOnce(&mut dyn MonitorBackend) + 'a>;
        let refused: [(&str, Call); 3] = [
            (
                "register_with",
                Box::new(|b| {
                    b.register_with(spec(), QueryOptions { namespace: bogus, max_age: None });
                }),
            ),
            ("set_retention", Box::new(|b| b.set_retention(bogus, policy))),
            (
                "forget_namespace",
                Box::new(|b| {
                    b.forget_namespace(bogus);
                }),
            ),
        ];
        for (call, f) in refused {
            let panic = catch_unwind(AssertUnwindSafe(|| f(&mut *backend)))
                .expect_err("an un-interned handle must be refused");
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(
                message.contains("ns7") && message.contains("never interned"),
                "{call}: {message}"
            );
            assert_eq!(backend.num_queries(), 1, "{call} must leave the population untouched");
        }
        // Engine and lifecycle still agree: the next registration gets the
        // next id and publishes reach both queries.
        let next = backend.register(spec());
        assert_eq!(next, QueryId(kept.0 + 1));
        let receipt = backend.publish(vec![(TermId(1), 1.0)], 0.0);
        assert_eq!(receipt.changes.len(), 2);
    }
}

/// The largest queries `QuerySpec` admits: `k = QuerySpec::MAX_K`, and a
/// vector of 65 536 terms, longer than a `u16` can count and than a whole
/// record-arena chunk. Both register and publish on every postings
/// backend, bit-identical to the oracle, beside ordinary queries.
#[test]
fn the_largest_valid_queries_match_oracle_on_every_storage() {
    let terms = 1u32 << 16;
    let wide = QuerySpec::uniform(&(0..terms).map(TermId).collect::<Vec<_>>(), 3).unwrap();
    let deep = QuerySpec::uniform(&[TermId(1), TermId(2)], QuerySpec::MAX_K).unwrap();
    let queries = [specs(5, 7), vec![wide, deep], specs(5, 8)].concat();
    for storage in PostingsStorage::ALL {
        let mut backend = MonitorBuilder::new(EngineKind::Mrio).postings_storage(storage).build();
        let mut oracle = MonitorBuilder::new(EngineKind::Naive).build();
        for spec in &queries {
            assert_eq!(backend.register(spec.clone()), oracle.register(spec.clone()));
        }
        let mut driver = StreamDriver::new(corpus(7), ArrivalClock::unit());
        for (i, d) in driver.take_batch(30).into_iter().enumerate() {
            let mut pairs: Vec<(TermId, f32)> = d.vector.iter().collect();
            let extra = TermId(1 + i as u32 % 2);
            if !pairs.iter().any(|&(t, _)| t == extra) {
                pairs.push((extra, 0.5));
            }
            let ra = backend.publish(pairs.clone(), d.arrival);
            let rb = oracle.publish(pairs, d.arrival);
            assert_eq!(sorted_changes(ra.changes), sorted_changes(rb.changes), "{storage}");
        }
        for qid in 0..queries.len() as u32 {
            assert_eq!(backend.results(QueryId(qid)), oracle.results(QueryId(qid)), "{storage}");
        }
    }
}
