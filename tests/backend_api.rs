//! The unified `MonitorBackend` contract, end to end.
//!
//! One test body — registrations with churn, single publishes, batched
//! publishes, receipt bookkeeping — parameterized **only** by a
//! [`MonitorBuilder`] configuration, runs against the `Naive` oracle: same
//! public query ids, same document ids, the same changes (as sets),
//! bit-identical results. The `sharded_*` cases restart the backend
//! mid-stream from its capture dealt into one section per shard, the shape
//! the query-sharded builds wrote, so such old captures stay restorable
//! onto the one engine. Plus a snapshot → restore cycle from such a
//! capture, verified against an oracle that never went down.

#[path = "support/sections.rs"]
mod sections;

use continuous_topk::prelude::*;
use sections::dealt;

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
    runs_like_the_oracle(config.lambda(lambda), sizes, None);
}

/// The shared body, with the backend restarted after its second round
/// from its capture dealt into `sections` sections.
fn restored_backend_matches_oracle(
    config: MonitorBuilder,
    lambda: f64,
    sizes: &[usize],
    sections: usize,
) {
    runs_like_the_oracle(config.lambda(lambda), sizes, Some(sections));
}

/// The shared test body: everything it does goes through `dyn
/// MonitorBackend`, so the only degrees of freedom are the backend's
/// configuration, the sizes of the batched publishes, and whether (and
/// from how many sections) the backend is restored halfway.
fn runs_like_the_oracle(config: MonitorBuilder, sizes: &[usize], restart: Option<usize>) {
    let mut backend = config.build();
    let mut oracle = MonitorBuilder::new(EngineKind::Naive).lambda(backend.lambda()).build();

    let all_specs = specs(60, 42);
    let mut qids: Vec<QueryId> = Vec::new();
    for s in &all_specs {
        let qid = backend.register(s.clone());
        assert_eq!(qid, oracle.register(s.clone()), "one monotone public id space");
        qids.push(qid);
    }

    let mut driver = StreamDriver::new(corpus(42), ArrivalClock::unit());
    for round in 0..4u32 {
        if let (2, Some(sections)) = (round, restart) {
            let capture = dealt(&backend.snapshot(), sections);
            let text = capture.to_json().unwrap();
            backend = config.restore(&Snapshot::from_json(&text).unwrap());
        }
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
    restored_backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio), 1e-3, WHOLE, 4);
}

#[test]
fn sharded_publishes_of_every_size_match_oracle() {
    restored_backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio), 1e-3, SIZES, 4);
}

#[test]
fn single_worker_sharded_backend_matches_oracle() {
    // The capture of a one-shard build: the monitor's own one section.
    restored_backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio), 1e-3, WHOLE, 1);
}

#[test]
fn backend_matches_oracle_across_renormalization() {
    // λ = 0.5 with the default headroom of 60 renormalizes once arrivals
    // pass 120 — the 180 unit-clock documents cross it.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio), 0.5, WHOLE);
}

#[test]
fn compacting_backend_matches_oracle() {
    // The churn in the shared body leaves ~30% tombstones; a 0.15 threshold
    // forces several compactions without changing any result.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).compact_at(0.15), 1e-3, WHOLE);
}

// --- the stressors combined ---

#[test]
fn sharded_publishes_of_every_size_match_oracle_across_renormalization() {
    // The capture is taken past the renormalization (154 documents), so
    // every section carries the renormalized landmark.
    restored_backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio), 0.5, SIZES, 4);
}

#[test]
fn three_shard_publishes_of_every_size_match_oracle_across_renormalization() {
    // Three sections split the population unevenly.
    restored_backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio), 0.5, SIZES, 3);
}

#[test]
fn descending_publish_sizes_match_oracle() {
    // The largest publish lands right after the churn, the single
    // documents last.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio), 1e-3, &[64, 7, 1]);
}

#[test]
fn compacting_backend_matches_oracle_across_renormalization() {
    // Registrations land after compactions that follow renormalizations;
    // the index must stay aligned with the result sets.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).compact_at(0.15), 0.5, WHOLE);
}

#[test]
fn single_engine_compacting_backend_matches_oracle_across_renormalization() {
    // The same on compressed postings, whose compaction re-encodes sealed
    // blocks between renormalizations.
    backend_matches_oracle(
        MonitorBuilder::new(EngineKind::Mrio)
            .compact_at(0.15)
            .postings_storage(PostingsStorage::Compressed),
        0.5,
        WHOLE,
    );
}

#[test]
fn compacting_publishes_of_every_size_match_oracle() {
    // A single-document publish is a batch boundary too: compaction may
    // run between any two documents.
    backend_matches_oracle(MonitorBuilder::new(EngineKind::Mrio).compact_at(0.15), 1e-3, SIZES);
}

#[test]
fn single_worker_compacting_publishes_of_every_size_match_oracle() {
    // A restart drops no tombstone the compaction policy still owes.
    restored_backend_matches_oracle(
        MonitorBuilder::new(EngineKind::Mrio).compact_at(0.15),
        1e-3,
        SIZES,
        1,
    );
}

/// A capture of three shard sections, restored onto the one engine and
/// verified against an oracle that never restarted, id for id — including
/// the ids removed before the capture, and on the continuation stream.
#[test]
fn snapshot_restores_from_three_shards_onto_the_single_engine() {
    let lambda = 1e-3;
    let mut source = MonitorBuilder::new(EngineKind::Mrio).lambda(lambda).build();
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

    // Capture → three sections → JSON → restore.
    let snap = dealt(&source.snapshot(), 3);
    assert_eq!(snap.shards.len(), 3);
    assert_eq!(snap.num_queries(), live);
    let parsed = Snapshot::from_json(&snap.to_json().unwrap()).unwrap();
    let mut restored = MonitorBuilder::new(EngineKind::Mrio).restore(&parsed);
    assert_eq!(restored.num_queries(), live);
    assert_eq!(restored.next_query_id(), source.next_query_id());
    assert_eq!(restored.snapshot().to_json().unwrap(), source.snapshot().to_json().unwrap());

    for qid in &qids {
        assert_eq!(restored.results(*qid), source.results(*qid), "restored query {qid}");
        assert_eq!(restored.results(*qid), oracle.results(*qid), "restored query {qid}");
    }

    // The restored monitor continues bit-identically.
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

/// `Namespace(pub u16)` is constructible by anyone. A handle the backend
/// never interned is refused at the front-end's door — a panic naming the
/// handle — before the engine sees the call, so the backend stays usable
/// and consistent afterwards.
#[test]
fn un_interned_namespace_handles_are_refused_before_any_state_changes() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let bogus = Namespace(7);
    let spec = || QuerySpec::uniform(&[TermId(1)], 1).unwrap();
    let policy =
        RetentionPolicy { max_age: None, max_queries: Some(1), eviction: EvictionPolicy::Oldest };
    let mut backend = MonitorBuilder::new(EngineKind::Mrio).build();
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
        assert!(message.contains("ns7") && message.contains("never interned"), "{call}: {message}");
        assert_eq!(backend.num_queries(), 1, "{call} must leave the population untouched");
    }
    // Engine and lifecycle still agree: the next registration gets the
    // next id and publishes reach both queries.
    let next = backend.register(spec());
    assert_eq!(next, QueryId(kept.0 + 1));
    let receipt = backend.publish(vec![(TermId(1), 1.0)], 0.0);
    assert_eq!(receipt.changes.len(), 2);
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
