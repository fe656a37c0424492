//! Workload-scale integration tests: the realistic generator path
//! (topic-mixture corpus, Connected/Uniform queries), steady-state seeding,
//! the monitor and the snapshot cycle — everything the benchmark
//! harness relies on, cross-checked against the oracle at a size large
//! enough to exercise jumps, zone prunes and tracker compaction.

#[path = "support/sections.rs"]
mod sections;

use continuous_topk::prelude::*;
use ctk_baselines::{Rta, SortQuer, Tps};
use sections::dealt;

fn corpus(seed: u64) -> CorpusConfig {
    CorpusConfig {
        vocab_size: 5_000,
        avg_tokens: 100,
        length_jitter: 0.4,
        zipf_exponent: 1.0,
        model: CorpusModel::TopicMixture {
            num_topics: 25,
            terms_per_topic: 150,
            in_topic_fraction: 0.7,
        },
        seed,
    }
}

fn specs(workload: QueryWorkload, n: usize, seed: u64) -> Vec<QuerySpec> {
    let cfg = WorkloadConfig { workload, terms_min: 2, terms_max: 4, k: 5, seed };
    QueryGenerator::new(cfg, &corpus(seed)).generate_batch(n)
}

/// Steady-state seeding (identical ladders into every engine) must preserve
/// cross-engine equality — this is the exact protocol the harness uses.
#[test]
fn seeded_engines_stay_equivalent() {
    let lambda = 1e-3;
    let specs = specs(QueryWorkload::Connected, 300, 7);

    let mut oracle = Naive::new(lambda);
    let mut engines: Vec<Box<dyn ContinuousTopK>> = vec![
        Box::new(Rio::new(lambda)),
        Box::new(MrioSeg::new(lambda)),
        Box::new(MrioBlock::new(lambda)),
        Box::new(MrioSuffix::new(lambda)),
        Box::new(Rta::new(lambda)),
        Box::new(SortQuer::new(lambda)),
        Box::new(Tps::new(lambda)),
    ];

    for (i, spec) in specs.iter().enumerate() {
        let qid = oracle.register(spec.clone());
        // A per-query seed ladder like the harness's steady-state emulation.
        let seeds: Vec<ScoredDoc> = (0..spec.k)
            .map(|slot| {
                ScoredDoc::new(
                    DocId(u64::MAX / 2 + (i * spec.k + slot) as u64),
                    0.3 * (1.0 - 0.002 * slot as f64) * (1.0 + (i % 7) as f64 * 0.05),
                )
            })
            .collect();
        oracle.seed_results(qid, &seeds);
        for e in engines.iter_mut() {
            let q = e.register(spec.clone());
            assert_eq!(q, qid);
            e.seed_results(q, &seeds);
        }
    }

    let mut driver = StreamDriver::new(corpus(7), ArrivalClock::unit());
    for doc in driver.take_batch(250) {
        oracle.process(&doc);
        for e in engines.iter_mut() {
            e.process(&doc);
        }
    }

    for q in 0..specs.len() as u32 {
        let want = oracle.results(QueryId(q)).unwrap();
        for e in engines.iter() {
            assert_eq!(e.results(QueryId(q)).unwrap(), want, "{} q{q}", e.name());
        }
    }

    // The seeding should have produced a pruning-friendly regime: MRIO must
    // consider dramatically fewer queries than the frequency-ordered RTA.
    let mrio_evals = engines[1].cumulative().full_evaluations;
    let rta_evals = engines[4].cumulative().full_evaluations;
    assert!(
        mrio_evals * 3 < rta_evals,
        "MRIO {mrio_evals} evals vs RTA {rta_evals}: pruning regime not reached"
    );
}

/// The MRIO monitor over a realistic workload equals the oracle, and its
/// change notifications cover exactly the oracle's — also after a restart,
/// halfway, from its capture dealt into four shard sections.
#[test]
fn sharded_monitor_matches_oracle_on_generated_workload() {
    let lambda = 1e-3;
    let specs = specs(QueryWorkload::Uniform, 200, 11);

    let mut sharded = Monitor::new(MrioSeg::new(lambda));
    let mut oracle = Monitor::new(Naive::new(lambda));
    let qids: Vec<QueryId> = specs
        .iter()
        .map(|s| {
            let qid = sharded.register(s.clone());
            assert_eq!(qid, oracle.register(s.clone()), "one monotone public id space");
            qid
        })
        .collect();

    let mut driver = StreamDriver::new(corpus(11), ArrivalClock::Poisson { rate: 2.0 });
    let mut total_changes = 0usize;
    let mut total_updates = 0u64;
    for (i, doc) in driver.take_batch(200).into_iter().enumerate() {
        if i == 100 {
            sharded = Monitor::restore(MrioSeg::new(lambda), &dealt(&sharded.snapshot(), 4));
        }
        // One-document publishes: both sides stamp the same id and arrival.
        let request = PublishRequest::from(std::slice::from_ref(&doc));
        let receipt = sharded.publish_request(request.clone());
        let oracle_ev = oracle.publish_request(request).merged_stats();
        assert_eq!(receipt.doc_ids, vec![doc.id]);
        assert_eq!(receipt.merged_stats().updates, oracle_ev.updates, "same insertions per event");
        // Changes come back in the public id space.
        for change in &receipt.changes {
            assert!(qids.contains(&change.query));
        }
        total_changes += receipt.changes.len();
        total_updates += oracle_ev.updates;
    }
    assert_eq!(total_changes as u64, total_updates);

    for qid in &qids {
        assert_eq!(sharded.results(*qid), oracle.results(*qid));
    }
}

/// Snapshot → JSON → restore across *different* engine types: a monitor
/// snapshot taken from MRIO state restores into a RIO engine with identical
/// results and identical downstream behaviour, every query under its
/// captured id (the snapshot format is engine-agnostic).
#[test]
fn snapshot_restores_across_engine_types() {
    let lambda = 5e-3;
    let specs = specs(QueryWorkload::Connected, 150, 23);

    let mut source = Monitor::new(MrioSeg::new(lambda));
    let qids: Vec<QueryId> = specs.iter().map(|s| source.register(s.clone())).collect();
    let mut driver = StreamDriver::new(corpus(23), ArrivalClock::unit());
    for doc in driver.take_batch(150) {
        source.publish(doc.vector.iter().collect(), doc.arrival);
    }
    for qid in qids.iter().step_by(11) {
        assert!(source.unregister(*qid));
    }

    let json = source.snapshot().to_json().unwrap();
    let parsed = Snapshot::from_json(&json).unwrap();
    let mut restored = Monitor::restore(Rio::new(lambda), &parsed);

    for qid in &qids {
        assert_eq!(source.results(*qid), restored.results(*qid), "query {qid}");
    }

    // Both keep evolving identically on the same continuation stream, the
    // same queries changing.
    let changed = |receipt: &PublishReceipt| {
        let mut changed: Vec<_> =
            receipt.changes.iter().map(|c| (c.query, c.inserted.doc)).collect();
        changed.sort_unstable();
        changed
    };
    for doc in driver.take_batch(80) {
        let a = source.publish(doc.vector.iter().collect(), doc.arrival);
        let b = restored.publish(doc.vector.iter().collect(), doc.arrival);
        assert_eq!(changed(&a), changed(&b));
    }
    for qid in &qids {
        let (a, b) = (source.results(*qid), restored.results(*qid));
        assert_eq!(a.is_some(), b.is_some(), "query {qid}");
        let (a, b) = (a.unwrap_or_default(), b.unwrap_or_default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc);
            assert!((x.score.get() - y.score.get()).abs() < 1e-9);
        }
    }
}

/// Unregistering mid-stream with compaction: after enough churn the index
/// compacts tombstones, and results for survivors must be unaffected.
#[test]
fn heavy_churn_with_generated_workload() {
    let lambda = 0.0;
    let all_specs = specs(QueryWorkload::Connected, 240, 31);

    let mut oracle = Naive::new(lambda);
    let mut mrio = MrioSeg::new(lambda);
    let mut rio = Rio::new(lambda);
    for s in &all_specs {
        oracle.register(s.clone());
        mrio.register(s.clone());
        rio.register(s.clone());
    }

    let mut driver = StreamDriver::new(corpus(31), ArrivalClock::unit());
    // Interleave processing with waves of unregistration.
    for wave in 0..4u32 {
        for doc in driver.take_batch(60) {
            oracle.process(&doc);
            mrio.process(&doc);
            rio.process(&doc);
        }
        // Remove a block of queries.
        for q in (wave * 40)..(wave * 40 + 30) {
            let qid = QueryId(q);
            assert!(oracle.unregister(qid));
            assert!(mrio.unregister(qid));
            assert!(rio.unregister(qid));
        }
    }

    for q in 0..all_specs.len() as u32 {
        let qid = QueryId(q);
        match oracle.results(qid) {
            None => {
                assert!(mrio.results(qid).is_none());
                assert!(rio.results(qid).is_none());
            }
            Some(want) => {
                assert_eq!(mrio.results(qid).unwrap(), want, "MRIO q{q}");
                assert_eq!(rio.results(qid).unwrap(), want, "RIO q{q}");
            }
        }
    }
}
