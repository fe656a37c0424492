//! A restartable deployment: run a monitor on plain postings, snapshot it,
//! "kill" the process (drop the monitor), and restore the capture into a
//! monitor on *compressed* postings on the next boot — the versioned
//! snapshot format is independent of the configuration that wrote it, and
//! each query keeps the id it had. An oracle that never died verifies the
//! restored deployment stays bit-identical on the continuation stream, id
//! for id.
//!
//! ```text
//! cargo run --release --example restartable
//! ```

use continuous_topk::prelude::*;

fn main() {
    let lambda = 1e-3;
    let corpus = CorpusConfig { vocab_size: 5_000, avg_tokens: 50, ..CorpusConfig::default() };
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, k: 5, ..WorkloadConfig::default() };
    let mut qgen = QueryGenerator::new(workload, &corpus);
    let specs: Vec<QuerySpec> = (0..300).map(|_| qgen.generate()).collect();
    let mut driver = StreamDriver::new(corpus, ArrivalClock::unit());

    // Boot #1: an MRIO deployment, plus an oracle that will survive the
    // "crash" for comparison.
    let mut monitor = MonitorBuilder::new(EngineKind::Mrio).lambda(lambda).build();
    let mut oracle = MonitorBuilder::new(EngineKind::Naive).lambda(lambda).build();
    let qids: Vec<QueryId> = specs
        .iter()
        .map(|s| {
            let qid = monitor.register(s.clone());
            assert_eq!(qid, oracle.register(s.clone()));
            qid
        })
        .collect();
    for doc in driver.take_batch(400) {
        let pairs: Vec<(TermId, f32)> = doc.vector.iter().collect();
        monitor.publish(pairs.clone(), doc.arrival);
        oracle.publish(pairs, doc.arrival);
    }
    // Users leave: every seventh query goes, so the live ids have gaps.
    for qid in qids.iter().step_by(7) {
        assert!(monitor.unregister(*qid) && oracle.unregister(*qid));
    }
    println!(
        "boot #1: {} queries on plain postings ({} index bytes), 400 documents ingested",
        monitor.num_queries(),
        monitor.storage_stats().index_bytes
    );

    // Snapshot to JSON and kill the deployment.
    let json = monitor.snapshot().to_json().expect("serializable");
    println!("snapshot: v{SNAPSHOT_VERSION} format, {} bytes", json.len());
    drop(monitor); // nothing survives but the JSON

    // Boot #2: restore into a *different* postings layout.
    let snapshot = Snapshot::from_json(&json).expect("parse");
    let mut monitor = MonitorBuilder::new(EngineKind::Mrio)
        .postings_storage(PostingsStorage::Compressed)
        .restore(&snapshot);
    println!(
        "boot #2: restored {} queries onto compressed postings ({} index bytes)",
        monitor.num_queries(),
        monitor.storage_stats().index_bytes
    );
    // Every id answers for the query it named before the restart; removed
    // ids stay removed, and the next registration gets a fresh id.
    for qid in &qids {
        assert_eq!(monitor.results(*qid), oracle.results(*qid), "restored state exact");
    }
    let late = qgen.generate();
    assert_eq!(monitor.register(late.clone()), oracle.register(late), "ids are never reused");

    // Continue the stream: the restored deployment tracks the oracle
    // bit-for-bit.
    for doc in driver.take_batch(200) {
        let pairs: Vec<(TermId, f32)> = doc.vector.iter().collect();
        let a = monitor.publish(pairs.clone(), doc.arrival);
        let b = oracle.publish(pairs, doc.arrival);
        assert_eq!(a.doc_ids, b.doc_ids, "document ids continue from the snapshot position");
    }
    for qid in &qids {
        assert_eq!(monitor.results(*qid), oracle.results(*qid));
    }
    println!("200 continuation documents processed in lockstep — restart complete");
}
