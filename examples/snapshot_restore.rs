//! Crash recovery without replaying the stream: snapshot the full monitor
//! state (queries + result sets) to JSON, restore it into a fresh backend,
//! and keep monitoring from where it stopped, every query under its id.
//!
//! ```text
//! cargo run --example snapshot_restore
//! ```

use continuous_topk::prelude::*;

fn main() {
    let lambda = 1e-3;
    let corpus = CorpusConfig { vocab_size: 5_000, avg_tokens: 60, ..CorpusConfig::default() };
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, k: 3, ..WorkloadConfig::default() };

    // A monitor that has been running for a while...
    let mut qgen = QueryGenerator::new(workload, &corpus);
    let config = MonitorBuilder::new(EngineKind::Mrio).lambda(lambda);
    let mut monitor = config.build();
    let qids: Vec<QueryId> = (0..200).map(|_| monitor.register(qgen.generate())).collect();
    let mut driver = StreamDriver::new(corpus.clone(), ArrivalClock::unit());
    for doc in driver.take_batch(300) {
        monitor.publish(doc.vector.iter().collect(), doc.arrival);
    }
    // Some users leave: their ids are never handed out again.
    for qid in qids.iter().step_by(5) {
        monitor.unregister(*qid);
    }

    // ... is snapshotted to JSON (in production: written to disk/S3) ...
    let snapshot = monitor.snapshot();
    let json = snapshot.to_json().expect("serializable");
    println!(
        "snapshot: v{} format, {} queries, {} bytes of JSON, stream position doc #{}",
        snapshot.version,
        snapshot.num_queries(),
        json.len(),
        snapshot.next_doc
    );

    // ... the process dies, a new one restores without replaying anything.
    let parsed = Snapshot::from_json(&json).expect("parse back");
    let mut restored = config.restore(&parsed);

    // Every result set survived bit-for-bit, under the id it had; removed
    // ids stay removed.
    let mut preserved = 0;
    for qid in &qids {
        assert_eq!(monitor.results(*qid), restored.results(*qid));
        preserved += usize::from(restored.results(*qid).is_some());
    }
    assert_eq!(restored.next_query_id(), monitor.next_query_id());
    println!("restored monitor preserves all {preserved} result sets exactly, under their ids");

    // And it keeps processing: stream a few more documents into both; they
    // stay in lockstep.
    for doc in driver.take_batch(50) {
        let a = monitor.publish(doc.vector.iter().collect(), doc.arrival);
        let b = restored.publish(doc.vector.iter().collect(), doc.arrival);
        assert_eq!(a.doc_ids, b.doc_ids);
        assert_eq!(a.changes.len(), b.changes.len());
    }
    println!("both monitors processed 50 more events in lockstep — recovery complete");
}
