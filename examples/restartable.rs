//! A restartable sharded deployment: run a 4-shard monitor, snapshot it,
//! "kill" the process (drop the monitor, worker threads and all), and
//! restore the capture into a *2-shard* monitor on the next boot — the
//! versioned snapshot format rebalances queries across whatever shard
//! count the new configuration has, each query under the id it had. An
//! oracle that never died verifies the restored deployment stays
//! bit-identical on the continuation stream, id for id.
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

    // Boot #1: a 4-shard MRIO deployment, plus a single-engine oracle that
    // will survive the "crash" for comparison.
    let mut monitor = MonitorBuilder::new(EngineKind::Mrio).lambda(lambda).shards(4).build();
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
        "boot #1: {} queries on {} shards, 400 documents ingested",
        monitor.num_queries(),
        monitor.shards()
    );

    // Snapshot to JSON and kill the deployment.
    let json = monitor.snapshot().to_json().expect("serializable");
    println!(
        "snapshot: v{} format, {} section(s), {} bytes",
        SNAPSHOT_VERSION,
        monitor.shards(),
        json.len()
    );
    drop(monitor); // workers join; nothing survives but the JSON

    // Boot #2: restore into a *different* shard count.
    let snapshot = Snapshot::from_json(&json).expect("parse");
    let mut monitor = MonitorBuilder::new(EngineKind::Mrio).shards(2).restore(&snapshot);
    println!(
        "boot #2: restored {} queries onto {} shards (was {})",
        monitor.num_queries(),
        monitor.shards(),
        snapshot.shards.len()
    );
    // Every id answers for the query it named before the restart; removed
    // ids stay removed, and the next registration gets a fresh id.
    for qid in &qids {
        assert_eq!(monitor.results(*qid), oracle.results(*qid), "restored state exact");
    }
    let late = qgen.generate();
    assert_eq!(monitor.register(late.clone()), oracle.register(late), "ids are never reused");

    // Continue the stream: the rebalanced deployment tracks the oracle
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
