//! High-rate ingestion: drink the stream in batches instead of sips.
//!
//! One ingestion loop, two configurations of the same [`MonitorBackend`]:
//! a single-engine monitor fed through `publish_batch` (one renorm check
//! and changes buffer per batch instead of per document), and a sharded
//! monitor whose `publish_batch` hands each worker the whole batch in one
//! message and merges their answers once. The application code cannot tell
//! them apart.
//!
//! ```text
//! cargo run --release --example firehose
//! ```

use continuous_topk::prelude::*;
use std::time::Instant;

const BATCH: usize = 256;
const BATCHES: usize = 12;

/// The whole ingestion path, config-agnostic: register, drink, report.
fn drink(label: &str, config: &MonitorBuilder, specs: &[QuerySpec], corpus: &CorpusConfig) {
    let mut monitor = config.build();
    let qids: Vec<QueryId> = specs.iter().map(|s| monitor.register(s.clone())).collect();

    let mut driver = StreamDriver::new(corpus.clone(), ArrivalClock::unit());
    let start = Instant::now();
    let mut published = 0usize;
    let mut changed = 0usize;
    let mut updates = 0u64;
    for batch in driver.by_ref().take(BATCH * BATCHES).collect::<Vec<_>>().chunks(BATCH) {
        // `&[Document]` converts straight into a typed publish request.
        let receipt = monitor.publish_request(PublishRequest::from(batch));
        published += receipt.doc_ids.len();
        changed += receipt.changes.len();
        updates += receipt.merged_stats().updates;
    }
    let dps = published as f64 / start.elapsed().as_secs_f64();
    assert_eq!(changed as u64, updates, "every update surfaces as exactly one change");
    println!(
        "{label}: {published} docs in batches of {BATCH} -> {dps:.0} docs/sec, \
         {changed} result changes"
    );

    // Exact per-query state either way; show one query's view.
    if let Some(top) = monitor.results(qids[0]) {
        println!(
            "  query 0 ({} shard(s)): top-{} scores {:?}",
            monitor.shards(),
            top.len(),
            top.iter()
                .map(|sd| (sd.doc.0, (sd.score.get() * 1e3).round() / 1e3))
                .collect::<Vec<_>>()
        );
    }
}

fn main() {
    let lambda = 1e-3;
    let corpus = CorpusConfig { vocab_size: 4_000, avg_tokens: 40, ..CorpusConfig::default() };
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, k: 5, ..WorkloadConfig::default() };
    let mut qgen = QueryGenerator::new(workload, &corpus);
    let specs: Vec<QuerySpec> = (0..2_000).map(|_| qgen.generate()).collect();

    let base = MonitorBuilder::new(EngineKind::Mrio).lambda(lambda);
    // At least 2 so the sharded path is exercised even on one core.
    let shards = std::thread::available_parallelism().map(|p| p.get().clamp(2, 4)).unwrap_or(2);

    drink("single engine ", &base, &specs, &corpus);
    drink(&format!("sharded x{shards}"), &base.clone().shards(shards), &specs, &corpus);
}
