//! High-rate ingestion: drink the stream in batches instead of sips.
//!
//! One ingestion loop, two publish sizes on the same [`MonitorBackend`]
//! configuration: one document per publish, and batches of 256 through
//! `publish_request` (one renorm check and one changes buffer per batch
//! instead of per document). Both end in bit-identical result sets.
//!
//! ```text
//! cargo run --release --example firehose
//! ```

use continuous_topk::prelude::*;
use std::time::Instant;

const BATCH: usize = 256;
const BATCHES: usize = 12;

/// The whole ingestion path: register, drink `size` documents per publish,
/// report, and hand back the first query's final top-k.
fn drink(
    size: usize,
    config: &MonitorBuilder,
    specs: &[QuerySpec],
    corpus: &CorpusConfig,
) -> Vec<ScoredDoc> {
    let mut monitor = config.build();
    let qids: Vec<QueryId> = specs.iter().map(|s| monitor.register(s.clone())).collect();

    let mut driver = StreamDriver::new(corpus.clone(), ArrivalClock::unit());
    let stream: Vec<Document> = driver.by_ref().take(BATCH * BATCHES).collect();
    let start = Instant::now();
    let mut published = 0usize;
    let mut changed = 0usize;
    let mut updates = 0u64;
    for batch in stream.chunks(size) {
        // `&[Document]` converts straight into a typed publish request.
        let receipt = monitor.publish_request(PublishRequest::from(batch));
        published += receipt.doc_ids.len();
        changed += receipt.changes.len();
        updates += receipt.merged_stats().updates;
    }
    let dps = published as f64 / start.elapsed().as_secs_f64();
    assert_eq!(changed as u64, updates, "every update surfaces as exactly one change");
    println!(
        "{size:>3} doc(s) per publish: {published} docs -> {dps:.0} docs/sec, \
         {changed} result changes"
    );
    monitor.results(qids[0]).expect("query 0 is live")
}

fn main() {
    let lambda = 1e-3;
    let corpus = CorpusConfig { vocab_size: 4_000, avg_tokens: 40, ..CorpusConfig::default() };
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, k: 5, ..WorkloadConfig::default() };
    let mut qgen = QueryGenerator::new(workload, &corpus);
    let specs: Vec<QuerySpec> = (0..2_000).map(|_| qgen.generate()).collect();

    let config = MonitorBuilder::new(EngineKind::Mrio).lambda(lambda);
    let sips = drink(1, &config, &specs, &corpus);
    let gulps = drink(BATCH, &config, &specs, &corpus);
    // Exact per-query state either way; show one query's view.
    assert_eq!(sips, gulps, "the publish size never changes a result");
    println!(
        "  query 0: top-{} scores {:?}",
        gulps.len(),
        gulps.iter().map(|sd| (sd.doc.0, (sd.score.get() * 1e3).round() / 1e3)).collect::<Vec<_>>()
    );
}
