//! High-rate social-feed monitoring: twenty thousand users' standing
//! queries over a stream of short posts, behind the `MonitorBackend` API.
//! The postings layout is a config value in the loop below, nothing more:
//! both layouts serve the same feeds, the compressed one in fewer bytes.
//!
//! ```text
//! cargo run --release --example social_feed
//! ```

use continuous_topk::prelude::*;
use std::time::Instant;

fn main() {
    let corpus = CorpusConfig {
        vocab_size: 30_000,
        avg_tokens: 40, // short posts
        ..CorpusConfig::default()
    };
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, k: 10, ..WorkloadConfig::default() };
    let num_queries = 20_000;
    let posts = 400;
    let lambda = 1e-3; // fresh content matters on a feed

    let mut qgen = QueryGenerator::new(workload, &corpus);
    let specs = qgen.generate_batch(num_queries);

    let mut feeds = Vec::new();
    for storage in PostingsStorage::ALL {
        let mut monitor =
            MonitorBuilder::new(EngineKind::Mrio).lambda(lambda).postings_storage(storage).build();
        let mut ids = Vec::with_capacity(specs.len());
        for spec in &specs {
            ids.push(monitor.register(spec.clone()));
        }

        let mut driver = StreamDriver::new(corpus.clone(), ArrivalClock::Poisson { rate: 5.0 });
        let batch = driver.take_batch(posts);

        let start = Instant::now();
        let mut total_updates = 0u64;
        for doc in batch {
            let receipt = monitor.publish(doc.vector.iter().collect(), doc.arrival);
            total_updates += receipt.merged_stats().updates;
        }
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "{storage} postings: {posts} posts in {:.3}s ({:.1} posts/s), {} feed updates, \
             {} index bytes/query",
            elapsed,
            posts as f64 / elapsed,
            total_updates,
            monitor.storage_stats().index_bytes / num_queries as u64
        );
        feeds.push(ids.iter().map(|&q| monitor.results(q)).collect::<Vec<_>>());
    }
    assert_eq!(feeds[0], feeds[1], "the postings layout never changes a feed");

    // Show one user's live feed.
    let feed = feeds[0][0].as_ref().unwrap();
    println!("  sample user feed ({} items):", feed.len());
    for sd in feed.iter().take(3) {
        println!("    {} score {:.4}", sd.doc, sd.score);
    }
}
