//! Run all seven engines (the paper's five plus the two extra MRIO
//! variants) on one identical synthetic stream, verify they maintain
//! byte-identical results, and print their work counters side by side —
//! the paper's optimality story (§III, Lemma 2) in miniature.
//!
//! ```text
//! cargo run --release --example algo_comparison
//! ```

use continuous_topk::prelude::*;
use ctk_baselines::{Rta, SortQuer, Tps};

fn main() {
    let corpus = CorpusConfig { vocab_size: 20_000, avg_tokens: 150, ..CorpusConfig::default() };
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, k: 5, ..WorkloadConfig::default() };
    let num_queries = 4_000;
    let events = 600;
    let lambda = 1e-3;

    let mut qgen = QueryGenerator::new(workload, &corpus);
    let specs = qgen.generate_batch(num_queries);

    let mut engines: Vec<Box<dyn ContinuousTopK>> = vec![
        Box::new(Naive::new(lambda)),
        Box::new(Rta::new(lambda)),
        Box::new(SortQuer::new(lambda)),
        Box::new(Tps::new(lambda)),
        Box::new(Rio::new(lambda)),
        Box::new(MrioSeg::new(lambda)),
        Box::new(MrioBlock::new(lambda)),
        Box::new(MrioSuffix::new(lambda)),
    ];
    for engine in engines.iter_mut() {
        for spec in &specs {
            engine.register(spec.clone());
        }
    }

    eprintln!(
        "streaming {events} documents into {num_queries} queries x {} engines...",
        engines.len()
    );
    let mut driver = StreamDriver::new(corpus, ArrivalClock::unit());
    for doc in driver.take_batch(events) {
        for engine in engines.iter_mut() {
            engine.process(&doc);
        }
    }

    // Exactness: every engine agrees with the oracle on every query.
    let (oracle, subjects) = engines.split_first().unwrap();
    let mut checked = 0usize;
    for q in 0..num_queries as u32 {
        let want = oracle.results(QueryId(q)).unwrap();
        for s in subjects {
            assert_eq!(s.results(QueryId(q)).unwrap(), want, "{} query {q}", s.name());
        }
        checked += 1;
    }
    println!("all {} engines agree on {checked} result sets\n", engines.len());

    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "engine", "evals/event", "iters/event", "postings/event"
    );
    for engine in &engines {
        let c = engine.cumulative();
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>14.1}",
            engine.name(),
            c.avg_full_evaluations(),
            c.avg_iterations(),
            c.postings_accessed as f64 / c.events as f64,
        );
    }
    println!(
        "\nMRIO considers the fewest queries per event — the paper's \
         minimality claim (Lemma 2)."
    );
}
