//! The storage layout must not change the traversal.
//!
//! An ID-ordered engine reads postings only through the cursor API, and
//! MRIO repairs the zones of matched lists at the same point of the walk on
//! every layout — so on one stream the plain, compressed and paged builds
//! of an engine must report **equal `EventStats` for every document and
//! equal `ResultChange` streams**, not merely equal results. The stream
//! here crosses a landmark renormalisation, an unregistration wave, a
//! compaction and a registration burst, over lists several sealed blocks
//! long.

use continuous_topk::prelude::*;
use ctk_baselines::Tps;

fn layouts() -> [StorageConfig; 3] {
    [
        StorageConfig::plain(),
        StorageConfig::new(PostingsStorage::Compressed),
        // A budget of a few blocks: the walk keeps faulting pages back in.
        StorageConfig { storage: PostingsStorage::Paged, page_budget_bytes: 2048 },
    ]
}

fn lockstep(name: &str, build: impl Fn(&StorageConfig) -> Box<dyn ContinuousTopK>) {
    // λ = 0.5 with the default headroom renormalises once arrivals pass 120.
    let corpus =
        CorpusConfig { vocab_size: 150, avg_tokens: 12, seed: 11, ..CorpusConfig::default() };
    let workload = WorkloadConfig {
        workload: QueryWorkload::Connected,
        terms_min: 2,
        terms_max: 4,
        k: 3,
        seed: 5,
    };
    let mut queries = QueryGenerator::new(workload, &corpus);
    let mut engines: Vec<Box<dyn ContinuousTopK>> = layouts().iter().map(&build).collect();
    let mut ids = Vec::new();
    for spec in queries.generate_batch(1_200) {
        let registered: Vec<QueryId> =
            engines.iter_mut().map(|e| e.register(spec.clone())).collect();
        assert!(registered.iter().all(|&id| id == registered[0]));
        ids.push(registered[0]);
    }

    let mut driver = StreamDriver::new(corpus, ArrivalClock::unit());
    for step in 0..170 {
        match step {
            60 => {
                for &id in ids.iter().step_by(3) {
                    assert!(engines.iter_mut().all(|e| e.unregister(id)));
                }
            }
            90 => {
                let changed: Vec<usize> = engines.iter_mut().map(|e| e.compact_index()).collect();
                assert!(changed[0] > 0 && changed.iter().all(|&c| c == changed[0]), "{changed:?}");
            }
            110 => {
                for spec in queries.generate_batch(300) {
                    for e in engines.iter_mut() {
                        e.register(spec.clone());
                    }
                }
            }
            _ => {}
        }
        let doc = driver.next_document();
        let stats: Vec<EventStats> = engines.iter_mut().map(|e| e.process(&doc)).collect();
        for (engine, stat) in engines.iter().zip(&stats).skip(1) {
            assert_eq!(stat, &stats[0], "{name}: EventStats diverge at document {step}");
            assert_eq!(
                engine.last_changes(),
                engines[0].last_changes(),
                "{name}: result changes diverge at document {step}"
            );
        }
    }

    assert!(engines[0].cumulative().renormalizations > 0, "the stream must cross a renorm");
    assert!(engines[0].cumulative().updates > 1_000, "and be update-heavy");
    for engine in &engines[1..] {
        assert_eq!(engine.cumulative(), engines[0].cumulative(), "{name}");
    }
    // Plain lists are read in place; the compressed layouts decode blocks
    // into their cursors, and the paged one reads them off its spill file.
    let storage: Vec<_> = engines.iter().map(|e| e.storage_stats()).collect();
    assert_eq!(storage[0].blocks_decoded, 0, "{name}");
    assert!(storage[1].blocks_decoded > 0, "{name}");
    assert_eq!(storage[2].blocks_decoded, storage[1].blocks_decoded, "{name}");
    assert!(storage[2].page_faults > 0, "{name}: {:?}", storage[2]);
}

#[test]
fn mrio_walks_the_same_on_every_layout() {
    lockstep("MRIO", |s| Box::new(MrioSeg::with_storage(0.5, s)));
    lockstep("MRIO-block", |s| Box::new(MrioBlock::with_storage(0.5, s)));
    lockstep("MRIO-suffix", |s| Box::new(MrioSuffix::with_storage(0.5, s)));
}

#[test]
fn rio_and_tps_walk_the_same_on_every_layout() {
    lockstep("RIO", |s| Box::new(Rio::with_storage(0.5, s)));
    lockstep("TPS", |s| Box::new(Tps::with_storage(0.5, s)));
}
