//! Bytes per standing query, counted: the index and MRIO's zone structures
//! at the benchmark's populations, held under ceilings.
//!
//! The populations are the benchmark's Connected queries (seed 1, the
//! standing population's salt 2, 20 000-term corpus), registered into a
//! single MRIO monitor. Heap accounting counts capacities, not timings, so
//! the figures repeat exactly on any host; the ceilings sit 2 % above them.

use continuous_topk::index::{CompressedList, MaxSegTree, PostingsList, ZoneMax};
use continuous_topk::prelude::*;

/// splitmix64's finaliser over `seed + salt·φ`: the benchmark's seeding.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(queries, index bytes, zone bytes)` after registering `n` queries.
fn footprint(n: usize, storage: PostingsStorage) -> (usize, u64, u64) {
    let corpus =
        CorpusConfig { vocab_size: 20_000, avg_tokens: 40, seed: mix(1, 1), ..Default::default() };
    let workload = WorkloadConfig {
        workload: QueryWorkload::Connected,
        k: 5,
        seed: mix(1, 2),
        ..Default::default()
    };
    let mut generator = QueryGenerator::new(workload, &corpus);
    let mut monitor = MonitorBuilder::new(EngineKind::Mrio).postings_storage(storage).build();
    for _ in 0..n {
        monitor.register(generator.generate());
    }
    let stats = monitor.storage_stats();
    (monitor.num_queries(), stats.index_bytes, stats.zone_bytes)
}

#[test]
fn bytes_per_query_stay_under_their_ceilings() {
    // (queries, storage, index B/q, zone B/q) as measured; the ceilings are
    // 2 % above. The 50 000-query compressed row is `embedded_large`'s
    // population.
    let measured = [
        (300, PostingsStorage::Plain, 114.72, 71.79),
        (2_000, PostingsStorage::Plain, 87.54, 75.38),
        (2_000, PostingsStorage::Compressed, 81.28, 75.38),
        (50_000, PostingsStorage::Compressed, 47.08, 76.83),
    ];
    for (n, storage, index_was, zones_was) in measured {
        let (index_max, zone_max) = (index_was * 1.02, zones_was * 1.02);
        let (queries, index, zones) = footprint(n, storage);
        assert_eq!(queries, n);
        let (index, zones) = (index as f64 / n as f64, zones as f64 / n as f64);
        println!("{n} {storage}: index {index:.2} B/q, zones {zones:.2} B/q");
        assert!(index <= index_max, "{n} {storage}: index {index:.2} B/q over {index_max:.2}");
        assert!(zones <= zone_max, "{n} {storage}: zones {zones:.2} B/q over {zone_max:.2}");
    }
}

/// The per-list fixed costs: a plain list's slot, a compressed list and a
/// zone tree, each with no heap for one posting.
#[test]
fn per_list_slots_stay_slim() {
    assert!(std::mem::size_of::<PostingsList>() <= 24);
    assert!(std::mem::size_of::<CompressedList>() <= 24);
    assert!(std::mem::size_of::<MaxSegTree>() <= 16);

    let mut plain = PostingsList::new();
    plain.push(QueryId(3), 0.5);
    assert_eq!(plain.capacity(), 0, "one plain posting is inline");
    let mut compressed = CompressedList::new();
    compressed.push(3, 0.5, &Default::default());
    assert_eq!(compressed.heap_bytes(), 0, "one compressed posting is inline");
    let mut tree = MaxSegTree::new();
    tree.append(0.25);
    assert_eq!((tree.heap_bytes(), tree.global_max()), (0, 0.25), "one leaf is its maximum");
}
