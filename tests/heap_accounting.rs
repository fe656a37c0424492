//! `QueryIndex::heap_bytes` against the bytes the index really holds,
//! counted by this test binary's own global allocator: the two are equal.
//! The populations are the benchmark's Connected queries (seed 1, the
//! standing population's salt 2), as in `tests/footprint.rs`, registered
//! into a bare index on each backend, and the same populations churned:
//! every other query unregistered, then the index compacted, which
//! rebuilds the lists and the record arena.

use continuous_topk::index::QueryIndex;
use continuous_topk::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter that
// is const-initialized and has no destructor, so touching it neither
// allocates nor runs after thread-local teardown (`try_with` covers the
// teardown window anyway).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// splitmix64's finaliser over `seed + salt·φ`: the benchmark's seeding.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn queries(n: usize) -> Vec<QuerySpec> {
    let corpus =
        CorpusConfig { vocab_size: 20_000, avg_tokens: 40, seed: mix(1, 1), ..Default::default() };
    let workload = WorkloadConfig {
        workload: QueryWorkload::Connected,
        k: 5,
        seed: mix(1, 2),
        ..Default::default()
    };
    let mut generator = QueryGenerator::new(workload, &corpus);
    (0..n).map(|_| generator.generate()).collect()
}

/// Bytes allocated and not yet freed by this thread since `before`.
fn held_since(before: i64) -> usize {
    (LIVE.with(Cell::get) - before) as usize
}

#[test]
fn heap_bytes_counts_what_the_index_holds() {
    for n in [2_000, 20_000] {
        let specs = queries(n);
        for storage in PostingsStorage::ALL {
            let before = LIVE.with(Cell::get);
            let mut index = QueryIndex::with_storage(&StorageConfig::new(storage));
            let ids: Vec<QueryId> =
                specs.iter().map(|spec| index.register(&spec.vector, spec.k as u32)).collect();
            let before = before + (ids.capacity() * std::mem::size_of::<QueryId>()) as i64;
            let registered = (index.heap_bytes(), held_since(before));

            for &qid in ids.iter().step_by(2) {
                index.unregister(qid).expect("registered");
            }
            index.compact();
            assert_eq!(index.num_live(), n / 2);
            let churned = (index.heap_bytes(), held_since(before));

            // Printing allocates (the captured output grows), so only now.
            for (stage, (counted, held)) in [("", registered), (", churned", churned)] {
                println!("{n} {storage}{stage}: heap_bytes {counted} of {held} B held");
                assert_eq!(counted, held, "{n} {storage}{stage}");
            }
        }
    }
}
