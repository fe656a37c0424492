//! `QueryIndex::heap_bytes` against the bytes the index really holds,
//! counted by this test binary's own global allocator: it must count at
//! least 95 % of them and never more. The populations are the benchmark's
//! Connected queries (seed 1, the standing population's salt 2), as in
//! `tests/footprint.rs`, registered into a bare index on each backend.

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

#[test]
fn heap_bytes_counts_what_the_index_holds() {
    for n in [2_000, 20_000] {
        let specs = queries(n);
        for storage in PostingsStorage::ALL {
            let before = LIVE.with(Cell::get);
            let mut index = QueryIndex::with_storage(&StorageConfig::new(storage));
            for spec in &specs {
                index.register(&spec.vector, spec.k as u32);
            }
            let held = (LIVE.with(Cell::get) - before) as usize;
            let counted = index.heap_bytes();
            println!(
                "{n} {storage}: heap_bytes {counted} of {held} B held ({:.2} % counted, {:.2} B/q missed)",
                100.0 * counted as f64 / held as f64,
                (held - counted.min(held)) as f64 / n as f64,
            );
            assert!(counted <= held, "{n} {storage}: {counted} B counted, {held} B held");
            assert!(100 * counted >= 95 * held, "{n} {storage}: {counted} B counted of {held}");
        }
    }
}
