//! What fan-out allocates, counted per thread through this test binary's own
//! global allocator. With nobody subscribed, or for a quiet receipt, it must
//! allocate nothing: the changes are printed only once someone will read
//! them. With subscribers it prints the changes once into one shared text
//! and copies their bytes into each subscriber's buffer, so the number of
//! allocations must not grow with the number of changes — no per-query
//! group, no per-event allocation.

use ctk_common::{DocId, QueryId, ScoredDoc};
use ctk_core::{PublishReceipt, ResultChange};
use ctk_server::subscribers::SubscriberRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter that
// is const-initialized and has no destructor, so touching it neither
// allocates nor runs after thread-local teardown (`try_with` covers the
// teardown window anyway).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `changes` changes of one document, to queries in descending id order.
fn receipt(changes: usize) -> PublishReceipt {
    PublishReceipt {
        doc_ids: vec![DocId(1)],
        changes: (0..changes as u32)
            .rev()
            .map(|q| ResultChange {
                query: QueryId(q),
                inserted: ScoredDoc::new(DocId(1), 1.0),
                evicted: None,
            })
            .collect(),
        stats: Vec::new(),
    }
}

#[test]
fn fanout_to_nobody_or_of_nothing_allocates_nothing() {
    let registry = SubscriberRegistry::new(16);
    let busy = receipt(1_500);

    let mut delivered = u64::MAX;
    let allocated = allocations_during(|| delivered = registry.fanout(&busy));
    assert_eq!(delivered, 0);
    assert_eq!(allocated, 0, "fan-out to nobody must not print or order the changes");
    assert_eq!(registry.fanout_json(&busy), None);
    assert_eq!(registry.totals(), (0, 0));

    // A subscriber, but a quiet receipt: still nothing to print.
    let id = registry.subscribe(None);
    let quiet = receipt(0);
    let allocated = allocations_during(|| delivered = registry.fanout(&quiet));
    assert_eq!((delivered, allocated), (0, 0));

    // Once the last subscriber left, a busy receipt is free again.
    assert_eq!(registry.fanout(&busy), 1_500);
    assert!(registry.unsubscribe(id));
    assert_eq!(allocations_during(|| delivered = registry.fanout(&busy)), 0);
    assert_eq!(delivered, 0);
}

#[test]
fn fanout_allocations_do_not_grow_with_the_change_count() {
    let registry = SubscriberRegistry::new(16);
    let all = registry.subscribe(None);
    // The filter matches queries 3 and 12 of every receipt below.
    let filtered = registry.subscribe(Some(vec![QueryId(3), QueryId(12), QueryId(9_999)]));

    // Warm-up: both rings fill and their text buffers reach the size they
    // keep, which no receipt below can exceed.
    for _ in 0..16 {
        registry.fanout(&receipt(1_500));
    }

    let mut counts = Vec::new();
    for changes in [15, 150, 1_500] {
        let busy = receipt(changes);
        let mut delivered = 0;
        counts.push(allocations_during(|| delivered = registry.fanout(&busy)));
        assert_eq!(delivered, changes as u64 + 2, "every change, plus two to the filter");
    }
    // One shared text, its span table and the routing order.
    assert!(
        counts.iter().all(|&n| n == counts[0] && n <= 3),
        "allocations per fan-out: {counts:?}"
    );

    // And the rings held what they were given: the newest 16 changes each.
    let out = registry.poll(all, usize::MAX, Duration::ZERO).expect("subscribed");
    assert_eq!(out.events.len(), 16);
    assert_eq!(out.events.last().map(|e| e.change.query), Some(QueryId(1_499)));
    let out = registry.poll(filtered, usize::MAX, Duration::ZERO).expect("subscribed");
    assert_eq!(out.events.len(), 16);
    assert!(out.events.iter().all(|e| [QueryId(3), QueryId(12)].contains(&e.change.query)));
}
