//! "No work for nobody": `SubscriberRegistry::fanout` must not group a
//! receipt's changes when no one subscribes. Grouping clones and sorts the
//! change list, so it shows up as heap allocations — which this test binary
//! counts per thread through its own global allocator.

use ctk_common::{DocId, QueryId, ScoredDoc};
use ctk_core::{PublishReceipt, ResultChange};
use ctk_server::subscribers::SubscriberRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
fn fanout_to_nobody_groups_nothing() {
    let registry = SubscriberRegistry::new(16);
    let busy = receipt(1_500);

    // The grouping this test watches for is visible to the counter.
    assert!(allocations_during(|| drop(busy.changes_by_query())) > 1_000);

    let mut delivered = u64::MAX;
    let allocated = allocations_during(|| delivered = registry.fanout(&busy));
    assert_eq!(delivered, 0);
    assert_eq!(allocated, 0, "fan-out to nobody must not build the per-query groups");
    assert_eq!(registry.totals(), (0, 0));

    // With a subscriber the same call does the work (and delivers, minus
    // what the 16-slot ring drops).
    let id = registry.subscribe(None);
    let allocated = allocations_during(|| delivered = registry.fanout(&busy));
    assert_eq!(delivered, 1_500);
    assert!(allocated > 1_000);
    assert!(registry.unsubscribe(id));

    // And once the last subscriber left, it is free again.
    assert_eq!(allocations_during(|| delivered = registry.fanout(&busy)), 0);
    assert_eq!(delivered, 0);
}
