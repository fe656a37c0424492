//! Two tenants, one shared monitor: per-namespace retention policies keep
//! each tenant's query population within its own budget while every query
//! is served from the same index and the same worker pool.
//!
//! * Tenant **alerts** gets a TTL policy — saved searches go stale and are
//!   expired at publish boundaries (one query carries a shorter, per-query
//!   override).
//! * Tenant **dashboards** gets a cap — at most 8 live queries; pinning a
//!   9th evicts the member with the weakest current top-1 score.
//!
//! At the end the dashboards tenant is offboarded with one
//! `forget_namespace` call: a bulk unregister plus forced index compaction,
//! leaving no tombstones behind.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use continuous_topk::prelude::*;

fn main() {
    let corpus = CorpusConfig { vocab_size: 2_000, avg_tokens: 30, ..CorpusConfig::default() };
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, k: 5, ..WorkloadConfig::default() };
    let mut qgen = QueryGenerator::new(workload, &corpus);
    let mut driver = StreamDriver::new(corpus, ArrivalClock::unit());

    // One shared deployment; the namespaces partition queries, not work.
    let mut monitor = MonitorBuilder::new(EngineKind::Mrio).lambda(1e-3).build();

    let alerts = monitor.intern_namespace("alerts");
    monitor.set_retention(
        alerts,
        RetentionPolicy {
            max_age: Some(64.0),
            max_queries: None,
            eviction: EvictionPolicy::Oldest,
        },
    );
    let dashboards = monitor.intern_namespace("dashboards");
    monitor.set_retention(
        dashboards,
        RetentionPolicy {
            max_age: None,
            max_queries: Some(8),
            eviction: EvictionPolicy::LowestScore,
        },
    );

    // Six alert queries at t = 0: five on the namespace TTL (deadline 64),
    // one urgent search with its own shorter lease (deadline 16).
    for _ in 0..5 {
        monitor.register_with(qgen.generate(), QueryOptions { namespace: alerts, max_age: None });
    }
    let urgent = monitor
        .register_with(qgen.generate(), QueryOptions { namespace: alerts, max_age: Some(16.0) });

    // Stream the first window (arrivals 0..40): only the urgent query's
    // deadline falls inside it, and the receipt attributes the expiry to
    // the publish that crossed it.
    let mut expired_on_receipts = 0;
    for _ in 0..5 {
        let batch: Vec<(Vec<(TermId, f32)>, f64)> = driver
            .take_batch(8)
            .into_iter()
            .map(|doc| (doc.vector.iter().collect(), doc.arrival))
            .collect();
        let receipt = monitor.publish_batch(batch);
        expired_on_receipts += receipt.stats.iter().map(|s| s.expired).sum::<u64>();
    }
    assert_eq!(expired_on_receipts, 1, "the urgent query expired mid-stream");
    assert!(monitor.results(urgent).is_none(), "expired queries are gone, not paused");
    println!("window 1: urgent alert expired at its 16-unit lease, 5 alerts remain");

    // Eight dashboard queries, then a second window so they earn real
    // scores — and so the alert tenant's 64-unit deadlines pass.
    let dash_qids: Vec<QueryId> = (0..8)
        .map(|_| {
            monitor.register_with(
                qgen.generate(),
                QueryOptions { namespace: dashboards, max_age: None },
            )
        })
        .collect();
    for _ in 0..5 {
        let batch: Vec<(Vec<(TermId, f32)>, f64)> = driver
            .take_batch(8)
            .into_iter()
            .map(|doc| (doc.vector.iter().collect(), doc.arrival))
            .collect();
        expired_on_receipts +=
            monitor.publish_batch(batch).stats.iter().map(|s| s.expired).sum::<u64>();
    }
    assert_eq!(expired_on_receipts, 6, "all six alert queries have now aged out");

    // Pinning a 9th dashboard evicts the weakest current member — the
    // monitor picks the same victim an explicit-unregister oracle would.
    let weakest = *dash_qids
        .iter()
        .min_by(|&&a, &&b| {
            let top = |q: QueryId| {
                monitor.results(q).and_then(|r| r.first().map(|s| s.score.get())).unwrap_or(0.0)
            };
            (top(a), a).partial_cmp(&(top(b), b)).unwrap()
        })
        .unwrap();
    let ninth = monitor
        .register_with(qgen.generate(), QueryOptions { namespace: dashboards, max_age: None });
    assert!(monitor.results(weakest).is_none(), "the weakest dashboard was evicted");
    assert!(monitor.results(ninth).is_some(), "the newcomer is never its own victim");
    println!("window 2: dashboard cap held at 8 — evicted query {weakest:?} for {ninth:?}");

    for ns in monitor.namespace_stats() {
        println!(
            "  namespace {:10} live {:2}  expired {}  evicted {}",
            if ns.namespace.is_empty() { "(default)" } else { &ns.namespace },
            ns.live,
            ns.expired,
            ns.evicted
        );
    }
    assert_eq!(monitor.lifecycle_totals(), (6, 1));

    // Offboard the dashboards tenant in one call.
    let removed = monitor.forget_namespace(dashboards);
    assert_eq!(removed, 8);
    assert_eq!(monitor.num_queries(), 0);
    println!("offboarded dashboards: {removed} queries removed, index compacted");
}
