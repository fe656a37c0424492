//! [`Monitor`]: the public name of the one front-end.
//!
//! A monitor is the [`FrontEnd`] over a single [`ContinuousTopK`] engine
//! called directly on the publisher's thread — engine changes land straight
//! in the receipt, with no copy and no channel hop — plus an optional
//! tombstone-compaction policy applied at batch boundaries. Its
//! constructors are `FrontEnd`'s: `new`, `with_compaction`, `engine` and
//! `restore`.
//!
//! [`ContinuousTopK`]: crate::ContinuousTopK

use crate::frontend::FrontEnd;

/// A monitor wrapping an engine `E`; the application API is
/// [`crate::MonitorBackend`].
pub type Monitor<E> = FrontEnd<E>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MonitorBackend;
    use crate::mrio::MrioSeg;
    use crate::snapshot::{Snapshot, SNAPSHOT_VERSION};
    use crate::traits::ContinuousTopK;
    use ctk_common::{DocId, QueryId, QuerySpec, TermId};

    fn spec(terms: &[u32], k: usize) -> QuerySpec {
        QuerySpec::uniform(&terms.iter().map(|&t| TermId(t)).collect::<Vec<_>>(), k).unwrap()
    }

    #[test]
    fn publish_assigns_ids_and_reports_changes() {
        let mut m = Monitor::new(MrioSeg::new(0.0));
        let q = m.register(spec(&[1, 2], 2));
        let r0 = m.publish(vec![(TermId(1), 1.0)], 0.0);
        assert_eq!(r0.doc_id(), DocId(0));
        assert_eq!(r0.doc_ids, vec![DocId(0)]);
        assert_eq!(r0.changes.len(), 1);
        assert_eq!(r0.changes[0].query, q);
        assert_eq!(r0.stats.len(), 1);
        assert_eq!(r0.merged_stats().updates, 1);
        let r1 = m.publish(vec![(TermId(9), 1.0)], 1.0);
        assert_eq!(r1.doc_id(), DocId(1));
        assert!(r1.is_quiet());
    }

    #[test]
    fn receipt_groups_changes_per_query() {
        let mut m = Monitor::new(MrioSeg::new(0.0));
        let q1 = m.register(spec(&[1], 2));
        let q2 = m.register(spec(&[1, 2], 2));
        let receipt =
            m.publish_batch(vec![(vec![(TermId(1), 1.0)], 0.0), (vec![(TermId(2), 1.0)], 1.0)]);
        let grouped = receipt.changes_by_query();
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, q1);
        assert_eq!(grouped[0].1.len(), 1);
        assert_eq!(grouped[1].0, q2);
        assert_eq!(grouped[1].1.len(), 2, "q2 matched both documents");
        // Document order within the group.
        assert!(grouped[1].1[0].inserted.doc < grouped[1].1[1].inserted.doc);
        assert_eq!(receipt.changes_for(q2).count(), 2);
    }

    #[test]
    fn arrival_times_are_clamped_monotone() {
        let mut m = Monitor::new(MrioSeg::new(0.1));
        m.register(spec(&[1], 1));
        m.publish(vec![(TermId(1), 1.0)], 10.0);
        // A stale timestamp must not travel back in time.
        let receipt = m.publish(vec![(TermId(1), 2.0)], 3.0);
        // Same cosine, clamped to the same arrival => tie, smaller doc id
        // stays: no change reported... but doc 1 has same score and LARGER
        // id, so no update.
        assert!(receipt.is_quiet());
    }

    #[test]
    fn snapshot_round_trip_preserves_results() {
        let mut m = Monitor::new(MrioSeg::new(0.001));
        let q1 = m.register(spec(&[1, 2], 2));
        let q2 = m.register(spec(&[3], 1));
        for i in 0..20u32 {
            m.publish(vec![(TermId(1 + i % 3), 1.0), (TermId(7), 0.5)], i as f64);
        }
        let snap = m.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.shards.len(), 1);
        let json = snap.to_json().unwrap();
        let parsed = Snapshot::from_json(&json).unwrap();

        let restored = Monitor::restore(MrioSeg::new(0.001), &parsed);
        for q in [q1, q2] {
            assert_eq!(m.results(q), restored.results(q), "query {q}");
        }
        assert_eq!(restored.num_queries(), 2);
    }

    /// A removed id stays dead through a restore on every engine kind: the
    /// survivors keep their ids, and the next registration gets the id the
    /// source would have given.
    #[test]
    fn restore_keeps_every_captured_id_and_never_reuses_one() {
        fn check<E: ContinuousTopK>(make: impl Fn() -> E) {
            let mut m = Monitor::new(make());
            let ids: Vec<QueryId> = (1..=4).map(|t| m.register(spec(&[t], 2))).collect();
            assert!(m.unregister(ids[0]));
            assert!(m.unregister(ids[3]));
            m.publish_batch(vec![(vec![(TermId(2), 1.0)], 0.0), (vec![(TermId(3), 0.5)], 1.0)]);
            let mut restored = Monitor::restore(make(), &m.snapshot());
            for &q in &ids {
                assert_eq!(
                    restored.results(q),
                    m.results(q),
                    "{}: query {q}",
                    restored.engine().name()
                );
            }
            assert_eq!(restored.next_query_id(), QueryId(4));
            let fresh = restored.register(spec(&[1], 2));
            assert_eq!(fresh, m.register(spec(&[1], 2)));
            let a = restored.publish(vec![(TermId(1), 1.0), (TermId(3), 1.0)], 2.0);
            let b = m.publish(vec![(TermId(1), 1.0), (TermId(3), 1.0)], 2.0);
            assert_eq!(a.changes, b.changes);
            let changed: Vec<QueryId> = a.changes.iter().map(|c| c.query).collect();
            assert_eq!(changed, vec![ids[2], fresh], "changes name public ids");
            assert_eq!(restored.namespace_of(ids[1]), Some(ctk_common::Namespace::DEFAULT));
            assert_eq!(restored.namespace_of(ids[3]), None);
            assert!(!restored.unregister(ids[0]) && restored.unregister(ids[2]));
            assert_eq!(restored.results(ids[2]), None);
            assert_eq!(restored.results(fresh), m.results(fresh));
        }
        check(|| MrioSeg::new(0.01));
        check(|| crate::naive::Naive::new(0.01));
        check(|| crate::rio::Rio::new(0.01));
    }

    #[test]
    fn restored_monitor_keeps_processing_correctly() {
        let mut m = Monitor::new(MrioSeg::new(0.0));
        let q = m.register(spec(&[5], 2));
        m.publish(vec![(TermId(5), 1.0)], 0.0);
        let snap = m.snapshot();
        let mut r = Monitor::restore(MrioSeg::new(0.0), &snap);
        // New stronger doc enters the restored monitor's results.
        let receipt = r.publish(vec![(TermId(5), 3.0)], 1.0);
        assert_eq!(receipt.changes.len(), 1);
        let res = r.results(q).unwrap();
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn snapshot_after_renormalization_restores_the_landmark_frame() {
        // λ = 0.1 with the default headroom of 60 renormalizes once the
        // stream passes arrival 600 — well before the snapshot at 700.
        let mut m = Monitor::new(MrioSeg::new(0.1));
        let q = m.register(spec(&[1, 2], 3));
        for i in 0..=70u32 {
            // Strong documents: high cosine against the query.
            m.publish(vec![(TermId(1), 1.0), (TermId(2), 1.0)], i as f64 * 10.0);
        }
        assert!(
            m.engine().cumulative().renormalizations >= 1,
            "stream must renormalize before the snapshot for this regression"
        );

        let snap = m.snapshot();
        let json = snap.to_json().unwrap();
        let parsed = Snapshot::from_json(&json).unwrap();
        assert_eq!(parsed.landmark(), m.engine().landmark());
        let mut restored = Monitor::restore(MrioSeg::new(0.1), &parsed);
        assert_eq!(m.results(q), restored.results(q));

        // The regression: a *weak* document arriving after the restore.
        // Pre-fix, the restored engine sat at landmark 0, immediately
        // re-renormalized to arrival 701 and crushed the seeded scores to
        // ~e^{-60}, so this low-cosine document walked into the top-k. With
        // the landmark restored, both monitors score it in the same frame
        // and reject it identically.
        let weak = vec![(TermId(2), 0.1), (TermId(9), 1.0)];
        let a = m.publish(weak.clone(), 701.0);
        let b = restored.publish(weak, 701.0);
        assert_eq!(
            a.changes, b.changes,
            "restored monitor diverged on the first post-restore event"
        );
        assert_eq!(m.results(q), restored.results(q));
    }

    #[test]
    fn publish_batch_matches_sequential_publishes() {
        let pairs = |i: u32| vec![(TermId(1 + i % 3), 1.0), (TermId(7), 0.5)];
        let mut one = Monitor::new(MrioSeg::new(0.01));
        let q1 = one.register(spec(&[1, 2, 7], 3));
        let mut batch = Monitor::new(MrioSeg::new(0.01));
        let q2 = batch.register(spec(&[1, 2, 7], 3));

        let (mut seq_changes, mut seq_stats) = (Vec::new(), Vec::new());
        for i in 0..30u32 {
            // Include a stale timestamp mid-stream: batch clamping must
            // match the sequential clamp.
            let at = if i == 10 { 2.0 } else { i as f64 };
            let receipt = one.publish(pairs(i), at);
            seq_changes.extend(receipt.changes);
            seq_stats.extend(receipt.stats);
        }
        let items: Vec<_> =
            (0..30u32).map(|i| (pairs(i), if i == 10 { 2.0 } else { i as f64 })).collect();
        let receipt = batch.publish_batch(items);

        assert_eq!(receipt.doc_ids.len(), 30);
        assert_eq!(receipt.doc_ids[0], DocId(0));
        assert_eq!(receipt.doc_ids[29], DocId(29));
        assert_eq!(seq_changes, receipt.changes);
        assert_eq!(seq_stats, receipt.stats, "per-document work does not depend on batching");
        assert_eq!(one.results(q1), batch.results(q2));
    }

    #[test]
    fn unregister_via_monitor() {
        let mut m = Monitor::new(MrioSeg::new(0.0));
        let q = m.register(spec(&[1], 1));
        assert!(m.unregister(q));
        assert!(!m.unregister(q));
        assert_eq!(m.num_queries(), 0);
        assert_eq!(m.snapshot().num_queries(), 0);
    }

    #[test]
    fn compaction_policy_fires_at_batch_boundaries_without_changing_results() {
        let mk = |ratio: f64| {
            let mut m = Monitor::new(MrioSeg::new(0.0)).with_compaction(ratio);
            let ids: Vec<QueryId> =
                (0..40).map(|i| m.register(spec(&[i % 6, 6 + i % 4], 2))).collect();
            (m, ids)
        };
        let (mut compacting, ids_a) = mk(0.2);
        let (mut lazy, ids_b) = mk(0.0);

        for round in 0..4u32 {
            // Churn: retire a block of queries, then publish a batch.
            for q in (round * 8)..(round * 8 + 6) {
                assert!(compacting.unregister(QueryId(q)));
                assert!(lazy.unregister(QueryId(q)));
            }
            let batch: Vec<_> = (0..20u32)
                .map(|i| {
                    let t = (round * 20 + i) as f64;
                    (vec![(TermId(i % 6), 1.0), (TermId(6 + i % 4), 0.5)], t)
                })
                .collect();
            let a = compacting.publish_batch(batch.clone());
            let b = lazy.publish_batch(batch);
            assert_eq!(a.changes, b.changes, "round {round}");
        }
        // The policy actually compacted...
        assert!(compacting.engine().tombstone_ratio() < 0.2);
        // ...while the lazy monitor accumulated dead postings.
        assert!(lazy.engine().tombstone_ratio() >= 0.2);
        // Results are untouched by index reorganization.
        for (a, b) in ids_a.iter().zip(&ids_b) {
            assert_eq!(compacting.results(*a), lazy.results(*b));
        }
    }
}
