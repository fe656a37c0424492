//! Work counters.
//!
//! The paper's primary metric is wall-clock response time per stream event,
//! but its *optimality* claim (Lemma 2: MRIO performs the fewest iterations /
//! considers the fewest queries of any ID-ordering algorithm) is about work
//! counts. Every algorithm reports both per-event and cumulative counters so
//! the `optimality` experiment (E4) can compare them directly.

use serde::{Deserialize, Serialize};

/// Counters for a single stream event (one `process` call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventStats {
    /// Queries fully scored ("considered queries" in the paper's sense).
    pub full_evaluations: u64,
    /// Traversal iterations (pivot selections for the ID-ordering family —
    /// for MRIO every query id it tests exactly, as the front candidate or
    /// inside a window, whether it is then evaluated or pruned;
    /// list-advance steps for the TA family).
    pub iterations: u64,
    /// Postings touched (cursor reads, accumulator updates; for MRIO every
    /// posting a window reads and every cursor a jump moves).
    pub postings_accessed: u64,
    /// Upper-bound terms computed (prefix sums, zone queries; for MRIO one
    /// per posting a window reads — its leaf, read beside its weight —
    /// besides the pivot search's terms).
    pub bound_computations: u64,
    /// Result-set insertions caused by the document.
    pub updates: u64,
    /// Document terms that had a non-empty list ("m" in the paper).
    pub matched_lists: u64,
    /// Queries removed by TTL expiry at this batch boundary. Set by the
    /// monitor front-ends (lifecycle layer), never by an engine: oracle
    /// comparisons of raw engine stats are unaffected.
    pub expired: u64,
    /// Queries removed by retention-cap eviction at this batch boundary.
    /// Front-end-only, like `expired`.
    pub evicted: u64,
}

impl EventStats {
    /// Fold another event record into this one, field by field. This is the
    /// single merge point for cross-shard aggregation: when a counter is
    /// added to the struct, extending `merge` (and `accumulate_into`) keeps
    /// every merger — sharded monitor, batch drains — consistent at once.
    pub fn merge(&mut self, other: &EventStats) {
        self.full_evaluations += other.full_evaluations;
        self.iterations += other.iterations;
        self.postings_accessed += other.postings_accessed;
        self.bound_computations += other.bound_computations;
        self.updates += other.updates;
        self.matched_lists += other.matched_lists;
        self.expired += other.expired;
        self.evicted += other.evicted;
    }

    /// Fold this event into a cumulative record.
    pub fn accumulate_into(&self, cum: &mut CumulativeStats) {
        cum.events += 1;
        cum.full_evaluations += self.full_evaluations;
        cum.iterations += self.iterations;
        cum.postings_accessed += self.postings_accessed;
        cum.bound_computations += self.bound_computations;
        cum.updates += self.updates;
        cum.matched_lists += self.matched_lists;
        cum.expired += self.expired;
        cum.evicted += self.evicted;
    }
}

impl std::ops::AddAssign<&EventStats> for EventStats {
    fn add_assign(&mut self, other: &EventStats) {
        self.merge(other);
    }
}

/// Counters accumulated over the lifetime of an algorithm instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CumulativeStats {
    pub events: u64,
    pub full_evaluations: u64,
    pub iterations: u64,
    pub postings_accessed: u64,
    pub bound_computations: u64,
    pub updates: u64,
    pub matched_lists: u64,
    pub expired: u64,
    pub evicted: u64,
    /// Landmark renormalizations performed.
    pub renormalizations: u64,
}

impl CumulativeStats {
    /// Average full evaluations per event.
    pub fn avg_full_evaluations(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.full_evaluations as f64 / self.events as f64
        }
    }

    /// Average iterations per event.
    pub fn avg_iterations(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.iterations as f64 / self.events as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation() {
        let mut cum = CumulativeStats::default();
        let e = EventStats {
            full_evaluations: 3,
            iterations: 7,
            postings_accessed: 20,
            bound_computations: 9,
            updates: 1,
            matched_lists: 4,
            expired: 1,
            evicted: 2,
        };
        e.accumulate_into(&mut cum);
        e.accumulate_into(&mut cum);
        assert_eq!(cum.events, 2);
        assert_eq!(cum.full_evaluations, 6);
        assert_eq!(cum.postings_accessed, 40);
        assert_eq!((cum.expired, cum.evicted), (2, 4));
        assert_eq!(cum.avg_full_evaluations(), 3.0);
        assert_eq!(cum.avg_iterations(), 7.0);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = EventStats {
            full_evaluations: 1,
            iterations: 2,
            postings_accessed: 3,
            bound_computations: 4,
            updates: 5,
            matched_lists: 6,
            expired: 9,
            evicted: 10,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            EventStats {
                full_evaluations: 2,
                iterations: 4,
                postings_accessed: 6,
                bound_computations: 8,
                updates: 10,
                matched_lists: 12,
                expired: 18,
                evicted: 20,
            }
        );
        let mut c = EventStats::default();
        c += &a;
        assert_eq!(c, a);
    }

    #[test]
    fn empty_averages_are_zero() {
        let cum = CumulativeStats::default();
        assert_eq!(cum.avg_full_evaluations(), 0.0);
        assert_eq!(cum.avg_iterations(), 0.0);
    }
}
