//! Snapshot suffix maxima — the cheapest (and loosest) zone-bound variant.
//!
//! `suffix[i] = max(vals[i..])` answers "max from my cursor to anywhere
//! right of it" in O(1). The snapshot is *stale-valid*: under pure recency
//! inflation, `S_k` only grows, so `u = w/S_k` only shrinks, and a snapshot
//! taken earlier always upper-bounds the current values. Decreasing updates
//! are therefore just counted; the snapshot is rebuilt when enough staleness
//! accumulates. Increasing updates (possible under the sliding-window
//! extension, where `S_k` can drop) mark the snapshot dirty and force a
//! rebuild before the next query, preserving the upper-bound contract.
//!
//! Note the deliberate approximation: [`ZoneMax::range_max`] ignores the `hi`
//! end of the zone and returns `suffix[lo]` — a superset bound. That is the
//! trade this variant makes: O(1) queries, zero update cost, looser pruning.

use crate::zone::ZoneMax;

/// Fraction of stale (decreased) entries that triggers a snapshot rebuild.
const STALENESS_REBUILD_RATIO: f64 = 0.25;

/// Suffix-maximum snapshot over a growable array of values.
#[derive(Debug, Clone, Default)]
pub struct SuffixMax {
    vals: Vec<f64>,
    suffix: Vec<f64>,
    /// Number of decreasing updates since the last rebuild.
    stale: usize,
    /// Set by an increasing update; forces a rebuild before the next query.
    dirty: bool,
}

impl SuffixMax {
    pub fn new() -> Self {
        Self::default()
    }

    fn rebuild_snapshot(&mut self) {
        self.suffix.resize(self.vals.len(), f64::NEG_INFINITY);
        let mut run = f64::NEG_INFINITY;
        for i in (0..self.vals.len()).rev() {
            run = run.max(self.vals[i]);
            self.suffix[i] = run;
        }
        self.stale = 0;
        self.dirty = false;
    }

    fn maybe_rebuild(&mut self) {
        let threshold = (self.vals.len() as f64 * STALENESS_REBUILD_RATIO).max(32.0);
        if self.dirty || self.stale as f64 > threshold {
            self.rebuild_snapshot();
        }
    }

    /// Number of decreasing updates absorbed since the last rebuild
    /// (exposed for the maintenance-cost ablation).
    pub fn staleness(&self) -> usize {
        self.stale
    }
}

impl ZoneMax for SuffixMax {
    fn append(&mut self, u: f64) {
        self.vals.push(u);
        // suffix[] is non-increasing, so the positions whose suffix max must
        // absorb the new value form a tail run; fix it by walking backwards.
        self.suffix.push(u);
        let mut i = self.suffix.len() - 1;
        while i > 0 && self.suffix[i - 1] < u {
            self.suffix[i - 1] = u;
            i -= 1;
        }
    }

    fn update(&mut self, pos: usize, u: f64) {
        let old = self.vals[pos];
        self.vals[pos] = u;
        if u > old {
            // Snapshot may now under-estimate: rebuild before next query.
            if u > self.suffix[pos] {
                self.dirty = true;
            }
        } else if u < old {
            self.stale += 1;
        }
    }

    #[inline]
    fn value_at(&self, pos: usize) -> f64 {
        self.vals[pos]
    }

    fn range_max(&mut self, lo: usize, hi: usize) -> f64 {
        self.maybe_rebuild();
        if lo >= self.vals.len() || lo >= hi {
            return f64::NEG_INFINITY;
        }
        // Deliberately ignores `hi`: suffix[lo] >= max(vals[lo..hi]).
        self.suffix[lo]
    }

    fn global_max(&mut self) -> f64 {
        self.maybe_rebuild();
        self.suffix.first().copied().unwrap_or(f64::NEG_INFINITY)
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn rebuild(&mut self, vals: &[f64]) {
        self.vals = vals.to_vec();
        self.rebuild_snapshot();
    }

    fn heap_bytes(&self) -> usize {
        (self.vals.capacity() + self.suffix.capacity()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{ScanZoneMax, ZoneMax};

    /// The contract is "upper bound", so compare with `>=` against the
    /// oracle, plus exactness right after a rebuild.
    #[test]
    fn is_always_an_upper_bound() {
        let mut sm = SuffixMax::new();
        let mut oracle = ScanZoneMax::default();
        let mut state = 7u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for step in 0..500 {
            if step % 2 == 0 || sm.len() == 0 {
                let v = rng();
                sm.append(v);
                oracle.append(v);
            } else {
                let pos = (rng() * sm.len() as f64) as usize % sm.len();
                // Mix of decreases and increases.
                let v = rng() * if step % 9 == 0 { 2.0 } else { 0.5 };
                sm.update(pos, v);
                oracle.update(pos, v);
            }
            let n = sm.len();
            for (lo, hi) in [(0, n), (n / 2, n), (n / 4, 3 * n / 4 + 1)] {
                let got = sm.range_max(lo, hi);
                let want = oracle.range_max(lo, hi);
                assert!(got >= want, "step {step}: bound {got} < true {want}");
            }
        }
    }

    #[test]
    fn exact_after_rebuild() {
        let vals: Vec<f64> = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut sm = SuffixMax::new();
        sm.rebuild(&vals);
        for lo in 0..vals.len() {
            let want = vals[lo..].iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(sm.range_max(lo, vals.len()), want);
        }
    }

    #[test]
    fn append_fixes_prefix_suffixes() {
        let mut sm = SuffixMax::new();
        sm.append(1.0);
        sm.append(0.5);
        sm.append(7.0); // larger than everything before it
        assert_eq!(sm.range_max(0, 3), 7.0);
        assert_eq!(sm.range_max(1, 3), 7.0);
        assert_eq!(sm.range_max(2, 3), 7.0);
    }

    #[test]
    fn increase_forces_rebuild() {
        let mut sm = SuffixMax::new();
        sm.rebuild(&[1.0, 2.0, 3.0]);
        sm.update(0, 10.0);
        // Must not under-report after an increase.
        assert_eq!(sm.range_max(0, 3), 10.0);
    }

    #[test]
    fn staleness_counter_and_rebuild() {
        let mut sm = SuffixMax::new();
        let vals: Vec<f64> = (0..200).map(|i| i as f64).collect();
        sm.rebuild(&vals);
        for pos in 0..40 {
            sm.update(pos, 0.0);
        }
        assert!(sm.staleness() > 0);
        // Trigger enough staleness for a rebuild (threshold = max(25%, 32)).
        for pos in 40..120 {
            sm.update(pos, 0.0);
        }
        let _ = sm.range_max(0, 10);
        assert_eq!(sm.staleness(), 0, "query rebuilt the snapshot");
        assert_eq!(sm.range_max(0, 200), 199.0);
    }

    #[test]
    fn value_at_is_exact_while_the_snapshot_is_dirty_or_stale() {
        // Never queried: the snapshot stays dirty and stale throughout.
        crate::zone::check_value_at(SuffixMax::new(), |_| {});
        // Queried now and then: reads interleave with lazy rebuilds.
        crate::zone::check_value_at(SuffixMax::new(), |s| {
            let n = s.len();
            s.range_max(0, n);
        });

        let mut sm = SuffixMax::new();
        sm.rebuild(&[1.0, 2.0, 3.0]);
        sm.update(2, 0.5); // stale: the snapshot still says 3
        sm.update(0, 9.0); // dirty: the snapshot under-estimates
        assert!(sm.staleness() > 0);
        assert_eq!((sm.value_at(0), sm.value_at(1), sm.value_at(2)), (9.0, 2.0, 0.5));
    }
}
