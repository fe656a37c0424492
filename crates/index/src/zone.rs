//! The zone-maximum abstraction behind MRIO's local bounds (paper Eq. 3).
//!
//! MRIO needs, per postings list, the maximum normalized preference
//! `u = w/S_k` over a *range of positions* (the current zone). The TKDE paper
//! evaluates three implementations of this primitive; the trait below is the
//! seam they all plug into, and `ctk-core::mrio` is generic over it.

/// Range-maximum structure over the per-position bound values of one list.
///
/// `range_max` takes `&mut self` because the lazily maintained variants
/// ([`crate::SuffixMax`]) may need to rebuild their snapshot before they can
/// answer.
pub trait ZoneMax {
    /// Append a value for the new tail position (list grew by one posting).
    fn append(&mut self, u: f64);

    /// Point-update the value at `pos` (the query's `S_k` changed, or the
    /// posting was tombstoned — encoded as `-inf`).
    fn update(&mut self, pos: usize, u: f64);

    /// Point-update a run of positions at once: `writes` are `(pos, u)` in
    /// ascending position order, every `pos` inside `[lo, hi)`. Afterwards
    /// the structure answers exactly as after one [`ZoneMax::update`] per
    /// write, in order — bit for bit, so a caller may take either path.
    /// Default: one `update` per write. A structure whose point update walks
    /// shared summary nodes may refresh them once for the whole range
    /// instead, at a cost in the width of `[lo, hi)`: callers pass ranges
    /// they have just read anyway.
    fn update_run(&mut self, lo: usize, hi: usize, writes: &[(usize, f64)]) {
        debug_assert!(writes.iter().all(|&(pos, _)| (lo..hi).contains(&pos)));
        for &(pos, u) in writes {
            self.update(pos, u);
        }
    }

    /// Maximum over positions `[lo, hi)`. Returns `-inf` for empty ranges.
    ///
    /// Implementations may return a value `>=` the true maximum (an upper
    /// bound) but never smaller — pruning correctness depends on it.
    fn range_max(&mut self, lo: usize, hi: usize) -> f64;

    /// The value at `pos` — a zone of width one. Like `range_max` it may be
    /// `>=` the value last written but never smaller; every structure here
    /// keeps the per-position array, so all of them answer exactly, in
    /// O(1), with no deferred maintenance to settle first.
    fn value_at(&self, pos: usize) -> f64;

    /// Maximum over all positions (used as the RIO-style global bound).
    fn global_max(&mut self) -> f64 {
        let n = self.len();
        self.range_max(0, n)
    }

    /// Number of tracked positions.
    fn len(&self) -> usize;

    /// True when no positions are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace the entire contents (compaction path).
    fn rebuild(&mut self, vals: &[f64]);

    /// RAM bytes owned by the structure, every allocation at its capacity;
    /// excludes `size_of::<Self>()` (the table holding it counts its slot).
    fn heap_bytes(&self) -> usize;
}

/// Exhaustive reference implementation used in tests and as the correctness
/// oracle for the real structures.
#[derive(Debug, Default, Clone)]
pub struct ScanZoneMax {
    vals: Vec<f64>,
}

impl ZoneMax for ScanZoneMax {
    fn append(&mut self, u: f64) {
        self.vals.push(u);
    }

    fn update(&mut self, pos: usize, u: f64) {
        self.vals[pos] = u;
    }

    fn value_at(&self, pos: usize) -> f64 {
        self.vals[pos]
    }

    fn range_max(&mut self, lo: usize, hi: usize) -> f64 {
        self.vals[lo.min(self.vals.len())..hi.min(self.vals.len())]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn rebuild(&mut self, vals: &[f64]) {
        self.vals = vals.to_vec();
    }

    fn heap_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<f64>()
    }
}

/// `value_at` of structure `z` against the scan reference, through every
/// kind of write: appends, point updates (finite, the `-∞` tombstone, the
/// `+∞` unfilled sentinel, up and down) and a rebuild. `value_at(pos) >=`
/// the value written is the contract; every structure in this crate stores
/// the value, so equality is asserted. `settle` runs between writes and
/// reads: a range query, or nothing, to read through deferred maintenance.
#[cfg(test)]
pub(crate) fn check_value_at<Z: ZoneMax>(mut z: Z, mut settle: impl FnMut(&mut Z)) {
    fn agree<Z: ZoneMax>(z: &Z, oracle: &ScanZoneMax, when: &str) {
        assert_eq!(z.len(), oracle.len(), "{when}");
        for pos in 0..oracle.len() {
            assert_eq!(z.value_at(pos), oracle.value_at(pos), "{when}: position {pos}");
        }
    }
    let mut oracle = ScanZoneMax::default();
    for i in 0..150u32 {
        let u = if i % 11 == 0 { f64::INFINITY } else { ((i * 7919) % 101) as f64 / 7.0 };
        z.append(u);
        oracle.append(u);
    }
    settle(&mut z);
    agree(&z, &oracle, "after append");
    for step in 0..400usize {
        let pos = (step * 37) % oracle.len();
        let u = match step % 5 {
            0 => f64::NEG_INFINITY,
            1 => f64::INFINITY,
            2 => oracle.value_at(pos) * 0.5, // S_k rose
            _ => (step % 23) as f64,         // up or down
        };
        z.update(pos, u);
        oracle.update(pos, u);
        if step % 7 == 0 {
            settle(&mut z);
        }
        assert_eq!(z.value_at(pos), u, "right after update {step}");
    }
    agree(&z, &oracle, "after updates");
    let vals: Vec<f64> =
        (0..70).map(|i| if i % 9 == 0 { f64::NEG_INFINITY } else { i as f64 }).collect();
    z.rebuild(&vals);
    oracle.rebuild(&vals);
    agree(&z, &oracle, "after rebuild");
    z.append(3.5);
    oracle.append(3.5);
    agree(&z, &oracle, "append after rebuild");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockMax, MaxSegTree, SuffixMax};

    /// `update_run` on one instance of a structure against one `update` per
    /// write on another and the scan reference, through random ascending
    /// write runs — values finite, `-∞` and `+∞`, some runs starting at
    /// position 0 or ending in the last slot. After every few runs:
    /// `value_at` everywhere, `range_max` over every range and `global_max`
    /// must be bit-identical on both instances, never under the scan's
    /// exact maxima, and equal to them where the structure is `exact`.
    fn check_update_run<Z: ZoneMax>(make: impl Fn() -> Z, exact: bool) {
        let (mut runs, mut points, mut oracle) = (make(), make(), ScanZoneMax::default());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let n = 150;
        for i in 0..n {
            let u = (i % 17) as f64 / 3.0;
            runs.append(u);
            points.append(u);
            oracle.append(u);
        }
        let mut writes = Vec::new();
        for step in 0..120 {
            let lo = if step % 5 == 0 { 0 } else { rng(n) };
            let hi = if step % 7 == 0 { n } else { lo + 1 + rng(n - lo) };
            writes.clear();
            for pos in lo..hi {
                if pos == lo || pos + 1 == hi || rng(3) == 0 {
                    let u = match rng(8) {
                        0 => f64::NEG_INFINITY,
                        1 => f64::INFINITY,
                        v => (v + rng(40)) as f64 / 7.0,
                    };
                    writes.push((pos, u));
                }
            }
            runs.update_run(lo, hi, &writes);
            for &(pos, u) in &writes {
                points.update(pos, u);
                oracle.update(pos, u);
            }
            if step % 6 != 5 {
                continue;
            }
            for pos in 0..n {
                assert_eq!(runs.value_at(pos).to_bits(), oracle.value_at(pos).to_bits());
                assert_eq!(points.value_at(pos).to_bits(), oracle.value_at(pos).to_bits());
            }
            for lo in 0..=n {
                for hi in lo..=n {
                    let (got, want) = (runs.range_max(lo, hi), points.range_max(lo, hi));
                    assert_eq!(got.to_bits(), want.to_bits(), "step {step}: [{lo}, {hi})");
                    let scan = oracle.range_max(lo, hi);
                    assert!(got >= scan && (!exact || got == scan), "step {step}: [{lo}, {hi})");
                }
            }
            let (got, scan) = (runs.global_max(), oracle.global_max());
            assert_eq!(got.to_bits(), points.global_max().to_bits(), "step {step}");
            assert!(got >= scan && (!exact || got == scan), "step {step}");
        }
    }

    #[test]
    fn update_run_answers_like_one_update_per_write_on_every_structure() {
        check_update_run(ScanZoneMax::default, true);
        check_update_run(MaxSegTree::new, true);
        check_update_run(BlockMax::new, false);
        check_update_run(|| BlockMax::with_block_size(4), false);
        check_update_run(SuffixMax::new, false);
    }

    #[test]
    fn scan_zone_max_basics() {
        let mut z = ScanZoneMax::default();
        for v in [1.0, 5.0, 2.0] {
            z.append(v);
        }
        assert_eq!(z.range_max(0, 3), 5.0);
        assert_eq!(z.range_max(2, 3), 2.0);
        assert_eq!(z.range_max(1, 1), f64::NEG_INFINITY, "empty range");
        z.update(1, 0.5);
        assert_eq!(z.global_max(), 2.0);
        z.rebuild(&[9.0]);
        assert_eq!(z.len(), 1);
        assert_eq!(z.global_max(), 9.0);
    }
}
