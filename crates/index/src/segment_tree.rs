//! Exact zone maxima via an iterative range-max segment tree.
//!
//! This is the "exact" implementation of MRIO's zone bound `UB*`: point
//! updates and range queries are both O(log n), and appends are amortized
//! O(log n) (capacity doubles like a `Vec`). Tombstones are point updates to
//! `-inf`, so they never contribute to a zone bound.

use crate::zone::ZoneMax;

/// Iterative segment tree over `len` values with range-max queries.
#[derive(Debug, Clone)]
pub struct MaxSegTree {
    /// `tree[cap..cap+len]` are the leaves; internal node `i` covers
    /// `2i`/`2i+1`. Unused slots hold `-inf`.
    tree: Vec<f64>,
    cap: usize,
    len: usize,
}

impl Default for MaxSegTree {
    fn default() -> Self {
        MaxSegTree { tree: vec![f64::NEG_INFINITY; 2], cap: 1, len: 0 }
    }
}

impl MaxSegTree {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from existing values.
    pub fn from_values(vals: &[f64]) -> Self {
        let mut t = MaxSegTree::new();
        t.rebuild(vals);
        t
    }

    fn grow_to(&mut self, min_cap: usize) {
        let mut cap = self.cap;
        while cap < min_cap {
            cap *= 2;
        }
        if cap == self.cap {
            return;
        }
        let mut tree = vec![f64::NEG_INFINITY; 2 * cap];
        tree[cap..cap + self.len].copy_from_slice(&self.tree[self.cap..self.cap + self.len]);
        for i in (1..cap).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        self.tree = tree;
        self.cap = cap;
    }
}

impl ZoneMax for MaxSegTree {
    fn append(&mut self, u: f64) {
        if self.len == self.cap {
            self.grow_to(self.cap * 2);
        }
        let pos = self.len;
        self.len += 1;
        self.update(pos, u);
    }

    fn update(&mut self, pos: usize, u: f64) {
        assert!(pos < self.len, "segment tree update out of bounds");
        let mut i = self.cap + pos;
        self.tree[i] = u;
        i /= 2;
        while i >= 1 {
            let m = self.tree[2 * i].max(self.tree[2 * i + 1]);
            if self.tree[i] == m {
                break; // ancestors unchanged
            }
            self.tree[i] = m;
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    /// The leaves first, then every node above `[lo, hi)` once, level by
    /// level: about `hi − lo` node refreshes for the whole run where one
    /// [`ZoneMax::update`] per write walks `log n` nodes each. Every node is
    /// the exact maximum of its children either way, so the trees are equal.
    fn update_run(&mut self, lo: usize, hi: usize, writes: &[(usize, f64)]) {
        assert!(hi <= self.len, "segment tree run out of bounds");
        if lo >= hi {
            return;
        }
        for &(pos, u) in writes {
            debug_assert!((lo..hi).contains(&pos));
            self.tree[self.cap + pos] = u;
        }
        let (mut l, mut r) = (self.cap + lo, self.cap + hi - 1);
        while l > 1 {
            (l, r) = (l / 2, r / 2);
            for i in l..=r {
                self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
            }
        }
    }

    #[inline]
    fn value_at(&self, pos: usize) -> f64 {
        debug_assert!(pos < self.len);
        self.tree[self.cap + pos]
    }

    fn range_max(&mut self, lo: usize, hi: usize) -> f64 {
        let (lo, hi) = (lo.min(self.len), hi.min(self.len));
        if lo >= hi {
            return f64::NEG_INFINITY;
        }
        let mut best = f64::NEG_INFINITY;
        let (mut l, mut r) = (self.cap + lo, self.cap + hi);
        while l < r {
            if l & 1 == 1 {
                best = best.max(self.tree[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                best = best.max(self.tree[r]);
            }
            l /= 2;
            r /= 2;
        }
        best
    }

    fn global_max(&mut self) -> f64 {
        if self.len == 0 {
            f64::NEG_INFINITY
        } else {
            self.tree[1]
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn rebuild(&mut self, vals: &[f64]) {
        let cap = vals.len().next_power_of_two().max(1);
        let mut tree = vec![f64::NEG_INFINITY; 2 * cap];
        tree[cap..cap + vals.len()].copy_from_slice(vals);
        for i in (1..cap).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        self.tree = tree;
        self.cap = cap;
        self.len = vals.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{ScanZoneMax, ZoneMax};

    #[test]
    fn matches_reference_on_static_data() {
        let vals: Vec<f64> = (0..37).map(|i| ((i * 7919) % 101) as f64).collect();
        let mut tree = MaxSegTree::from_values(&vals);
        let mut oracle = ScanZoneMax::default();
        oracle.rebuild(&vals);
        for lo in 0..=vals.len() {
            for hi in lo..=vals.len() {
                assert_eq!(tree.range_max(lo, hi), oracle.range_max(lo, hi), "[{lo},{hi})");
            }
        }
        assert_eq!(tree.global_max(), oracle.global_max());
    }

    #[test]
    fn append_and_update_stay_consistent() {
        let mut tree = MaxSegTree::new();
        let mut oracle = ScanZoneMax::default();
        let mut state = 1u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for step in 0..500 {
            if step % 3 == 0 || tree.len() == 0 {
                let v = rng();
                tree.append(v);
                oracle.append(v);
            } else {
                let pos = (rng() * tree.len() as f64) as usize % tree.len();
                let v = if step % 7 == 0 { f64::NEG_INFINITY } else { rng() };
                tree.update(pos, v);
                oracle.update(pos, v);
            }
            let n = tree.len();
            let lo = step % (n + 1);
            let hi = (lo + step * 3 / 2) % (n + 1);
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            assert_eq!(tree.range_max(lo, hi), oracle.range_max(lo, hi));
            assert_eq!(tree.global_max(), oracle.global_max());
        }
    }

    #[test]
    fn infinity_sentinel_is_propagated() {
        let mut tree = MaxSegTree::from_values(&[1.0, 2.0, 3.0]);
        tree.update(1, f64::INFINITY);
        assert_eq!(tree.global_max(), f64::INFINITY);
        assert_eq!(tree.range_max(0, 1), 1.0);
        tree.update(1, 0.5);
        assert_eq!(tree.global_max(), 3.0);
    }

    #[test]
    fn empty_tree_behaviour() {
        let mut tree = MaxSegTree::new();
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.global_max(), f64::NEG_INFINITY);
        assert_eq!(tree.range_max(0, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn value_at_reads_the_leaf() {
        crate::zone::check_value_at(MaxSegTree::new(), |_| {});
        crate::zone::check_value_at(MaxSegTree::new(), |t| {
            let n = t.len();
            t.range_max(0, n);
        });
    }
}
