//! Exact zone maxima via an iterative range-max segment tree.
//!
//! This is the "exact" implementation of MRIO's zone bound `UB*`: point
//! updates and range queries are both O(log n), and appends are amortized
//! O(log n). Tombstones are point updates to `-inf`, so they never
//! contribute to a zone bound.
//!
//! **Layout.** The classic bottom-up tree: with capacity `cap`, leaves are
//! nodes `cap..2·cap` and internal node `i` is the maximum of `2i` and
//! `2i+1`. That is correct for any capacity, so the capacity grows by the
//! index's one rule ([`crate::growth`]) rather than to powers of two. Node 0
//! belongs to no subtree; it holds the length. A list of one posting needs
//! no tree — its maximum is its leaf — so a tree of length 0 or 1 owns no
//! heap, and the whole struct is 16 bytes.

use crate::growth;
use crate::zone::ZoneMax;

/// Iterative segment tree over `len` values with range-max queries.
#[derive(Debug, Clone)]
pub struct MaxSegTree {
    nodes: Nodes,
}

#[derive(Debug, Clone)]
enum Nodes {
    /// A tree of length 1: the one leaf.
    Leaf(f64),
    /// `2·cap` nodes (see module docs), `cap >= 2`; empty for length 0.
    /// Unused leaves hold `-inf`.
    Tree(Box<[f64]>),
}

impl Default for MaxSegTree {
    fn default() -> Self {
        MaxSegTree { nodes: Nodes::Tree(Box::default()) }
    }
}

/// The nodes of a tree of capacity `cap >= 2` over `leaves`.
fn build(leaves: &[f64], cap: usize) -> Box<[f64]> {
    debug_assert!(cap >= 2 && leaves.len() <= cap);
    let mut nodes = vec![f64::NEG_INFINITY; 2 * cap];
    nodes[cap..cap + leaves.len()].copy_from_slice(leaves);
    for i in (1..cap).rev() {
        nodes[i] = nodes[2 * i].max(nodes[2 * i + 1]);
    }
    set_len(&mut nodes, leaves.len());
    nodes.into_boxed_slice()
}

#[inline]
fn tree_len(nodes: &[f64]) -> usize {
    nodes.first().map_or(0, |n| n.to_bits() as usize)
}

#[inline]
fn set_len(nodes: &mut [f64], len: usize) {
    nodes[0] = f64::from_bits(len as u64);
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
}

impl ZoneMax for MaxSegTree {
    fn append(&mut self, u: f64) {
        match &mut self.nodes {
            Nodes::Leaf(v) => self.nodes = Nodes::Tree(build(&[*v, u], 2)),
            Nodes::Tree(nodes) if nodes.is_empty() => self.nodes = Nodes::Leaf(u),
            Nodes::Tree(nodes) => {
                let (len, cap) = (tree_len(nodes), nodes.len() / 2);
                if len == cap {
                    *nodes = build(&nodes[cap..], growth::next_capacity(cap));
                }
                set_len(nodes, len + 1);
                self.update(len, u);
            }
        }
    }

    fn update(&mut self, pos: usize, u: f64) {
        assert!(pos < self.len(), "segment tree update out of bounds");
        let tree = match &mut self.nodes {
            Nodes::Leaf(v) => {
                *v = u;
                return;
            }
            Nodes::Tree(nodes) => nodes,
        };
        let mut i = tree.len() / 2 + pos;
        tree[i] = u;
        i /= 2;
        while i >= 1 {
            let m = tree[2 * i].max(tree[2 * i + 1]);
            if tree[i] == m {
                break; // ancestors unchanged
            }
            tree[i] = m;
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    /// The leaves first, then every node above `[lo, hi)` once per level
    /// of halving: about `hi − lo` node refreshes for the whole run where
    /// one [`ZoneMax::update`] per write walks `log n` nodes each. Every
    /// node is the exact maximum of its children either way, so the trees
    /// are equal. Below a capacity that is not a power of two the leaves
    /// sit at two depths; a node is then refreshed again a level later
    /// than a child that was still stale, and the halving runs until the
    /// root.
    fn update_run(&mut self, lo: usize, hi: usize, writes: &[(usize, f64)]) {
        assert!(hi <= self.len(), "segment tree run out of bounds");
        if lo >= hi {
            return;
        }
        let tree = match &mut self.nodes {
            Nodes::Leaf(v) => {
                if let Some(&(_, u)) = writes.last() {
                    *v = u;
                }
                return;
            }
            Nodes::Tree(nodes) => nodes,
        };
        let cap = tree.len() / 2;
        for &(pos, u) in writes {
            debug_assert!((lo..hi).contains(&pos));
            tree[cap + pos] = u;
        }
        let (mut l, mut r) = (cap + lo, cap + hi - 1);
        while r > 1 {
            (l, r) = ((l / 2).max(1), r / 2);
            for i in l..=r {
                tree[i] = tree[2 * i].max(tree[2 * i + 1]);
            }
        }
    }

    #[inline]
    fn value_at(&self, pos: usize) -> f64 {
        debug_assert!(pos < self.len());
        match &self.nodes {
            Nodes::Leaf(v) => *v,
            Nodes::Tree(nodes) => nodes[nodes.len() / 2 + pos],
        }
    }

    fn range_max(&mut self, lo: usize, hi: usize) -> f64 {
        let len = self.len();
        let (lo, hi) = (lo.min(len), hi.min(len));
        if lo >= hi {
            return f64::NEG_INFINITY;
        }
        let tree = match &self.nodes {
            Nodes::Leaf(v) => return *v,
            Nodes::Tree(nodes) => nodes,
        };
        let cap = tree.len() / 2;
        let mut best = f64::NEG_INFINITY;
        let (mut l, mut r) = (cap + lo, cap + hi);
        while l < r {
            if l & 1 == 1 {
                best = best.max(tree[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                best = best.max(tree[r]);
            }
            l /= 2;
            r /= 2;
        }
        best
    }

    fn global_max(&mut self) -> f64 {
        match &self.nodes {
            Nodes::Leaf(v) => *v,
            Nodes::Tree(nodes) if nodes.is_empty() => f64::NEG_INFINITY,
            Nodes::Tree(nodes) => nodes[1],
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match &self.nodes {
            Nodes::Leaf(_) => 1,
            Nodes::Tree(nodes) => tree_len(nodes),
        }
    }

    fn rebuild(&mut self, vals: &[f64]) {
        self.nodes = match *vals {
            [] => Nodes::Tree(Box::default()),
            [v] => Nodes::Leaf(v),
            _ => Nodes::Tree(build(vals, growth::fitted_capacity(vals.len()))),
        };
    }

    fn heap_bytes(&self) -> usize {
        match &self.nodes {
            Nodes::Leaf(_) => 0,
            Nodes::Tree(nodes) => std::mem::size_of_val::<[f64]>(nodes),
        }
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
