//! Block-structured zone maxima (the "block-max" implementation of `UB*`).
//!
//! The list is cut into fixed-size blocks; each block caches the maximum of
//! its values, in the spirit of Block-Max WAND. Range queries scan whole
//! blocks through the cache and only touch raw values in the two partial edge
//! blocks, so a query costs O(B + n/B); updates cost O(1) on increase and
//! O(B) on decrease (the block max must be recomputed).

use crate::zone::ZoneMax;

/// Default block size; 64 keeps a block inside one or two cache lines.
pub const DEFAULT_BLOCK: usize = 64;

/// Per-block maxima over a growable array of values.
#[derive(Debug, Clone)]
pub struct BlockMax {
    vals: Vec<f64>,
    block_max: Vec<f64>,
    block: usize,
    /// Cached maximum over all values (kept exact on every mutation).
    global: f64,
}

impl Default for BlockMax {
    fn default() -> Self {
        BlockMax::with_block_size(DEFAULT_BLOCK)
    }
}

impl BlockMax {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create with a custom block size (must be >= 1).
    pub fn with_block_size(block: usize) -> Self {
        assert!(block >= 1);
        BlockMax { vals: Vec::new(), block_max: Vec::new(), block, global: f64::NEG_INFINITY }
    }

    #[inline]
    fn block_of(&self, pos: usize) -> usize {
        pos / self.block
    }

    fn recompute_block(&mut self, b: usize) {
        let lo = b * self.block;
        let hi = ((b + 1) * self.block).min(self.vals.len());
        self.block_max[b] = self.vals[lo..hi].iter().copied().fold(f64::NEG_INFINITY, f64::max);
    }
}

impl ZoneMax for BlockMax {
    fn append(&mut self, u: f64) {
        let pos = self.vals.len();
        self.vals.push(u);
        let b = self.block_of(pos);
        if b == self.block_max.len() {
            self.block_max.push(u);
        } else {
            self.block_max[b] = self.block_max[b].max(u);
        }
        self.global = self.global.max(u);
    }

    fn update(&mut self, pos: usize, u: f64) {
        let old = self.vals[pos];
        self.vals[pos] = u;
        let b = self.block_of(pos);
        if u >= self.block_max[b] {
            self.block_max[b] = u;
        } else if old == self.block_max[b] {
            // The previous maximum may have shrunk: rescan the block.
            self.recompute_block(b);
        }
        if u >= self.global {
            self.global = u;
        } else if old == self.global {
            self.global = self.block_max.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        }
    }

    #[inline]
    fn value_at(&self, pos: usize) -> f64 {
        self.vals[pos]
    }

    fn range_max(&mut self, lo: usize, hi: usize) -> f64 {
        let (lo, hi) = (lo.min(self.vals.len()), hi.min(self.vals.len()));
        if lo >= hi {
            return f64::NEG_INFINITY;
        }
        let (b_lo, b_hi) = (self.block_of(lo), self.block_of(hi - 1));
        if b_lo == b_hi {
            return self.vals[lo..hi].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        }
        let mut best = f64::NEG_INFINITY;
        // Left partial block.
        let left_end = (b_lo + 1) * self.block;
        best = self.vals[lo..left_end].iter().copied().fold(best, f64::max);
        // Whole middle blocks via the cache.
        for b in (b_lo + 1)..b_hi {
            best = best.max(self.block_max[b]);
        }
        // Right partial block.
        let right_start = b_hi * self.block;
        best = self.vals[right_start..hi].iter().copied().fold(best, f64::max);
        best
    }

    fn global_max(&mut self) -> f64 {
        self.global
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn rebuild(&mut self, vals: &[f64]) {
        self.vals = vals.to_vec();
        let nblocks = vals.len().div_ceil(self.block);
        self.block_max = vec![f64::NEG_INFINITY; nblocks];
        for b in 0..nblocks {
            self.recompute_block(b);
        }
        self.global = self.block_max.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    }

    fn heap_bytes(&self) -> usize {
        (self.vals.capacity() + self.block_max.capacity()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{ScanZoneMax, ZoneMax};

    #[test]
    fn matches_reference_small_blocks() {
        for block in [1usize, 2, 3, 8] {
            let vals: Vec<f64> = (0..50).map(|i| ((i * 31) % 17) as f64).collect();
            let mut bm = BlockMax::with_block_size(block);
            bm.rebuild(&vals);
            let mut oracle = ScanZoneMax::default();
            oracle.rebuild(&vals);
            for lo in 0..=vals.len() {
                for hi in lo..=vals.len() {
                    assert_eq!(
                        bm.range_max(lo, hi),
                        oracle.range_max(lo, hi),
                        "block={block} [{lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn randomized_ops_match_reference() {
        let mut bm = BlockMax::with_block_size(4);
        let mut oracle = ScanZoneMax::default();
        let mut state = 99u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for step in 0..600 {
            if step % 2 == 0 || bm.len() == 0 {
                let v = rng() * 10.0;
                bm.append(v);
                oracle.append(v);
            } else {
                let pos = (rng() * bm.len() as f64) as usize % bm.len();
                let v = if step % 5 == 0 { f64::NEG_INFINITY } else { rng() * 10.0 };
                bm.update(pos, v);
                oracle.update(pos, v);
            }
            let n = bm.len();
            for (lo, hi) in [(0, n), (n / 3, 2 * n / 3 + 1), (n.saturating_sub(5), n)] {
                assert_eq!(bm.range_max(lo, hi), oracle.range_max(lo, hi));
            }
        }
    }

    #[test]
    fn update_decrease_recomputes_block_max() {
        let mut bm = BlockMax::with_block_size(4);
        bm.rebuild(&[1.0, 9.0, 2.0, 3.0]);
        bm.update(1, 0.5); // old block max shrinks
        assert_eq!(bm.range_max(0, 4), 3.0);
        bm.update(3, 20.0); // fast path: new max
        assert_eq!(bm.range_max(0, 4), 20.0);
    }

    #[test]
    fn empty_and_oob_ranges() {
        let mut bm = BlockMax::new();
        assert_eq!(bm.range_max(0, 10), f64::NEG_INFINITY);
        bm.append(5.0);
        assert_eq!(bm.range_max(0, 100), 5.0, "hi clamped to len");
        assert_eq!(bm.range_max(1, 1), f64::NEG_INFINITY);
    }

    #[test]
    fn value_at_reads_the_stored_value() {
        crate::zone::check_value_at(BlockMax::new(), |_| {});
        crate::zone::check_value_at(BlockMax::with_block_size(4), |b| {
            let n = b.len();
            b.range_max(0, n);
        });
    }
}
