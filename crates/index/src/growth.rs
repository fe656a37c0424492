//! The one growth rule of the index's tables.
//!
//! Every table that holds one entry per postings list or per query — the
//! list table, the list → term table, the record arena and its slot table,
//! MRIO's zone table — and every per-list array that grows by appends (a
//! plain list's postings, a zone tree's leaves) grows the same way: the
//! capacity doubles up to [`GROWTH_CHUNK`], then grows in exact steps of
//! [`GROWTH_CHUNK`]. A few hundred queries pay for a few hundred slots, and
//! hundreds of thousands pay at most one chunk of slack per table, not the
//! half a table that doubling leaves.

/// The step past which capacities stop doubling.
pub const GROWTH_CHUNK: usize = 256;

/// The capacity after `cap` is full: doubled (from at least 1) up to
/// [`GROWTH_CHUNK`], then one chunk more.
#[inline]
pub fn next_capacity(cap: usize) -> usize {
    if cap < GROWTH_CHUNK {
        (2 * cap).clamp(1, GROWTH_CHUNK)
    } else {
        cap + GROWTH_CHUNK
    }
}

/// The capacity a table reaches by growing to hold `n` entries: the next
/// power of two up to [`GROWTH_CHUNK`], then `n` rounded up to whole chunks.
#[inline]
pub fn fitted_capacity(n: usize) -> usize {
    if n <= GROWTH_CHUNK {
        n.next_power_of_two()
    } else {
        n.div_ceil(GROWTH_CHUNK) * GROWTH_CHUNK
    }
}

/// Make room in `v` for one more push, by the rule.
#[inline]
pub fn reserve_one<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact(next_capacity(v.capacity()) - v.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_follow_the_rule_and_land_on_fitted_capacities() {
        let mut v: Vec<u64> = Vec::new();
        let mut caps = Vec::new();
        for n in 1..=4 * GROWTH_CHUNK + 3 {
            reserve_one(&mut v);
            v.push(n as u64);
            assert_eq!(v.capacity(), fitted_capacity(n), "after {n} pushes");
            if caps.last() != Some(&v.capacity()) {
                caps.push(v.capacity());
            }
        }
        let doubling = (0..=GROWTH_CHUNK.trailing_zeros()).map(|b| 1usize << b);
        let chunks = (2..=5).map(|c| c * GROWTH_CHUNK);
        assert_eq!(caps, doubling.chain(chunks).collect::<Vec<_>>());
    }
}
