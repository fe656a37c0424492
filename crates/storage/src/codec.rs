//! The sealed-block postings codec.
//!
//! A block holds exactly [`BLOCK_LEN`] postings — the same span as one
//! `BlockMax` zone. Query ids are stored as a base id plus bit-packed deltas
//! (each delta is `qid[i] − qid[i−1] − 1`, since ids are strictly
//! increasing); the packing width is the smallest that fits the block's
//! largest gap, so dense id runs cost 0 bits per id. Weights are the raw f32
//! bits, so a block round-trips losslessly, as bit-identical results
//! require. Tombstones travel as zero-weight slots, the same sentinel the
//! plain `Vec` store uses, so compaction semantics carry over unchanged.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [0]      flags        always 0 (reserved)
//! [1]      width        bits per id delta (0..=32)
//! [2..6]   base         first query id, u32
//! [..]     id deltas    63 × width bits, LSB-first bit stream
//! [..]     weights      64 × f32
//! ```

/// Postings per sealed block. Must equal the `BlockMax` zone span so epoch
/// bounds probes align with block boundaries (asserted in `ctk-index`).
pub const BLOCK_LEN: usize = 64;

/// Encode one full block of `(qid, weight)` slots (tombstones as weight
/// `0.0`) into `out`. `slots` must hold exactly [`BLOCK_LEN`] entries with
/// strictly increasing ids.
pub fn encode_block(slots: &[(u32, f32)], out: &mut Vec<u8>) {
    assert_eq!(slots.len(), BLOCK_LEN, "sealed blocks are always full");
    debug_assert!(slots.windows(2).all(|w| w[0].0 < w[1].0), "ids must be strictly increasing");

    let mut max_gap = 0u32;
    for w in slots.windows(2) {
        max_gap = max_gap.max(w[1].0 - w[0].0 - 1);
    }
    let width = 32 - max_gap.leading_zeros().min(32);
    out.push(0);
    out.push(width as u8);
    out.extend_from_slice(&slots[0].0.to_le_bytes());

    // Pack the 63 deltas LSB-first through a u64 staging buffer.
    let mut acc = 0u64;
    let mut bits = 0u32;
    for w in slots.windows(2) {
        let delta = (w[1].0 - w[0].0 - 1) as u64;
        acc |= delta << bits;
        bits += width;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(acc as u8);
    }

    for &(_, w) in slots {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// One decoded sealed block, ids and weights in separate arrays: a search
/// touches the 256 bytes of ids only, and an ids-only decode
/// ([`decode_ids`]) fills half of it.
#[derive(Debug, Clone)]
pub struct Block {
    pub ids: [u32; BLOCK_LEN],
    pub weights: [f32; BLOCK_LEN],
}

impl Block {
    pub const fn zeroed() -> Self {
        Block { ids: [0; BLOCK_LEN], weights: [0.0; BLOCK_LEN] }
    }
}

/// Visit the block's ids in slot order until `f` returns `false`.
///
/// Deltas are shifted out of a 64-bit reservoir that is topped up with one
/// unaligned little-endian `u64` load whenever it holds fewer bits than a
/// delta needs: after a refill it holds at least 56 valid bits, so a
/// 32-bit delta always fits and a 5-bit one is read eleven to a load. The
/// load may run past the delta stream into the weights that follow it;
/// those bits are never consumed.
#[inline(always)]
fn walk_ids(bytes: &[u8], mut f: impl FnMut(usize, u32) -> bool) {
    let width = bytes[1] as u32;
    assert!(width <= 32, "corrupt block: id width {width}");
    let mut id = u32::from_le_bytes(bytes[2..6].try_into().unwrap());
    if !f(0, id) {
        return;
    }
    let packed = &bytes[6..];
    let mask = (1u64 << width) - 1;
    // `held` valid bits sit at the bottom of `reservoir`; `next` is the
    // byte holding the first bit not yet loaded.
    let (mut reservoir, mut held, mut next) = (0u64, 0u32, 0usize);
    for slot in 1..BLOCK_LEN {
        if held < width {
            let word = u64::from_le_bytes(packed[next..next + 8].try_into().unwrap());
            reservoir |= word << held;
            next += ((63 - held) >> 3) as usize;
            held |= 56;
        }
        let delta = (reservoir & mask) as u32;
        reservoir >>= width;
        held -= width;
        id = id.wrapping_add(delta).wrapping_add(1);
        if !f(slot, id) {
            return;
        }
    }
}

/// Decode only the query ids of a sealed block: the half of
/// [`decode_block`] a search needs.
pub fn decode_ids(bytes: &[u8], out: &mut [u32; BLOCK_LEN]) {
    walk_ids(bytes, |slot, id| {
        out[slot] = id;
        true
    });
}

/// First slot `>= from` whose id is `>= target` (or [`BLOCK_LEN`]), and
/// whether that id equals `target` — without materializing the block: the
/// delta walk stops at the answer.
pub fn seek_ids(bytes: &[u8], from: usize, target: u32) -> (usize, bool) {
    let mut found = (BLOCK_LEN, false);
    walk_ids(bytes, |slot, id| {
        if slot >= from && id >= target {
            found = (slot, id == target);
            false
        } else {
            true
        }
    });
    found
}

/// The weight bytes of a block.
#[inline]
fn weight_stream(bytes: &[u8]) -> &[u8] {
    let id_stream = ((BLOCK_LEN - 1) * bytes[1] as usize).div_ceil(8);
    &bytes[6 + id_stream..]
}

/// Decode only the weights of a sealed block.
fn decode_weights(bytes: &[u8], out: &mut [f32; BLOCK_LEN]) {
    for (w, raw) in out.iter_mut().zip(weight_stream(bytes)[..4 * BLOCK_LEN].chunks_exact(4)) {
        *w = f32::from_le_bytes(raw.try_into().unwrap());
    }
}

/// The `(qid, weight)` of one slot, read without decoding the rest: the
/// delta walk stops at `slot` and the weight is addressed directly.
pub fn decode_slot(bytes: &[u8], slot: usize) -> (u32, f32) {
    assert!(slot < BLOCK_LEN);
    let mut qid = 0;
    walk_ids(bytes, |i, id| {
        qid = id;
        i < slot
    });
    let weights = weight_stream(bytes);
    (qid, f32::from_le_bytes(weights[4 * slot..4 * slot + 4].try_into().unwrap()))
}

/// Decode one sealed block into `out`: the exact inverse of
/// [`encode_block`].
pub fn decode_block(bytes: &[u8], out: &mut Block) {
    decode_ids(bytes, &mut out.ids);
    decode_weights(bytes, &mut out.weights);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoded(bytes: &[u8]) -> Vec<(u32, f32)> {
        let mut out = Block::zeroed();
        decode_block(bytes, &mut out);
        out.ids.iter().copied().zip(out.weights.iter().copied()).collect()
    }

    fn roundtrip(slots: &[(u32, f32)]) -> Vec<(u32, f32)> {
        let mut bytes = Vec::new();
        encode_block(slots, &mut bytes);
        decoded(&bytes)
    }

    #[test]
    fn dense_ids_cost_zero_id_bits() {
        let slots: Vec<(u32, f32)> = (0..BLOCK_LEN as u32).map(|i| (i, 0.5)).collect();
        let mut bytes = Vec::new();
        encode_block(&slots, &mut bytes);
        // flags + width + base + 0 id bytes + 64 raw weights.
        assert_eq!(bytes.len(), 2 + 4 + 4 * BLOCK_LEN);
        assert_eq!(roundtrip(&slots), slots);
    }

    #[test]
    fn sparse_ids_and_tombstones_round_trip() {
        let slots: Vec<(u32, f32)> = (0..BLOCK_LEN as u32)
            .map(|i| (i * 1000 + (i % 7), if i % 5 == 0 { 0.0 } else { 0.1 + i as f32 }))
            .collect();
        assert_eq!(roundtrip(&slots), slots);
    }

    #[test]
    fn extreme_gaps_use_full_width() {
        let mut slots: Vec<(u32, f32)> = vec![(0, 1.0)];
        slots.push((u32::MAX - 62, 2.0)); // delta-1 needs all 32 bits
        for i in 2..BLOCK_LEN as u32 {
            slots.push((u32::MAX - 63 + i, 0.5));
        }
        assert_eq!(roundtrip(&slots), slots);
    }

    /// A block whose largest gap needs exactly `width` bits (the smallest
    /// such gap, so a 32-bit one still fits the id space), with the other
    /// gaps cycling through smaller values.
    fn block_of_width(width: u32) -> Vec<(u32, f32)> {
        let widest = if width == 0 { 0 } else { 1u64 << (width - 1) };
        let mut qid = 3u64;
        (0..BLOCK_LEN as u64)
            .map(|i| {
                if i > 0 {
                    let gap = if i == 17 { widest } else { widest.min(i * 37 % 29) };
                    qid += gap + 1;
                }
                (qid as u32, if i % 9 == 4 { 0.0 } else { 0.25 + i as f32 })
            })
            .collect()
    }

    #[test]
    fn every_width_round_trips() {
        for width in 0..=32u32 {
            let slots = block_of_width(width);
            let mut bytes = Vec::new();
            encode_block(&slots, &mut bytes);
            assert_eq!(bytes[1] as u32, width, "the block must exercise width {width}");
            let got = decoded(&bytes);
            let mut ids = [0u32; BLOCK_LEN];
            decode_ids(&bytes, &mut ids);
            for (slot, (want, have)) in slots.iter().zip(&got).enumerate() {
                assert_eq!(want.0, have.0, "width {width} slot {slot}");
                assert_eq!(ids[slot], want.0, "ids-only decode, width {width} slot {slot}");
                assert_eq!(want.1.to_bits(), have.1.to_bits());
                // The single-slot reader sees what the full decode saw.
                let (qid, w) = decode_slot(&bytes, slot);
                assert_eq!((qid, w.to_bits()), (have.0, have.1.to_bits()));
            }
        }
    }

    #[test]
    fn seek_ids_matches_a_linear_scan() {
        for width in [0u32, 1, 5, 13, 32] {
            let slots = block_of_width(width);
            let mut bytes = Vec::new();
            encode_block(&slots, &mut bytes);
            let last = slots[BLOCK_LEN - 1].0;
            let mut targets: Vec<u32> =
                slots.iter().flat_map(|s| [s.0, s.0.wrapping_add(1)]).collect();
            targets.extend([0, last, last.saturating_add(1)]);
            for from in [0, 1, 17, 18, 63] {
                for &t in &targets {
                    let want = (from..BLOCK_LEN).find(|&i| slots[i].0 >= t).unwrap_or(BLOCK_LEN);
                    let exact = want < BLOCK_LEN && slots[want].0 == t;
                    assert_eq!(
                        seek_ids(&bytes, from, t),
                        (want, exact),
                        "w={width} from={from} t={t}"
                    );
                }
            }
        }
    }
}
