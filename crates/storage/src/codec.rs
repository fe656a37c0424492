//! The sealed-block postings codec.
//!
//! A block holds exactly [`BLOCK_LEN`] postings — the same span as one
//! `BlockMax` zone. Query ids are stored as a base id plus bit-packed deltas
//! (each delta is `qid[i] − qid[i−1] − 1`, since ids are strictly
//! increasing); the packing width is the smallest that fits the block's
//! largest gap, so dense id runs cost 0 bits per id. Weights are either raw
//! f32 bits (lossless — the default, required for bit-identical results) or
//! 16-bit linear-quantized behind [`WeightCodec::Quantized`]. Tombstones
//! travel as zero-weight slots in both modes, the same sentinel the plain
//! `Vec` store uses, so compaction semantics carry over unchanged.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [0]      flags        bit0: 1 = quantized weights
//! [1]      width        bits per id delta (0..=32)
//! [2..6]   base         first query id, u32
//! [..]     id deltas    63 × width bits, LSB-first bit stream
//! [..]     weights      raw: 64 × f32
//!                       quantized: f32 scale, then 64 × u16 codes
//! ```

use ctk_common::TOMBSTONE_WEIGHT;

/// Postings per sealed block. Must equal the `BlockMax` zone span so epoch
/// bounds probes align with block boundaries (asserted in `ctk-index`).
pub const BLOCK_LEN: usize = 64;

const FLAG_QUANTIZED: u8 = 1;

/// Weight encoding for sealed blocks.
///
/// `Raw` stores the exact f32 bits and round-trips losslessly — it is the
/// only mode the monitor uses, because results must stay bit-identical to
/// the plain store. `Quantized` trades exactness for 2 bytes per weight
/// (16-bit linear codes against the block's maximum); tombstones still
/// decode to exactly `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightCodec {
    #[default]
    Raw,
    Quantized,
}

/// Encode one full block of `(qid, weight)` slots (tombstones as weight
/// `0.0`) into `out`. `slots` must hold exactly [`BLOCK_LEN`] entries with
/// strictly increasing ids.
pub fn encode_block(slots: &[(u32, f32)], codec: WeightCodec, out: &mut Vec<u8>) {
    assert_eq!(slots.len(), BLOCK_LEN, "sealed blocks are always full");
    debug_assert!(slots.windows(2).all(|w| w[0].0 < w[1].0), "ids must be strictly increasing");

    let mut max_gap = 0u32;
    for w in slots.windows(2) {
        max_gap = max_gap.max(w[1].0 - w[0].0 - 1);
    }
    let width = 32 - max_gap.leading_zeros().min(32);
    let flags = match codec {
        WeightCodec::Raw => 0,
        WeightCodec::Quantized => FLAG_QUANTIZED,
    };
    out.push(flags);
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

    match codec {
        WeightCodec::Raw => {
            for &(_, w) in slots {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        WeightCodec::Quantized => {
            let max_w = slots.iter().map(|&(_, w)| w).fold(0.0f32, f32::max);
            let scale = if max_w > 0.0 { max_w / u16::MAX as f32 } else { 0.0 };
            out.extend_from_slice(&scale.to_le_bytes());
            for &(_, w) in slots {
                let code = if w == TOMBSTONE_WEIGHT || scale == 0.0 {
                    0u16
                } else {
                    ((w / scale).round() as u32).clamp(1, u16::MAX as u32) as u16
                };
                out.extend_from_slice(&code.to_le_bytes());
            }
        }
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

/// The weight bytes of a block and whether they are quantized.
#[inline]
fn weight_stream(bytes: &[u8]) -> (&[u8], bool) {
    let id_stream = ((BLOCK_LEN - 1) * bytes[1] as usize).div_ceil(8);
    (&bytes[6 + id_stream..], bytes[0] & FLAG_QUANTIZED != 0)
}

#[inline]
fn dequantize(code: u16, scale: f32) -> f32 {
    if code == 0 {
        TOMBSTONE_WEIGHT
    } else {
        code as f32 * scale
    }
}

/// Decode only the weights of a sealed block.
fn decode_weights(bytes: &[u8], out: &mut [f32; BLOCK_LEN]) {
    let (weights, quantized) = weight_stream(bytes);
    if quantized {
        let scale = f32::from_le_bytes(weights[0..4].try_into().unwrap());
        for (w, code) in out.iter_mut().zip(weights[4..4 + 2 * BLOCK_LEN].chunks_exact(2)) {
            *w = dequantize(u16::from_le_bytes(code.try_into().unwrap()), scale);
        }
    } else {
        for (w, raw) in out.iter_mut().zip(weights[..4 * BLOCK_LEN].chunks_exact(4)) {
            *w = f32::from_le_bytes(raw.try_into().unwrap());
        }
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
    let (weights, quantized) = weight_stream(bytes);
    let weight = if quantized {
        let scale = f32::from_le_bytes(weights[0..4].try_into().unwrap());
        let at = 4 + 2 * slot;
        dequantize(u16::from_le_bytes(weights[at..at + 2].try_into().unwrap()), scale)
    } else {
        f32::from_le_bytes(weights[4 * slot..4 * slot + 4].try_into().unwrap())
    };
    (qid, weight)
}

/// Decode one sealed block into `out`. Inverse of [`encode_block`] (exact
/// for [`WeightCodec::Raw`]; quantized weights decode to their dequantized
/// approximation, with tombstones still exactly `0.0`).
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
        encode_block(slots, WeightCodec::Raw, &mut bytes);
        decoded(&bytes)
    }

    #[test]
    fn dense_ids_cost_zero_id_bits() {
        let slots: Vec<(u32, f32)> = (0..BLOCK_LEN as u32).map(|i| (i, 0.5)).collect();
        let mut bytes = Vec::new();
        encode_block(&slots, WeightCodec::Raw, &mut bytes);
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
    fn every_width_round_trips_under_both_weight_codecs() {
        for width in 0..=32u32 {
            let slots = block_of_width(width);
            for codec in [WeightCodec::Raw, WeightCodec::Quantized] {
                let mut bytes = Vec::new();
                encode_block(&slots, codec, &mut bytes);
                assert_eq!(bytes[1] as u32, width, "the block must exercise width {width}");
                let got = decoded(&bytes);
                let max_w = slots.iter().map(|s| s.1).fold(0.0f32, f32::max);
                let mut ids = [0u32; BLOCK_LEN];
                decode_ids(&bytes, &mut ids);
                for (slot, (want, have)) in slots.iter().zip(&got).enumerate() {
                    assert_eq!(want.0, have.0, "width {width} slot {slot}");
                    assert_eq!(ids[slot], want.0, "ids-only decode, width {width} slot {slot}");
                    match codec {
                        WeightCodec::Raw => assert_eq!(want.1.to_bits(), have.1.to_bits()),
                        WeightCodec::Quantized => {
                            assert_eq!(want.1 == 0.0, have.1 == 0.0);
                            assert!((want.1 - have.1).abs() <= max_w / u16::MAX as f32);
                        }
                    }
                    // The single-slot reader sees what the full decode saw.
                    let (qid, w) = decode_slot(&bytes, slot);
                    assert_eq!((qid, w.to_bits()), (have.0, have.1.to_bits()));
                }
            }
        }
    }

    #[test]
    fn seek_ids_matches_a_linear_scan() {
        for width in [0u32, 1, 5, 13, 32] {
            let slots = block_of_width(width);
            let mut bytes = Vec::new();
            encode_block(&slots, WeightCodec::Raw, &mut bytes);
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

    #[test]
    fn quantized_preserves_tombstones_and_bounds_error() {
        let slots: Vec<(u32, f32)> = (0..BLOCK_LEN as u32)
            .map(|i| (i * 3, if i % 4 == 0 { 0.0 } else { 0.01 + 0.01 * i as f32 }))
            .collect();
        let mut bytes = Vec::new();
        encode_block(&slots, WeightCodec::Quantized, &mut bytes);
        let out = decoded(&bytes);
        let max_w = slots.iter().map(|s| s.1).fold(0.0f32, f32::max);
        for (orig, dec) in slots.iter().zip(out.iter()) {
            assert_eq!(orig.0, dec.0);
            if orig.1 == 0.0 {
                assert_eq!(dec.1, 0.0, "tombstones must decode exactly");
            } else {
                assert!((orig.1 - dec.1).abs() <= max_w / u16::MAX as f32);
            }
        }
    }
}
