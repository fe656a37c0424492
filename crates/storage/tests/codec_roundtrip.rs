//! Property tests for the sealed-block codec and `CompressedList`.
//!
//! The codec must be lossless under `WeightCodec::Raw` for every block the
//! index can produce: arbitrary id gaps (dense runs through multi-hundred-
//! million jumps), arbitrary finite weights, and arbitrary tombstone
//! patterns (zero-weight slots). `CompressedList` must agree with a plain
//! `Vec<(qid, weight)>` oracle on every read operation after an arbitrary
//! interleaving of pushes, tombstones, and compactions.

use ctk_storage::{
    decode_block, encode_block, Block, CompressedList, PageManager, StoreContext, WeightCodec,
    BLOCK_LEN,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Strictly increasing ids from per-slot raw samples: `kind` picks a dense
/// (gap 1) or small (gap ≤ 256) step, and exactly one slot (`giant_at`)
/// takes a gap of up to 2^31 so every bit width from 0 to 31 shows up.
/// `dead == 0` makes the slot a tombstone (zero weight).
fn build_block(
    base: u32,
    giant_at: usize,
    giant_gap: u32,
    raw: &[(u32, u32, f32, u32)],
) -> Vec<(u32, f32)> {
    let mut qid = base;
    let mut out = Vec::with_capacity(BLOCK_LEN);
    for (i, &(kind, small, weight, dead)) in raw.iter().enumerate() {
        if i > 0 {
            qid += if i == giant_at {
                giant_gap + 1
            } else if kind == 0 {
                1
            } else {
                small + 1
            };
        }
        let weight = if dead == 0 { 0.0 } else { weight.max(f32::MIN_POSITIVE) };
        out.push((qid, weight));
    }
    out
}

proptest! {
    #[test]
    fn raw_codec_roundtrips_bit_exactly(
        base in 0u32..1024,
        giant_at in 1usize..BLOCK_LEN,
        giant_gap in 0u32..(1 << 31),
        raw in prop::collection::vec(
            (0u32..=1, 0u32..256, 0.0f32..1000.0, 0u32..=3),
            BLOCK_LEN..BLOCK_LEN + 1,
        ),
    ) {
        let slots = build_block(base, giant_at, giant_gap, &raw);
        let mut bytes = Vec::new();
        encode_block(&slots, WeightCodec::Raw, &mut bytes);
        let mut decoded = Block::zeroed();
        decode_block(&bytes, &mut decoded);
        for (i, orig) in slots.iter().enumerate() {
            prop_assert_eq!(orig.0, decoded.ids[i]);
            prop_assert_eq!(orig.1.to_bits(), decoded.weights[i].to_bits());
        }
    }

    #[test]
    fn quantized_codec_keeps_ids_and_tombstones(
        base in 0u32..1024,
        giant_at in 1usize..BLOCK_LEN,
        giant_gap in 0u32..(1 << 31),
        raw in prop::collection::vec(
            (0u32..=1, 0u32..256, 0.0f32..1000.0, 0u32..=3),
            BLOCK_LEN..BLOCK_LEN + 1,
        ),
    ) {
        let slots = build_block(base, giant_at, giant_gap, &raw);
        let mut bytes = Vec::new();
        encode_block(&slots, WeightCodec::Quantized, &mut bytes);
        let mut decoded = Block::zeroed();
        decode_block(&bytes, &mut decoded);
        let max = slots.iter().map(|s| s.1).fold(0.0f32, f32::max);
        for (orig, got) in slots.iter().zip(decoded.ids.iter().zip(&decoded.weights)) {
            let got = (*got.0, *got.1);
            prop_assert_eq!(orig.0, got.0);
            // Tombstones survive exactly; live weights stay live and close.
            if orig.1 == 0.0 {
                prop_assert_eq!(got.1, 0.0);
            } else {
                prop_assert!(got.1 > 0.0);
                prop_assert!((orig.1 - got.1).abs() <= max / 65_000.0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn compressed_list_matches_vec_oracle(
        // Each raw op decodes to Push (kinds 0-3), Tombstone (4-6), or
        // Compact (7) inside the loop below.
        ops in prop::collection::vec((0u32..=7, 0u32..256, 1u32..=5), 1..24),
        paged in 0u32..=1,
    ) {
        // A tiny budget forces constant spill/fault churn in the paged case.
        let cx = match paged {
            1 => StoreContext::paged(Arc::new(PageManager::new(192, None))),
            _ => StoreContext::raw(),
        };
        let mut list = CompressedList::new();
        // Oracle: (qid, weight) with tombstones as weight 0.0, same as plain.
        let mut oracle: Vec<(u32, f32)> = Vec::new();
        let mut next_qid = 7u32;

        for (kind, a, b) in ops {
            match kind {
                0..=3 => {
                    for _ in 0..(a % 80 + 1) {
                        let w = (next_qid % 97 + 1) as f32 / 8.0;
                        list.push(next_qid, w, &cx);
                        oracle.push((next_qid, w));
                        next_qid += b;
                    }
                }
                4..=6 => {
                    if !oracle.is_empty() {
                        let pos = a as usize % oracle.len();
                        if oracle[pos].1 != 0.0 {
                            list.tombstone(pos);
                            oracle[pos].1 = 0.0;
                        }
                    }
                }
                _ => {
                    let mut survivors = Vec::new();
                    list.compact_into(&mut survivors, &cx);
                    oracle.retain(|s| s.1 != 0.0);
                    prop_assert_eq!(&survivors, &oracle);
                }
            }
        }

        prop_assert_eq!(list.len(), oracle.len());
        prop_assert_eq!(list.live(), oracle.iter().filter(|s| s.1 != 0.0).count());
        for (pos, &(qid, w)) in oracle.iter().enumerate() {
            let (got_qid, got_w) = list.get(pos);
            prop_assert_eq!(got_qid, qid);
            prop_assert_eq!(got_w.to_bits(), w.to_bits());
            prop_assert_eq!(list.is_live(pos), w != 0.0);
            prop_assert_eq!(list.position_of(qid), Some(pos));
        }
        // seek / seek_live agree with a linear scan from every eighth start.
        for from in (0..=oracle.len()).step_by(8) {
            for probe in [0, next_qid / 2, next_qid] {
                let want = oracle[from..]
                    .iter()
                    .position(|s| s.0 >= probe)
                    .map_or(oracle.len(), |i| from + i);
                prop_assert_eq!(list.seek(from, probe), want);
                let want_live = oracle[from..]
                    .iter()
                    .position(|s| s.0 >= probe && s.1 != 0.0)
                    .map_or(oracle.len(), |i| from + i);
                prop_assert_eq!(list.seek_live(from, probe), want_live);
            }
        }
    }
}
