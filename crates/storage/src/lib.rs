//! `ctk-storage`: compressed block postings and paged RAM/disk storage.
//!
//! The space side of the monitor's scaling story. Three layers:
//!
//! * [`codec`] — the sealed-block format: delta + bit-packed query ids,
//!   f32 weights raw (lossless, the default) or 16-bit quantized behind
//!   [`WeightCodec`], tombstones as zero-weight slots. Blocks hold exactly
//!   [`BLOCK_LEN`] postings so they align 1:1 with `BlockMax` zones.
//! * [`pager`] — [`PageManager`]: a byte-budgeted hot/cold page pool with
//!   second-chance eviction and spill-to-disk via plain `std::fs`.
//! * [`list`] — [`CompressedList`]: the ID-ordered postings list built from
//!   sealed blocks plus an uncompressed tail, with liveness-word tombstones
//!   and compaction as the re-compression point; forward readers decode
//!   through their own [`BlockCursor`], everything else on the stack.
//!
//! `ctk-index` plugs [`CompressedList`] in behind its `PostingsStore` seam;
//! this crate knows nothing about the index layer (it depends only on
//! `ctk-common` for the tombstone sentinel).

pub mod codec;
pub mod list;
pub mod pager;

pub use codec::{
    decode_block, decode_ids, decode_slot, encode_block, seek_ids, Block, WeightCodec, BLOCK_LEN,
};
pub use list::{BlockCursor, CompressedList, StoreContext, Unsealed};
pub use pager::{Page, PageManager, PagerStats};
