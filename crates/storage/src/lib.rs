//! `ctk-storage`: compressed block postings.
//!
//! The space side of the monitor's scaling story. Two layers:
//!
//! * [`codec`] — the sealed-block format: delta + bit-packed query ids,
//!   raw f32 weights (lossless), tombstones as zero-weight slots. Blocks
//!   hold exactly
//!   [`BLOCK_LEN`] postings so they align 1:1 with `BlockMax` zones.
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

pub use codec::{decode_block, decode_ids, decode_slot, encode_block, seek_ids, Block, BLOCK_LEN};
pub use list::{BlockCursor, CompressedList, StoreContext, Unsealed};
