//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! behind the server's write-ahead journal records.
//!
//! Hand-rolled like [`crate::hash`]: the workspace vendors all its
//! dependencies, so the journal cannot pull in a checksum crate. The
//! lookup tables are built in a `const fn` at compile time and the walk is
//! slicing-by-8: eight input bytes per step through eight 256-entry tables,
//! with the canonical byte-at-a-time walk for the tail. The checksum runs
//! on the server's single ingest thread over every journaled record — a
//! 57 KB publish record cost ~158 µs a byte at a time — so its speed is
//! part of a publish's serial cost, whatever the fsync policy.
//!
//! This is the same CRC-32 as zlib/PNG/Ethernet, so checked-in fixtures of
//! journal bytes can be verified with any standard tool.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry tables, built at compile time. `TABLES[0]` is the
/// classic byte-wise table; `TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, which is what lets eight bytes fold in one step.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte through the classic table: the reference walk, and the tail of
/// the sliced one.
fn step(state: u32, b: u8) -> u32 {
    (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize]
}

/// The CRC-32 of `bytes` in one call.
///
/// ```
/// // The canonical check vector from the CRC catalogue.
/// assert_eq!(ctk_common::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// An incremental CRC-32, for checksumming a record assembled in pieces
/// (the journal checksums `seq || payload` without concatenating them).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feed more bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        self.state = chunks.remainder().iter().fold(state, |state, &b| step(state, b));
    }

    /// The checksum of everything fed so far. Does not consume: more
    /// `update` calls continue the same stream.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time walk the sliced `update` must agree with.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |state, &b| step(state, b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_walk_equals_bytewise_walk_at_any_split(
            bytes in prop::collection::vec(0u8..=255, 0..4097),
            cuts in prop::collection::vec(0usize..4097, 0..6),
        ) {
            prop_assert_eq!(crc32(&bytes), bytewise(&bytes));
            // Arbitrary `update` boundaries: pieces of every length and
            // alignment, empty ones included.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                crc.update(&bytes[from..cut]);
                from = cut;
            }
            crc.update(&bytes[from..]);
            prop_assert_eq!(crc.finish(), bytewise(&bytes));
        }
    }

    #[test]
    fn matches_known_vectors() {
        // Catalogue vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"length-prefixed journal record payload";
        for split in 0..data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32(data));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"torn tail detection";
        let good = crc32(data);
        let mut flipped = data.to_vec();
        for i in 0..flipped.len() * 8 {
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), good, "flip at bit {i} went undetected");
            flipped[i / 8] ^= 1 << (i % 8);
        }
    }
}
