//! CRC32 (IEEE 802.3) checksums for on-disk page blocks and log records.
//!
//! The durability layer checksums every unit it writes — WAL records and
//! 8 KiB page blocks — so torn writes and bit rot are *detected* at read
//! time instead of silently decoding garbage. CRC32 is the classic choice
//! for this job (PostgreSQL uses CRC-32C for both WAL and data checksums);
//! the polynomial here is the reflected IEEE one.
//!
//! The buffer pool verifies one block per miss, so the checksum sits on
//! the fault-in path. It is computed *slicing-by-8*: eight compile-time
//! tables let one step fold eight input bytes into the running CRC with
//! eight independent lookups, instead of eight dependent
//! lookup-shift-xor rounds. Same polynomial, same value for every input —
//! blocks and log frames written by the byte-at-a-time loop verify
//! unchanged.

/// Bytes folded per step.
const SLICES: usize = 8;

/// `CRC_TABLES[0]` is the classic 256-entry table for the reflected IEEE
/// polynomial `0xEDB88320`; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
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

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(SLICES);
    for c in &mut steps {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `crc32` was until ISSUE 20: the definition
    /// the sliced function must equal on every input.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let data = b"the committed prefix must be intact".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn every_short_length_and_start_offset_matches_the_reference() {
        // Exhaustive where the step/remainder split changes: every length
        // 0..=64 at every start offset 0..8 of one patterned buffer.
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for off in 0..8 {
            for len in 0..=64 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), reference(s), "offset {off} length {len}");
            }
        }
    }

    /// A heap block written by the byte-at-a-time `crc32` (commit
    /// `90108cb`: slot 0 deleted, slot 1 live, LSN 20) still verifies,
    /// decodes, and re-encodes to the same bytes — the block format and
    /// its checksum are pinned.
    #[test]
    fn golden_page_block_from_before_slicing_verifies() {
        use crate::page::{Page, PAGE_SIZE};
        use crate::tuple::Tuple;
        use crate::value::Value;
        const PREFIX: &str = "52504742c62e50aa1400000000000000020034000000000000001d00\
            0000001d00000017000000010300010700000000000000012a000000000000000200000000\
            00001240030001ffffffffffffffff000306000000676f6c64656e";
        let mut block: Vec<u8> = (0..PREFIX.len() / 2)
            .map(|i| u8::from_str_radix(&PREFIX[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        block.resize(PAGE_SIZE, 0);
        assert_eq!(crc32(&block[8..]), 0xAA50_2EC6);
        assert_eq!(reference(&block[8..]), 0xAA50_2EC6);
        let (page, lsn) = Page::decode_block(&block, "golden", 0).unwrap();
        assert_eq!(lsn, 20);
        assert!(page.get(0).is_err(), "slot 0 was deleted");
        assert_eq!(
            page.get(1).unwrap(),
            Tuple::new(vec![
                Value::Int(-1),
                Value::Null,
                Value::Text("golden".into())
            ])
        );
        assert_eq!(page.encode_block(20), block);
    }

    proptest! {
        /// Random bytes of every length up to a page block and a bit, read
        /// from every alignment of the buffer's start.
        #[test]
        fn sliced_crc_equals_the_bytewise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..=8_207usize),
        ) {
            for off in 0..8usize.min(bytes.len() + 1) {
                let s = &bytes[off..];
                prop_assert_eq!(crc32(s), reference(s), "offset {} length {}", off, s.len());
            }
        }
    }
}
