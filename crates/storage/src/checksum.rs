//! CRC32 (IEEE 802.3) checksums for on-disk page blocks and log records.
//!
//! The durability layer checksums every unit it writes — WAL records and
//! 8 KiB page blocks — so torn writes and bit rot are *detected* at read
//! time instead of silently decoding garbage. CRC32 is the classic choice
//! for this job (PostgreSQL uses CRC-32C for both WAL and data checksums);
//! the polynomial here is the reflected IEEE one.
//!
//! The buffer pool verifies one block per miss, so the checksum sits on
//! the fault-in path. There are two kernels, one value:
//!
//! * **Folding** (x86_64 with PCLMULQDQ and SSE4.1, inputs of at least
//!   `FOLD_MIN` (128) bytes): the scheme of Intel's "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction" — four 128-bit
//!   accumulators are each carried 512 bits forward by one carry-less
//!   multiply per half and added to the next 64 bytes, folded into one,
//!   and Barrett-reduced to 32 bits; the last `len % 16` bytes go through
//!   the sliced loop. The instructions are detected at run time, as
//!   PostgreSQL picks its CRC implementation, so one binary runs anywhere.
//! * **Slicing-by-8** (short inputs such as WAL frames, other CPUs): eight
//!   compile-time tables let one step fold eight input bytes into the
//!   running CRC with eight independent lookups.
//!
//! Same polynomial, same value for every input — blocks and log frames
//! written by the byte-at-a-time loop verify unchanged.

/// Bytes folded per sliced step.
const SLICES: usize = 8;

/// Shortest input handed to the folding kernel: below this its set-up and
/// final reduction cost more than the sliced loop saves.
const FOLD_MIN: usize = 128;

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
    !folded(!0, bytes).unwrap_or_else(|| sliced(!0, bytes))
}

/// The running CRC state `crc` advanced over `bytes`, slicing-by-8.
fn sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// The running CRC state `crc` advanced over `bytes` by the folding
/// kernel, or `None` when `bytes` is shorter than [`FOLD_MIN`] or this
/// CPU lacks the instructions.
fn folded(crc: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < FOLD_MIN {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `clmul::fold` is compiled for exactly the two features
        // detected on this CPU just above; it touches memory only through
        // the slice it is given.
        let crc = unsafe { clmul::fold(crc, body) };
        return Some(sliced(crc, tail));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = crc;
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Intel's constants for the reflected polynomial, each bit-reflected
    // and shifted left by one: `x^(4·128±32) mod P` carry a lane 512 bits,
    // `x^(128±32) mod P` carry it 128 bits, `x^64 mod P` drops 64 to 32,
    // and `P'`, `μ` = ⌊x^64 / P⌋ are the Barrett pair.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;
    const LOW32: i64 = 0xFFFF_FFFF;

    /// The running CRC state `crc` advanced over `bytes`, whose length
    /// must be a multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, _) = bytes.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = carry(*lane, k1k2, load(block));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = carry(x, k3k4, lane);
        }
        for block in singles {
            x = carry(x, k3k4, load(block));
        }
        reduce(x, k3k4)
    }

    /// Sixteen bytes as one lane, byte 0 lowest (compiled to one load).
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `x` carried forward by the distance `k` encodes, plus `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn carry(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// 128 bits to 96, to 64, then Barrett to the 32-bit state.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(x: __m128i, k3k4: __m128i) -> u32 {
        let low32 = _mm_set_epi64x(LOW32, LOW32);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
        );
        let p_mu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, r)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `crc32` was before it was sliced: the
    /// definition both kernels must equal on every input.
    fn reference(bytes: &[u8]) -> u32 {
        !bytewise(!0, bytes)
    }

    fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    /// Both kernels on `s`, checked against the reference value `want`:
    /// the sliced one always, the folding one wherever it runs.
    fn assert_kernels(s: &[u8], want: u32, what: &str) {
        assert_eq!(!sliced(!0, s), want, "sliced, {what}");
        if let Some(state) = folded(!0, s) {
            assert_eq!(!state, want, "folded, {what}");
        }
        assert_eq!(crc32(s), want, "crc32, {what}");
    }

    fn folding_cpu() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[allow(unreachable_code)]
        false
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
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
        // And in a block the folding kernel reads, in every lane.
        let block = patterned(512);
        let base = crc32(&block);
        for i in (0..block.len()).step_by(7) {
            let mut flipped = block.clone();
            flipped[i] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), base, "flip at byte {i}");
        }
    }

    /// Every length up to a page block and a bit at offset 0, and every
    /// start offset 0..16 where the kernel choice and the 16-byte split
    /// change (short inputs, the 127/128/129 threshold, every residue mod
    /// 16, the block size): both kernels against the bytewise reference.
    /// The reference runs once per offset, reading its state at each
    /// prefix length.
    #[test]
    fn every_length_and_start_offset_matches_the_reference() {
        let buf = patterned(8_207 + 16);
        for off in 0..16 {
            let s = &buf[off..];
            let mut state = !0u32;
            for len in 0..=8_207 {
                if off == 0 || len <= 300 || len >= 8_176 {
                    assert_kernels(&s[..len], !state, &format!("offset {off} length {len}"));
                }
                state = bytewise(state, &s[len..len + 1]);
            }
        }
    }

    /// The folding kernel is what `crc32` runs on a page block on any CPU
    /// that reports PCLMULQDQ and SSE4.1 (so x86_64 CI exercises it), and
    /// is never chosen below the threshold.
    #[test]
    fn crc32_folds_where_the_cpu_can() {
        let block = patterned(8_192);
        assert_eq!(folded(!0, &block).is_some(), folding_cpu());
        assert_eq!(folded(!0, &block[..FOLD_MIN]).is_some(), folding_cpu());
        assert_eq!(folded(!0, &block[..FOLD_MIN - 1]), None);
        if let Some(state) = folded(!0, &block) {
            assert_eq!(crc32(&block), !state);
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
        assert_kernels(&block[8..], 0xAA50_2EC6, "golden block");
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
        /// from every start offset 0..16 of the buffer.
        #[test]
        fn both_kernels_equal_the_bytewise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..=8_207usize),
        ) {
            for off in 0..16usize.min(bytes.len() + 1) {
                let s = &bytes[off..];
                assert_kernels(s, reference(s), &format!("offset {off} length {}", s.len()));
            }
        }
    }
}
