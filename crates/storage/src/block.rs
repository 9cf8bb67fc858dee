//! The seal of every [`PAGE_SIZE`] block: heap pages ([`crate::page`])
//! and B+-tree nodes ([`crate::btree::node`]) frame their payloads in the
//! same header and differ only in magic and payload.
//!
//! ```text
//! 0..4    magic (per block kind)
//! 4..8    CRC32 over bytes 8..PAGE_SIZE
//! 8..     payload, then zero padding
//! ```

use crate::checksum::crc32;
use crate::error::{StorageError, StorageResult};
use crate::page::PAGE_SIZE;

/// A block under construction: `magic` and a CRC placeholder. The caller
/// appends its payload, then calls [`seal`].
pub(crate) fn start(magic: u32) -> Vec<u8> {
    let mut block = Vec::with_capacity(PAGE_SIZE);
    block.extend_from_slice(&magic.to_le_bytes());
    block.extend_from_slice(&[0u8; 4]); // CRC placeholder
    block
}

/// Pad `block` to [`PAGE_SIZE`] and stamp the CRC of bytes `8..`.
pub(crate) fn seal(block: &mut Vec<u8>) {
    block.resize(PAGE_SIZE, 0);
    let crc = crc32(&block[8..]);
    block[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Check a block's length, then its CRC, then its magic. A wrong length or
/// CRC is [`StorageError::Corruption`]; a wrong magic is
/// [`StorageError::Corrupt`] naming the `kind` of block expected
/// (`"page"`, `"index"`). `file` and `page_no` only label the error.
pub(crate) fn verify(
    block: &[u8],
    magic: u32,
    kind: &str,
    file: &str,
    page_no: u32,
) -> StorageResult<()> {
    let corruption = |expected: u32, found: u32| StorageError::Corruption {
        file: file.to_owned(),
        page: page_no,
        expected,
        found,
    };
    if block.len() != PAGE_SIZE {
        return Err(corruption(PAGE_SIZE as u32, block.len() as u32));
    }
    let stored_crc = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
    let actual_crc = crc32(&block[8..]);
    if stored_crc != actual_crc {
        return Err(corruption(stored_crc, actual_crc));
    }
    let found = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
    if found != magic {
        return Err(StorageError::Corrupt(format!(
            "{kind} block in `{file}` page {page_no} has bad magic {found:#010x}"
        )));
    }
    Ok(())
}
