//! Slotted pages: the unit of I/O for the cost model.
//!
//! A [`Page`] is a fixed-capacity (8 KiB, PostgreSQL's default block size)
//! container of binary-encoded tuples. Tuples are appended to a data area
//! and addressed by slot number through a slot directory, exactly like a
//! simplified PostgreSQL heap page. Deletion marks a slot dead without
//! compacting; the space is reclaimed only on [`Page::compact`].
//!
//! The slot directory is held in its on-disk form (one 9-byte entry per
//! slot), so a page in memory and a verified disk block are read through
//! one borrowed view, [`PageView`]: a sequential scan visits the rows of a
//! block it read without building a [`Page`] from it.

use crate::block;
use crate::error::{StorageError, StorageResult};
use crate::tuple::{RowRef, Tuple};
use std::ops::Range;

/// Page capacity in bytes (PostgreSQL's default block size).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved for the on-disk block header: magic (4), CRC32 (4),
/// LSN (8), slot count (2), data length (4). Budgeted by [`Page::fits`]
/// so any in-memory page can always be encoded to one disk block.
pub const PAGE_HEADER_SIZE: usize = 22;

/// Size of one slot entry: offset (4), length (4), live flag (1) — the
/// same bytes in memory and on disk.
const SLOT_OVERHEAD: usize = 9;

/// Magic number leading every encoded page block (`RPGB`).
const PAGE_MAGIC: u32 = u32::from_le_bytes(*b"RPGB");

/// One slot entry as stored.
type Entry = [u8; SLOT_OVERHEAD];

/// One slot entry, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    offset: u32,
    len: u32,
    live: bool,
}

impl Slot {
    fn decode(entry: &Entry) -> Slot {
        let [o0, o1, o2, o3, l0, l1, l2, l3, live] = *entry;
        Slot {
            offset: u32::from_le_bytes([o0, o1, o2, o3]),
            len: u32::from_le_bytes([l0, l1, l2, l3]),
            live: live != 0,
        }
    }

    fn encode(&self) -> Entry {
        let mut entry = [0; SLOT_OVERHEAD];
        entry[..4].copy_from_slice(&self.offset.to_le_bytes());
        entry[4..8].copy_from_slice(&self.len.to_le_bytes());
        entry[8] = self.live as u8;
        entry
    }

    /// The slot's bytes within the data area.
    fn range(&self) -> Range<usize> {
        self.offset as usize..self.offset as usize + self.len as usize
    }
}

/// A borrowed page: its encoded slot directory and its data area, over a
/// [`Page`] ([`Page::view`]) or over a verified disk block
/// ([`PageView::from_block`]). Every slot entry it holds is well formed:
/// its live flag is 0 or 1 and its bytes lie within the data area.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    slots: &'a [Entry],
    data: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Verify one disk block — length, CRC and magic, then every slot
    /// entry's live flag and bounds, the checks [`Page::decode_block`]
    /// makes — and view its rows in place. `file` and `page_no` only label
    /// the error. Returns the view and the LSN stamped in the header.
    pub fn from_block(block: &'a [u8], file: &str, page_no: u32) -> StorageResult<(Self, u64)> {
        block::verify(block, PAGE_MAGIC, "page", file, page_no)?;
        let lsn = u64::from_le_bytes(block[8..16].try_into().expect("fixed-width header slice"));
        let slot_count = u16::from_le_bytes([block[16], block[17]]) as usize;
        let data_len = u32::from_le_bytes([block[18], block[19], block[20], block[21]]) as usize;
        let slots_end = PAGE_HEADER_SIZE + slot_count * SLOT_OVERHEAD;
        let bad_layout =
            |msg: &str| StorageError::Corrupt(format!("`{file}` page {page_no}: {msg}"));
        if slots_end + data_len > PAGE_SIZE {
            return Err(bad_layout("slot directory and data overflow the block"));
        }
        let (slots, _) = block[PAGE_HEADER_SIZE..slots_end].as_chunks();
        for (i, entry) in slots.iter().enumerate() {
            if entry[8] > 1 {
                return Err(bad_layout(&format!("slot {i} live flag is {}", entry[8])));
            }
            if Slot::decode(entry).range().end > data_len {
                return Err(bad_layout(&format!("slot {i} points past the data area")));
            }
        }
        let data = &block[slots_end..slots_end + data_len];
        Ok((PageView { slots, data }, lsn))
    }

    fn slots(&self) -> impl Iterator<Item = Slot> + 'a {
        self.slots.iter().map(Slot::decode)
    }

    fn slot(&self, slot: u16) -> Option<Slot> {
        self.slots.get(slot as usize).map(Slot::decode)
    }

    /// Number of slots, live or dead.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        self.slots().filter(|s| s.live).count()
    }

    /// Iterate live `(slot, row)` pairs in slot order without decoding:
    /// each row is a view over the page's bytes.
    pub fn live_rows(&self) -> impl Iterator<Item = (u16, RowRef<'a>)> + 'a {
        let data = self.data;
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry[SLOT_OVERHEAD - 1] != 0)
            .map(move |(i, entry)| (i as u16, RowRef::new(&data[Slot::decode(entry).range()])))
    }

    /// Iterate live `(slot, tuple)` pairs in slot order.
    pub fn iter_live(&self) -> impl Iterator<Item = (u16, Tuple)> + 'a {
        self.live_rows()
            .map(|(slot, row)| (slot, row.to_tuple().expect("page data is self-consistent")))
    }
}

/// A fixed-capacity slotted page of encoded tuples.
#[derive(Debug, Clone, Default)]
pub struct Page {
    data: Vec<u8>,
    /// The slot directory, each entry in its on-disk form.
    slots: Vec<Entry>,
}

impl Page {
    /// An empty page.
    pub fn new() -> Self {
        Page::default()
    }

    /// The page's rows, borrowed.
    pub fn view(&self) -> PageView<'_> {
        PageView {
            slots: &self.slots,
            data: &self.data,
        }
    }

    /// Number of slots, live or dead.
    pub fn slot_count(&self) -> usize {
        self.view().slot_count()
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        self.view().live_count()
    }

    /// Bytes used, counting data and slot-directory overhead.
    pub fn used_bytes(&self) -> usize {
        self.data.len() + self.slots.len() * SLOT_OVERHEAD
    }

    /// Whether a tuple of `encoded` bytes fits in the remaining space,
    /// leaving room for the on-disk block header so every page remains
    /// encodable as exactly one [`PAGE_SIZE`] block.
    pub fn fits(&self, encoded: usize) -> bool {
        PAGE_HEADER_SIZE + self.used_bytes() + encoded + SLOT_OVERHEAD <= PAGE_SIZE
    }

    /// Append a tuple, returning its slot number.
    ///
    /// Fails with [`StorageError::TupleTooLarge`] if the tuple could never
    /// fit even in an empty page; callers should allocate a new page when a
    /// fitting tuple doesn't fit *here* (checked via [`Page::fits`]).
    pub fn insert(&mut self, tuple: &Tuple) -> StorageResult<u16> {
        let size = tuple.encoded_size();
        if size + SLOT_OVERHEAD + PAGE_HEADER_SIZE > PAGE_SIZE {
            return Err(StorageError::TupleTooLarge {
                size,
                max: PAGE_SIZE - SLOT_OVERHEAD - PAGE_HEADER_SIZE,
            });
        }
        debug_assert!(self.fits(size), "caller must check Page::fits first");
        let offset = self.data.len() as u32;
        tuple.encode_into(&mut self.data);
        let slot = self.slot_count() as u16;
        self.slots.push(
            Slot {
                offset,
                len: size as u32,
                live: true,
            }
            .encode(),
        );
        Ok(slot)
    }

    /// Read the tuple in `slot`, if it is live.
    pub fn get(&self, slot: u16) -> StorageResult<Tuple> {
        let s = self
            .view()
            .slot(slot)
            .filter(|s| s.live)
            .ok_or(StorageError::InvalidRid { page: 0, slot })?;
        let raw = &self.data[s.range()];
        let (tuple, used) = Tuple::decode(raw)?;
        debug_assert_eq!(used, s.len as usize);
        Ok(tuple)
    }

    /// Mark `slot` dead. Idempotent for already-dead slots is an error to
    /// surface double-delete bugs.
    pub fn delete(&mut self, slot: u16) -> StorageResult<()> {
        let live = self
            .slots
            .get_mut(slot as usize)
            .map(|entry| &mut entry[SLOT_OVERHEAD - 1])
            .filter(|live| **live != 0)
            .ok_or(StorageError::InvalidRid { page: 0, slot })?;
        *live = 0;
        Ok(())
    }

    /// Iterate live `(slot, row)` pairs in slot order without decoding
    /// ([`PageView::live_rows`]).
    pub fn live_rows(&self) -> impl Iterator<Item = (u16, RowRef<'_>)> + '_ {
        self.view().live_rows()
    }

    /// Iterate live `(slot, tuple)` pairs in slot order.
    pub fn iter_live(&self) -> impl Iterator<Item = (u16, Tuple)> + '_ {
        self.view().iter_live()
    }

    /// Rewrite the page keeping only live tuples. Slot numbers change;
    /// returns the mapping `old slot → new slot`.
    pub fn compact(&mut self) -> Vec<(u16, u16)> {
        let mut mapping = Vec::new();
        let mut data = Vec::with_capacity(self.data.len());
        let mut slots = Vec::with_capacity(self.live_count());
        for (i, s) in self.view().slots().enumerate() {
            if s.live {
                let offset = data.len() as u32;
                data.extend_from_slice(&self.data[s.range()]);
                mapping.push((i as u16, slots.len() as u16));
                slots.push(
                    Slot {
                        offset,
                        len: s.len,
                        live: true,
                    }
                    .encode(),
                );
            }
        }
        self.data = data;
        self.slots = slots;
        mapping
    }

    /// Encode the page as one [`PAGE_SIZE`] disk block:
    ///
    /// ```text
    /// 0..4    magic "RPGB"
    /// 4..8    CRC32 over bytes 8..PAGE_SIZE
    /// 8..16   LSN of the last change covered by this image
    /// 16..18  slot count (live and dead — slot numbers are stable)
    /// 18..22  data-area length
    /// 22..    slot entries (offset u32, len u32, live u8), then data,
    ///         then zero padding
    /// ```
    ///
    /// The encoding is a pure function of `(slots, data, lsn)`, so a
    /// decode→encode cycle is byte-identical — the invariant page
    /// checksums rely on.
    pub fn encode_block(&self, lsn: u64) -> Vec<u8> {
        debug_assert!(PAGE_HEADER_SIZE + self.used_bytes() <= PAGE_SIZE);
        let mut block = block::start(PAGE_MAGIC);
        block.extend_from_slice(&lsn.to_le_bytes());
        block.extend_from_slice(&(self.slot_count() as u16).to_le_bytes());
        block.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        block.extend_from_slice(self.slots.as_flattened());
        block.extend_from_slice(&self.data);
        block::seal(&mut block);
        block
    }

    /// Decode one disk block back into a page, verifying it first
    /// ([`PageView::from_block`]). `file` and `page_no` only label the
    /// [`StorageError::Corruption`] error so a bad block names its exact
    /// location. Returns the page and the LSN stamped in the header.
    pub fn decode_block(block: &[u8], file: &str, page_no: u32) -> StorageResult<(Page, u64)> {
        let (view, lsn) = PageView::from_block(block, file, page_no)?;
        let page = Page {
            data: view.data.to_vec(),
            slots: view.slots.to_vec(),
        };
        Ok((page, lsn))
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![
            Value::Int(i),
            Value::Float(i as f64 / 2.0),
            Value::Text(format!("movie-{i}")),
        ])
    }

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let s0 = p.insert(&row(0)).unwrap();
        let s1 = p.insert(&row(1)).unwrap();
        assert_eq!(p.get(s0).unwrap(), row(0));
        assert_eq!(p.get(s1).unwrap(), row(1));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn page_fills_up_near_8k() {
        let mut p = Page::new();
        let mut n = 0;
        while p.fits(row(n).encoded_size()) {
            p.insert(&row(n)).unwrap();
            n += 1;
        }
        assert!(p.used_bytes() <= PAGE_SIZE);
        // A ~45-byte tuple should pack well over 100 rows per 8 KiB page.
        assert!(n > 100, "only packed {n} tuples");
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut p = Page::new();
        let big = Tuple::new(vec![Value::Text("x".repeat(PAGE_SIZE))]);
        assert!(matches!(
            p.insert(&big),
            Err(StorageError::TupleTooLarge { .. })
        ));
    }

    #[test]
    fn delete_hides_tuple_and_double_delete_errors() {
        let mut p = Page::new();
        let s = p.insert(&row(7)).unwrap();
        p.delete(s).unwrap();
        assert!(p.get(s).is_err());
        assert_eq!(p.live_count(), 0);
        assert!(p.delete(s).is_err());
    }

    #[test]
    fn iter_live_skips_dead() {
        let mut p = Page::new();
        for i in 0..5 {
            p.insert(&row(i)).unwrap();
        }
        p.delete(1).unwrap();
        p.delete(3).unwrap();
        let got: Vec<i64> = p
            .iter_live()
            .map(|(_, t)| t.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(got, vec![0, 2, 4]);
    }

    #[test]
    fn compact_reclaims_space_and_remaps_slots() {
        let mut p = Page::new();
        for i in 0..10 {
            p.insert(&row(i)).unwrap();
        }
        let before = p.used_bytes();
        for s in [0u16, 2, 4, 6, 8] {
            p.delete(s).unwrap();
        }
        let mapping = p.compact();
        assert!(p.used_bytes() < before);
        assert_eq!(mapping, vec![(1, 0), (3, 1), (5, 2), (7, 3), (9, 4)]);
        assert_eq!(p.get(0).unwrap(), row(1));
        assert_eq!(p.live_count(), 5);
    }

    #[test]
    fn get_out_of_range_slot_errors() {
        let p = Page::new();
        assert!(p.get(0).is_err());
        assert!(p.get(999).is_err());
    }

    #[test]
    fn block_roundtrip_preserves_slots_and_lsn() {
        let mut p = Page::new();
        for i in 0..20 {
            p.insert(&row(i)).unwrap();
        }
        p.delete(3).unwrap();
        p.delete(17).unwrap();
        let block = p.encode_block(42);
        assert_eq!(block.len(), PAGE_SIZE);
        let (back, lsn) = Page::decode_block(&block, "t.tbl", 0).unwrap();
        assert_eq!(lsn, 42);
        // Dead slots survive the disk trip: slot numbers (RIDs) are stable.
        assert_eq!(back.slot_count(), 20);
        assert_eq!(back.live_count(), 18);
        assert!(back.get(3).is_err());
        assert_eq!(back.get(5).unwrap(), row(5));
    }

    #[test]
    fn decode_encode_cycle_is_byte_identical() {
        let mut p = Page::new();
        for i in 0..50 {
            p.insert(&row(i)).unwrap();
        }
        for s in [1u16, 9, 30] {
            p.delete(s).unwrap();
        }
        let block = p.encode_block(7);
        let (decoded, lsn) = Page::decode_block(&block, "t.tbl", 0).unwrap();
        assert_eq!(decoded.encode_block(lsn), block);
    }

    #[test]
    fn compacted_page_reencodes_byte_identically() {
        // Satellite: compaction must leave the page in a canonical state —
        // a decode→encode cycle of the compacted image is byte-identical,
        // which is what keeps page checksums stable across checkpoints.
        let mut p = Page::new();
        for i in 0..40 {
            p.insert(&row(i)).unwrap();
        }
        for s in (0u16..40).step_by(3) {
            p.delete(s).unwrap();
        }
        p.compact();
        // Invariants after compaction: every slot live, data contiguous in
        // slot order with no gaps.
        assert_eq!(p.live_count(), p.slot_count());
        let mut expected_offset = 0u32;
        for (i, s) in p.view().slots().enumerate() {
            assert!(s.live);
            assert_eq!(s.offset, expected_offset, "slot {i} leaves a gap");
            expected_offset += s.len;
        }
        assert_eq!(expected_offset as usize, p.data.len());
        let block = p.encode_block(3);
        let (decoded, lsn) = Page::decode_block(&block, "t.tbl", 0).unwrap();
        assert_eq!(decoded.encode_block(lsn), block);
    }

    #[test]
    fn corrupt_block_is_detected_with_location() {
        let mut p = Page::new();
        for i in 0..10 {
            p.insert(&row(i)).unwrap();
        }
        let good = p.encode_block(1);
        // Flip a single bit anywhere in the checksummed region.
        for at in [8usize, 100, PAGE_SIZE - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            match Page::decode_block(&bad, "ratings.5.tbl", 9) {
                Err(StorageError::Corruption {
                    file,
                    page,
                    expected,
                    found,
                }) => {
                    assert_eq!(file, "ratings.5.tbl");
                    assert_eq!(page, 9);
                    assert_ne!(expected, found);
                }
                other => panic!("byte {at}: expected Corruption, got {other:?}"),
            }
        }
        // A corrupted stored CRC is also a checksum mismatch.
        let mut bad = good.clone();
        bad[5] ^= 0xFF;
        assert!(matches!(
            Page::decode_block(&bad, "t.tbl", 0),
            Err(StorageError::Corruption { .. })
        ));
        // Truncated blocks are rejected.
        assert!(Page::decode_block(&good[..100], "t.tbl", 0).is_err());
    }

    /// A verified block and the page it encodes show the same rows, dead
    /// slots included, and a block whose slot entry is malformed (a live
    /// flag other than 0/1, bytes past the data area) is refused with
    /// its location even when its CRC is resealed.
    #[test]
    fn a_block_view_reads_the_rows_of_its_page() {
        let mut p = Page::new();
        for i in 0..30 {
            p.insert(&row(i)).unwrap();
        }
        for s in [0u16, 11, 29] {
            p.delete(s).unwrap();
        }
        let block = p.encode_block(5);
        let (view, lsn) = PageView::from_block(&block, "t.tbl", 4).unwrap();
        assert_eq!(lsn, 5);
        assert_eq!(view.slot_count(), p.slot_count());
        assert_eq!(view.live_count(), 27);
        let rows: Vec<(u16, Tuple)> = view.iter_live().collect();
        assert_eq!(rows, p.iter_live().collect::<Vec<_>>());
        let entry = |slot: usize| PAGE_HEADER_SIZE + slot * SLOT_OVERHEAD;
        let reseal = |mut bad: Vec<u8>| {
            let crc = crate::checksum::crc32(&bad[8..]);
            bad[4..8].copy_from_slice(&crc.to_le_bytes());
            bad
        };
        let mut bad = block.clone();
        bad[entry(3) + 8] = 2;
        let err = PageView::from_block(&reseal(bad), "t.tbl", 4).unwrap_err();
        assert!(
            err.to_string()
                .contains("`t.tbl` page 4: slot 3 live flag is 2"),
            "{err}"
        );
        let mut bad = block.clone();
        bad[entry(7) + 4..entry(7) + 8].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        let err = Page::decode_block(&reseal(bad), "t.tbl", 4).unwrap_err();
        assert!(
            err.to_string().contains("slot 7 points past the data area"),
            "{err}"
        );
    }

    #[test]
    fn empty_page_block_roundtrip() {
        let p = Page::new();
        let block = p.encode_block(0);
        let (back, lsn) = Page::decode_block(&block, "t.tbl", 0).unwrap();
        assert_eq!(lsn, 0);
        assert_eq!(back.slot_count(), 0);
        assert_eq!(back.encode_block(0), block);
    }
}
