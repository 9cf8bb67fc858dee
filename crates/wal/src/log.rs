//! The append-only log file.
//!
//! On-disk layout:
//!
//! ```text
//! header   magic "RWAL" (4) | version (4) | base LSN (8)
//! frame*   len u32 | crc32 u32 | lsn u64 | payload (len - 8 bytes)
//! ```
//!
//! `len` covers the LSN and payload; the CRC covers the same bytes. LSNs
//! are dense and ascending: the first frame carries `base + 1`. A frame
//! whose length or checksum does not verify marks a *torn tail* — the
//! incomplete flush of a crashed process — and [`Wal::open`] truncates the
//! file there, keeping every record before it. A frame whose checksum
//! verifies but whose payload does not decode is real corruption and fails
//! the open instead; valid checksums mean those bytes were once written
//! whole.
//!
//! [`Wal::commit`] is the only fsync: a record is durable once the commit
//! that follows it returns. Nothing else forces the log — the buffer
//! pool's write-backs go to scratch files recovery never reads.
//!
//! Fail points (armed via `recdb-fault`, no-ops in production):
//!
//! * `wal::append` — simulates a torn write: half the frame reaches the
//!   file, then the append errors. The next append self-heals by
//!   truncating the partial bytes.
//! * `wal::fsync` — simulates the OS losing unsynced writes: the file is
//!   rolled back to the last-synced length and the commit errors.

use crate::error::{WalError, WalResult};
use crate::record::WalRecord;
use recdb_obs::{Counter, Registry};
use recdb_storage::crc32;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WAL_MAGIC: u32 = u32::from_le_bytes(*b"RWAL");
const WAL_VERSION: u32 = 1;
const HEADER_SIZE: u64 = 16;
/// Frame overhead before the payload: length + CRC + LSN.
const FRAME_OVERHEAD: u64 = 16;

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// LSN the log starts after (records in the file are `base_lsn + 1 ..`).
    base_lsn: u64,
    /// LSN the next append will be assigned.
    next_lsn: u64,
    /// Logical end of the log: header plus every fully-appended frame.
    len: u64,
    /// Prefix of `len` known to be on stable storage.
    synced_len: u64,
    /// `next_lsn` as of the last successful [`Wal::commit`].
    synced_next_lsn: u64,
    /// Whether a failed append may have left partial bytes past `len`.
    tail_dirty: bool,
    /// Optional metrics sink; see [`Wal::attach_metrics`].
    metrics: Option<WalMetrics>,
}

/// The log's series, resolved from the registry once, at attach.
#[derive(Debug)]
struct WalMetrics {
    appends: Arc<Counter>,
    appended_bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
}

/// The result of opening a log: the handle, every decoded record, and
/// whether a torn tail was dropped.
#[derive(Debug)]
pub struct OpenedWal {
    /// The log, positioned for appending.
    pub wal: Wal,
    /// All records in LSN order, as `(lsn, record)` pairs.
    pub records: Vec<(u64, WalRecord)>,
    /// Bytes truncated from a torn tail, if any were found.
    pub truncated: Option<u64>,
}

fn encode_frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = 8 + payload.len();
    let mut frame = Vec::with_capacity(8 + body_len);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.extend_from_slice(&[0u8; 4]); // CRC placeholder
    frame.extend_from_slice(&lsn.to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

impl Wal {
    /// Open (or create) the log at `path`.
    ///
    /// A fresh file is initialized with `base_lsn_if_new`; an existing file
    /// keeps its own base. The whole log is scanned and decoded: bad frame
    /// *tails* are truncated (torn write), bad frame *interiors* —
    /// checksum-valid frames that fail to decode, or LSN gaps — are
    /// corruption errors.
    pub fn open(path: &Path, base_lsn_if_new: u64) -> WalResult<OpenedWal> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(WalError::io("read log", e)),
        };
        let (base_lsn, mut records, good_len, truncated) = if bytes.is_empty() {
            let mut header = Vec::with_capacity(HEADER_SIZE as usize);
            header.extend_from_slice(&WAL_MAGIC.to_le_bytes());
            header.extend_from_slice(&WAL_VERSION.to_le_bytes());
            header.extend_from_slice(&base_lsn_if_new.to_le_bytes());
            std::fs::write(path, &header).map_err(|e| WalError::io("create log", e))?;
            (base_lsn_if_new, Vec::new(), HEADER_SIZE, None)
        } else {
            Self::scan(&bytes)?
        };
        if truncated.is_some() {
            // Drop the torn tail on disk too, so the damage cannot be
            // misread by a later, differently-configured open.
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| WalError::io("open log", e))?;
            f.set_len(good_len)
                .map_err(|e| WalError::io("truncate torn tail", e))?;
            f.sync_all().map_err(|e| WalError::io("fsync", e))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| WalError::io("open log", e))?;
        let next_lsn = records.last().map_or(base_lsn, |(l, _)| *l) + 1;
        records.shrink_to_fit();
        Ok(OpenedWal {
            wal: Wal {
                file,
                path: path.to_owned(),
                base_lsn,
                next_lsn,
                len: good_len,
                synced_len: good_len,
                synced_next_lsn: next_lsn,
                tail_dirty: false,
                metrics: None,
            },
            records,
            truncated,
        })
    }

    /// Parse header and frames, returning
    /// `(base_lsn, records, good_len, truncated_bytes)`.
    #[allow(clippy::type_complexity)]
    fn scan(bytes: &[u8]) -> WalResult<(u64, Vec<(u64, WalRecord)>, u64, Option<u64>)> {
        if bytes.len() < HEADER_SIZE as usize {
            return Err(WalError::Corrupt {
                offset: 0,
                reason: "log shorter than its header".into(),
            });
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("fixed-width header"));
        if magic != WAL_MAGIC {
            return Err(WalError::Corrupt {
                offset: 0,
                reason: format!("bad log magic {magic:#010x}"),
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("fixed-width header"));
        if version != WAL_VERSION {
            return Err(WalError::Corrupt {
                offset: 4,
                reason: format!("unsupported log version {version}"),
            });
        }
        let base_lsn = u64::from_le_bytes(bytes[8..16].try_into().expect("fixed-width header"));
        let mut records = Vec::new();
        let mut at = HEADER_SIZE as usize;
        let mut expect_lsn = base_lsn + 1;
        let truncated = loop {
            if at == bytes.len() {
                break None; // clean end
            }
            let frame_ok = (|| {
                let len_bytes = bytes.get(at..at + 4)?;
                let body_len =
                    u32::from_le_bytes(len_bytes.try_into().expect("fixed-width slice")) as usize;
                if body_len < 8 {
                    return None;
                }
                let crc_bytes = bytes.get(at + 4..at + 8)?;
                let stored = u32::from_le_bytes(crc_bytes.try_into().expect("fixed-width slice"));
                let body = bytes.get(at + 8..at + 8 + body_len)?;
                (crc32(body) == stored).then_some(body)
            })();
            let Some(body) = frame_ok else {
                // Torn tail: everything from `at` on never finished
                // writing. Keep the good prefix.
                break Some((bytes.len() - at) as u64);
            };
            let lsn = u64::from_le_bytes(body[0..8].try_into().expect("fixed-width slice"));
            if lsn != expect_lsn {
                return Err(WalError::Corrupt {
                    offset: at as u64,
                    reason: format!("lsn {lsn} where {expect_lsn} was expected"),
                });
            }
            let record = WalRecord::decode(&body[8..]).map_err(|e| WalError::Corrupt {
                offset: at as u64,
                reason: format!("checksum-valid frame failed to decode: {e}"),
            })?;
            records.push((lsn, record));
            expect_lsn += 1;
            at += 8 + body.len();
        };
        Ok((base_lsn, records, at as u64, truncated))
    }

    /// Append one record, returning its assigned LSN. The record is
    /// durable only after the next successful [`Wal::commit`].
    pub fn append(&mut self, record: &WalRecord) -> WalResult<u64> {
        if self.tail_dirty {
            // A previous append failed partway; clear its debris so this
            // frame starts at the logical end.
            self.file
                .set_len(self.len)
                .map_err(|e| WalError::io("truncate partial append", e))?;
            self.tail_dirty = false;
        }
        let lsn = self.next_lsn;
        let frame = encode_frame(lsn, &record.encode());
        if let Err(fault) = recdb_fault::fail_point("wal::append") {
            // Simulate a torn write: some bytes land, the call fails, and
            // the LSN is never consumed.
            let half = frame.len() / 2;
            let _ = self.file.write_all(&frame[..half]);
            let _ = self.file.flush();
            self.tail_dirty = true;
            return Err(fault.into());
        }
        self.file
            .write_all(&frame)
            .map_err(|e| WalError::io("append", e))?;
        self.len += frame.len() as u64;
        self.next_lsn += 1;
        if let Some(metrics) = &self.metrics {
            metrics.appends.inc();
            metrics.appended_bytes.add(frame.len() as u64);
        }
        Ok(lsn)
    }

    /// Force every appended record to stable storage (fsync).
    ///
    /// On an injected `wal::fsync` fault, the file is rolled back to the
    /// last-synced length — modelling a crash where the page cache never
    /// reached the platter — and the unsynced LSNs are reassigned to the
    /// next appends.
    pub fn commit(&mut self) -> WalResult<()> {
        if let Err(fault) = recdb_fault::fail_point("wal::fsync") {
            self.file
                .set_len(self.synced_len)
                .map_err(|e| WalError::io("roll back unsynced tail", e))?;
            self.len = self.synced_len;
            self.next_lsn = self.synced_next_lsn;
            self.tail_dirty = false;
            return Err(fault.into());
        }
        self.file.sync_all().map_err(|e| WalError::io("fsync", e))?;
        self.synced_len = self.len;
        self.synced_next_lsn = self.next_lsn;
        if let Some(metrics) = &self.metrics {
            metrics.fsyncs.inc();
        }
        Ok(())
    }

    /// Drop every record with `lsn <= upto` (they are covered by a
    /// checkpoint) by rewriting the log with a new base and atomically
    /// renaming it into place.
    pub fn prune(&mut self, upto: u64) -> WalResult<()> {
        let bytes = std::fs::read(&self.path).map_err(|e| WalError::io("read log", e))?;
        let (_, records, _, _) = Self::scan(&bytes)?;
        let mut out = Vec::new();
        out.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        out.extend_from_slice(&WAL_VERSION.to_le_bytes());
        out.extend_from_slice(&upto.to_le_bytes());
        for (lsn, record) in records.iter().filter(|(l, _)| *l > upto) {
            out.extend_from_slice(&encode_frame(*lsn, &record.encode()));
        }
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| WalError::io("create pruned log", e))?;
            f.write_all(&out)
                .map_err(|e| WalError::io("write pruned log", e))?;
            f.sync_all().map_err(|e| WalError::io("fsync", e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| WalError::io("publish pruned log", e))?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| WalError::io("open log", e))?;
        self.base_lsn = upto;
        self.len = out.len() as u64;
        self.synced_len = self.len;
        self.next_lsn = self.next_lsn.max(upto + 1);
        self.synced_next_lsn = self.next_lsn;
        self.tail_dirty = false;
        Ok(())
    }

    /// Route append/fsync counters (`recdb_wal_*`) to `registry`.
    ///
    /// The log records nothing until a registry is attached, so standalone
    /// uses of the crate pay no metrics cost.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(WalMetrics {
            appends: registry.counter("recdb_wal_appends_total"),
            appended_bytes: registry.counter("recdb_wal_appended_bytes_total"),
            fsyncs: registry.counter("recdb_wal_fsyncs_total"),
        });
    }

    /// LSN the log starts after.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// LSN the next append will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the last appended record, or the base if the log is empty.
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Logical size in bytes (header plus complete frames).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Size of one encoded frame for a record of `payload_len` bytes —
    /// exposed so tests can reason about exact file sizes.
    pub fn frame_size(payload_len: usize) -> u64 {
        FRAME_OVERHEAD + payload_len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_storage::{Tuple, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_log(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("recdb-wal-{tag}-{}-{n}.log", std::process::id()))
    }

    fn insert(table: &str, u: i64) -> WalRecord {
        WalRecord::Insert {
            table: table.into(),
            tuples: vec![Tuple::new(vec![Value::Int(u), Value::Float(u as f64)])],
        }
    }

    /// A log written before `crc32` was table-sliced (commit `90108cb`:
    /// base LSN 20, one `Insert` frame) opens with nothing truncated —
    /// the frame format and its checksum are pinned.
    #[test]
    fn golden_log_from_before_crc_slicing_opens() {
        const LOG: &str = "5257414c0100000014000000000000002c000000d34a7c27150000000000\
            00000307000000726174696e6773010000000200010300000000000000020000000000000c40";
        let bytes: Vec<u8> = (0..LOG.len() / 2)
            .map(|i| u8::from_str_radix(&LOG[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        let path = temp_log("golden");
        std::fs::write(&path, &bytes).unwrap();
        let opened = Wal::open(&path, 0).unwrap();
        assert!(opened.truncated.is_none());
        let record = WalRecord::Insert {
            table: "ratings".into(),
            tuples: vec![Tuple::new(vec![Value::Int(3), Value::Float(3.5)])],
        };
        assert_eq!(opened.records, vec![(21, record.clone())]);
        assert_eq!(encode_frame(21, &record.encode()), bytes[16..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_commit_reopen_roundtrip() {
        let path = temp_log("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, 0).unwrap().wal;
            assert_eq!(wal.append(&insert("ratings", 1)).unwrap(), 1);
            assert_eq!(wal.append(&insert("ratings", 2)).unwrap(), 2);
            wal.commit().unwrap();
        }
        let opened = Wal::open(&path, 0).unwrap();
        assert!(opened.truncated.is_none());
        assert_eq!(opened.records.len(), 2);
        assert_eq!(opened.records[0], (1, insert("ratings", 1)));
        assert_eq!(opened.wal.next_lsn(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_keeping_good_prefix() {
        let path = temp_log("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, 0).unwrap().wal;
            wal.append(&insert("r", 1)).unwrap();
            wal.append(&insert("r", 2)).unwrap();
            wal.commit().unwrap();
        }
        // A crashed writer leaves half a frame behind.
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55; 11]).unwrap();
        drop(f);
        let opened = Wal::open(&path, 0).unwrap();
        assert_eq!(opened.truncated, Some(11));
        assert_eq!(opened.records.len(), 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "torn bytes must be physically removed"
        );
        // And appends continue from where the good prefix ended.
        let mut wal = opened.wal;
        assert_eq!(wal.append(&insert("r", 3)).unwrap(), 3);
        wal.commit().unwrap();
        assert_eq!(Wal::open(&path, 0).unwrap().records.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_interior_frame_fails_the_open() {
        let path = temp_log("interior");
        let _ = std::fs::remove_file(&path);
        let frame2_at;
        {
            let mut wal = Wal::open(&path, 0).unwrap().wal;
            wal.append(&insert("r", 1)).unwrap();
            frame2_at = wal.len_bytes();
            wal.append(&insert("r", 2)).unwrap();
            wal.commit().unwrap();
        }
        // Flipping a byte in the *last* frame reads as a torn tail…
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let opened = Wal::open(&path, 0).unwrap();
        assert_eq!(opened.records.len(), 1);
        assert_eq!(opened.truncated, Some(n as u64 - frame2_at));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lsn_gap_is_corruption_not_torn_tail() {
        let path = temp_log("gap");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, 0).unwrap().wal;
            wal.append(&insert("r", 1)).unwrap();
            wal.commit().unwrap();
        }
        // Hand-craft a checksum-valid frame with a wrong LSN.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_frame(9, &insert("r", 2).encode()));
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::open(&path, 0), Err(WalError::Corrupt { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prune_drops_covered_records_and_rebases() {
        let path = temp_log("prune");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 0).unwrap().wal;
        for u in 1..=5 {
            wal.append(&insert("r", u)).unwrap();
        }
        wal.commit().unwrap();
        wal.prune(3).unwrap();
        assert_eq!(wal.base_lsn(), 3);
        assert_eq!(wal.next_lsn(), 6);
        let opened = Wal::open(&path, 0).unwrap();
        let lsns: Vec<u64> = opened.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![4, 5]);
        assert_eq!(opened.wal.base_lsn(), 3);
        // Appends after a full prune restart past the base.
        let mut wal = opened.wal;
        wal.prune(5).unwrap();
        assert_eq!(wal.append(&insert("r", 6)).unwrap(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fresh_log_honors_base_lsn() {
        let path = temp_log("base");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 41).unwrap().wal;
        assert_eq!(wal.base_lsn(), 41);
        assert_eq!(wal.append(&insert("r", 1)).unwrap(), 42);
        drop(wal);
        // The base persists across reopens regardless of the hint.
        assert_eq!(Wal::open(&path, 0).unwrap().wal.base_lsn(), 41);
        std::fs::remove_file(&path).unwrap();
    }
}
