//! Durable page files and the checkpoint protocol.
//!
//! A checkpoint writes every table's pages to a *generation-named* file
//! (`<table>.<lsn>.tbl`, one [`PAGE_SIZE`] checksummed block per page) and
//! then atomically publishes a manifest (`catalog.meta`) describing the
//! catalog: table schemas, index definitions, page counts, the checkpoint
//! LSN, and an opaque engine metadata blob. The manifest rename is the
//! commit point — a crash anywhere before it leaves the previous
//! checkpoint fully intact because its files were never touched; a crash
//! after it only leaves garbage files that the next checkpoint's GC sweeps.
//!
//! Recovery ([`read_snapshot`]) verifies every block's CRC. In
//! [`RecoveryMode::Strict`] the first bad block aborts with
//! [`StorageError::Corruption`] naming the file and page; in
//! [`RecoveryMode::SalvageToLastGood`] bad blocks are replaced by empty
//! placeholder pages (preserving page numbering, and therefore RID
//! stability for the WAL replay that follows) and reported in
//! [`Snapshot::skipped`].

use crate::catalog::Catalog;
use crate::checksum::crc32;
use crate::codec::{self, Reader};
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PAGE_SIZE};
use crate::pool::BufferPool;
use crate::schema::Schema;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Manifest file name within a data directory.
pub const MANIFEST_FILE: &str = "catalog.meta";

const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"RMNF");
const MANIFEST_VERSION: u32 = 1;

/// How recovery reacts to checksum failures in durable files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Abort recovery on the first corrupt block, surfacing exactly which
    /// file and page failed. The safe default: no silently missing data.
    #[default]
    Strict,
    /// Skip corrupt blocks (each becomes an empty placeholder page so page
    /// numbering survives) and bring up everything that still verifies.
    SalvageToLastGood,
}

/// The result of reading a checkpoint back from disk.
#[derive(Debug)]
pub struct Snapshot {
    /// The restored catalog: tables, rows, and rebuilt indexes.
    pub catalog: Catalog,
    /// Opaque engine metadata stored alongside the catalog (the engine
    /// keeps its recommender definitions here).
    pub meta: Vec<u8>,
    /// LSN the checkpoint covers; WAL records at or below it are already
    /// reflected in the restored pages.
    pub lsn: u64,
    /// `(table, page)` pairs dropped by [`RecoveryMode::SalvageToLastGood`].
    /// Always empty in [`RecoveryMode::Strict`] (corruption errors instead).
    pub skipped: Vec<(String, u32)>,
}

/// `<table>.<lsn>.tbl` — generation-named so an interrupted checkpoint can
/// never clobber the previous generation's blocks.
fn table_file_name(table: &str, lsn: u64) -> String {
    format!("{table}.{lsn}.tbl")
}

/// Parse `<table>.<lsn>.tbl` back into `(table, lsn)`.
fn parse_table_file(name: &str) -> Option<(&str, u64)> {
    let stem = name.strip_suffix(".tbl")?;
    let dot = stem.rfind('.')?;
    let lsn = stem[dot + 1..].parse().ok()?;
    Some((&stem[..dot], lsn))
}

/// Serialize the manifest: catalog shape + engine meta + checkpoint LSN,
/// CRC32-trailed so a torn manifest write is detectable (the rename makes
/// one vanishingly unlikely, but the checksum makes it *impossible* to
/// mistake for a good one).
fn encode_manifest(catalog: &Catalog, meta: &[u8], lsn: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_u32(&mut buf, MANIFEST_MAGIC);
    codec::put_u32(&mut buf, MANIFEST_VERSION);
    codec::put_u64(&mut buf, lsn);
    codec::put_u32(&mut buf, meta.len() as u32);
    buf.extend_from_slice(meta);
    let tables: Vec<_> = catalog.tables().collect();
    codec::put_u32(&mut buf, tables.len() as u32);
    for table in tables {
        codec::put_str(&mut buf, table.name());
        codec::put_schema(&mut buf, table.schema());
        codec::put_u16(&mut buf, table.indexes().len() as u16);
        for idx in table.indexes() {
            codec::put_str(&mut buf, idx.name());
            codec::put_u16(&mut buf, idx.key_columns().len() as u16);
            for &ord in idx.key_columns() {
                codec::put_u16(&mut buf, ord as u16);
            }
        }
        codec::put_u32(&mut buf, table.heap().page_count() as u32);
    }
    let crc = crc32(&buf);
    codec::put_u32(&mut buf, crc);
    buf
}

struct ManifestTable {
    name: String,
    schema: Schema,
    /// `(index name, key column ordinals)`.
    indexes: Vec<(String, Vec<usize>)>,
    page_count: u32,
}

struct Manifest {
    lsn: u64,
    meta: Vec<u8>,
    tables: Vec<ManifestTable>,
}

fn decode_manifest(bytes: &[u8]) -> StorageResult<Manifest> {
    if bytes.len() < 4 {
        return Err(StorageError::Corrupt(
            "manifest shorter than its CRC".into(),
        ));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(
        crc_bytes
            .try_into()
            .expect("split_at leaves exactly four bytes"),
    );
    let actual = crc32(body);
    if stored != actual {
        return Err(StorageError::Corruption {
            file: MANIFEST_FILE.to_owned(),
            page: 0,
            expected: stored,
            found: actual,
        });
    }
    let mut r = Reader::new(body, "manifest");
    if r.take_u32()? != MANIFEST_MAGIC {
        return Err(StorageError::Corrupt("manifest has bad magic".into()));
    }
    let version = r.take_u32()?;
    if version != MANIFEST_VERSION {
        return Err(StorageError::Corrupt(format!(
            "manifest version {version} is not supported (expected {MANIFEST_VERSION})"
        )));
    }
    let lsn = r.take_u64()?;
    let meta_len = r.take_u32()? as usize;
    let meta = r.take(meta_len)?.to_vec();
    let table_count = r.take_u32()?;
    let mut tables = Vec::with_capacity(table_count as usize);
    for _ in 0..table_count {
        let name = r.take_str()?;
        let schema = r.take_schema()?;
        let index_count = r.take_u16()?;
        let mut indexes = Vec::with_capacity(index_count as usize);
        for _ in 0..index_count {
            let idx_name = r.take_str()?;
            let ncols = r.take_u16()?;
            let mut ords = Vec::with_capacity(ncols as usize);
            for _ in 0..ncols {
                ords.push(r.take_u16()? as usize);
            }
            indexes.push((idx_name, ords));
        }
        let page_count = r.take_u32()?;
        tables.push(ManifestTable {
            name,
            schema,
            indexes,
            page_count,
        });
    }
    Ok(Manifest { lsn, meta, tables })
}

/// The LSN of the on-disk checkpoint, if a valid manifest exists.
/// Unreadable manifests are treated as absent here (the caller that cares
/// about corruption goes through [`read_snapshot`]).
fn published_lsn(dir: &Path) -> Option<u64> {
    let bytes = fs::read(dir.join(MANIFEST_FILE)).ok()?;
    decode_manifest(&bytes).ok().map(|m| m.lsn)
}

/// Write a checkpoint of `catalog` (plus the engine's `meta` blob) covering
/// everything up to `lsn`.
///
/// Protocol, in crash-safety order:
///
/// 1. every table's pages go to fresh `<table>.<lsn>.tbl` files (tables
///    that are not dirty reuse the previous generation's file via a hard
///    link — content-identical, so sharing blocks is sound);
/// 2. the manifest is written to a temp file, fsynced, and renamed over
///    [`MANIFEST_FILE`] — the atomic commit point;
/// 3. stale generations are unlinked and every heap marked clean.
///
/// Fail points: `storage::page_flush` fires before each page write,
/// `storage::checkpoint` fires just before the manifest rename.
pub fn write_snapshot(
    dir: &Path,
    catalog: &mut Catalog,
    meta: &[u8],
    lsn: u64,
) -> StorageResult<()> {
    fs::create_dir_all(dir).map_err(|e| StorageError::io("create data dir", e))?;
    let prev_lsn = published_lsn(dir);
    if prev_lsn == Some(lsn) {
        // Nothing new to cover; the published checkpoint is already at
        // this LSN and its files are immutable.
        return Ok(());
    }
    for table in catalog.tables() {
        let new_path = dir.join(table_file_name(table.name(), lsn));
        let reusable = !table.heap().is_dirty();
        if reusable {
            if let Some(prev) = prev_lsn {
                let old_path = dir.join(table_file_name(table.name(), prev));
                if old_path.exists() && fs::hard_link(&old_path, &new_path).is_ok() {
                    continue;
                }
            }
        }
        let mut file =
            File::create(&new_path).map_err(|e| StorageError::io("create table file", e))?;
        // Page at a time through the buffer pool: a checkpoint of a
        // data-larger-than-pool table faults each page in, encodes it, and
        // lets it age out again — bounded memory end to end.
        for page_no in 0..table.heap().page_count() as u32 {
            recdb_fault::fail_point("storage::page_flush")?;
            let block = table.heap().encode_page_block(page_no, lsn)?;
            file.write_all(&block)
                .map_err(|e| StorageError::io("write page", e))?;
        }
        file.sync_all()
            .map_err(|e| StorageError::io("sync table file", e))?;
    }
    let manifest = encode_manifest(catalog, meta, lsn);
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let mut file = File::create(&tmp).map_err(|e| StorageError::io("create manifest", e))?;
    file.write_all(&manifest)
        .map_err(|e| StorageError::io("write manifest", e))?;
    file.sync_all()
        .map_err(|e| StorageError::io("sync manifest", e))?;
    drop(file);
    recdb_fault::fail_point("storage::checkpoint")?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE))
        .map_err(|e| StorageError::io("publish manifest", e))?;
    // Make the rename itself durable (best-effort: not all platforms allow
    // fsync on directories).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    gc_stale_generations(dir, lsn);
    for table in catalog.tables_mut() {
        table.heap_mut().mark_clean();
    }
    Ok(())
}

/// Unlink table files from generations other than `keep`, plus any stray
/// manifest temp file. Best-effort: leftover garbage only wastes space and
/// the next checkpoint retries.
fn gc_stale_generations(dir: &Path, keep: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_table = parse_table_file(name).is_some_and(|(_, gen)| gen != keep);
        let stale_tmp = name == format!("{MANIFEST_FILE}.tmp").as_str();
        if stale_table || stale_tmp {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Read the newest published checkpoint back into a catalog that pages
/// through `pool`, or `Ok(None)` if the directory holds no manifest (fresh
/// database).
/// A table is read, verified and installed a block at a time: each block's
/// checksum is checked once, as it is decoded, and its page goes into a
/// pool frame ([`BufferPool::install_page`]) without being encoded again.
/// A checkpoint that fits in the pool writes nothing to the pool's
/// backing store; a larger one writes each page there once, when it is
/// evicted, so it recovers in bounded memory.
pub fn read_snapshot(
    dir: &Path,
    mode: RecoveryMode,
    pool: Arc<BufferPool>,
) -> StorageResult<Option<Snapshot>> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let bytes = match fs::read(&manifest_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::io("read manifest", e)),
    };
    let manifest = decode_manifest(&bytes)?;
    let mut catalog = Catalog::with_pool(pool);
    let mut skipped = Vec::new();
    for mt in &manifest.tables {
        catalog.create_table(&mt.name, mt.schema.clone())?;
        let file_name = table_file_name(&mt.name, manifest.lsn);
        let table = catalog.table_mut(&mt.name)?;
        let heap = table.heap_mut();
        let mut live = 0;
        let path = dir.join(&file_name);
        read_table_pages(
            &path,
            &file_name,
            mt,
            mode,
            &mut skipped,
            |page_no, page| {
                live += page.live_count() as u64;
                // Page `page_no` is appended: the heap holds pages
                // `0..=page_no`, whose live count is that of the pages read.
                heap.restore(page_no + 1, [(page_no, page)], live)
            },
        )?;
        // Clean: the restored state is exactly what the checkpoint holds.
        heap.mark_clean();
        for (idx_name, ordinals) in &mt.indexes {
            let names: Vec<&str> = ordinals
                .iter()
                .map(|&o| {
                    mt.schema.column(o).map(|c| c.name.as_str()).ok_or_else(|| {
                        StorageError::Corrupt(format!(
                            "manifest index `{idx_name}` references column {o} \
                                 past table `{}`'s arity",
                            mt.name
                        ))
                    })
                })
                .collect::<StorageResult<_>>()?;
            table.create_index(idx_name, &names)?;
        }
    }
    Ok(Some(Snapshot {
        catalog,
        meta: manifest.meta,
        lsn: manifest.lsn,
        skipped,
    }))
}

/// Read and verify one table's page file a block at a time, handing each
/// page to `install` in page order as soon as it is decoded. Corrupt or
/// unreadable blocks abort in [`RecoveryMode::Strict`]; in salvage mode
/// each becomes an empty placeholder page and is recorded in `skipped`.
fn read_table_pages(
    path: &Path,
    file_name: &str,
    mt: &ManifestTable,
    mode: RecoveryMode,
    skipped: &mut Vec<(String, u32)>,
    mut install: impl FnMut(u32, Page) -> StorageResult<()>,
) -> StorageResult<()> {
    let mut file = match File::open(path) {
        Ok(f) => Some(f),
        Err(e) => match mode {
            RecoveryMode::Strict => return Err(StorageError::io("open table file", e)),
            RecoveryMode::SalvageToLastGood => None,
        },
    };
    let mut block = [0u8; PAGE_SIZE];
    for page_no in 0..mt.page_count {
        let read = match &mut file {
            Some(f) => f.read_exact(&mut block).map_err(|e| {
                // A short file is torn storage, not an I/O fault: report it
                // as corruption of the first missing page.
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    StorageError::Corruption {
                        file: file_name.to_owned(),
                        page: page_no,
                        expected: PAGE_SIZE as u32,
                        found: 0,
                    }
                } else {
                    StorageError::io("read page", e)
                }
            }),
            None => Err(StorageError::Io {
                op: "open table file",
                message: "file missing".into(),
            }),
        };
        let decoded = read.and_then(|()| Page::decode_block(&block, file_name, page_no));
        let page = match decoded {
            Ok((page, _lsn)) => page,
            Err(e) => match mode {
                RecoveryMode::Strict => return Err(e),
                RecoveryMode::SalvageToLastGood => {
                    skipped.push((mt.name.clone(), page_no));
                    // The read position may be garbage after a failed
                    // decode of good-length bytes; only a missing/short
                    // file stops us, and that path keeps yielding errors.
                    Page::new()
                }
            },
        };
        install(page_no, page)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::tuple::Tuple;
    use crate::value::{DataType, Value};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The checkpoint in `dir`, read through an unbounded pool.
    fn read(dir: &Path, mode: RecoveryMode) -> StorageResult<Option<Snapshot>> {
        read_snapshot(dir, mode, Arc::new(BufferPool::unbounded()))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("recdb-pagefile-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ratings_schema() -> Schema {
        Schema::new(vec![
            Column::new("uid", DataType::Int),
            Column::new("iid", DataType::Int),
            Column::new("ratingval", DataType::Float),
        ])
    }

    fn row(u: i64, i: i64, r: f64) -> Tuple {
        Tuple::new(vec![Value::Int(u), Value::Int(i), Value::Float(r)])
    }

    fn seeded_catalog(rows: i64) -> Catalog {
        let mut cat = Catalog::new();
        let t = cat.create_table("ratings", ratings_schema()).unwrap();
        for u in 0..rows {
            t.insert(row(u, u * 2, (u % 5) as f64)).unwrap();
        }
        t.create_index("ratings_uid", &["uid"]).unwrap();
        cat
    }

    #[test]
    fn snapshot_roundtrip_restores_rows_indexes_and_meta() {
        let dir = temp_dir("roundtrip");
        let mut cat = seeded_catalog(500);
        // Deleted rows must stay deleted after the disk trip.
        let victim = crate::heap::Rid::new(0, 3);
        cat.table_mut("ratings").unwrap().delete(victim).unwrap();
        write_snapshot(&dir, &mut cat, b"engine-meta", 17).unwrap();
        let snap = read(&dir, RecoveryMode::Strict).unwrap().unwrap();
        assert_eq!(snap.lsn, 17);
        assert_eq!(snap.meta, b"engine-meta");
        assert!(snap.skipped.is_empty());
        let t = snap.catalog.table("ratings").unwrap();
        assert_eq!(t.tuple_count(), 499);
        assert!(t.get(victim).is_err(), "deleted row resurrected");
        assert_eq!(t.get(crate::heap::Rid::new(0, 4)).unwrap(), row(4, 8, 4.0));
        let idx = t.index("ratings_uid").unwrap();
        assert_eq!(idx.tree().len(), 499);
        assert_eq!(
            idx.lookup(t.heap(), &Value::Int(7), || StorageResult::Ok(()))
                .unwrap()
                .len(),
            1
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_means_fresh_database() {
        let dir = temp_dir("fresh");
        assert!(read(&dir, RecoveryMode::Strict).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_generations_are_garbage_collected() {
        let dir = temp_dir("gc");
        let mut cat = seeded_catalog(100);
        write_snapshot(&dir, &mut cat, b"", 5).unwrap();
        cat.table_mut("ratings")
            .unwrap()
            .insert(row(999, 999, 1.0))
            .unwrap();
        write_snapshot(&dir, &mut cat, b"", 9).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains(&"ratings.9.tbl".to_owned()), "{names:?}");
        assert!(
            !names.contains(&"ratings.5.tbl".to_owned()),
            "stale generation survived: {names:?}"
        );
        let snap = read(&dir, RecoveryMode::Strict).unwrap().unwrap();
        assert_eq!(snap.catalog.table("ratings").unwrap().tuple_count(), 101);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_tables_reuse_previous_generation() {
        let dir = temp_dir("reuse");
        let mut cat = seeded_catalog(100);
        write_snapshot(&dir, &mut cat, b"", 5).unwrap();
        assert!(!cat.table("ratings").unwrap().heap().is_dirty());
        // Second checkpoint with no changes: the table file is hard-linked,
        // not rewritten, and the snapshot still reads back fully.
        write_snapshot(&dir, &mut cat, b"", 8).unwrap();
        let snap = read(&dir, RecoveryMode::Strict).unwrap().unwrap();
        assert_eq!(snap.lsn, 8);
        assert_eq!(snap.catalog.table("ratings").unwrap().tuple_count(), 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_mode_reports_corruption_with_location() {
        let dir = temp_dir("strict");
        let mut cat = seeded_catalog(1000);
        write_snapshot(&dir, &mut cat, b"", 3).unwrap();
        // Flip one byte in the middle of page 1.
        let path = dir.join("ratings.3.tbl");
        let mut bytes = fs::read(&path).unwrap();
        assert!(bytes.len() >= 2 * PAGE_SIZE, "need at least two pages");
        bytes[PAGE_SIZE + 1000] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match read(&dir, RecoveryMode::Strict) {
            Err(StorageError::Corruption { file, page, .. }) => {
                assert_eq!(file, "ratings.3.tbl");
                assert_eq!(page, 1);
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_mode_skips_bad_page_and_keeps_the_rest() {
        let dir = temp_dir("salvage");
        let mut cat = seeded_catalog(1000);
        let total = cat.table("ratings").unwrap().tuple_count();
        let page1_live = cat
            .table("ratings")
            .unwrap()
            .heap()
            .page_image(1)
            .unwrap()
            .live_count() as u64;
        write_snapshot(&dir, &mut cat, b"", 3).unwrap();
        let path = dir.join("ratings.3.tbl");
        let mut bytes = fs::read(&path).unwrap();
        bytes[PAGE_SIZE + 1000] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let snap = read(&dir, RecoveryMode::SalvageToLastGood)
            .unwrap()
            .unwrap();
        assert_eq!(snap.skipped, vec![("ratings".to_owned(), 1)]);
        let t = snap.catalog.table("ratings").unwrap();
        assert_eq!(t.tuple_count(), total - page1_live);
        // Page numbering is preserved: rows on page 2 keep their RIDs.
        let rid = crate::heap::Rid::new(2, 0);
        assert!(t.get(rid).is_ok());
        assert!(t.get(crate::heap::Rid::new(1, 0)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_a_checksum_error() {
        let dir = temp_dir("manifest");
        let mut cat = seeded_catalog(10);
        write_snapshot(&dir, &mut cat, b"", 1).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read(&dir, RecoveryMode::Strict),
            Err(StorageError::Corruption { page: 0, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_file_names_roundtrip() {
        assert_eq!(parse_table_file("ratings.42.tbl"), Some(("ratings", 42)));
        assert_eq!(
            parse_table_file("users_v2.1.7.tbl"),
            Some(("users_v2.1", 7))
        );
        assert_eq!(parse_table_file("catalog.meta"), None);
        assert_eq!(parse_table_file("x.notanumber.tbl"), None);
    }
}
