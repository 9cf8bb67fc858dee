//! Heap tables: page-based relations with block-at-a-time scans.
//!
//! A [`HeapTable`] owns a paged file inside a [`BufferPool`] and a
//! [`Schema`]. Inserts are type-checked against the schema (with implicit
//! `Int → Float` widening, like PostgreSQL's numeric coercion) and packed
//! into the last page with free space. Scans visit rows page by page — the
//! granularity the paper's block-nested-loop operators are defined over —
//! in runs of up to [`crate::pool::SCAN_RUN`] pages, and every page access
//! is counted once, by the pool ([`BufferPool::hits`] +
//! [`BufferPool::misses`]).
//!
//! Pages are materialized in pool frames on demand: under a bounded pool a
//! table much larger than RAM scans in bounded memory, with cold pages
//! faulted in from the pool's backing store. The pool's backing store is
//! scratch (recovery uses the checkpoint + WAL, never the spill files), so
//! the heap's dirty flag for the checkpointer ([`HeapTable::is_dirty`]) is
//! independent of frame-level dirty bits inside the pool.

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageView};
use crate::pool::{BufferPool, FileId, FileKind, FrameData, ScanBuffer};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use std::sync::Arc;

/// Record id: (page number, slot number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page number within the heap.
    pub page: u32,
    /// Slot number within the page.
    pub slot: u16,
}

impl Rid {
    /// Construct a record id.
    pub fn new(page: u32, slot: u16) -> Self {
        Rid { page, slot }
    }
}

/// A page-based heap relation, paged through a [`BufferPool`].
#[derive(Debug)]
pub struct HeapTable {
    schema: Schema,
    pool: Arc<BufferPool>,
    file: FileId,
    live_tuples: u64,
    /// A page changed since the last [`HeapTable::mark_clean`] — the
    /// checkpointer's change detector.
    dirty: bool,
}

impl HeapTable {
    /// An empty heap with the given schema and a private unbounded pool
    /// (ad-hoc tables outside an engine).
    pub fn new(schema: Schema) -> Self {
        HeapTable::with_pool(schema, Arc::new(BufferPool::unbounded()), "heap")
    }

    /// An empty heap paged through a shared buffer pool. `label` names
    /// the heap's pool file in corruption errors (conventionally the
    /// table name).
    pub fn with_pool(schema: Schema, pool: Arc<BufferPool>, label: &str) -> Self {
        let file = pool.create_file(FileKind::Heap, label);
        HeapTable {
            schema,
            pool,
            file,
            live_tuples: 0,
            dirty: false,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The buffer pool this heap pages through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Number of pages (the paper's `||I||`).
    pub fn page_count(&self) -> usize {
        self.pool.page_count(self.file) as usize
    }

    /// Number of live tuples.
    pub fn tuple_count(&self) -> u64 {
        self.live_tuples
    }

    /// Validate a tuple against the schema, applying `Int → Float`
    /// widening where the column is `Float`.
    fn coerce(&self, tuple: Tuple) -> StorageResult<Tuple> {
        if tuple.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                got: tuple.arity(),
            });
        }
        let mut values = tuple.into_values();
        for (i, v) in values.iter_mut().enumerate() {
            let col = self.schema.column(i).expect("arity checked");
            if !v.conforms_to(col.data_type) {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.data_type.to_string(),
                    got: v
                        .data_type()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "Null".to_owned()),
                });
            }
            if col.data_type == DataType::Float {
                if let Value::Int(x) = v {
                    *v = Value::Float(*x as f64);
                }
            }
        }
        Ok(Tuple::new(values))
    }

    /// Insert a tuple, returning its record id.
    pub fn insert(&mut self, tuple: Tuple) -> StorageResult<Rid> {
        recdb_fault::fail_point("storage::heap_append")?;
        let tuple = self.coerce(tuple)?;
        let size = tuple.encoded_size();
        let page_count = self.pool.page_count(self.file);
        let need_new = page_count == 0
            || !self
                .pool
                .with_page(self.file, page_count - 1, |p| p.fits(size))?;
        let page_no = if need_new {
            self.pool
                .allocate_page(self.file, FrameData::Heap(Page::new()))?
        } else {
            page_count - 1
        };
        let slot = self
            .pool
            .with_page_mut(self.file, page_no, |p| p.insert(&tuple))??;
        self.live_tuples += 1;
        self.dirty = true;
        Ok(Rid::new(page_no, slot))
    }

    /// Fetch one tuple by record id.
    pub fn get(&self, rid: Rid) -> StorageResult<Tuple> {
        let invalid = || StorageError::InvalidRid {
            page: rid.page,
            slot: rid.slot,
        };
        if rid.page >= self.pool.page_count(self.file) {
            return Err(invalid());
        }
        self.pool
            .with_page(self.file, rid.page, |p| p.get(rid.slot))?
            .map_err(|_| invalid())
    }

    /// Delete one tuple by record id.
    pub fn delete(&mut self, rid: Rid) -> StorageResult<()> {
        let invalid = || StorageError::InvalidRid {
            page: rid.page,
            slot: rid.slot,
        };
        if rid.page >= self.pool.page_count(self.file) {
            return Err(invalid());
        }
        self.pool
            .with_page_mut(self.file, rid.page, |p| p.delete(rid.slot))?
            .map_err(|_| invalid())?;
        self.live_tuples -= 1;
        self.dirty = true;
        Ok(())
    }

    /// Remove every tuple, keeping the schema. Used by OnTopDB when it
    /// reloads its predictions table.
    pub fn truncate(&mut self) -> StorageResult<()> {
        self.dirty |= self.page_count() > 0;
        self.pool.truncate_file(self.file, 0)?;
        self.live_tuples = 0;
        Ok(())
    }

    /// A copy of one page (a transaction's pre-image of it).
    pub fn page_image(&self, page_no: u32) -> StorageResult<Page> {
        self.pool.with_page(self.file, page_no, |p| p.clone())
    }

    /// One page encoded as a checksummed disk block stamped with `lsn`
    /// (the checkpoint writer's fast path: no intermediate page clone).
    pub fn encode_page_block(&self, page_no: u32, lsn: u64) -> StorageResult<Vec<u8>> {
        self.pool
            .with_page(self.file, page_no, |p| p.encode_block(lsn))
    }

    /// Install saved page images: put each `(page number, image)` of
    /// `pages` in place, cut the heap back to its first `page_count`
    /// pages, and set the live-tuple count to `live_tuples`. A rollback
    /// puts back the pages its transaction changed this way, and the
    /// checkpoint loader a whole table, a page at a time; neither reads a
    /// page. An installed page or a cut marks the heap dirty. If a page
    /// cannot be installed, or the heap cut, the call fails with the pages
    /// before it in place and the live-tuple count recounted from the
    /// heap's pages (left as it was if they cannot be read either).
    pub fn restore(
        &mut self,
        page_count: u32,
        pages: impl IntoIterator<Item = (u32, Page)>,
        live_tuples: u64,
    ) -> StorageResult<()> {
        let restored = pages
            .into_iter()
            .try_for_each(|(pno, page)| {
                self.pool
                    .install_page(self.file, pno, FrameData::Heap(page))?;
                self.dirty = true;
                Ok(())
            })
            .and_then(|()| {
                self.dirty |= self.pool.page_count(self.file) > page_count;
                self.pool.truncate_file(self.file, page_count)
            });
        if restored.is_ok() {
            self.live_tuples = live_tuples;
        } else {
            let mut live = 0;
            let counted = self.visit_all(|_, page| {
                live += page.live_count() as u64;
                Ok::<_, StorageError>(())
            });
            if counted.is_ok() {
                self.live_tuples = live;
            }
        }
        restored
    }

    /// Whether any page changed since the last checkpoint.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Clear the dirty flag (called once the checkpointer has written a
    /// consistent image of this heap).
    pub(crate) fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Run `visit` over each page of the run that starts at page `start`
    /// — one pool access per page — and return how many pages it visited,
    /// 0 past the end of the heap; the next run starts that many pages
    /// on. This is the one access path scans are built on: the visitor
    /// gets each page's number and rows in place ([`PageView::live_rows`])
    /// and decodes only what it keeps. It may run with the pool locked, so
    /// it must not call back into the pool. A heap with more pages than
    /// the pool has frames admits nothing ([`BufferPool::scan_run`]): the
    /// pages that are not resident are read a run at a time into `buf`,
    /// and the visitor runs on them with the pool unlocked. `Err` when the
    /// visitor fails or the pool cannot produce a page (a corrupt spill
    /// block, a failed read or eviction); the pages before that one have
    /// been visited.
    pub fn visit_run<E: From<StorageError>>(
        &self,
        start: u32,
        buf: &mut ScanBuffer,
        visit: impl FnMut(u32, PageView<'_>) -> Result<(), E>,
    ) -> Result<u32, E> {
        self.pool.scan_run(self.file, start, buf, visit)
    }

    /// Run `visit` over every page of the heap, run by run
    /// ([`HeapTable::visit_run`]).
    pub fn visit_all<E: From<StorageError>>(
        &self,
        mut visit: impl FnMut(u32, PageView<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let (mut start, mut buf) = (0, ScanBuffer::default());
        loop {
            match self.visit_run(start, &mut buf, &mut visit)? {
                0 => return Ok(()),
                visited => start += visited,
            }
        }
    }

    /// Full scan, tuple at a time: one pool access per page visited, one
    /// run's tuples materialized at a time.
    ///
    /// Panics if the buffer pool cannot produce a page: an iterator of
    /// tuples has no error channel. Callers that must report storage
    /// failures go run by run through [`HeapTable::visit_run`].
    pub fn scan(&self) -> impl Iterator<Item = (Rid, Tuple)> + '_ {
        let (mut start, mut buf) = (0, ScanBuffer::default());
        std::iter::from_fn(move || {
            let mut rows = Vec::new();
            let visited = self
                .visit_run(start, &mut buf, |page_no, page| {
                    let live = page.iter_live();
                    rows.extend(live.map(|(slot, tuple)| (Rid::new(page_no, slot), tuple)));
                    Ok::<_, StorageError>(())
                })
                .expect("buffer pool read failed during scan");
            start += visited;
            (visited > 0).then_some(rows)
        })
        .flatten()
    }
}

impl Drop for HeapTable {
    fn drop(&mut self) {
        self.pool.remove_file(self.file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn ratings() -> HeapTable {
        HeapTable::new(Schema::new(vec![
            Column::new("uid", DataType::Int),
            Column::new("iid", DataType::Int),
            Column::new("ratingval", DataType::Float),
        ]))
    }

    fn row(u: i64, i: i64, r: f64) -> Tuple {
        Tuple::new(vec![Value::Int(u), Value::Int(i), Value::Float(r)])
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = ratings();
        let rid = t.insert(row(1, 2, 4.5)).unwrap();
        assert_eq!(t.get(rid).unwrap(), row(1, 2, 4.5));
        assert_eq!(t.tuple_count(), 1);
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut t = ratings();
        let rid = t
            .insert(Tuple::new(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(4),
            ]))
            .unwrap();
        let got = t.get(rid).unwrap();
        assert_eq!(got.get(2).unwrap(), &Value::Float(4.0));
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = ratings();
        assert!(matches!(
            t.insert(Tuple::new(vec![Value::Int(1)])),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert(Tuple::new(vec![
                Value::Text("x".into()),
                Value::Int(2),
                Value::Float(1.0)
            ])),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn scan_returns_all_in_insert_order() {
        let mut t = ratings();
        for i in 0..1000 {
            t.insert(row(i, i * 2, (i % 5) as f64)).unwrap();
        }
        let uids: Vec<i64> = t
            .scan()
            .map(|(_, tup)| tup.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(uids.len(), 1000);
        assert!(uids.windows(2).all(|w| w[0] < w[1]));
        assert!(t.page_count() > 1, "1000 rows should span pages");
    }

    #[test]
    fn scan_is_one_pool_access_per_page() {
        let mut t = ratings();
        for i in 0..2000 {
            t.insert(row(i, i, 1.0)).unwrap();
        }
        let pages = t.page_count() as u64;
        let accesses = |t: &HeapTable| t.pool().hits() + t.pool().misses();
        let before = accesses(&t);
        let n = t.scan().count();
        assert_eq!(n, 2000);
        assert_eq!(accesses(&t) - before, pages);
    }

    #[test]
    fn delete_then_scan_skips() {
        let mut t = ratings();
        let rids: Vec<Rid> = (0..10).map(|i| t.insert(row(i, i, 1.0)).unwrap()).collect();
        t.delete(rids[3]).unwrap();
        t.delete(rids[7]).unwrap();
        let uids: Vec<i64> = t
            .scan()
            .map(|(_, tup)| tup.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(uids, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        assert_eq!(t.tuple_count(), 8);
        assert!(t.get(rids[3]).is_err());
    }

    #[test]
    fn truncate_empties_table() {
        let mut t = ratings();
        for i in 0..10 {
            t.insert(row(i, i, 1.0)).unwrap();
        }
        t.truncate().unwrap();
        assert_eq!(t.tuple_count(), 0);
        assert_eq!(t.scan().count(), 0);
        assert_eq!(t.page_count(), 0);
    }

    #[test]
    fn visit_run_yields_page_granular_blocks_and_none_past_the_end() {
        let mut t = ratings();
        for i in 0..2000 {
            t.insert(row(i, i, 1.0)).unwrap();
        }
        let mut buf = ScanBuffer::default();
        let mut live = |pno| {
            let mut rows = None;
            t.visit_run(pno, &mut buf, |n, p| {
                rows = rows.or((n == pno).then(|| p.live_rows().count()));
                Ok::<_, StorageError>(())
            })
            .unwrap();
            rows
        };
        let blocks: Vec<usize> = (0..t.page_count() as u32).map_while(&mut live).collect();
        assert_eq!(blocks.len(), t.page_count());
        assert_eq!(blocks.iter().sum::<usize>(), 2000);
        // All pages except possibly the last are full to within one tuple.
        let full = blocks[0];
        assert!(blocks[..blocks.len() - 1].iter().all(|&c| c == full));
        assert_eq!(live(t.page_count() as u32), None);
    }

    #[test]
    fn scans_are_identical_under_a_tiny_pool() {
        // The eviction-pressure contract in miniature: a pool of 2 frames
        // over a multi-page table returns exactly what an unbounded heap
        // returns.
        let schema = Schema::new(vec![
            Column::new("uid", DataType::Int),
            Column::new("iid", DataType::Int),
            Column::new("ratingval", DataType::Float),
        ]);
        let pool = Arc::new(BufferPool::in_memory(2));
        let mut bounded = HeapTable::with_pool(schema, Arc::clone(&pool), "r");
        let mut unbounded = ratings();
        for i in 0..2000 {
            bounded.insert(row(i, i, (i % 7) as f64)).unwrap();
            unbounded.insert(row(i, i, (i % 7) as f64)).unwrap();
        }
        assert!(bounded.page_count() > 4);
        assert!(pool.evictions() > 0);
        let a: Vec<(Rid, Tuple)> = bounded.scan().collect();
        let b: Vec<(Rid, Tuple)> = unbounded.scan().collect();
        assert_eq!(a, b);
        // Point reads against cold pages also come back intact.
        assert_eq!(bounded.get(a[0].0).unwrap(), b[0].1);
    }
}
