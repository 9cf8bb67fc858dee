//! The table catalog: named tables, each a heap plus its indexes.
//!
//! Index maintenance is transparent: [`Table::insert`] and [`Table::delete`]
//! keep every secondary index in sync with the heap. A rollback rebuilds
//! the indexes from the restored heap. If an index update or a rebuild
//! fails partway the indexes are *stale* — [`Table::usable_indexes`]
//! offers none of them — until the next write to the table rebuilds them
//! first. An insert into a table with no index never reads its row back.

use crate::error::{StorageError, StorageResult};
use crate::heap::{HeapTable, Rid};
use crate::index::BTreeIndex;
use crate::page::Page;
use crate::pool::BufferPool;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named relation: heap storage plus secondary indexes.
#[derive(Debug)]
pub struct Table {
    name: String,
    heap: HeapTable,
    indexes: Vec<BTreeIndex>,
    /// A rebuild of `indexes` failed partway: they may miss rows.
    indexes_stale: bool,
}

impl Table {
    /// A fresh table whose heap pages through `pool`.
    pub fn new(name: impl Into<String>, schema: Schema, pool: Arc<BufferPool>) -> Self {
        let name = name.into();
        let heap = HeapTable::with_pool(schema, pool, &name);
        Table {
            name,
            heap,
            indexes: Vec::new(),
            indexes_stale: false,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        self.heap.schema()
    }

    /// The underlying heap (read access for scans).
    pub fn heap(&self) -> &HeapTable {
        &self.heap
    }

    /// Mutable heap access, reserved for the crate-internal recovery path
    /// (checkpoint restore installs pages directly).
    pub(crate) fn heap_mut(&mut self) -> &mut HeapTable {
        &mut self.heap
    }

    /// Number of live tuples.
    pub fn tuple_count(&self) -> u64 {
        self.heap.tuple_count()
    }

    /// Create a secondary index over the named columns and backfill it from
    /// the current heap contents. A page the pool cannot produce fails the
    /// call and registers no index.
    pub fn create_index(&mut self, index_name: &str, columns: &[&str]) -> StorageResult<()> {
        if self.indexes.iter().any(|i| i.name() == index_name) {
            return Err(StorageError::IndexExists(index_name.to_owned()));
        }
        let ordinals: Vec<usize> = columns
            .iter()
            .map(|c| self.schema().resolve(c))
            .collect::<StorageResult<_>>()?;
        self.repair_indexes()?;
        let mut idx = BTreeIndex::new(Arc::clone(self.heap.pool()), index_name, ordinals)?;
        backfill(&self.heap, std::slice::from_mut(&mut idx))?;
        self.indexes.push(idx);
        Ok(())
    }

    /// Drop an index by name and hand it back whole: `DROP INDEX`, whose
    /// transaction keeps it so the drop can be undone.
    pub fn drop_index(&mut self, index_name: &str) -> StorageResult<BTreeIndex> {
        let pos = self
            .indexes
            .iter()
            .position(|i| i.name() == index_name)
            .ok_or_else(|| StorageError::IndexNotFound(index_name.to_owned()))?;
        Ok(self.indexes.remove(pos))
    }

    /// Re-install an index removed with [`Table::drop_index`]. The caller
    /// vouches that it matches the heap.
    pub fn restore_index(&mut self, index: BTreeIndex) {
        self.indexes.push(index);
    }

    /// Fetch an index by name.
    pub fn index(&self, index_name: &str) -> StorageResult<&BTreeIndex> {
        self.indexes
            .iter()
            .find(|i| i.name() == index_name)
            .ok_or_else(|| StorageError::IndexNotFound(index_name.to_owned()))
    }

    /// All indexes, stale or not.
    pub fn indexes(&self) -> &[BTreeIndex] {
        &self.indexes
    }

    /// The indexes a reader may trust to hold every row: all of them, or
    /// none while a failed rebuild has left them stale.
    pub fn usable_indexes(&self) -> &[BTreeIndex] {
        if self.indexes_stale {
            &[]
        } else {
            &self.indexes
        }
    }

    /// Insert a tuple into the heap and every index.
    pub fn insert(&mut self, tuple: Tuple) -> StorageResult<Rid> {
        self.repair_indexes()?;
        let rid = self.heap.insert(tuple)?;
        if !self.indexes.is_empty() {
            let indexed = self.heap.get(rid).and_then(|stored| {
                let mut indexes = self.indexes.iter_mut();
                indexes.try_for_each(|idx| idx.insert(&stored, rid))
            });
            self.settle(indexed)?;
        }
        Ok(rid)
    }

    /// Insert many tuples.
    pub fn insert_many(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> StorageResult<Vec<Rid>> {
        tuples.into_iter().map(|t| self.insert(t)).collect()
    }

    /// Delete a tuple from the heap and every index.
    pub fn delete(&mut self, rid: Rid) -> StorageResult<()> {
        self.repair_indexes()?;
        let stored = self.heap.get(rid)?;
        self.heap.delete(rid)?;
        let unindexed = self
            .indexes
            .iter_mut()
            .try_for_each(|idx| idx.remove(&stored, rid));
        self.settle(unindexed)
    }

    /// Fetch a tuple by rid.
    pub fn get(&self, rid: Rid) -> StorageResult<Tuple> {
        self.heap.get(rid)
    }

    /// Drop all rows (heap and indexes).
    pub fn truncate(&mut self) -> StorageResult<()> {
        self.heap.truncate()?;
        let cleared = self
            .indexes
            .iter_mut()
            .try_for_each(|idx| idx.rebuild(Vec::new()));
        self.settle(cleared)
    }

    /// Put back a transaction's saved heap pages ([`HeapTable::restore`])
    /// and rebuild the secondary indexes from the restored heap. If the
    /// heap cannot be restored the indexes no longer match it and are
    /// stale.
    pub fn restore_heap(
        &mut self,
        page_count: u32,
        pages: impl IntoIterator<Item = (u32, Page)>,
        live_tuples: u64,
    ) -> StorageResult<()> {
        match self.heap.restore(page_count, pages, live_tuples) {
            Ok(()) => self.rebuild_indexes(),
            Err(e) => self.settle(Err(e)),
        }
    }

    /// Refill every secondary index from the heap, each into a fresh tree.
    /// A page the pool cannot produce fails the call and leaves the old
    /// trees (or some rebuilt, some old, if a tree cannot be written), so
    /// the indexes stay stale until a rebuild succeeds.
    fn rebuild_indexes(&mut self) -> StorageResult<()> {
        let rebuilt = backfill(&self.heap, &mut self.indexes);
        self.settle(rebuilt)
    }

    /// The indexes are stale exactly when the update that produced
    /// `updated` failed; pass its result on.
    fn settle(&mut self, updated: StorageResult<()>) -> StorageResult<()> {
        self.indexes_stale = updated.is_err();
        updated
    }

    /// Retry the rebuild a failed one left stale: every write to the table
    /// (under its exclusive lock) does this first.
    fn repair_indexes(&mut self) -> StorageResult<()> {
        if self.indexes_stale {
            self.rebuild_indexes()?;
        }
        Ok(())
    }
}

/// Refill each of `indexes` from every live row of `heap`: the keys are
/// collected a heap run at a time, then each index's are sorted and
/// bulk-built into a fresh tree ([`crate::BTree::from_sorted`]) that replaces
/// its old one. A page the pool cannot produce fails the call before any
/// index changes.
fn backfill(heap: &HeapTable, indexes: &mut [BTreeIndex]) -> StorageResult<()> {
    if indexes.is_empty() {
        return Ok(());
    }
    let mut keys = vec![Vec::with_capacity(heap.tuple_count() as usize); indexes.len()];
    heap.visit_all(|page_no, page| {
        for (slot, row) in page.iter_live() {
            let rid = Rid::new(page_no, slot);
            for (idx, keys) in indexes.iter().zip(&mut keys) {
                keys.push(idx.key(&row, rid));
            }
        }
        Ok::<_, StorageError>(())
    })?;
    indexes
        .iter_mut()
        .zip(keys)
        .try_for_each(|(idx, keys)| idx.rebuild(keys))
}

/// The database catalog: a named collection of tables sharing one buffer
/// pool (whose hit/miss counters are the database's page-access count).
#[derive(Debug)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    pool: Arc<BufferPool>,
    /// Bumped whenever a table is added or removed, so a plan built
    /// against the catalog can tell it may name a table that changed.
    epoch: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog over a private, unbounded buffer pool.
    pub fn new() -> Self {
        Catalog::with_pool(Arc::new(BufferPool::unbounded()))
    }

    /// An empty catalog whose tables page through `pool` (the engine
    /// passes its bounded, metrics-attached pool here).
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        Catalog {
            tables: BTreeMap::new(),
            pool,
            epoch: 0,
        }
    }

    /// The schema epoch: it changes whenever a table is created, dropped
    /// or restored (by a statement, its undo, or WAL replay alike), and
    /// only then. A logical plan built at one epoch resolves the same
    /// tables with the same schemas at that epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared buffer pool every table in this catalog pages through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Create a table. Table names are case-insensitive (stored folded to
    /// lowercase, like PostgreSQL's unquoted identifiers).
    pub fn create_table(&mut self, name: &str, schema: Schema) -> StorageResult<&mut Table> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableExists(name.to_owned()));
        }
        let table = Table::new(key.clone(), schema, Arc::clone(&self.pool));
        self.epoch += 1;
        Ok(self.tables.entry(key).or_insert(table))
    }

    /// Remove a table and hand it back whole (heap, indexes and all):
    /// `DROP TABLE`, whose transaction keeps it so the drop can be undone.
    pub fn take_table(&mut self, name: &str) -> StorageResult<Table> {
        let table = self
            .tables
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))?;
        self.epoch += 1;
        Ok(table)
    }

    /// Re-install a table removed with [`Catalog::take_table`].
    pub fn restore_table(&mut self, table: Table) {
        self.epoch += 1;
        self.tables.insert(table.name().to_owned(), table);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> StorageResult<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    /// Look up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> StorageResult<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Iterate every table in name order (checkpoint writer).
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Iterate every table mutably in name order (checkpoint writer:
    /// marking every heap clean after a successful snapshot).
    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut Table> {
        self.tables.values_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

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

    #[test]
    fn create_and_lookup_case_insensitive() {
        let mut cat = Catalog::new();
        cat.create_table("Ratings", ratings_schema()).unwrap();
        assert!(cat.table("ratings").is_ok());
        assert!(cat.table("RATINGS").is_ok());
        assert!(matches!(
            cat.create_table("ratings", ratings_schema()),
            Err(StorageError::TableExists(_))
        ));
        assert_eq!(cat.table_names(), vec!["ratings"]);
    }

    #[test]
    fn index_maintained_on_insert_and_delete() {
        let mut cat = Catalog::new();
        let t = cat.create_table("ratings", ratings_schema()).unwrap();
        t.create_index("ratings_uid", &["uid"]).unwrap();
        let rid1 = t.insert(row(1, 10, 4.0)).unwrap();
        let rid2 = t.insert(row(1, 11, 3.0)).unwrap();
        t.insert(row(2, 10, 5.0)).unwrap();
        let uid_1 = |t: &Table| {
            let idx = t.index("ratings_uid").unwrap();
            let rows = idx
                .lookup(t.heap(), &Value::Int(1), || StorageResult::Ok(()))
                .unwrap();
            rows.into_iter().map(|(rid, _)| rid).collect::<Vec<_>>()
        };
        assert_eq!(uid_1(t), vec![rid1, rid2]);
        t.delete(rid1).unwrap();
        assert_eq!(uid_1(t), vec![rid2]);
    }

    #[test]
    fn index_backfills_existing_rows() {
        let mut cat = Catalog::new();
        let t = cat.create_table("ratings", ratings_schema()).unwrap();
        for u in 0..50 {
            t.insert(row(u, u * 3, 2.5)).unwrap();
        }
        t.create_index("by_iid", &["iid"]).unwrap();
        let idx = t.index("by_iid").unwrap();
        assert_eq!(idx.tree().len(), 50);
        let rows = idx
            .lookup(t.heap(), &Value::Int(30), || StorageResult::Ok(()))
            .unwrap();
        assert_eq!(rows, vec![(Rid::new(0, 10), row(10, 30, 2.5))]);
    }

    #[test]
    fn drop_index_removes_it() {
        let mut cat = Catalog::new();
        let t = cat.create_table("r", ratings_schema()).unwrap();
        t.create_index("i", &["uid"]).unwrap();
        t.drop_index("i").unwrap();
        assert!(t.index("i").is_err());
        assert!(matches!(
            t.drop_index("i"),
            Err(StorageError::IndexNotFound(_))
        ));
        // Inserts after the drop don't touch the removed index.
        t.insert(row(1, 1, 1.0)).unwrap();
        assert!(t.indexes().is_empty());
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut cat = Catalog::new();
        let t = cat.create_table("ratings", ratings_schema()).unwrap();
        t.create_index("i", &["uid"]).unwrap();
        assert!(matches!(
            t.create_index("i", &["iid"]),
            Err(StorageError::IndexExists(_))
        ));
    }

    #[test]
    fn tables_share_the_catalog_pool() {
        let mut cat = Catalog::new();
        cat.create_table("a", ratings_schema()).unwrap();
        cat.create_table("b", ratings_schema()).unwrap();
        cat.table_mut("a").unwrap().insert(row(1, 1, 1.0)).unwrap();
        cat.table_mut("b").unwrap().insert(row(2, 2, 2.0)).unwrap();
        assert_eq!(cat.pool().hits() + cat.pool().misses(), 2);
    }

    #[test]
    fn truncate_clears_heap_and_indexes() {
        let mut cat = Catalog::new();
        let t = cat.create_table("r", ratings_schema()).unwrap();
        t.create_index("i", &["uid"]).unwrap();
        t.insert(row(1, 1, 1.0)).unwrap();
        t.truncate().unwrap();
        assert_eq!(t.tuple_count(), 0);
        assert!(t.index("i").unwrap().tree().is_empty());
    }

    #[test]
    fn restore_heap_undoes_appends_and_deletes_and_resyncs_indexes() {
        let mut cat = Catalog::new();
        let t = cat.create_table("r", ratings_schema()).unwrap();
        t.create_index("i", &["uid"]).unwrap();
        let rid1 = t.insert(row(1, 1, 1.0)).unwrap();
        t.insert(row(2, 2, 2.0)).unwrap();
        t.heap_mut().mark_clean(); // pretend a checkpoint ran

        // A transaction's pre-image: the extent, the live count, and the
        // one page it changes that existed before it.
        let saved = vec![(0, t.heap().page_image(0).unwrap())];
        t.delete(rid1).unwrap();
        while t.heap().page_count() < 3 {
            t.insert(row(3, 3, 3.0)).unwrap();
        }
        t.restore_heap(1, saved, 2).unwrap();

        assert_eq!(t.heap().page_count(), 1);
        assert_eq!(t.tuple_count(), 2);
        assert_eq!(t.get(rid1).unwrap(), row(1, 1, 1.0));
        assert_eq!(t.index("i").unwrap().tree().len(), 2);
        assert!(
            t.heap().is_dirty(),
            "a rolled-back table diverges from the checkpoint image"
        );
        // The heap is byte-identical to the pre-transaction state, so a
        // fresh insert lands at the same rid an untouched run would assign.
        let rid = t.insert(row(4, 4, 4.0)).unwrap();
        assert_eq!(rid, Rid::new(0, 2));
    }

    #[test]
    fn the_epoch_moves_only_when_the_set_of_tables_does() {
        let mut cat = Catalog::new();
        let mut seen = vec![cat.epoch()];
        let mut moved = |cat: &Catalog| {
            let moved = !seen.contains(&cat.epoch());
            seen.push(cat.epoch());
            moved
        };
        cat.create_table("r", ratings_schema()).unwrap();
        assert!(moved(&cat));
        assert!(cat.create_table("R", ratings_schema()).is_err());
        let t = cat.table_mut("r").unwrap();
        t.insert(row(1, 1, 1.0)).unwrap();
        t.create_index("i", &["uid"]).unwrap();
        t.drop_index("i").unwrap();
        assert!(!moved(&cat), "rows and indexes are not the schema");
        let taken = cat.take_table("r").unwrap();
        assert!(moved(&cat));
        assert!(cat.take_table("r").is_err());
        assert!(!moved(&cat));
        cat.restore_table(taken);
        assert!(moved(&cat), "a restore is a change too, never a step back");
    }

    #[test]
    fn take_and_restore_table_roundtrip() {
        let mut cat = Catalog::new();
        let t = cat.create_table("R", ratings_schema()).unwrap();
        t.create_index("i", &["uid"]).unwrap();
        t.insert(row(1, 1, 1.0)).unwrap();

        let taken = cat.take_table("r").unwrap();
        assert!(!cat.contains("r"));
        assert!(matches!(
            cat.table("r"),
            Err(StorageError::TableNotFound(_))
        ));
        assert!(cat.take_table("R").is_err(), "already taken");
        cat.restore_table(taken);
        let t = cat.table("R").unwrap();
        assert_eq!(t.tuple_count(), 1);
        assert_eq!(t.index("i").unwrap().tree().len(), 1);
        assert!(cat.take_table("missing").is_err());
    }
}
