//! The storage tests that arm fault sites (`storage::pool_read`,
//! `storage::pool_evict`, `storage::btree_split`). The fault registry is
//! process-global and the harness runs tests in parallel, so they live in
//! a binary of their own in which every test holds
//! `recdb_fault::exclusive()` for its whole body; the storage lib tests
//! arm nothing.

use recdb_storage::btree::Key;
use recdb_storage::{
    BTree, BufferPool, Column, DataType, FileKind, FrameData, HeapTable, Page, PageView,
    ScanBuffer, Schema, StorageError, Tuple, Value, KEY_SIZE,
};
use std::sync::Arc;

fn tuple(n: i64) -> Tuple {
    Tuple::new(vec![Value::Int(n), Value::Text(format!("row-{n}"))])
}

fn fill_page(n: i64) -> Page {
    let mut p = Page::new();
    p.insert(&tuple(n)).unwrap();
    p
}

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

fn key(n: u64) -> Key {
    let mut k = [0u8; KEY_SIZE];
    k[..8].copy_from_slice(&n.to_be_bytes());
    k
}

fn small_tree(max_keys: usize) -> BTree {
    BTree::create(Arc::new(BufferPool::unbounded()), "t", max_keys).unwrap()
}

/// An injected read error leaves the pool as it was: nothing in
/// flight, the same pages resident, no miss counted — for a private
/// read and for a read that would install — and the retry reads.
#[test]
fn a_failed_read_leaves_the_pool_as_it_was() {
    let _x = recdb_fault::exclusive();
    let pool = BufferPool::in_memory(2);
    let f = pool.create_file(FileKind::Heap, "t");
    for n in 0..8 {
        pool.allocate_page(f, FrameData::Heap(fill_page(n)))
            .unwrap();
    }
    let before = (pool.resident_frames(), pool.misses(), pool.evictions());
    recdb_fault::arm_error("storage::pool_read", 1);
    let err = pool.scan_run(f, 0, &mut ScanBuffer::default(), |_, _| Ok(()));
    assert!(
        matches!(err, Err(StorageError::FaultInjected(_))),
        "{err:?}"
    );
    recdb_fault::arm_error("storage::pool_read", 1);
    let err = pool.with_page(f, 1, |_| ());
    assert!(
        matches!(err, Err(StorageError::FaultInjected(_))),
        "{err:?}"
    );
    recdb_fault::clear();
    assert_eq!(pool.reads_in_flight(), 0);
    assert_eq!(
        (pool.resident_frames(), pool.misses(), pool.evictions()),
        before
    );
    let mut got = None;
    pool.scan_run(f, 0, &mut ScanBuffer::default(), |n, p| {
        if n == 0 {
            got = p.iter_live().next().map(|(_, t)| t);
        }
        Ok::<_, StorageError>(())
    })
    .unwrap();
    assert_eq!(got, Some(tuple(0)));
}

/// A fault at the 5th absent page of a run ends the run there: the four
/// pages before it (0–3) are read and visited, then the error; nothing is
/// left in flight and no frame changes.
#[test]
fn a_read_fault_inside_a_run_visits_the_pages_before_it() {
    let _x = recdb_fault::exclusive();
    let pool = BufferPool::in_memory(4);
    let f = pool.create_file(FileKind::Heap, "t");
    for n in 0..40 {
        pool.allocate_page(f, FrameData::Heap(fill_page(n)))
            .unwrap();
    }
    let before = (pool.resident_frames(), pool.misses());
    let mut visited = Vec::new();
    recdb_fault::arm_error("storage::pool_read", 5);
    let err = pool.scan_run(f, 0, &mut ScanBuffer::default(), |n, p: PageView<'_>| {
        assert_eq!(p.iter_live().next().unwrap().1, tuple(n as i64));
        visited.push(n);
        Ok(())
    });
    recdb_fault::clear();
    assert_eq!(
        err,
        Err(StorageError::FaultInjected("storage::pool_read".into()))
    );
    assert_eq!(visited, [0, 1, 2, 3]);
    assert_eq!(pool.reads_in_flight(), 0);
    assert_eq!(pool.resident_frames(), before.0);
    assert_eq!(pool.misses() - before.1, 4);
}

#[test]
fn evict_fail_point_leaves_pool_intact() {
    let _x = recdb_fault::exclusive();
    let pool = BufferPool::in_memory(2);
    let f = pool.create_file(FileKind::Heap, "t");
    for n in 0..2 {
        pool.allocate_page(f, FrameData::Heap(fill_page(n)))
            .unwrap();
    }
    recdb_fault::arm_error("storage::pool_evict", 1);
    let err = pool.allocate_page(f, FrameData::Heap(fill_page(2)));
    assert!(matches!(err, Err(StorageError::FaultInjected(_))));
    recdb_fault::clear();
    // The pool still works and the original pages are unharmed.
    pool.allocate_page(f, FrameData::Heap(fill_page(2)))
        .unwrap();
    for n in 0..3u32 {
        let got = pool.with_page(f, n, |p| p.get(0).unwrap()).unwrap();
        assert_eq!(got, tuple(n as i64));
    }
}

#[test]
fn visit_run_reports_a_pool_failure_instead_of_panicking() {
    let _x = recdb_fault::exclusive();
    recdb_fault::clear();
    let pool = Arc::new(BufferPool::in_memory(2));
    let mut t = HeapTable::with_pool(ratings().schema().clone(), Arc::clone(&pool), "r");
    for i in 0..2000 {
        t.insert(row(i, i, 1.0)).unwrap();
    }
    recdb_fault::arm_error("storage::pool_read", 1);
    let failed = t.visit_all(|_, _| Ok(())).err();
    recdb_fault::clear();
    assert_eq!(
        failed,
        Some(StorageError::FaultInjected("storage::pool_read".into()))
    );
    assert_eq!(t.scan().count(), 2000, "the heap is intact afterwards");
}

#[test]
fn split_fail_point_leaves_tree_consistent() {
    let _x = recdb_fault::exclusive();
    let mut t = small_tree(4);
    recdb_fault::arm_error("storage::btree_split", 3);
    let mut inserted = Vec::new();
    let mut failed = 0;
    for n in 0..50 {
        match t.insert(key(n)) {
            Ok(true) => inserted.push(n),
            Ok(false) => unreachable!("keys are distinct"),
            Err(StorageError::FaultInjected(_)) => failed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    recdb_fault::clear();
    assert_eq!(failed, 1, "exactly the armed split fails");
    // Every acknowledged insert is readable; the failed one is absent.
    assert_eq!(
        t.keys().unwrap(),
        inserted.into_iter().map(key).collect::<Vec<_>>()
    );
    assert_eq!(t.len(), 49);
}
