//! The WAL tests that arm fault sites (`wal::append`, `wal::fsync`). The
//! fault registry is process-global and the harness runs tests in
//! parallel, so they live in a binary of their own in which every test
//! holds `recdb_fault::exclusive()` for its whole body; the wal lib tests
//! arm nothing.

use recdb_storage::{Tuple, Value};
use recdb_wal::{Wal, WalError, WalRecord};
use std::path::PathBuf;
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

#[test]
fn injected_append_fault_leaves_log_self_healing() {
    let _gate = recdb_fault::exclusive();
    recdb_fault::clear();
    let path = temp_log("fault-append");
    let _ = std::fs::remove_file(&path);
    let mut wal = Wal::open(&path, 0).unwrap().wal;
    wal.append(&insert("r", 1)).unwrap();
    wal.commit().unwrap();
    recdb_fault::arm_error("wal::append", 1);
    assert!(matches!(
        wal.append(&insert("r", 2)),
        Err(WalError::Fault(_))
    ));
    // The torn half-frame is invisible: a retry works and a reopen
    // sees a clean two-record log.
    assert_eq!(wal.append(&insert("r", 2)).unwrap(), 2);
    wal.commit().unwrap();
    drop(wal);
    let opened = Wal::open(&path, 0).unwrap();
    assert!(opened.truncated.is_none());
    assert_eq!(opened.records.len(), 2);
    recdb_fault::clear();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn injected_fsync_fault_loses_exactly_the_unsynced_suffix() {
    let _gate = recdb_fault::exclusive();
    recdb_fault::clear();
    let path = temp_log("fault-fsync");
    let _ = std::fs::remove_file(&path);
    let mut wal = Wal::open(&path, 0).unwrap().wal;
    wal.append(&insert("r", 1)).unwrap();
    wal.commit().unwrap();
    wal.append(&insert("r", 2)).unwrap();
    recdb_fault::arm_error("wal::fsync", 1);
    assert!(matches!(wal.commit(), Err(WalError::Fault(_))));
    // Record 2 evaporated with the page cache; its LSN is reusable.
    assert_eq!(wal.next_lsn(), 2);
    drop(wal);
    let opened = Wal::open(&path, 0).unwrap();
    assert_eq!(opened.records.len(), 1);
    assert_eq!(opened.wal.next_lsn(), 2);
    recdb_fault::clear();
    std::fs::remove_file(&path).unwrap();
}
