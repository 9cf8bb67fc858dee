//! Logical WAL records: one per mutating statement.
//!
//! RecDB logs *logical* redo records (what the statement did, in terms of
//! tables and tuples) rather than physical page images. A live statement
//! builds its record first and applies it through the same function
//! recovery replays it with; because the heap append algorithm is
//! deterministic, replay reproduces the exact same RIDs the original run
//! assigned, which is what lets later `Delete`/`Update` records reference
//! RIDs by value.
//!
//! Recommender models are *derived* state and are deliberately not logged:
//! `CreateRecommender` records only the [`RecommenderDef`], and recovery
//! retrains from the recovered ratings.

use recdb_storage::codec::{self, Reader};
use recdb_storage::{Rid, Schema, StorageError, Tuple};

use crate::error::{WalError, WalResult};

/// A recommender's definition: what `CREATE RECOMMENDER` logs and what a
/// checkpoint's metadata blob keeps per recommender, in one encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecommenderDef {
    /// Recommender name (lowercase).
    pub name: String,
    /// Ratings table the model trains on (lowercase).
    pub table: String,
    /// Users column name.
    pub users: String,
    /// Items column name.
    pub items: String,
    /// Ratings-value column name.
    pub ratings: String,
    /// Algorithm name as parsed by the engine (`"svd"`, `"itemcossim"`, …).
    pub algorithm: String,
}

impl RecommenderDef {
    /// Append the six strings.
    pub fn put(&self, buf: &mut Vec<u8>) {
        for s in [
            &self.name,
            &self.table,
            &self.users,
            &self.items,
            &self.ratings,
            &self.algorithm,
        ] {
            codec::put_str(buf, s);
        }
    }

    /// Take a definition written by [`RecommenderDef::put`].
    pub fn take(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        Ok(RecommenderDef {
            name: r.take_str()?,
            table: r.take_str()?,
            users: r.take_str()?,
            items: r.take_str()?,
            ratings: r.take_str()?,
            algorithm: r.take_str()?,
        })
    }
}

/// A logical redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `CREATE TABLE name (schema)`.
    CreateTable {
        /// Table name (already folded to lowercase by the catalog).
        name: String,
        /// Column names and types. Relation qualifiers are not persisted —
        /// base-table columns are always unqualified.
        schema: Schema,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// Tuples appended to a table by one statement.
    Insert {
        /// Target table.
        table: String,
        /// The inserted tuples, post-coercion (as stored).
        tuples: Vec<Tuple>,
    },
    /// Tuples deleted from a table by one statement.
    Delete {
        /// Target table.
        table: String,
        /// RIDs removed, in deletion order.
        rids: Vec<Rid>,
    },
    /// In-place updates: each RID's tuple replaced wholesale.
    Update {
        /// Target table.
        table: String,
        /// `(rid, new tuple)` pairs in application order.
        changes: Vec<(Rid, Tuple)>,
    },
    /// `CREATE INDEX index ON table (columns)`.
    CreateIndex {
        /// Owning table.
        table: String,
        /// Index name.
        index: String,
        /// Key column names in key order.
        columns: Vec<String>,
    },
    /// `DROP INDEX index ON table`.
    DropIndex {
        /// Owning table.
        table: String,
        /// Index name.
        index: String,
    },
    /// `CREATE RECOMMENDER` definition (the model itself is retrained on
    /// recovery, never logged).
    CreateRecommender(RecommenderDef),
    /// `DROP RECOMMENDER name`.
    DropRecommender {
        /// Recommender name.
        name: String,
    },
    /// First write of an explicit transaction (informational: recovery
    /// keys committedness off [`WalRecord::TxnCommit`] alone).
    TxnBegin {
        /// Transaction id.
        txn: u64,
    },
    /// The transaction's changes are durable once this record is fsynced
    /// — recovery replays a transaction's [`WalRecord::InTxn`] records
    /// only when its commit record made it to the log.
    TxnCommit {
        /// Transaction id.
        txn: u64,
    },
    /// The transaction rolled back (best-effort marker; an aborted
    /// transaction with no abort record is equally invisible to replay).
    TxnAbort {
        /// Transaction id.
        txn: u64,
    },
    /// A statement executed inside an explicit transaction. The wrapped
    /// record is replayed at recovery only if `TxnCommit { txn }` follows.
    InTxn {
        /// Owning transaction id.
        txn: u64,
        /// The statement's ordinary redo record.
        record: Box<WalRecord>,
    },
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_DROP_TABLE: u8 = 2;
const TAG_INSERT: u8 = 3;
const TAG_DELETE: u8 = 4;
const TAG_UPDATE: u8 = 5;
const TAG_CREATE_INDEX: u8 = 6;
const TAG_DROP_INDEX: u8 = 7;
const TAG_CREATE_RECOMMENDER: u8 = 8;
const TAG_DROP_RECOMMENDER: u8 = 9;
const TAG_TXN_BEGIN: u8 = 10;
const TAG_TXN_COMMIT: u8 = 11;
const TAG_TXN_ABORT: u8 = 12;
const TAG_IN_TXN: u8 = 13;

fn put_rid(buf: &mut Vec<u8>, rid: Rid) {
    codec::put_u32(buf, rid.page);
    codec::put_u16(buf, rid.slot);
}

fn take_rid(r: &mut Reader<'_>) -> Result<Rid, StorageError> {
    let page = r.take_u32()?;
    let slot = r.take_u16()?;
    Ok(Rid::new(page, slot))
}

fn take_tuple(r: &mut Reader<'_>) -> Result<Tuple, StorageError> {
    let (tuple, used) = Tuple::decode(r.rest())?;
    r.skip(used)?;
    Ok(tuple)
}

impl WalRecord {
    /// Serialize into `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::CreateTable { name, schema } => {
                codec::put_u8(buf, TAG_CREATE_TABLE);
                codec::put_str(buf, name);
                codec::put_schema(buf, schema);
            }
            WalRecord::DropTable { name } => {
                codec::put_u8(buf, TAG_DROP_TABLE);
                codec::put_str(buf, name);
            }
            WalRecord::Insert { table, tuples } => {
                codec::put_u8(buf, TAG_INSERT);
                codec::put_str(buf, table);
                codec::put_u32(buf, tuples.len() as u32);
                for t in tuples {
                    t.encode_into(buf);
                }
            }
            WalRecord::Delete { table, rids } => {
                codec::put_u8(buf, TAG_DELETE);
                codec::put_str(buf, table);
                codec::put_u32(buf, rids.len() as u32);
                for &rid in rids {
                    put_rid(buf, rid);
                }
            }
            WalRecord::Update { table, changes } => {
                codec::put_u8(buf, TAG_UPDATE);
                codec::put_str(buf, table);
                codec::put_u32(buf, changes.len() as u32);
                for (rid, tuple) in changes {
                    put_rid(buf, *rid);
                    tuple.encode_into(buf);
                }
            }
            WalRecord::CreateIndex {
                table,
                index,
                columns,
            } => {
                codec::put_u8(buf, TAG_CREATE_INDEX);
                codec::put_str(buf, table);
                codec::put_str(buf, index);
                codec::put_u16(buf, columns.len() as u16);
                for c in columns {
                    codec::put_str(buf, c);
                }
            }
            WalRecord::DropIndex { table, index } => {
                codec::put_u8(buf, TAG_DROP_INDEX);
                codec::put_str(buf, table);
                codec::put_str(buf, index);
            }
            WalRecord::CreateRecommender(def) => {
                codec::put_u8(buf, TAG_CREATE_RECOMMENDER);
                def.put(buf);
            }
            WalRecord::DropRecommender { name } => {
                codec::put_u8(buf, TAG_DROP_RECOMMENDER);
                codec::put_str(buf, name);
            }
            WalRecord::TxnBegin { txn } => {
                codec::put_u8(buf, TAG_TXN_BEGIN);
                codec::put_u64(buf, *txn);
            }
            WalRecord::TxnCommit { txn } => {
                codec::put_u8(buf, TAG_TXN_COMMIT);
                codec::put_u64(buf, *txn);
            }
            WalRecord::TxnAbort { txn } => {
                codec::put_u8(buf, TAG_TXN_ABORT);
                codec::put_u64(buf, *txn);
            }
            WalRecord::InTxn { txn, record } => {
                codec::put_u8(buf, TAG_IN_TXN);
                codec::put_u64(buf, *txn);
                record.encode_into(buf);
            }
        }
    }

    /// Serialize to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decode one record from `bytes`, which must contain exactly one
    /// record (the log frame is length-prefixed, so the caller knows the
    /// extent).
    pub fn decode(bytes: &[u8]) -> WalResult<WalRecord> {
        let mut r = Reader::new(bytes, "wal record");
        let rec = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(WalError::Corrupt {
                offset: 0,
                reason: format!("{} trailing bytes after record", r.remaining()),
            });
        }
        Ok(rec)
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<WalRecord, StorageError> {
        let tag = r.take_u8()?;
        Ok(match tag {
            TAG_CREATE_TABLE => WalRecord::CreateTable {
                name: r.take_str()?,
                schema: r.take_schema()?,
            },
            TAG_DROP_TABLE => WalRecord::DropTable {
                name: r.take_str()?,
            },
            TAG_INSERT => {
                let table = r.take_str()?;
                let count = r.take_u32()?;
                let mut tuples = Vec::with_capacity(count.min(65_536) as usize);
                for _ in 0..count {
                    tuples.push(take_tuple(r)?);
                }
                WalRecord::Insert { table, tuples }
            }
            TAG_DELETE => {
                let table = r.take_str()?;
                let count = r.take_u32()?;
                let mut rids = Vec::with_capacity(count.min(65_536) as usize);
                for _ in 0..count {
                    rids.push(take_rid(r)?);
                }
                WalRecord::Delete { table, rids }
            }
            TAG_UPDATE => {
                let table = r.take_str()?;
                let count = r.take_u32()?;
                let mut changes = Vec::with_capacity(count.min(65_536) as usize);
                for _ in 0..count {
                    let rid = take_rid(r)?;
                    let tuple = take_tuple(r)?;
                    changes.push((rid, tuple));
                }
                WalRecord::Update { table, changes }
            }
            TAG_CREATE_INDEX => {
                let table = r.take_str()?;
                let index = r.take_str()?;
                let ncols = r.take_u16()?;
                let mut columns = Vec::with_capacity(ncols as usize);
                for _ in 0..ncols {
                    columns.push(r.take_str()?);
                }
                WalRecord::CreateIndex {
                    table,
                    index,
                    columns,
                }
            }
            TAG_DROP_INDEX => WalRecord::DropIndex {
                table: r.take_str()?,
                index: r.take_str()?,
            },
            TAG_CREATE_RECOMMENDER => WalRecord::CreateRecommender(RecommenderDef::take(r)?),
            TAG_DROP_RECOMMENDER => WalRecord::DropRecommender {
                name: r.take_str()?,
            },
            TAG_TXN_BEGIN => WalRecord::TxnBegin { txn: r.take_u64()? },
            TAG_TXN_COMMIT => WalRecord::TxnCommit { txn: r.take_u64()? },
            TAG_TXN_ABORT => WalRecord::TxnAbort { txn: r.take_u64()? },
            TAG_IN_TXN => {
                let txn = r.take_u64()?;
                let inner = Self::decode_from(r)?;
                if matches!(
                    inner,
                    WalRecord::TxnBegin { .. }
                        | WalRecord::TxnCommit { .. }
                        | WalRecord::TxnAbort { .. }
                        | WalRecord::InTxn { .. }
                ) {
                    return Err(StorageError::Corrupt(
                        "wal InTxn record wraps a transaction marker".into(),
                    ));
                }
                WalRecord::InTxn {
                    txn,
                    record: Box::new(inner),
                }
            }
            other => {
                return Err(StorageError::Corrupt(format!(
                    "unknown wal record tag {other}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_storage::{Column, DataType, Value};

    fn every_variant() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "ratings".into(),
                schema: Schema::new(vec![
                    Column::new("uid", DataType::Int),
                    Column::new("score", DataType::Float),
                    Column::new("note", DataType::Text),
                    Column::new("ok", DataType::Bool),
                    Column::new("loc", DataType::Point),
                    Column::new("area", DataType::Rect),
                ]),
            },
            WalRecord::DropTable {
                name: "ratings".into(),
            },
            WalRecord::Insert {
                table: "ratings".into(),
                tuples: vec![
                    Tuple::new(vec![Value::Int(1), Value::Float(4.5)]),
                    Tuple::new(vec![Value::Null, Value::Text("héllo".into())]),
                ],
            },
            WalRecord::Delete {
                table: "ratings".into(),
                rids: vec![Rid::new(0, 3), Rid::new(7, 0)],
            },
            WalRecord::Update {
                table: "ratings".into(),
                changes: vec![(Rid::new(1, 2), Tuple::new(vec![Value::Bool(true)]))],
            },
            WalRecord::CreateIndex {
                table: "ratings".into(),
                index: "ratings_uid".into(),
                columns: vec!["uid".into(), "iid".into()],
            },
            WalRecord::DropIndex {
                table: "ratings".into(),
                index: "ratings_uid".into(),
            },
            WalRecord::CreateRecommender(RecommenderDef {
                name: "movierec".into(),
                table: "ratings".into(),
                users: "uid".into(),
                items: "iid".into(),
                ratings: "ratingval".into(),
                algorithm: "itemcossim".into(),
            }),
            WalRecord::DropRecommender {
                name: "movierec".into(),
            },
            WalRecord::TxnBegin { txn: 42 },
            WalRecord::TxnCommit { txn: u64::MAX },
            WalRecord::TxnAbort { txn: 7 },
            WalRecord::InTxn {
                txn: 42,
                record: Box::new(WalRecord::Insert {
                    table: "ratings".into(),
                    tuples: vec![Tuple::new(vec![Value::Int(1), Value::Float(4.5)])],
                }),
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for rec in every_variant() {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn truncated_records_error_cleanly() {
        for rec in every_variant() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WalRecord::decode(&bytes[..cut]).is_err(),
                    "{rec:?} decoded from a {cut}-byte prefix"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = WalRecord::DropTable { name: "t".into() }.encode();
        bytes.push(0xAA);
        assert!(matches!(
            WalRecord::decode(&bytes),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(WalRecord::decode(&[200, 0, 0]).is_err());
    }

    #[test]
    fn in_txn_must_wrap_a_plain_record() {
        // A nested InTxn (or a wrapped transaction marker) is never
        // produced by the engine and is rejected as corruption.
        let nested = WalRecord::InTxn {
            txn: 1,
            record: Box::new(WalRecord::TxnCommit { txn: 1 }),
        };
        assert!(WalRecord::decode(&nested.encode()).is_err());
        let double = WalRecord::InTxn {
            txn: 1,
            record: Box::new(WalRecord::InTxn {
                txn: 2,
                record: Box::new(WalRecord::DropTable { name: "t".into() }),
            }),
        };
        assert!(WalRecord::decode(&double.encode()).is_err());
    }
}
