//! The RecDB wire protocol: length-prefixed frames carrying statements
//! in and typed results (or a classified error) out.
//!
//! # Frame layout
//!
//! Every message — in both directions — is one *frame*:
//!
//! ```text
//! +----------------+-----------------------+
//! | u32 BE length  | payload (length bytes)|
//! +----------------+-----------------------+
//! ```
//!
//! The length covers the payload only. A receiver must reject a length
//! larger than its configured `max_frame_bytes` *before* allocating
//! anything, so a hostile 4-byte header can never balloon memory.
//!
//! Payloads reuse the storage codec ([`recdb_storage::codec`]): integers
//! are little-endian, strings are `u32` length + UTF-8 bytes, rows are
//! [`Tuple`] encodings — the same bytes the heap stores.
//!
//! # Conversation shape
//!
//! On accept the server speaks first: one [`Response::Hello`] frame (or a
//! retryable `overloaded` [`Response::Error`] followed by close, when
//! admission control rejects the connection). After that the client
//! drives: one [`Request`] frame in, exactly one [`Response`] frame out,
//! in order, until either side closes. Each connection owns one engine
//! session, so `BEGIN`/`COMMIT`/`ROLLBACK` behave exactly as they do
//! in-process.

use recdb_core::{EngineError, QueryResult};
use recdb_exec::{ExecError, ResultSet};
use recdb_storage::codec::{put_str, put_u16, put_u32, put_u64, put_u8, Reader};
use recdb_storage::{Column, DataType, Schema, StorageError, Tuple};
use std::io::{Read, Write};
use std::time::Duration;

/// Wire protocol version sent in the server's hello frame.
pub const PROTOCOL_VERSION: u16 = 1;

/// Default cap on a single frame's payload size (16 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// A protocol-level failure: the connection is no longer usable and must
/// be closed (engine-level errors travel as [`Response::Error`] frames
/// instead and leave the connection healthy).
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer announced a frame larger than `max_frame_bytes`.
    FrameTooLarge {
        /// Announced payload length.
        announced: u64,
        /// The receiver's configured cap.
        max: usize,
    },
    /// The payload bytes did not decode as a valid message.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::FrameTooLarge { announced, max } => write!(
                f,
                "frame of {announced} bytes exceeds max_frame_bytes={max}"
            ),
            ProtocolError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Bytes a connection's read buffer starts with, and shrinks back to
/// after a frame larger than this has been taken.
const READ_BUFFER_BYTES: usize = 8 * 1024;

/// The read side of one connection: bytes received and not yet taken as
/// frames. Each `read` asks the socket for as much as the buffer has room
/// for, so a frame that has fully arrived — header and payload, or even
/// the next frame too — costs one `recv`, not one for its header and one
/// for its payload. A frame's announced length is checked against
/// `max_frame_bytes` before the buffer grows to hold it.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    /// First byte not yet taken.
    start: usize,
    /// One past the last byte received.
    end: usize,
}

impl FrameReader {
    /// An empty reader; its buffer is allocated by the first read.
    pub(crate) fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes received and not yet taken.
    pub(crate) fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The next frame's payload length once its header has arrived, or
    /// [`ProtocolError::FrameTooLarge`] if it announces more than
    /// `max_frame_bytes`.
    pub(crate) fn payload_len(
        &self,
        max_frame_bytes: usize,
    ) -> Result<Option<usize>, ProtocolError> {
        let Some(header) = self.buf[self.start..self.end].first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*header) as usize;
        if len > max_frame_bytes {
            return Err(ProtocolError::FrameTooLarge {
                announced: len as u64,
                max: max_frame_bytes,
            });
        }
        Ok(Some(len))
    }

    /// Take the next frame's payload if all of it has arrived.
    /// `payload_len` must have vetted its header.
    pub(crate) fn take(&mut self, len: usize) -> Option<&[u8]> {
        let payload = self.start + 4;
        if self.end < payload + len {
            return None;
        }
        self.start = payload + len;
        Some(&self.buf[payload..payload + len])
    }

    /// One `read` from `r` into the buffer, which first makes room for
    /// the whole of the frame being received: its header, and its payload
    /// of `len` bytes once the header has arrived. `Ok(0)` is end of
    /// stream.
    pub(crate) fn read_from(
        &mut self,
        r: &mut impl Read,
        len: Option<usize>,
    ) -> std::io::Result<usize> {
        let frame = 4 + len.unwrap_or(0);
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > READ_BUFFER_BYTES {
                self.buf.truncate(READ_BUFFER_BYTES);
                self.buf.shrink_to_fit();
            }
        }
        if self.start + frame > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if frame > self.buf.len() {
                self.buf.resize(frame.max(READ_BUFFER_BYTES), 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Read the next frame's payload from `r`, blocking. Returns
    /// `Ok(None)` on a clean end of stream at a frame boundary; an end of
    /// stream inside a header is malformed, inside a payload an
    /// `UnexpectedEof`.
    pub(crate) fn read_frame(
        &mut self,
        r: &mut impl Read,
        max_frame_bytes: usize,
    ) -> Result<Option<&[u8]>, ProtocolError> {
        loop {
            let len = self.payload_len(max_frame_bytes)?;
            if let Some(len) = len {
                if self.buffered() >= 4 + len {
                    return Ok(self.take(len));
                }
            }
            match self.read_from(r, len) {
                Ok(0) => {
                    return match (self.buffered(), len) {
                        (0, _) => Ok(None),
                        (_, None) => Err(ProtocolError::Malformed(
                            "connection closed mid frame header".into(),
                        )),
                        (_, Some(_)) => Err(ProtocolError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "connection closed mid frame",
                        ))),
                    };
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtocolError::Io(e)),
            }
        }
    }
}

/// Write one frame (header + payload) to `w`.
pub fn write_frame(
    w: &mut impl Write,
    payload: &[u8],
    max_frame_bytes: usize,
) -> Result<(), ProtocolError> {
    if payload.len() > max_frame_bytes {
        return Err(ProtocolError::FrameTooLarge {
            announced: payload.len() as u64,
            max: max_frame_bytes,
        });
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute one SQL statement in this connection's session.
    Statement {
        /// Per-request deadline mapped onto the engine's [`recdb_guard::QueryGuard`];
        /// `None` falls back to the server's governor defaults.
        deadline: Option<Duration>,
        /// The statement text.
        sql: String,
    },
    /// Fetch the Prometheus text rendering of every engine + server metric.
    Metrics,
    /// Liveness probe.
    Ping,
}

const REQ_STATEMENT: u8 = 1;
const REQ_METRICS: u8 = 2;
const REQ_PING: u8 = 3;

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Statement { deadline, sql } => {
                put_u8(&mut buf, REQ_STATEMENT);
                let micros = deadline.map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64);
                put_u64(&mut buf, micros);
                put_str(&mut buf, sql);
            }
            Request::Metrics => put_u8(&mut buf, REQ_METRICS),
            Request::Ping => put_u8(&mut buf, REQ_PING),
        }
        buf
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = Reader::new(payload, "request frame");
        let tag = r.take_u8().map_err(malformed)?;
        let req = match tag {
            REQ_STATEMENT => {
                let micros = r.take_u64().map_err(malformed)?;
                let sql = r.take_str().map_err(malformed)?;
                Request::Statement {
                    deadline: (micros > 0).then(|| Duration::from_micros(micros)),
                    sql,
                }
            }
            REQ_METRICS => Request::Metrics,
            REQ_PING => Request::Ping,
            other => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown request tag {other}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing bytes after request",
                r.remaining()
            )));
        }
        Ok(req)
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// First frame on every admitted connection.
    Hello {
        /// Protocol version the server speaks.
        version: u16,
    },
    /// The statement succeeded.
    Result(WireResult),
    /// The statement (or the connection attempt) failed.
    Error(WireError),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Metrics`]: the Prometheus text exposition.
    MetricsText(String),
}

const RESP_HELLO: u8 = 0;
const RESP_RESULT: u8 = 1;
const RESP_ERROR: u8 = 2;
const RESP_PONG: u8 = 3;
const RESP_METRICS: u8 = 4;

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Encode to one whole frame, the bytes [`write_frame`] would send for
    /// [`Response::encode`]'s payload, in one buffer: the 4-byte length is
    /// reserved before the payload is written and patched after, so the
    /// payload is never copied. A payload over `max_frame_bytes` is
    /// [`ProtocolError::FrameTooLarge`].
    pub(crate) fn frame(&self, max_frame_bytes: usize) -> Result<Vec<u8>, ProtocolError> {
        let mut buf = vec![0; 4];
        self.encode_into(&mut buf);
        let len = buf.len() - 4;
        match u32::try_from(len) {
            Ok(header) if len <= max_frame_bytes => {
                buf[..4].copy_from_slice(&header.to_be_bytes());
                Ok(buf)
            }
            _ => Err(ProtocolError::FrameTooLarge {
                announced: len as u64,
                max: max_frame_bytes,
            }),
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Hello { version } => {
                put_u8(buf, RESP_HELLO);
                put_u16(buf, *version);
            }
            Response::Result(res) => {
                put_u8(buf, RESP_RESULT);
                res.encode_into(buf);
            }
            Response::Error(err) => {
                put_u8(buf, RESP_ERROR);
                put_str(buf, err.code.as_str());
                put_u8(buf, u8::from(err.retryable));
                put_str(buf, &err.message);
            }
            Response::Pong => put_u8(buf, RESP_PONG),
            Response::MetricsText(text) => {
                put_u8(buf, RESP_METRICS);
                put_str(buf, text);
            }
        }
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader::new(payload, "response frame");
        let tag = r.take_u8().map_err(malformed)?;
        let resp = match tag {
            RESP_HELLO => Response::Hello {
                version: r.take_u16().map_err(malformed)?,
            },
            RESP_RESULT => Response::Result(WireResult::decode_from(&mut r)?),
            RESP_ERROR => {
                let code = r.take_str().map_err(malformed)?;
                let retryable = r.take_u8().map_err(malformed)? != 0;
                let message = r.take_str().map_err(malformed)?;
                Response::Error(WireError {
                    code: ErrorCode::from_wire(&code),
                    retryable,
                    message,
                })
            }
            RESP_PONG => Response::Pong,
            RESP_METRICS => Response::MetricsText(r.take_str().map_err(malformed)?),
            other => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown response tag {other}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing bytes after response",
                r.remaining()
            )));
        }
        Ok(resp)
    }
}

fn malformed(e: recdb_storage::StorageError) -> ProtocolError {
    ProtocolError::Malformed(e.to_string())
}

/// A [`QueryResult`] flattened for the wire. `Rows` carries the schema
/// (column names + types) and the tuples in storage encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResult {
    /// `CREATE TABLE` succeeded.
    TableCreated(String),
    /// `DROP TABLE` succeeded.
    TableDropped(String),
    /// `INSERT` stored this many rows.
    Inserted(u64),
    /// `CREATE RECOMMENDER` trained a model in `build_micros` µs.
    RecommenderCreated {
        /// Recommender name.
        name: String,
        /// Model build time in microseconds.
        build_micros: u64,
    },
    /// `DROP RECOMMENDER` succeeded.
    RecommenderDropped(String),
    /// `CREATE INDEX` succeeded.
    IndexCreated(String),
    /// `DROP INDEX` succeeded.
    IndexDropped(String),
    /// `DELETE` removed this many rows.
    Deleted(u64),
    /// `UPDATE` rewrote this many rows.
    Updated(u64),
    /// A `SELECT` produced rows.
    Rows {
        /// `(column name, declared type)` per output column.
        columns: Vec<(String, DataType)>,
        /// The result tuples.
        rows: Vec<Tuple>,
    },
    /// `BEGIN` opened an explicit transaction.
    TransactionStarted,
    /// `COMMIT` made the transaction durable and visible.
    TransactionCommitted,
    /// `ROLLBACK` undid the transaction.
    TransactionRolledBack,
}

const WR_TABLE_CREATED: u8 = 0;
const WR_TABLE_DROPPED: u8 = 1;
const WR_INSERTED: u8 = 2;
const WR_REC_CREATED: u8 = 3;
const WR_REC_DROPPED: u8 = 4;
const WR_INDEX_CREATED: u8 = 5;
const WR_INDEX_DROPPED: u8 = 6;
const WR_DELETED: u8 = 7;
const WR_UPDATED: u8 = 8;
const WR_ROWS: u8 = 9;
const WR_TXN_STARTED: u8 = 10;
const WR_TXN_COMMITTED: u8 = 11;
const WR_TXN_ROLLED_BACK: u8 = 12;

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Point => 4,
        DataType::Rect => 5,
    }
}

fn type_from_tag(tag: u8) -> Result<DataType, ProtocolError> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Point,
        5 => DataType::Rect,
        other => {
            return Err(ProtocolError::Malformed(format!(
                "unknown column type tag {other}"
            )))
        }
    })
}

/// Flatten an engine [`QueryResult`] for the wire, moving its names and
/// rows: the one mapping from results to wire results.
impl From<QueryResult> for WireResult {
    fn from(res: QueryResult) -> WireResult {
        match res {
            QueryResult::TableCreated(n) => WireResult::TableCreated(n),
            QueryResult::TableDropped(n) => WireResult::TableDropped(n),
            QueryResult::Inserted(n) => WireResult::Inserted(n as u64),
            QueryResult::RecommenderCreated { name, build_time } => {
                WireResult::RecommenderCreated {
                    name,
                    build_micros: build_time.as_micros().min(u64::MAX as u128) as u64,
                }
            }
            QueryResult::RecommenderDropped(n) => WireResult::RecommenderDropped(n),
            QueryResult::IndexCreated(n) => WireResult::IndexCreated(n),
            QueryResult::IndexDropped(n) => WireResult::IndexDropped(n),
            QueryResult::Deleted(n) => WireResult::Deleted(n as u64),
            QueryResult::Updated(n) => WireResult::Updated(n as u64),
            QueryResult::Rows(rs) => {
                let (schema, rows) = rs.into_parts();
                WireResult::Rows {
                    columns: schema
                        .columns()
                        .iter()
                        .map(|c| (c.qualified_name(), c.data_type))
                        .collect(),
                    rows,
                }
            }
            QueryResult::TransactionStarted => WireResult::TransactionStarted,
            QueryResult::TransactionCommitted => WireResult::TransactionCommitted,
            QueryResult::TransactionRolledBack => WireResult::TransactionRolledBack,
        }
    }
}

impl WireResult {
    /// Flatten a borrowed engine [`QueryResult`] for the wire: a clone of
    /// it, converted by the `From` impl. The server converts the result it
    /// owns and copies nothing.
    pub fn from_query_result(res: &QueryResult) -> WireResult {
        WireResult::from(res.clone())
    }

    /// Reassemble a [`ResultSet`] from a `Rows` result (client side).
    pub fn into_result_set(self) -> Option<ResultSet> {
        match self {
            WireResult::Rows { columns, rows } => {
                let cols = columns
                    .into_iter()
                    .map(|(name, dt)| Column::new(name, dt))
                    .collect();
                Some(ResultSet::new(Schema::new(cols), rows))
            }
            _ => None,
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            WireResult::TableCreated(n) => {
                put_u8(buf, WR_TABLE_CREATED);
                put_str(buf, n);
            }
            WireResult::TableDropped(n) => {
                put_u8(buf, WR_TABLE_DROPPED);
                put_str(buf, n);
            }
            WireResult::Inserted(n) => {
                put_u8(buf, WR_INSERTED);
                put_u64(buf, *n);
            }
            WireResult::RecommenderCreated { name, build_micros } => {
                put_u8(buf, WR_REC_CREATED);
                put_str(buf, name);
                put_u64(buf, *build_micros);
            }
            WireResult::RecommenderDropped(n) => {
                put_u8(buf, WR_REC_DROPPED);
                put_str(buf, n);
            }
            WireResult::IndexCreated(n) => {
                put_u8(buf, WR_INDEX_CREATED);
                put_str(buf, n);
            }
            WireResult::IndexDropped(n) => {
                put_u8(buf, WR_INDEX_DROPPED);
                put_str(buf, n);
            }
            WireResult::Deleted(n) => {
                put_u8(buf, WR_DELETED);
                put_u64(buf, *n);
            }
            WireResult::Updated(n) => {
                put_u8(buf, WR_UPDATED);
                put_u64(buf, *n);
            }
            WireResult::Rows { columns, rows } => {
                put_u8(buf, WR_ROWS);
                put_u16(buf, columns.len() as u16);
                for (name, dt) in columns {
                    put_str(buf, name);
                    put_u8(buf, type_tag(*dt));
                }
                put_u32(buf, rows.len() as u32);
                for row in rows {
                    row.encode_into(buf);
                }
            }
            WireResult::TransactionStarted => put_u8(buf, WR_TXN_STARTED),
            WireResult::TransactionCommitted => put_u8(buf, WR_TXN_COMMITTED),
            WireResult::TransactionRolledBack => put_u8(buf, WR_TXN_ROLLED_BACK),
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<WireResult, ProtocolError> {
        let kind = r.take_u8().map_err(malformed)?;
        Ok(match kind {
            WR_TABLE_CREATED => WireResult::TableCreated(r.take_str().map_err(malformed)?),
            WR_TABLE_DROPPED => WireResult::TableDropped(r.take_str().map_err(malformed)?),
            WR_INSERTED => WireResult::Inserted(r.take_u64().map_err(malformed)?),
            WR_REC_CREATED => WireResult::RecommenderCreated {
                name: r.take_str().map_err(malformed)?,
                build_micros: r.take_u64().map_err(malformed)?,
            },
            WR_REC_DROPPED => WireResult::RecommenderDropped(r.take_str().map_err(malformed)?),
            WR_INDEX_CREATED => WireResult::IndexCreated(r.take_str().map_err(malformed)?),
            WR_INDEX_DROPPED => WireResult::IndexDropped(r.take_str().map_err(malformed)?),
            WR_DELETED => WireResult::Deleted(r.take_u64().map_err(malformed)?),
            WR_UPDATED => WireResult::Updated(r.take_u64().map_err(malformed)?),
            WR_ROWS => {
                let ncols = r.take_u16().map_err(malformed)? as usize;
                let mut columns = Vec::with_capacity(ncols.min(4096));
                for _ in 0..ncols {
                    let name = r.take_str().map_err(malformed)?;
                    let dt = type_from_tag(r.take_u8().map_err(malformed)?)?;
                    columns.push((name, dt));
                }
                let nrows = r.take_u32().map_err(malformed)? as usize;
                let mut rows = Vec::with_capacity(nrows.min(65_536));
                for _ in 0..nrows {
                    let (tuple, consumed) = Tuple::decode(r.rest()).map_err(malformed)?;
                    r.skip(consumed).map_err(malformed)?;
                    rows.push(tuple);
                }
                WireResult::Rows { columns, rows }
            }
            WR_TXN_STARTED => WireResult::TransactionStarted,
            WR_TXN_COMMITTED => WireResult::TransactionCommitted,
            WR_TXN_ROLLED_BACK => WireResult::TransactionRolledBack,
            other => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown result kind {other}"
                )))
            }
        })
    }
}

/// Stable error codes carried on the wire. Each maps to one arm of the
/// engine's [`EngineError`] taxonomy, plus the server-only conditions
/// (`overloaded`, `shutting_down`, frame-level failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// SQL could not be parsed.
    Parse,
    /// Planning or execution failed.
    Exec,
    /// A storage operation failed.
    Storage,
    /// A checksum failed — durable data is damaged.
    Corruption,
    /// The write-ahead log failed (fsync, append).
    Wal,
    /// Recommender lifecycle conflict (exists / not found).
    Recommender,
    /// CREATE TABLE used an unknown type, or INSERT was non-constant.
    Semantic,
    /// The statement hit its deadline or was cancelled.
    Cancelled,
    /// The statement exceeded a row or memory budget.
    ResourceExhausted,
    /// A panic was contained at the engine boundary.
    Internal,
    /// A table lock could not be granted in time; the transaction was
    /// rolled back.
    LockTimeout,
    /// BEGIN inside a transaction, or COMMIT/ROLLBACK outside one.
    TransactionState,
    /// A checkpoint gave up waiting for open transactions.
    CheckpointContended,
    /// A deterministic fault-injection site fired (tests only).
    Fault,
    /// Admission control rejected the connection: retry after backoff.
    Overloaded,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The peer announced a frame larger than `max_frame_bytes`.
    FrameTooLarge,
    /// The frame payload did not decode.
    MalformedFrame,
    /// An error code this client build does not know.
    Unknown,
}

impl ErrorCode {
    /// The stable string carried on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Exec => "exec",
            ErrorCode::Storage => "storage",
            ErrorCode::Corruption => "corruption",
            ErrorCode::Wal => "wal",
            ErrorCode::Recommender => "recommender",
            ErrorCode::Semantic => "semantic",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::ResourceExhausted => "resource_exhausted",
            ErrorCode::Internal => "internal",
            ErrorCode::LockTimeout => "lock_timeout",
            ErrorCode::TransactionState => "transaction_state",
            ErrorCode::CheckpointContended => "checkpoint_contended",
            ErrorCode::Fault => "fault",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::Unknown => "unknown",
        }
    }

    /// Parse a wire code; unrecognized strings become [`ErrorCode::Unknown`]
    /// so newer servers never break older clients.
    pub fn from_wire(s: &str) -> ErrorCode {
        match s {
            "parse" => ErrorCode::Parse,
            "exec" => ErrorCode::Exec,
            "storage" => ErrorCode::Storage,
            "corruption" => ErrorCode::Corruption,
            "wal" => ErrorCode::Wal,
            "recommender" => ErrorCode::Recommender,
            "semantic" => ErrorCode::Semantic,
            "cancelled" => ErrorCode::Cancelled,
            "resource_exhausted" => ErrorCode::ResourceExhausted,
            "internal" => ErrorCode::Internal,
            "lock_timeout" => ErrorCode::LockTimeout,
            "transaction_state" => ErrorCode::TransactionState,
            "checkpoint_contended" => ErrorCode::CheckpointContended,
            "fault" => ErrorCode::Fault,
            "overloaded" => ErrorCode::Overloaded,
            "shutting_down" => ErrorCode::ShuttingDown,
            "frame_too_large" => ErrorCode::FrameTooLarge,
            "malformed_frame" => ErrorCode::MalformedFrame,
            _ => ErrorCode::Unknown,
        }
    }
}

/// A classified error as it travels on the wire: a stable code, a
/// retryable bit clients key their backoff on, and the human message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Stable machine-readable code.
    pub code: ErrorCode,
    /// Whether a client may retry the same request after backoff. The
    /// enclosing transaction (if any) has been rolled back either way,
    /// except after a `frame_too_large` reply to a statement whose result
    /// outgrew `max_frame_bytes`: that statement ran, and the connection
    /// and its transaction stay open.
    pub retryable: bool,
    /// Human-readable detail (the engine error's `Display`).
    pub message: String,
}

impl WireError {
    /// Build a server-side error with an explicit code.
    pub fn new(code: ErrorCode, retryable: bool, message: impl Into<String>) -> WireError {
        WireError {
            code,
            retryable,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}): {}",
            self.code.as_str(),
            if self.retryable { "retryable" } else { "fatal" },
            self.message
        )
    }
}

/// Classify an [`EngineError`] into its wire code and retryable bit.
///
/// Retryable means "the same statement may succeed later without the
/// client changing anything": transient contention (lock timeouts,
/// contended checkpoints), deadline cancellations, contained panics, WAL
/// hiccups, and injected faults. Everything the client must change —
/// bad SQL, type errors, exhausted budgets, corrupt data — is fatal.
pub fn classify(err: &EngineError) -> WireError {
    let (code, retryable) = match err {
        EngineError::Parse(_) => (ErrorCode::Parse, false),
        EngineError::Exec(ExecError::FaultInjected(_))
        | EngineError::Exec(ExecError::Storage(StorageError::FaultInjected(_)))
        | EngineError::Storage(StorageError::FaultInjected(_)) => (ErrorCode::Fault, true),
        EngineError::Exec(_) => (ErrorCode::Exec, false),
        EngineError::Storage(_) => (ErrorCode::Storage, false),
        EngineError::Corruption { .. } => (ErrorCode::Corruption, false),
        EngineError::Wal(_) => (ErrorCode::Wal, true),
        EngineError::RecommenderExists(_) | EngineError::RecommenderNotFound(_) => {
            (ErrorCode::Recommender, false)
        }
        EngineError::UnknownType(_) | EngineError::NonConstantInsert(_) => {
            (ErrorCode::Semantic, false)
        }
        EngineError::Cancelled { .. } => (ErrorCode::Cancelled, true),
        EngineError::ResourceExhausted { .. } => (ErrorCode::ResourceExhausted, false),
        EngineError::Internal(_) => (ErrorCode::Internal, true),
        EngineError::LockTimeout { .. } => (ErrorCode::LockTimeout, true),
        EngineError::TransactionActive | EngineError::NoActiveTransaction => {
            (ErrorCode::TransactionState, false)
        }
        EngineError::CheckpointContended { .. } => (ErrorCode::CheckpointContended, true),
    };
    WireError::new(code, retryable, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_storage::Value;

    #[test]
    fn request_round_trip() {
        let reqs = [
            Request::Statement {
                deadline: Some(Duration::from_micros(1500)),
                sql: "SELECT * FROM t".into(),
            },
            Request::Statement {
                deadline: None,
                sql: String::new(),
            },
            Request::Metrics,
            Request::Ping,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).expect("decode"), req);
        }
    }

    #[test]
    fn response_round_trip() {
        let rows = WireResult::Rows {
            columns: vec![
                ("item".into(), DataType::Int),
                ("score".into(), DataType::Float),
            ],
            rows: vec![
                Tuple::new(vec![Value::Int(7), Value::Float(4.5)]),
                Tuple::new(vec![Value::Int(9), Value::Null]),
            ],
        };
        let resps = [
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            Response::Result(rows),
            Response::Result(WireResult::Inserted(3)),
            Response::Result(WireResult::TransactionCommitted),
            Response::Error(WireError::new(ErrorCode::Overloaded, true, "busy")),
            Response::Pong,
            Response::MetricsText("recdb_up 1\n".into()),
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).expect("decode"), resp);
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        // Header announces ~4 GiB; the reader must bail on the header
        // alone without ever allocating the payload.
        let mut stream: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0x00];
        let mut frames = FrameReader::new();
        match frames.read_frame(&mut stream, 1024) {
            Err(ProtocolError::FrameTooLarge { announced, max }) => {
                assert_eq!(announced, 0xFFFF_FFFF);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert!(frames.buf.len() <= READ_BUFFER_BYTES);
    }

    /// A reader that hands out at most `chunk` bytes per `read` and counts
    /// the calls.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Frames come out whole and in order however the bytes arrive: one
    /// `read` for frames that arrived together, and a payload larger than
    /// the buffer grows it once; the stream's end is clean only at a frame
    /// boundary.
    #[test]
    fn frames_are_cut_from_whatever_one_read_returns() {
        let big = vec![7u8; 3 * READ_BUFFER_BYTES];
        let mut sent = Vec::new();
        for payload in [&b"ping"[..], &b""[..], &big, &b"last"[..]] {
            write_frame(&mut sent, payload, DEFAULT_MAX_FRAME_BYTES).unwrap();
        }
        for chunk in [1, 3, 5, 4096, usize::MAX] {
            let mut stream = Trickle {
                bytes: &sent,
                chunk,
                reads: 0,
            };
            let mut frames = FrameReader::new();
            let mut got = Vec::new();
            while let Some(payload) = frames.read_frame(&mut stream, big.len()).unwrap() {
                got.push(payload.to_vec());
            }
            assert_eq!(got, [&b"ping"[..], b"", &big, b"last"], "chunk {chunk}");
            if chunk == usize::MAX {
                // The two small frames and the big one's head, its rest,
                // the last frame, the end of the stream.
                assert_eq!(stream.reads, 4);
            }
        }
        for (cut, closed_mid_header) in [(2, true), (6, false)] {
            let mut stream = &sent[..cut];
            match FrameReader::new().read_frame(&mut stream, 1024) {
                Err(ProtocolError::Malformed(_)) if closed_mid_header => {}
                Err(ProtocolError::Io(e))
                    if !closed_mid_header && e.kind() == std::io::ErrorKind::UnexpectedEof => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_payload_is_malformed_not_panic() {
        for payload in [&[][..], &[99][..], &[1, 0, 0][..], &[2, 1, 2, 3][..]] {
            assert!(matches!(
                Request::decode(payload),
                Err(ProtocolError::Malformed(_))
            ));
        }
    }

    #[test]
    fn classify_marks_transients_retryable() {
        assert!(
            classify(&EngineError::LockTimeout {
                table: "r".into(),
                waited: Duration::from_millis(5)
            })
            .retryable
        );
        assert!(classify(&EngineError::Internal("boom".into())).retryable);
        assert!(!classify(&EngineError::UnknownType("blob".into())).retryable);
        assert!(!classify(&EngineError::NoActiveTransaction).retryable);
    }

    /// One `QueryResult` of each of the 13 kinds. The rows hold NULL,
    /// multi-byte text, a point, a rect, both bools and a negative zero.
    fn every_result() -> Vec<QueryResult> {
        use recdb_storage::Value::{Bool, Float, Int, Null, Point, Rect, Text};
        let schema = Schema::new(vec![
            Column::qualified("M", "mid", DataType::Int),
            Column::qualified("M", "name", DataType::Text),
            Column::new("ratingval", DataType::Float),
            Column::new("at", DataType::Point),
            Column::new("area", DataType::Rect),
            Column::new("seen", DataType::Bool),
        ]);
        let rows = vec![
            Tuple::new(vec![
                Int(1),
                Text("Amélie (日本語)".into()),
                Float(4.25),
                Point(-93.2, 44.9),
                Rect(0.0, 0.0, 10.5, 20.25),
                Bool(true),
            ]),
            Tuple::new(vec![Int(-2), Null, Float(-0.0), Null, Null, Bool(false)]),
            Tuple::new(vec![
                Int(i64::MAX),
                Text(String::new()),
                Null,
                Point(0.0, -1.5),
                Rect(-1.0, -2.0, 3.0, 4.0),
                Null,
            ]),
        ];
        vec![
            QueryResult::TableCreated("movies".into()),
            QueryResult::TableDropped("movies".into()),
            QueryResult::Inserted(3),
            QueryResult::RecommenderCreated {
                name: "benchrec".into(),
                build_time: Duration::from_micros(61_234),
            },
            QueryResult::RecommenderDropped("benchrec".into()),
            QueryResult::IndexCreated("r_uid".into()),
            QueryResult::IndexDropped("r_uid".into()),
            QueryResult::Deleted(5),
            QueryResult::Updated(7),
            QueryResult::Rows(ResultSet::new(schema, rows)),
            QueryResult::TransactionStarted,
            QueryResult::TransactionCommitted,
            QueryResult::TransactionRolledBack,
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The 13 frames of `every_result`, as the server sent them before it
    /// encoded frames in place (`write_frame` over `Response::encode`).
    const EVERY_RESULT_FRAMES: &str = concat!(
        "0000000c0100060000006d6f766965730000000c0101060000006d6f76696573",
        "0000000a010203000000000000000000001601030800000062656e6368726563",
        "32ef0000000000000000000e01040800000062656e63687265630000000b0105",
        "05000000725f7569640000000b010605000000725f7569640000000a01070500",
        "0000000000000000000a01080700000000000000000001010109060005000000",
        "4d2e6d696400060000004d2e6e616d650209000000726174696e6776616c0102",
        "000000617404040000006172656105040000007365656e030300000006000101",
        "000000000000000313000000416dc3a96c69652028e697a5e69cace8aa9e2902",
        "000000000000114005cdcccccccc4c57c0333333333373464006000000000000",
        "00000000000000000000000000000000254000000000004034400401060001fe",
        "ffffffffffffff0002000000000000008000000400060001ffffffffffffff7f",
        "030000000000050000000000000000000000000000f8bf06000000000000f0bf",
        "00000000000000c0000000000000084000000000000010400000000002010a00",
        "000002010b00000002010c",
    );

    /// The frame the server writes for each kind of result moves the
    /// result and encodes in place, yet is byte for byte the frame
    /// `write_frame` sends for the borrowed mapping's payload, and decodes
    /// back to the same result.
    #[test]
    fn result_frames_are_pinned_and_round_trip() {
        let mut frames = Vec::new();
        for res in every_result() {
            let borrowed = Response::Result(WireResult::from_query_result(&res));
            let mut sent = Vec::new();
            write_frame(&mut sent, &borrowed.encode(), DEFAULT_MAX_FRAME_BYTES).unwrap();
            let frame = Response::Result(WireResult::from(res))
                .frame(DEFAULT_MAX_FRAME_BYTES)
                .unwrap();
            assert_eq!(frame, sent);
            assert_eq!(Response::decode(&frame[4..]).unwrap(), borrowed);
            frames.extend_from_slice(&frame);
        }
        assert_eq!(hex(&frames), EVERY_RESULT_FRAMES);
    }

    #[test]
    fn a_frame_over_the_limit_is_too_large() {
        let pong = Response::Pong.frame(1).unwrap();
        assert_eq!(pong, [0, 0, 0, 1, RESP_PONG]);
        let hello = Response::Hello { version: 1 };
        assert!(matches!(
            hello.frame(2),
            Err(ProtocolError::FrameTooLarge {
                announced: 3,
                max: 2
            })
        ));
    }
}
