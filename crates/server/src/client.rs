//! A reconnecting RecDB client with bounded exponential backoff.
//!
//! [`Client`] keys its retry policy on the wire protocol's retryable
//! bit: retryable server errors (`overloaded`, `lock_timeout`,
//! `cancelled`, …) and failed connection attempts are retried with
//! exponential backoff up to [`ClientConfig::max_retries`]; fatal errors
//! surface immediately.
//!
//! Two situations are never retried automatically:
//!
//! - **Inside an explicit transaction.** The server rolls the whole
//!   transaction back on any statement failure, so silently re-running
//!   one statement would splice it into a transaction that no longer
//!   exists. The error is surfaced and the client forgets the
//!   transaction state; re-run from `BEGIN`.
//! - **Ambiguous outcomes.** If the connection dies *after* a request
//!   was written but before the response arrived, the statement may or
//!   may not have committed. That surfaces as
//!   [`ClientError::ConnectionLost`] with `sent: true`, and is retried
//!   only for the idempotent PING and METRICS requests.

use crate::protocol::{
    write_frame, ErrorCode, FrameReader, ProtocolError, Request, Response, WireError, WireResult,
    DEFAULT_MAX_FRAME_BYTES,
};
use recdb_exec::ResultSet;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side tunables. `Default` suits tests and local serving.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Socket read/write timeout per frame.
    pub io_timeout: Duration,
    /// Largest response frame accepted (mirrors the server's cap).
    pub max_frame_bytes: usize,
    /// Retry attempts after the first failure (0 disables retries).
    pub max_retries: u32,
    /// First backoff sleep; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_retries: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(640),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not establish (or re-establish) a connection.
    Connect(std::io::Error),
    /// The server answered with an error frame. `retryable` says whether
    /// backing off and resending the same request may succeed.
    Server(WireError),
    /// The wire protocol broke (bad frame, unexpected message).
    Protocol(ProtocolError),
    /// The connection died. `sent` is true when the request had already
    /// been written, making the statement's outcome ambiguous.
    ConnectionLost {
        /// Whether the request reached the wire before the failure.
        sent: bool,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// All retry attempts were exhausted; `last` is the final failure.
    RetriesExhausted {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The last error observed.
        last: Box<ClientError>,
    },
    /// The response was not the variant the call expected (e.g. `query`
    /// on a statement that produced no rows).
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::ConnectionLost { sent, source } => write!(
                f,
                "connection lost ({}): {source}",
                if *sent {
                    "after request was sent; outcome ambiguous"
                } else {
                    "before request was sent"
                }
            ),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response: {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            ClientError::ConnectionLost { source, .. } => Some(source),
            ClientError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

/// Convenience alias for client call results.
pub type ClientResult<T> = Result<T, ClientError>;

/// One TCP connection and the bytes read from it that no frame has taken
/// yet.
struct Conn {
    stream: TcpStream,
    frames: FrameReader,
}

/// A RecDB wire-protocol client: one logical connection that transparently
/// reconnects and retries retryable failures with bounded backoff.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<Conn>,
    in_transaction: bool,
    /// Total reconnect attempts made over this client's lifetime
    /// (observability for tests).
    reconnects: u64,
}

impl Client {
    /// Connect with default configuration.
    pub fn connect(addr: SocketAddr) -> ClientResult<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit configuration. The initial connection is
    /// itself retried per the backoff policy (the server may be
    /// momentarily overloaded).
    pub fn connect_with(addr: SocketAddr, cfg: ClientConfig) -> ClientResult<Client> {
        let mut client = Client {
            addr,
            cfg,
            conn: None,
            in_transaction: false,
            reconnects: 0,
        };
        let mut last: Option<ClientError> = None;
        for attempt in 0..=client.cfg.max_retries {
            if attempt > 0 {
                std::thread::sleep(client.backoff(attempt - 1));
            }
            match client.dial() {
                Ok(conn) => {
                    client.conn = Some(conn);
                    return Ok(client);
                }
                Err(e) if e.retryable_now(false) && client.cfg.max_retries > 0 => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: client.cfg.max_retries + 1,
            last: Box::new(last.unwrap_or(ClientError::UnexpectedResponse("no attempt made"))),
        })
    }

    /// Whether the last successful statement left an explicit
    /// transaction open on the server.
    pub fn in_transaction(&self) -> bool {
        self.in_transaction
    }

    /// Reconnect attempts made so far (including the initial connect
    /// retries).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Drop the TCP connection on the floor — no ROLLBACK, no goodbye.
    /// Chaos-testing hook: simulates a client dying mid-transaction; the
    /// server must abort the session and release its locks. The next
    /// call transparently reconnects.
    pub fn drop_connection(&mut self) {
        self.conn = None;
        self.in_transaction = false;
    }

    /// Execute one SQL statement under the server's default limits.
    pub fn execute(&mut self, sql: &str) -> ClientResult<WireResult> {
        self.execute_with_deadline(sql, None)
    }

    /// Execute one SQL statement with a per-request deadline; the server
    /// maps it onto a `QueryGuard`, so an overrunning statement comes
    /// back as a retryable `cancelled` error.
    pub fn execute_with_deadline(
        &mut self,
        sql: &str,
        deadline: Option<Duration>,
    ) -> ClientResult<WireResult> {
        let request = Request::Statement {
            deadline,
            sql: sql.to_owned(),
        };
        let response = self.call(&request, false)?;
        match response {
            Response::Result(res) => {
                self.note_txn(&res);
                Ok(res)
            }
            Response::Error(err) => {
                // Any statement failure inside an explicit transaction
                // aborts it server-side; mirror that here. A result too
                // large for a frame is not a failure of the statement.
                if err.code != ErrorCode::FrameTooLarge {
                    self.in_transaction = false;
                }
                Err(ClientError::Server(err))
            }
            _ => Err(ClientError::UnexpectedResponse(
                "statement answered with a non-result frame",
            )),
        }
    }

    /// Execute a SELECT and reassemble its rows.
    pub fn query(&mut self, sql: &str) -> ClientResult<ResultSet> {
        match self.execute(sql)? {
            res @ WireResult::Rows { .. } => res
                .into_result_set()
                .ok_or(ClientError::UnexpectedResponse("rows failed to reassemble")),
            _ => Err(ClientError::UnexpectedResponse(
                "statement did not produce rows",
            )),
        }
    }

    /// Fetch the server's Prometheus text exposition (`METRICS` verb).
    pub fn metrics_text(&mut self) -> ClientResult<String> {
        match self.call(&Request::Metrics, true)? {
            Response::MetricsText(text) => Ok(text),
            Response::Error(err) => Err(ClientError::Server(err)),
            _ => Err(ClientError::UnexpectedResponse(
                "metrics answered with a non-text frame",
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.call(&Request::Ping, true)? {
            Response::Pong => Ok(()),
            Response::Error(err) => Err(ClientError::Server(err)),
            _ => Err(ClientError::UnexpectedResponse(
                "ping answered with a non-pong frame",
            )),
        }
    }

    /// One request/response exchange with the retry loop around it.
    /// `idempotent` marks requests (PING, METRICS) that are always safe
    /// to resend, so even ambiguous connection losses retry — a server
    /// that idle-closed the socket between requests looks exactly like
    /// that case.
    fn call(&mut self, request: &Request, idempotent: bool) -> ClientResult<Response> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..=self.cfg.max_retries {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt - 1));
            }
            match self.call_once(request) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    let was_in_txn = self.in_transaction;
                    // A dead connection aborts any server-side
                    // transaction; never silently resume one.
                    if matches!(
                        e,
                        ClientError::ConnectionLost { .. }
                            | ClientError::Connect(_)
                            | ClientError::Protocol(_)
                    ) {
                        self.conn = None;
                        self.in_transaction = false;
                    }
                    if was_in_txn {
                        // Whatever failed, the explicit transaction is
                        // gone server-side (statement errors abort it,
                        // dead connections drop the session). Retrying
                        // one statement of it would splice it into
                        // nothing; surface the error, caller restarts
                        // from BEGIN.
                        self.in_transaction = false;
                        return Err(e);
                    }
                    let retryable = e.retryable_now(idempotent);
                    if !retryable || attempt == self.cfg.max_retries {
                        if attempt > 0 {
                            return Err(ClientError::RetriesExhausted {
                                attempts: attempt + 1,
                                last: Box::new(e),
                            });
                        }
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: self.cfg.max_retries + 1,
            last: Box::new(last.unwrap_or(ClientError::UnexpectedResponse("no attempt made"))),
        })
    }

    /// One request/response exchange on the current (or a fresh)
    /// connection, no retries.
    fn call_once(&mut self, request: &Request) -> ClientResult<Response> {
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        let Some(Conn { stream, frames }) = self.conn.as_mut() else {
            return Err(ClientError::UnexpectedResponse("no connection"));
        };
        let payload = request.encode();
        if let Err(e) = write_frame(&mut &*stream, &payload, self.cfg.max_frame_bytes) {
            return Err(match e {
                ProtocolError::Io(source) => ClientError::ConnectionLost {
                    sent: false,
                    source,
                },
                other => ClientError::Protocol(other),
            });
        }
        match frames.read_frame(&mut &*stream, self.cfg.max_frame_bytes) {
            Ok(Some(bytes)) => Response::decode(bytes).map_err(ClientError::Protocol),
            Ok(None) => Err(ClientError::ConnectionLost {
                sent: true,
                source: std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                ),
            }),
            Err(ProtocolError::Io(source)) => {
                Err(ClientError::ConnectionLost { sent: true, source })
            }
            Err(other) => Err(ClientError::Protocol(other)),
        }
    }

    /// Establish a TCP connection and consume the server's greeting.
    fn dial(&mut self) -> ClientResult<Conn> {
        self.reconnects += 1;
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)
            .map_err(ClientError::Connect)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
        let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
        let mut frames = FrameReader::new();
        let greeting = frames
            .read_frame(&mut &stream, self.cfg.max_frame_bytes)
            .map_err(ClientError::Protocol)?
            .ok_or(ClientError::Connect(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "server closed the connection before greeting",
            )))?;
        match Response::decode(greeting).map_err(ClientError::Protocol)? {
            Response::Hello { .. } => Ok(Conn { stream, frames }),
            Response::Error(err) => Err(ClientError::Server(err)),
            _ => Err(ClientError::UnexpectedResponse(
                "greeting was neither hello nor error",
            )),
        }
    }

    fn note_txn(&mut self, res: &WireResult) {
        match res {
            WireResult::TransactionStarted => self.in_transaction = true,
            WireResult::TransactionCommitted | WireResult::TransactionRolledBack => {
                self.in_transaction = false
            }
            _ => {}
        }
    }

    fn backoff(&self, exp: u32) -> Duration {
        let base = self.cfg.backoff_base.max(Duration::from_millis(1));
        base.saturating_mul(1u32 << exp.min(16))
            .min(self.cfg.backoff_cap)
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .field("in_transaction", &self.in_transaction)
            .field("reconnects", &self.reconnects)
            .finish_non_exhaustive()
    }
}

impl ClientError {
    /// Whether the retry loop may try again; an ambiguous loss (request
    /// sent, no response) only for an idempotent request.
    fn retryable_now(&self, idempotent: bool) -> bool {
        match self {
            ClientError::Connect(_) => true,
            ClientError::Server(err) => err.retryable && err.code != ErrorCode::ShuttingDown,
            ClientError::ConnectionLost { sent: false, .. } => true,
            ClientError::ConnectionLost { sent: true, .. } => idempotent,
            ClientError::Protocol(_) => false,
            ClientError::RetriesExhausted { .. } => false,
            ClientError::UnexpectedResponse(_) => false,
        }
    }
}
