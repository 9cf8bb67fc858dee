//! The threaded TCP server: admission control, per-connection sessions,
//! timeouts, fail points, and graceful shutdown.
//!
//! One accept thread plus one thread per admitted connection. Each
//! connection owns a [`recdb_core::Session`], so transactional state is
//! exactly per-connection and dropping the session — on clean close,
//! killed socket, injected fault, or contained panic — rolls back any
//! open transaction and releases its locks.
//!
//! # Admission control
//!
//! The accept loop never queues work: every accepted socket is either
//! admitted (under [`ServerConfig::max_connections`]) or answered
//! immediately with a retryable `overloaded` error frame and closed, so
//! load beyond capacity turns into client backoff instead of an
//! unbounded pileup. The kernel-side pending-accept queue is bounded by
//! the listener backlog; the admission check is the first thing that
//! happens after `accept` returns.
//!
//! # Fail points
//!
//! Three deterministic fault-injection sites cover the serving path:
//! `server::accept` (connection dropped right after accept),
//! `server::frame_read` (request read fails → connection closes, session
//! aborts), and `server::frame_write` (response write fails after the
//! statement ran → connection closes; a committed statement stays
//! committed, which is exactly the ambiguity real clients must handle).

use crate::protocol::{
    classify, ErrorCode, FrameReader, ProtocolError, Request, Response, WireError, WireResult,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use recdb_core::{QueryGuard, RecDb};
use recdb_fault::fail_point;
use recdb_obs::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Slice length for interruptible socket reads: the granularity at which
/// idle timeouts and the shutdown flag are observed.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// Bucket bounds (microseconds) for `recdb_request_micros`: 100µs to
/// 10s, one decade per bucket.
const REQUEST_BUCKETS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Serving-layer tunables. `Default` suits tests and local serving.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Admission cap: connections beyond this are rejected with a
    /// retryable `overloaded` error instead of being queued.
    pub max_connections: usize,
    /// Largest frame payload accepted or sent (bytes). Oversized frames
    /// fail before any allocation.
    pub max_frame_bytes: usize,
    /// Close a connection that sends no request for this long.
    pub idle_timeout: Duration,
    /// Budget for reading one frame once its first byte has arrived.
    pub read_timeout: Duration,
    /// Socket write timeout per response frame.
    pub write_timeout: Duration,
    /// Graceful-shutdown budget for in-flight statements to finish
    /// before their guards are cancelled and sockets are torn down.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy)]
pub struct ShutdownReport {
    /// Whether every connection finished inside
    /// [`ServerConfig::drain_timeout`] without being forced.
    pub drained_within_deadline: bool,
    /// Connections whose guards were cancelled and sockets torn down.
    pub forced_connections: usize,
    /// Connections still not accounted for when shutdown returned
    /// (should be 0; non-zero means a handler thread is wedged).
    pub leaked_connections: usize,
    /// Wall-clock time the shutdown took.
    pub elapsed: Duration,
}

/// One admitted connection, as seen by the shutdown path.
struct ConnEntry {
    /// Clone of the connection's socket, for forced teardown.
    stream: TcpStream,
    /// Cancel handle of the statement currently executing, if any.
    busy: Mutex<Option<QueryGuard>>,
}

struct Shared {
    db: Arc<RecDb>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<u64, Arc<ConnEntry>>>,
    connections_active: Arc<Gauge>,
    requests_ok: Arc<Counter>,
    requests_error: Arc<Counter>,
    request_micros: Arc<Histogram>,
    overload_rejections: Arc<Counter>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn finish_conn(&self, conn_id: u64) {
        let mut conns = lock(&self.conns);
        if conns.remove(&conn_id).is_some() {
            self.connections_active.add(-1);
        }
    }
}

/// Recover from a poisoned mutex: the server's maps hold plain data, so
/// a panicked holder leaves them consistent.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A running RecDB TCP server. Dropping it performs a graceful shutdown.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    addr: SocketAddr,
    finished: bool,
}

impl Server {
    /// Bind `config.addr` and start serving `db`.
    pub fn start(db: Arc<RecDb>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics = db.metrics().clone();
        let shared = Arc::new(Shared {
            connections_active: metrics.gauge("recdb_connections_active"),
            requests_ok: metrics.counter_with("recdb_requests_total", &[("outcome", "ok")]),
            requests_error: metrics.counter_with("recdb_requests_total", &[("outcome", "error")]),
            request_micros: metrics.histogram("recdb_request_micros", REQUEST_BUCKETS),
            overload_rejections: metrics.counter("recdb_server_overload_rejections_total"),
            db,
            cfg,
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            conns: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("recdb-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            shared,
            accept: Some(accept),
            addr,
            finished: false,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently admitted.
    pub fn active_connections(&self) -> usize {
        lock(&self.shared.conns).len()
    }

    /// Gracefully shut down: stop accepting, let in-flight statements
    /// finish (up to [`ServerConfig::drain_timeout`]), then cancel
    /// stragglers and tear their sockets down, and finally fsync durable
    /// state via a best-effort checkpoint.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ShutdownReport {
        let started = Instant::now();
        self.finished = true;
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept thread out of its blocking accept.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }

        // Drain phase: connection threads observe the shutdown flag at
        // their next frame boundary; a statement already executing runs
        // to completion and its response is written.
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        while Instant::now() < deadline && !lock(&self.shared.conns).is_empty() {
            thread::sleep(Duration::from_millis(5));
        }

        // Force phase: cancel whatever is still running and tear down
        // the sockets so blocked reads/writes fail immediately.
        let stragglers: Vec<Arc<ConnEntry>> = lock(&self.shared.conns).values().cloned().collect();
        let drained_within_deadline = stragglers.is_empty();
        for entry in &stragglers {
            if let Some(guard) = lock(&entry.busy).as_ref() {
                guard.cancel();
            }
            let _ = entry.stream.shutdown(std::net::Shutdown::Both);
        }
        let force_deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < force_deadline && !lock(&self.shared.conns).is_empty() {
            thread::sleep(Duration::from_millis(5));
        }
        let leaked_connections = lock(&self.shared.conns).len();

        // Every session is gone; make durable state clean on disk.
        if self.shared.db.is_durable() {
            let _ = self.shared.db.checkpoint();
        }

        ShutdownReport {
            drained_within_deadline,
            forced_connections: stragglers.len(),
            leaked_connections,
            elapsed: started.elapsed(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.finished {
            self.shutdown_inner();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("active_connections", &self.active_connections())
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.shutting_down() => return,
            Err(_) => continue,
        };
        if shared.shutting_down() {
            // Could be the self-connect wake-up or a late client either
            // way the answer is the same: not serving anymore.
            let _ = respond_and_close(
                &stream,
                shared,
                WireError::new(ErrorCode::ShuttingDown, true, "server is shutting down"),
            );
            return;
        }
        // `server::accept` fail point: the connection is torn down right
        // after accept (as if the socket died in the handshake); the
        // server itself keeps serving. A panic-armed site is contained.
        let accept_ok = catch_unwind(AssertUnwindSafe(|| fail_point("server::accept")));
        if !matches!(accept_ok, Ok(Ok(()))) {
            drop(stream);
            continue;
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let entry = {
            let mut conns = lock(&shared.conns);
            if conns.len() >= shared.cfg.max_connections {
                drop(conns);
                shared.overload_rejections.inc();
                let _ = respond_and_close(
                    &stream,
                    shared,
                    WireError::new(
                        ErrorCode::Overloaded,
                        true,
                        format!(
                            "server at max_connections={}; retry after backoff",
                            shared.cfg.max_connections
                        ),
                    ),
                );
                continue;
            }
            let entry = Arc::new(ConnEntry {
                stream: match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                },
                busy: Mutex::new(None),
            });
            conns.insert(conn_id, Arc::clone(&entry));
            shared.connections_active.add(1);
            entry
        };
        let thread_shared = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name(format!("recdb-conn-{conn_id}"))
            .spawn(move || {
                // The handler runs under `catch_unwind` so a panic-armed
                // fail point (or any bug) kills one connection, not the
                // server; the session inside is dropped during unwind,
                // aborting any open transaction.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    handle_conn(&thread_shared, &entry);
                }));
                thread_shared.finish_conn(conn_id);
            });
        if spawned.is_err() {
            shared.finish_conn(conn_id);
        }
    }
}

/// Best-effort single error frame + close, for rejected connections.
fn respond_and_close(
    stream: &TcpStream,
    shared: &Shared,
    err: WireError,
) -> Result<(), ProtocolError> {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    write_response(stream, &Response::Error(err), shared.cfg.max_frame_bytes)
}

/// Why a connection stopped reading requests.
enum CloseReason {
    /// Peer closed cleanly at a frame boundary.
    Eof,
    /// No request arrived within the idle timeout.
    Idle,
    /// The server is draining for shutdown.
    Shutdown,
    /// The `server::frame_read` fail point fired.
    Fault,
    /// The peer announced a frame over `max_frame_bytes`.
    TooLarge(u64),
    /// The socket failed or a frame was cut short (timeout, reset, or
    /// EOF inside a frame).
    Broken,
}

fn handle_conn(shared: &Shared, entry: &ConnEntry) {
    let stream = &entry.stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_SLICE));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));

    if send_response(
        shared,
        stream,
        &Response::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .is_err()
    {
        return;
    }

    let db = Arc::clone(&shared.db);
    let mut session = db.session();
    let mut frames = FrameReader::new();

    loop {
        let payload = match read_request(shared, stream, &mut frames) {
            Ok(p) => p,
            Err(CloseReason::TooLarge(announced)) => {
                let _ = send_response(
                    shared,
                    stream,
                    &Response::Error(WireError::new(
                        ErrorCode::FrameTooLarge,
                        false,
                        format!(
                            "frame of {announced} bytes exceeds max_frame_bytes={}",
                            shared.cfg.max_frame_bytes
                        ),
                    )),
                );
                return;
            }
            Err(CloseReason::Shutdown) => {
                let _ = send_response(
                    shared,
                    stream,
                    &Response::Error(WireError::new(
                        ErrorCode::ShuttingDown,
                        true,
                        "server is shutting down",
                    )),
                );
                return;
            }
            Err(
                CloseReason::Eof | CloseReason::Idle | CloseReason::Fault | CloseReason::Broken,
            ) => return,
        };

        let request = match Request::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                // Garbage bytes: answer with a clean protocol error and
                // close — resynchronizing an unframed stream is hopeless.
                let _ = send_response(
                    shared,
                    stream,
                    &Response::Error(WireError::new(
                        ErrorCode::MalformedFrame,
                        false,
                        e.to_string(),
                    )),
                );
                return;
            }
        };

        let started = Instant::now();
        let response = match request {
            Request::Ping => {
                shared.requests_ok.inc();
                Response::Pong
            }
            Request::Metrics => {
                shared.requests_ok.inc();
                Response::MetricsText(shared.db.render_metrics())
            }
            Request::Statement { deadline, sql } => {
                let guard = statement_guard(&shared.db, deadline);
                *lock(&entry.busy) = Some(guard.cancel_handle());
                let result = session.execute_with_guard(&sql, guard);
                *lock(&entry.busy) = None;
                match result {
                    Ok(res) => {
                        shared.requests_ok.inc();
                        Response::Result(WireResult::from(res))
                    }
                    Err(e) => {
                        shared.requests_error.inc();
                        Response::Error(classify(&e))
                    }
                }
            }
        };
        shared
            .request_micros
            .observe(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));

        if send_response(shared, stream, &response).is_err() {
            return;
        }
    }
}

/// Build the guard for one statement: the governor's limits, with the
/// per-request deadline layered on (the tighter of the two wins).
fn statement_guard(db: &RecDb, deadline: Option<Duration>) -> QueryGuard {
    let governor = &db.config().governor;
    match deadline {
        None => governor.guard(),
        Some(d) => {
            let effective = governor.deadline.map_or(d, |g| g.min(d));
            QueryGuard::with_limits(Some(effective), governor.row_budget, governor.mem_budget)
        }
    }
}

/// Read one request frame through the connection's `frames` buffer in
/// `POLL_SLICE` slices, observing the idle timeout, the per-frame read
/// budget, and the shutdown flag. The idle timeout and the shutdown flag
/// apply while no byte of the frame has arrived; from its first byte (or
/// from the call, for a frame whose head came with the one before) the
/// frame has `read_timeout`. The `server::frame_read` fail point is
/// consulted once per frame.
fn read_request<'f>(
    shared: &Shared,
    stream: &TcpStream,
    frames: &'f mut FrameReader,
) -> Result<&'f [u8], CloseReason> {
    if fail_point("server::frame_read").is_err() {
        return Err(CloseReason::Fault);
    }
    let idle_deadline = Instant::now() + shared.cfg.idle_timeout;
    let mut frame_deadline =
        (frames.buffered() > 0).then(|| Instant::now() + shared.cfg.read_timeout);
    loop {
        let len = match frames.payload_len(shared.cfg.max_frame_bytes) {
            Ok(len) => len,
            Err(ProtocolError::FrameTooLarge { announced, .. }) => {
                return Err(CloseReason::TooLarge(announced))
            }
            Err(_) => return Err(CloseReason::Broken),
        };
        if let Some(len) = len {
            if frames.buffered() >= 4 + len {
                return frames.take(len).ok_or(CloseReason::Broken);
            }
        }
        let started = frames.buffered() > 0;
        if !started {
            if shared.shutting_down() {
                return Err(CloseReason::Shutdown);
            }
            if Instant::now() >= idle_deadline {
                return Err(CloseReason::Idle);
            }
        } else if frame_deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(CloseReason::Broken);
        }
        match read_slice(frames.read_from(&mut &*stream, len)) {
            SliceRead::Data => {
                if !started {
                    frame_deadline = Some(Instant::now() + shared.cfg.read_timeout);
                }
            }
            SliceRead::Eof if !started => return Err(CloseReason::Eof),
            SliceRead::Eof => return Err(CloseReason::Broken),
            SliceRead::WouldBlock => {}
            SliceRead::Err => return Err(CloseReason::Broken),
        }
    }
}

enum SliceRead {
    Data,
    Eof,
    WouldBlock,
    Err,
}

/// What one read slice's outcome means for the frame being read.
fn read_slice(read: std::io::Result<usize>) -> SliceRead {
    match read {
        Ok(0) => SliceRead::Eof,
        Ok(_) => SliceRead::Data,
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::Interrupted
            ) =>
        {
            SliceRead::WouldBlock
        }
        Err(_) => SliceRead::Err,
    }
}

/// Write one response frame, consulting the `server::frame_write` fail
/// point first. Any failure closes the connection.
fn send_response(
    shared: &Shared,
    stream: &TcpStream,
    response: &Response,
) -> Result<(), ProtocolError> {
    fail_point("server::frame_write")
        .map_err(|e| ProtocolError::Malformed(format!("injected write fault: {e}")))?;
    write_response(stream, response, shared.cfg.max_frame_bytes)
}

/// Encode `response` as one frame and write it. A response over
/// `max_frame_bytes` (a result too large to send) is answered with a
/// non-retryable `frame_too_large` error instead, and the connection — its
/// session and any open transaction — carries on.
fn write_response(
    stream: &TcpStream,
    response: &Response,
    max_frame_bytes: usize,
) -> Result<(), ProtocolError> {
    let frame = match response.frame(max_frame_bytes) {
        Err(ProtocolError::FrameTooLarge { announced, max }) => Response::Error(WireError::new(
            ErrorCode::FrameTooLarge,
            false,
            format!("response of {announced} bytes exceeds max_frame_bytes={max}"),
        ))
        .frame(max_frame_bytes)?,
        frame => frame?,
    };
    let mut w = stream;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}
