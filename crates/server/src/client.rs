//! Blocking client for the serving wire protocol.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time (the protocol is strictly request→response per connection; open
//! more clients for parallelism — that is exactly what the E14 loadgen
//! does). [`Client::connect`] performs the `Hello` handshake, and queries
//! stream: [`Client::query`] returns a [`QueryStream`] that pulls
//! [`ResultBatch`](crate::protocol::Frame::ResultBatch) frames on
//! demand, granting the server one credit per consumed batch — a client
//! that stops reading suspends its cursor server-side instead of forcing
//! the server to buffer the table.
//!
//! ```no_run
//! # use lazyetl_server::{Client, QueryReply};
//! # let mut client = Client::connect("127.0.0.1:4242").unwrap();
//! match client.query("SELECT COUNT(*) FROM mseed.files").unwrap() {
//!     QueryReply::Stream(mut stream) => {
//!         while let Some(batch) = stream.next_batch().unwrap() {
//!             println!("{} rows", batch.num_rows());
//!         }
//!     }
//!     QueryReply::Busy { estimated_rows, .. } => { /* back off */ }
//!     QueryReply::Error { code, message } => eprintln!("{code}: {message}"),
//! };
//! ```
//!
//! * [`Client::query_all`] and [`Client::query_retrying`] collect the
//!   stream into one table for callers that want the rows, not the
//!   batches.
//! * Dropping a [`QueryStream`] mid-result cancels the cursor
//!   server-side (best effort); [`QueryStream::cancel`] does it
//!   explicitly and synchronously.
//! * [`Client::subscribe`] opens a live-tail [`Subscription`]: the result
//!   is re-pushed as a new revision whenever the server's warehouse
//!   generation moves.

use crate::protocol::{
    frame_bytes_checked, read_frame, Frame, ProtoError, WireMetrics, DEFAULT_MAX_REQUEST,
    DEFAULT_MAX_RESPONSE, VERSION,
};
use lazyetl_store::Table;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A successful served query, fully collected ([`Client::query_all`]).
#[derive(Debug, Clone)]
pub struct ServedResult {
    /// The result rows.
    pub table: Table,
    /// What the request cost server-side.
    pub metrics: WireMetrics,
}

/// What the server answered to a fully-collected query
/// ([`Client::query_all`] / [`Client::query_retrying`]).
#[derive(Debug, Clone)]
pub enum ServerReply {
    /// Rows + metrics.
    Result(ServedResult),
    /// Admission control rejected the query; retry later.
    Busy {
        /// The server's configured queue depth.
        queue_depth: u32,
        /// Jobs queued when the request was rejected.
        queued: u32,
        /// The planner's row estimate for the rejected query (0 = not
        /// estimated) — back off proportionally.
        estimated_rows: u64,
        /// The server's admission cost budget (0 = queue-depth-only).
        cost_budget: u64,
    },
    /// The server answered with an error frame.
    Error {
        /// Stable machine-readable code (`query.*`, `etl.*`, `server.*`).
        code: String,
        /// Rendered message.
        message: String,
    },
}

/// What the server answered to a streaming query ([`Client::query`]).
pub enum QueryReply<'a> {
    /// The cursor opened: pull batches from the stream.
    Stream(QueryStream<'a>),
    /// Admission control rejected the query; retry later.
    Busy {
        /// The server's configured queue depth.
        queue_depth: u32,
        /// Jobs queued when the request was rejected.
        queued: u32,
        /// The planner's row estimate for the rejected query (0 = not
        /// estimated).
        estimated_rows: u64,
        /// The server's admission cost budget (0 = queue-depth-only).
        cost_budget: u64,
    },
    /// The server answered with an error frame.
    Error {
        /// Stable machine-readable code.
        code: String,
        /// Rendered message.
        message: String,
    },
}

/// What the server answered to a subscribe request
/// ([`Client::subscribe`]).
pub enum SubscribeReply<'a> {
    /// The subscription opened: pull result revisions from it.
    Subscription(Subscription<'a>),
    /// Admission control rejected the initial query; retry later.
    Busy {
        /// The server's configured queue depth.
        queue_depth: u32,
        /// Jobs queued when the request was rejected.
        queued: u32,
        /// The planner's row estimate for the rejected query (0 = not
        /// estimated).
        estimated_rows: u64,
        /// The server's admission cost budget (0 = queue-depth-only).
        cost_budget: u64,
    },
    /// The server answered with an error frame.
    Error {
        /// Stable machine-readable code.
        code: String,
        /// Rendered message.
        message: String,
    },
}

/// Client-side failures (transport/protocol, not in-band server errors).
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure (including a request this client
    /// refused to send because it exceeds its own `max_request_bytes` —
    /// code `proto.oversize`, enforced symmetrically with the server).
    Proto(ProtoError),
    /// The server answered with a frame type this request cannot accept.
    Unexpected(String),
}

impl ClientError {
    /// Stable machine-readable code for this failure (`proto.*` for
    /// transport/framing, `client.unexpected` for a protocol-confused
    /// server).
    pub fn code(&self) -> &'static str {
        match self {
            ClientError::Proto(e) => e.code(),
            ClientError::Unexpected(_) => "client.unexpected",
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Unexpected(m) => write!(f, "unexpected server frame: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// Budget for the `Hello`/`HelloAck` handshake — a server that accepted
/// the TCP connection but will never answer (e.g. mid-drain backlog)
/// must fail the connect, not hang it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// One connection to a lazy-warehouse server.
pub struct Client {
    stream: TcpStream,
    max_response_bytes: u32,
    max_request_bytes: u32,
    /// Server-announced rows per batch (informational).
    batch_rows: u32,
    next_cursor: u32,
    /// A dropped-mid-stream cursor whose tail frames (pending batches +
    /// the cancel acknowledgement) must be drained before the next
    /// request can use the connection.
    pending_drain: Option<u32>,
}

impl Client {
    /// Connect and perform the `Hello` handshake. Fails if the server
    /// does not complete it (a peer stamping another protocol version on
    /// its frames fails here, with `proto.version`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Self::handshake(stream)
    }

    /// Like [`Client::connect`] with a connect timeout per candidate
    /// address.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let mut last = None;
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, timeout) {
                Ok(stream) => return Self::handshake(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses")
        }))
    }

    fn handshake(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            max_response_bytes: DEFAULT_MAX_RESPONSE,
            max_request_bytes: DEFAULT_MAX_REQUEST,
            batch_rows: 0,
            next_cursor: 1,
            pending_drain: None,
        };
        let io_err = |e: ClientError| std::io::Error::new(std::io::ErrorKind::ConnectionAborted, e);
        client.stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        client
            .send(&Frame::Hello {
                max_version: VERSION,
            })
            .map_err(io_err)?;
        let ack = client.recv().map_err(io_err)?;
        client.stream.set_read_timeout(None)?;
        match ack {
            Frame::HelloAck { batch_rows, .. } => {
                client.batch_rows = batch_rows;
                Ok(client)
            }
            other => Err(io_err(ClientError::Unexpected(format!("{other:?}")))),
        }
    }

    /// Rows per streamed batch, as announced by the server.
    pub fn batch_rows(&self) -> u32 {
        self.batch_rows
    }

    /// Cap accepted response payloads (defence against a rogue server).
    pub fn set_max_response_bytes(&mut self, max: u32) {
        self.max_response_bytes = max;
    }

    /// Cap outgoing request payloads. The check is enforced **locally**,
    /// symmetric with the server's request cap: an oversized query fails
    /// fast with the stable `proto.oversize` code instead of a raw I/O
    /// error after the server slams the connection.
    pub fn set_max_request_bytes(&mut self, max: u32) {
        self.max_request_bytes = max;
    }

    /// Send one frame, enforcing the client-side request cap.
    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        let bytes = frame_bytes_checked(frame, self.max_request_bytes)?;
        self.stream.write_all(&bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, ClientError> {
        Ok(read_frame(&mut self.stream, self.max_response_bytes)?)
    }

    /// Consume the tail of a dropped-mid-stream cursor so the
    /// connection is clean for the next request. A dropped subscription
    /// may have revision batches and `SubUpdate` boundaries in flight;
    /// both are skipped until the cancelled `ResultEnd` lands.
    fn drain_pending(&mut self) -> Result<(), ClientError> {
        while let Some(cursor) = self.pending_drain {
            match self.recv()? {
                Frame::ResultBatch { cursor: c, .. } if c == cursor => {}
                Frame::SubUpdate { cursor: c, .. } if c == cursor => {}
                Frame::ResultEnd { cursor: c, .. } if c == cursor => {
                    self.pending_drain = None;
                }
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
        Ok(())
    }

    fn roundtrip(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        self.drain_pending()?;
        self.send(frame)?;
        self.recv()
    }

    /// Run a SQL query, streaming the result: the returned
    /// [`QueryStream`] pulls batches on demand.
    pub fn query(&mut self, sql: &str) -> Result<QueryReply<'_>, ClientError> {
        self.query_with_delay(sql, 0)
    }

    /// [`Client::query`] with server-side think time (the
    /// load-generation / admission-control knob).
    pub fn query_with_delay(
        &mut self,
        sql: &str,
        delay_ms: u32,
    ) -> Result<QueryReply<'_>, ClientError> {
        self.drain_pending()?;
        let cursor = self.next_cursor;
        self.next_cursor = self.next_cursor.wrapping_add(1).max(1);
        self.send(&Frame::QueryV2 {
            cursor,
            delay_ms,
            sql: sql.to_string(),
        })?;
        match self.recv()? {
            Frame::ResultStart {
                cursor: c,
                metrics,
                schema,
            } if c == cursor => Ok(QueryReply::Stream(QueryStream {
                client: self,
                cursor,
                metrics,
                schema: Arc::try_unwrap(schema).unwrap_or_else(|shared| (*shared).clone()),
                batches: 0,
                rows: 0,
                done: false,
                cancelled: false,
            })),
            Frame::Busy {
                queue_depth,
                queued,
                estimated_rows,
                cost_budget,
            } => Ok(QueryReply::Busy {
                queue_depth,
                queued,
                estimated_rows,
                cost_budget,
            }),
            Frame::Error { code, message } => Ok(QueryReply::Error { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Run a query and collect the whole result — the convenience for
    /// callers that want the table, not the stream.
    pub fn query_all(&mut self, sql: &str) -> Result<ServerReply, ClientError> {
        self.query_all_with_delay(sql, 0)
    }

    /// [`Client::query_all`] with server-side think time.
    pub fn query_all_with_delay(
        &mut self,
        sql: &str,
        delay_ms: u32,
    ) -> Result<ServerReply, ClientError> {
        match self.query_with_delay(sql, delay_ms)? {
            QueryReply::Stream(mut stream) => {
                let metrics = stream.metrics();
                let table = stream.collect_table()?;
                Ok(ServerReply::Result(ServedResult { table, metrics }))
            }
            QueryReply::Busy {
                queue_depth,
                queued,
                estimated_rows,
                cost_budget,
            } => Ok(ServerReply::Busy {
                queue_depth,
                queued,
                estimated_rows,
                cost_budget,
            }),
            QueryReply::Error { code, message } => Ok(ServerReply::Error { code, message }),
        }
    }

    /// Run a query (collected), retrying on busy frames with a fixed
    /// backoff. Returns the reply plus how many busy rejections were
    /// absorbed.
    pub fn query_retrying(
        &mut self,
        sql: &str,
        delay_ms: u32,
        backoff: Duration,
        max_retries: usize,
    ) -> Result<(ServerReply, usize), ClientError> {
        let mut busy = 0usize;
        loop {
            match self.query_all_with_delay(sql, delay_ms)? {
                ServerReply::Busy { .. } if busy < max_retries => {
                    busy += 1;
                    std::thread::sleep(backoff);
                }
                reply => return Ok((reply, busy)),
            }
        }
    }

    /// Open a live-tail subscription: the query runs once, streams its
    /// result, and then *stays open* — every time the server folds
    /// repository changes in ([`ServerConfig::refresh_interval`]
    /// or query-triggered auto-refresh), the updated result is pushed as
    /// a new revision. The push is O(delta) server-side when the resident
    /// recycled result was patched incrementally.
    ///
    /// [`ServerConfig::refresh_interval`]: crate::ServerConfig::refresh_interval
    pub fn subscribe(&mut self, sql: &str) -> Result<SubscribeReply<'_>, ClientError> {
        self.drain_pending()?;
        let cursor = self.next_cursor;
        self.next_cursor = self.next_cursor.wrapping_add(1).max(1);
        self.send(&Frame::Subscribe {
            cursor,
            sql: sql.to_string(),
        })?;
        match self.recv()? {
            Frame::ResultStart {
                cursor: c,
                metrics,
                schema,
            } if c == cursor => Ok(SubscribeReply::Subscription(Subscription {
                cursor,
                metrics,
                schema: Arc::try_unwrap(schema).unwrap_or_else(|shared| (*shared).clone()),
                updates: 0,
                done: false,
                client: self,
            })),
            Frame::Busy {
                queue_depth,
                queued,
                estimated_rows,
                cost_budget,
            } => Ok(SubscribeReply::Busy {
                queue_depth,
                queued,
                estimated_rows,
                cost_budget,
            }),
            Frame::Error { code, message } => Ok(SubscribeReply::Error { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the server's stats snapshot as an ordered key→value map.
    pub fn stats(&mut self) -> Result<BTreeMap<String, String>, ClientError> {
        match self.roundtrip(&Frame::Stats)? {
            Frame::StatsReply { text } => Ok(text
                .lines()
                .filter_map(|l| {
                    l.split_once('=')
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                })
                .collect()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Request graceful shutdown (drain, snapshot, exit). The server
    /// acknowledges, then closes this connection.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Frame::Shutdown)? {
            Frame::ShutdownAck => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// A streamed query result: batches on demand, with credit granted back
/// to the server as each batch is consumed (pull-based flow control — a
/// stream nobody reads grants no credit, so the server suspends the
/// cursor after its initial window instead of buffering the result).
///
/// Dropping the stream mid-result cancels the cursor (best effort);
/// [`QueryStream::cancel`] does it synchronously. The stream borrows its
/// [`Client`] — one request at a time per connection, enforced by the
/// borrow checker.
pub struct QueryStream<'a> {
    client: &'a mut Client,
    cursor: u32,
    metrics: WireMetrics,
    schema: Table,
    batches: u32,
    rows: u64,
    done: bool,
    cancelled: bool,
}

impl QueryStream<'_> {
    /// What the request cost server-side.
    pub fn metrics(&self) -> WireMetrics {
        self.metrics
    }

    /// Zero-row table carrying the result schema (available before any
    /// batch arrives).
    pub fn schema(&self) -> &Table {
        &self.schema
    }

    /// Batches consumed so far.
    pub fn batches(&self) -> u32 {
        self.batches
    }

    /// Rows consumed so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// True once the stream ended because of [`QueryStream::cancel`] (or
    /// a server-side cancellation), not exhaustion.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Pull the next batch, granting the server one credit for it.
    /// `Ok(None)` once the stream is exhausted (or was cancelled).
    pub fn next_batch(&mut self) -> Result<Option<Table>, ClientError> {
        if self.done {
            return Ok(None);
        }
        match self.client.recv()? {
            Frame::ResultBatch {
                cursor, table, seq, ..
            } if cursor == self.cursor => {
                debug_assert_eq!(seq, self.batches, "batch sequence gap");
                self.batches += 1;
                self.rows += table.num_rows() as u64;
                // Credit *after* receiving: the grant is the signal that
                // this consumer is keeping up.
                self.client.send(&Frame::Credit { cursor, n: 1 })?;
                let table = Arc::try_unwrap(table).unwrap_or_else(|shared| (*shared).clone());
                Ok(Some(table))
            }
            Frame::ResultEnd {
                cursor, cancelled, ..
            } if cursor == self.cursor => {
                self.done = true;
                self.cancelled = cancelled;
                Ok(None)
            }
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Collect every remaining batch into one table (plus the schema
    /// when the result is empty).
    pub fn collect_table(&mut self) -> Result<Table, ClientError> {
        let mut out = self.schema.clone();
        while let Some(batch) = self.next_batch()? {
            out.append_table(&batch)
                .map_err(|e| ClientError::Unexpected(format!("batch append: {e}")))?;
        }
        Ok(out)
    }

    /// Cancel the cursor and synchronously drain to the server's
    /// acknowledgement. Idempotent; a no-op once the stream ended.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        if self.done {
            return Ok(());
        }
        self.client.send(&Frame::Cancel {
            cursor: self.cursor,
        })?;
        loop {
            match self.client.recv()? {
                Frame::ResultBatch { cursor, .. } if cursor == self.cursor => {
                    // In-flight batches sent before the cancel landed.
                }
                Frame::ResultEnd {
                    cursor, cancelled, ..
                } if cursor == self.cursor => {
                    self.done = true;
                    self.cancelled = cancelled;
                    return Ok(());
                }
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
    }
}

impl Drop for QueryStream<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Best-effort abort; the tail (in-flight batches + the cancel
        // acknowledgement) is drained lazily by the next request on this
        // connection.
        if self
            .client
            .send(&Frame::Cancel {
                cursor: self.cursor,
            })
            .is_ok()
        {
            self.client.pending_drain = Some(self.cursor);
        }
    }
}

impl Iterator for QueryStream<'_> {
    type Item = Result<Table, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_batch().transpose()
    }
}

/// A live-tail subscription ([`Client::subscribe`]): a long-lived cursor
/// whose result is re-pushed as a fresh revision every time the server's
/// warehouse generation moves. Each revision streams as credit-gated
/// batches (same flow control as [`QueryStream`]) and ends with a
/// `SubUpdate` boundary frame instead of `ResultEnd` — the cursor
/// survives until [`Subscription::cancel`], drop, or server drain.
pub struct Subscription<'a> {
    client: &'a mut Client,
    cursor: u32,
    metrics: WireMetrics,
    schema: Table,
    updates: u32,
    done: bool,
}

impl Subscription<'_> {
    /// What the *initial* query cost server-side.
    pub fn metrics(&self) -> WireMetrics {
        self.metrics
    }

    /// Zero-row table carrying the result schema.
    pub fn schema(&self) -> &Table {
        &self.schema
    }

    /// Revisions received so far (the initial snapshot counts as one).
    pub fn updates(&self) -> u32 {
        self.updates
    }

    /// Block until the next full result revision arrives, granting the
    /// server one credit per consumed batch. The first call returns the
    /// initial snapshot; later calls block until a refresh changes the
    /// warehouse generation and the server pushes the updated result.
    /// `Ok(None)` once the subscription ended (cancelled or server
    /// drain).
    pub fn next_update(&mut self) -> Result<Option<Table>, ClientError> {
        if self.done {
            return Ok(None);
        }
        let mut out = self.schema.clone();
        loop {
            match self.client.recv()? {
                Frame::ResultBatch { cursor, table, .. } if cursor == self.cursor => {
                    // Credit *after* receiving — the keeping-up signal.
                    self.client.send(&Frame::Credit { cursor, n: 1 })?;
                    out.append_table(&table)
                        .map_err(|e| ClientError::Unexpected(format!("batch append: {e}")))?;
                }
                Frame::SubUpdate { cursor, .. } if cursor == self.cursor => {
                    self.updates += 1;
                    return Ok(Some(out));
                }
                Frame::ResultEnd { cursor, .. } if cursor == self.cursor => {
                    self.done = true;
                    return Ok(None);
                }
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
    }

    /// Cancel the subscription and synchronously drain to the server's
    /// acknowledgement — in-flight revision batches and `SubUpdate`
    /// boundaries are discarded. Idempotent; a no-op once ended.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        if self.done {
            return Ok(());
        }
        self.client.send(&Frame::Cancel {
            cursor: self.cursor,
        })?;
        loop {
            match self.client.recv()? {
                Frame::ResultBatch { cursor, .. } if cursor == self.cursor => {}
                Frame::SubUpdate { cursor, .. } if cursor == self.cursor => {}
                Frame::ResultEnd { cursor, .. } if cursor == self.cursor => {
                    self.done = true;
                    return Ok(());
                }
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
    }
}

impl Drop for Subscription<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Best-effort abort; the tail is drained lazily by the next
        // request on this connection (drain_pending skips SubUpdate).
        if self
            .client
            .send(&Frame::Cancel {
                cursor: self.cursor,
            })
            .is_ok()
        {
            self.client.pending_drain = Some(self.cursor);
        }
    }
}
