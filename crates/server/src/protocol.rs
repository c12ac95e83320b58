//! The wire protocol: length-prefixed, versioned, typed frames carrying
//! credit-gated result cursors and live-tail subscriptions.
//!
//! Every frame on the wire is one header plus one payload:
//!
//! ```text
//! +----------+---------+--------+----------------+=================+
//! | magic    | version | type   | payload length |     payload     |
//! | u16 (BE) | u8      | u8     | u32 (BE)       | `length` bytes  |
//! +----------+---------+--------+----------------+=================+
//!   0x4C5A       3       see below                 frame-specific
//! ```
//!
//! The magic (`"LZ"`) and the version byte are checked on **every**
//! frame, so a desynchronized, foreign or out-of-date peer is detected at
//! the first header. There is exactly one protocol revision: every frame
//! is stamped [`VERSION`], and a header carrying anything else is
//! [`ProtoError::BadVersion`] (stable code `proto.version`). Payloads
//! above the receiver's size limit are rejected before any allocation
//! ([`ProtoError::Oversize`], stable code `proto.oversize`) — **on both
//! sides**: the server guards its request cap, the client guards its
//! response cap, and [`frame_bytes_checked`] lets a sender refuse to emit
//! an oversized frame locally instead of surfacing a raw I/O error after
//! the peer slams the connection.
//!
//! # Frame types
//!
//! | type | frame          | dir   | payload |
//! |------|----------------|-------|---------|
//! | 0x01 | *reserved*             |       | retired whole-frame query; decodes to [`ProtoError::BadType`] |
//! | 0x02 | *reserved*             |       | retired whole-frame result; decodes to [`ProtoError::BadType`] |
//! | 0x03 | [`Frame::Error`]       | s → c | `u16` code len + code, `u32` message len + message |
//! | 0x04 | [`Frame::Busy`]        | s → c | `u32` queue depth, `u32` queued, `u64` estimated rows, `u64` cost budget |
//! | 0x05 | [`Frame::Stats`]       | c → s | empty |
//! | 0x06 | [`Frame::StatsReply`]  | s → c | utf-8 `key=value` lines |
//! | 0x07 | [`Frame::Ping`]        | c → s | empty |
//! | 0x08 | [`Frame::Pong`]        | s → c | empty |
//! | 0x09 | [`Frame::Shutdown`]    | c → s | empty (graceful shutdown request) |
//! | 0x0A | [`Frame::ShutdownAck`] | s → c | empty |
//! | 0x0B | [`Frame::Hello`]       | c → s | `u8` highest protocol version the client speaks |
//! | 0x0C | [`Frame::HelloAck`]    | s → c | `u8` protocol version, `u32` batch rows, `u32` initial credit |
//! | 0x0D | [`Frame::QueryV2`]     | c → s | `u32` cursor id, `u32` delay_ms, `u8` flags (reserved), SQL utf-8 |
//! | 0x0E | [`Frame::ResultStart`] | s → c | `u32` cursor, [`WireMetrics`] (49 bytes), then an **empty** table carrying the result schema |
//! | 0x0F | [`Frame::ResultBatch`] | s → c | `u32` cursor, `u32` seq, then one record batch in the `lazyetl-store` stream format |
//! | 0x10 | [`Frame::ResultEnd`]   | s → c | `u32` cursor, `u32` batches, `u64` rows, `u8` cancelled |
//! | 0x11 | [`Frame::Credit`]      | c → s | `u32` cursor, `u32` batches granted |
//! | 0x12 | [`Frame::Cancel`]      | c → s | `u32` cursor |
//! | 0x13 | [`Frame::Subscribe`]   | c → s | `u32` cursor id, SQL utf-8 |
//! | 0x14 | [`Frame::SubUpdate`]   | s → c | `u32` cursor, `u32` update seq, `u64` rows in this revision |
//!
//! All integers are big-endian. Both [`crate::server`] and
//! [`crate::client`] use the same encode/decode pair; direction is a
//! convention, not a mechanism. Type bytes `0x01`/`0x02` belonged to a
//! retired whole-frame query/result pair and are never reassigned.
//!
//! # The cursor lifecycle
//!
//! A client opens with `Hello`; the server's `HelloAck` announces the
//! streaming parameters (rows per batch, initial credit) every cursor on
//! the connection will use. A `QueryV2` carries a **client-chosen cursor
//! id**; the server answers with exactly one of `Busy`, `Error`, or a
//! `ResultStart` followed by zero or more `ResultBatch` frames and one
//! `ResultEnd`. Batches only flow while the cursor has **credit**: the
//! server spends one credit per batch, the client replenishes with
//! `Credit` as it consumes. A stalled reader therefore suspends its
//! cursor server-side instead of forcing the server to buffer the encoded
//! result — server memory per connection is bounded by the
//! outbound-buffer ceiling, not by result size. `Cancel` ends a cursor
//! early; the server acknowledges with a `ResultEnd` whose `cancelled`
//! flag is set (a cancel can race the natural end of stream — a
//! non-cancelled `ResultEnd` for the same cursor is the benign outcome of
//! that race).
//!
//! # Live-tail subscriptions
//!
//! `Subscribe` opens a **long-lived cursor**. The server answers exactly
//! like a streamed query — `ResultStart` then credit-gated `ResultBatch`
//! frames — but ends each result *revision* with a [`Frame::SubUpdate`]
//! instead of `ResultEnd`, and keeps the cursor open. Whenever a
//! warehouse refresh lands (and the result recycler patched or recomputed
//! the underlying result — see `lazyetl_core::qcache`), the server
//! re-runs the subscription — an O(delta) recycler hit in the common
//! insert-only case — and pushes the updated result as another run of
//! `ResultBatch` frames closed by the next `SubUpdate`. Credit,
//! backpressure and `Cancel` are exactly the query-cursor machinery: a
//! subscriber that stops reading suspends its subscription server-side,
//! and `Cancel` (or connection close, or server drain) ends it with a
//! cancelled `ResultEnd`.
//!
//! Error frames carry a **stable machine-readable code** (see
//! [`lazyetl_core::EtlError::code`] for warehouse errors and the
//! `proto.*` / `server.*` families defined by the serving layer) plus the
//! rendered human message. Clients dispatch on the code.

use lazyetl_store::persist::{read_table, write_table};
use lazyetl_store::Table;
use std::io::Read;
use std::sync::Arc;

/// `"LZ"` — first two bytes of every frame.
pub const MAGIC: u16 = 0x4C5A;
/// The protocol version, stamped on every frame and required of every
/// frame received. Revisions 1 and 2 are retired: a peer still stamping
/// them fails at its first header with `proto.version` instead of being
/// half-understood.
pub const VERSION: u8 = 3;
/// Bytes before the payload: magic + version + type + length.
pub const HEADER_LEN: usize = 8;
/// Default cap on a *request* payload accepted by the server — and, since
/// the cap is symmetric, the default cap a [`crate::client::Client`]
/// enforces on its own outgoing requests.
pub const DEFAULT_MAX_REQUEST: u32 = 1 << 20;
/// Default cap on a *response* payload accepted by the client.
pub const DEFAULT_MAX_RESPONSE: u32 = 256 << 20;

// 0x01 and 0x02 are reserved (see the module docs): never reassign them.
const TYPE_ERROR: u8 = 0x03;
const TYPE_BUSY: u8 = 0x04;
const TYPE_STATS: u8 = 0x05;
const TYPE_STATS_REPLY: u8 = 0x06;
const TYPE_PING: u8 = 0x07;
const TYPE_PONG: u8 = 0x08;
const TYPE_SHUTDOWN: u8 = 0x09;
const TYPE_SHUTDOWN_ACK: u8 = 0x0A;
const TYPE_HELLO: u8 = 0x0B;
const TYPE_HELLO_ACK: u8 = 0x0C;
const TYPE_QUERY_V2: u8 = 0x0D;
const TYPE_RESULT_START: u8 = 0x0E;
const TYPE_RESULT_BATCH: u8 = 0x0F;
const TYPE_RESULT_END: u8 = 0x10;
const TYPE_CREDIT: u8 = 0x11;
const TYPE_CANCEL: u8 = 0x12;
const TYPE_SUBSCRIBE: u8 = 0x13;
const TYPE_SUB_UPDATE: u8 = 0x14;

/// Per-request serving metrics, returned inside every `ResultStart` so
/// clients see what their query cost without a second round trip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Time the request waited in the admission queue.
    pub queue_wait_us: u64,
    /// Warehouse execution time (lazy extraction included).
    pub exec_us: u64,
    /// Result rows.
    pub rows: u64,
    /// Records decoded for this query.
    pub records_extracted: u64,
    /// Record-cache hits for this query.
    pub cache_hits: u64,
    /// Record-cache misses for this query.
    pub cache_misses: u64,
    /// Whole result served by the result recycler.
    pub result_recycled: bool,
}

const METRICS_LEN: usize = 6 * 8 + 1;

impl WireMetrics {
    /// Cache hit rate of this request (0 when it touched no records).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.queue_wait_us,
            self.exec_us,
            self.rows,
            self.records_extracted,
            self.cache_hits,
            self.cache_misses,
        ] {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.push(self.result_recycled as u8);
    }

    fn decode(bytes: &[u8]) -> Result<WireMetrics, ProtoError> {
        if bytes.len() < METRICS_LEN {
            return Err(ProtoError::Malformed("result frame too short".into()));
        }
        let u = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            u64::from_be_bytes(b)
        };
        Ok(WireMetrics {
            queue_wait_us: u(0),
            exec_us: u(1),
            rows: u(2),
            records_extracted: u(3),
            cache_hits: u(4),
            cache_misses: u(5),
            result_recycled: bytes[48] != 0,
        })
    }
}

/// One protocol frame (see the module docs for the wire layout).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A failure with a stable machine-readable code.
    Error {
        /// e.g. `query.parse`, `etl.internal`, `proto.oversize`.
        code: String,
        /// Rendered human-readable message.
        message: String,
    },
    /// Backpressure: admission control rejected the query; retry later.
    /// The estimate fields are meaningful when the server has cost-based
    /// admission configured (0 = unknown/not costed) — they let a client
    /// back off proportionally to how expensive its query looked, instead
    /// of blind fixed backoff.
    Busy {
        /// The configured queue depth.
        queue_depth: u32,
        /// Jobs queued when the request was rejected.
        queued: u32,
        /// The planner's row estimate for the rejected query (0 = not
        /// estimated).
        estimated_rows: u64,
        /// The server's configured admission cost budget in estimated
        /// rows (0 = queue-depth-only admission).
        cost_budget: u64,
    },
    /// Request the server's stats snapshot.
    Stats,
    /// Stats snapshot as utf-8 `key=value` lines.
    StatsReply {
        /// One `key=value` per line, keys stable once published.
        text: String,
    },
    /// Liveness probe.
    Ping,
    /// Liveness answer.
    Pong,
    /// Ask the server to drain in-flight queries, snapshot and exit.
    Shutdown,
    /// Shutdown acknowledged; the connection closes after this frame.
    ShutdownAck,
    /// The first frame a client sends, asking for the streaming
    /// parameters. Version agreement is the header's job — this frame,
    /// like any other, only decodes when stamped [`VERSION`] — so neither
    /// peer acts on the version byte in this payload or in `HelloAck`'s;
    /// both keep their place in the layout.
    Hello {
        /// Highest protocol version the client speaks.
        max_version: u8,
    },
    /// The server's answer to `Hello`: the streaming parameters every
    /// cursor on this connection will use.
    HelloAck {
        /// The server's protocol version.
        version: u8,
        /// Rows per `ResultBatch` frame.
        batch_rows: u32,
        /// Batches the server will send per cursor before waiting for
        /// `Credit`.
        initial_credit: u32,
    },
    /// Run a SQL query, opening a streamed cursor. `delay_ms` adds
    /// server-side think time before execution — the load-generation /
    /// admission-control test knob (the server clamps it to a few
    /// seconds; it is not a scheduler).
    QueryV2 {
        /// Client-chosen cursor id (unique among this connection's live
        /// cursors).
        cursor: u32,
        /// Milliseconds the worker sleeps before executing (0 = none).
        delay_ms: u32,
        /// The SQL text.
        sql: String,
    },
    /// The cursor opened: metrics plus an **empty** table carrying the
    /// result schema (so a zero-row result still tells the client its
    /// shape, and a collecting client has something to append into).
    ResultStart {
        /// The cursor this stream belongs to.
        cursor: u32,
        /// What the request cost.
        metrics: WireMetrics,
        /// Zero-row table with the result schema.
        schema: Arc<Table>,
    },
    /// One record batch of a streamed result. The table is behind an
    /// `Arc` so the server encodes straight from a slice of the
    /// warehouse's (possibly cached/recycled) result without copying it.
    ResultBatch {
        /// The cursor this batch belongs to.
        cursor: u32,
        /// Batch sequence number, 0-based.
        seq: u32,
        /// The rows.
        table: Arc<Table>,
    },
    /// End of a streamed result (or the acknowledgement of a `Cancel`).
    ResultEnd {
        /// The cursor that ended.
        cursor: u32,
        /// Batches streamed before the end.
        batches: u32,
        /// Total rows streamed.
        rows: u64,
        /// True when the stream ended because of a `Cancel` (or the
        /// connection began closing), not because it was exhausted.
        cancelled: bool,
    },
    /// Flow control: grant the server `n` more batches on a cursor.
    Credit {
        /// The cursor being replenished.
        cursor: u32,
        /// Additional batches the server may send.
        n: u32,
    },
    /// Abort a cursor. The server frees it (and skips the query if it is
    /// still queued) and answers with a cancelled `ResultEnd`.
    Cancel {
        /// The cursor to abort.
        cursor: u32,
    },
    /// Open a long-lived subscription cursor: the server streams the
    /// current result, then pushes an updated result run whenever a
    /// warehouse refresh changes it, each revision closed by a
    /// [`Frame::SubUpdate`]. Ended by `Cancel` / connection close / drain.
    Subscribe {
        /// Client-chosen cursor id (same id space as `QueryV2` cursors).
        cursor: u32,
        /// The SQL text the subscription tails.
        sql: String,
    },
    /// End of one pushed result revision on a subscription cursor. The
    /// cursor stays open; the next revision starts with the next
    /// `ResultBatch`.
    SubUpdate {
        /// The subscription cursor.
        cursor: u32,
        /// Revision sequence number, 0-based (0 = the initial result).
        update: u32,
        /// Rows in this revision (the full refreshed result, not a diff).
        rows: u64,
    },
}

/// Protocol-level failures (distinct from in-band [`Frame::Error`]s).
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure (includes clean EOF as `UnexpectedEof`).
    Io(std::io::Error),
    /// First two bytes were not [`MAGIC`] — peer out of sync or foreign.
    BadMagic(u16),
    /// Version byte other than [`VERSION`].
    BadVersion(u8),
    /// Unknown frame type byte.
    BadType(u8),
    /// Declared payload length exceeds the receiver's limit — or, on the
    /// send side, the frame a caller asked to emit exceeds the limit it
    /// configured for itself.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The receiver's (or sender's) limit.
        max: u32,
    },
    /// Payload did not decode as the declared frame type.
    Malformed(String),
}

impl ProtoError {
    /// Stable machine-readable code (what the server puts in the error
    /// frame it sends back before closing the connection, and what
    /// [`crate::client::ClientError::code`] reports for local failures).
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Io(_) => "proto.io",
            ProtoError::BadMagic(_) => "proto.magic",
            ProtoError::BadVersion(_) => "proto.version",
            ProtoError::BadType(_) => "proto.type",
            ProtoError::Oversize { .. } => "proto.oversize",
            ProtoError::Malformed(_) => "proto.malformed",
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::Oversize { len, max } => {
                write!(f, "payload of {len} bytes exceeds limit {max}")
            }
            ProtoError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

fn type_byte(frame: &Frame) -> u8 {
    match frame {
        Frame::Error { .. } => TYPE_ERROR,
        Frame::Busy { .. } => TYPE_BUSY,
        Frame::Stats => TYPE_STATS,
        Frame::StatsReply { .. } => TYPE_STATS_REPLY,
        Frame::Ping => TYPE_PING,
        Frame::Pong => TYPE_PONG,
        Frame::Shutdown => TYPE_SHUTDOWN,
        Frame::ShutdownAck => TYPE_SHUTDOWN_ACK,
        Frame::Hello { .. } => TYPE_HELLO,
        Frame::HelloAck { .. } => TYPE_HELLO_ACK,
        Frame::QueryV2 { .. } => TYPE_QUERY_V2,
        Frame::ResultStart { .. } => TYPE_RESULT_START,
        Frame::ResultBatch { .. } => TYPE_RESULT_BATCH,
        Frame::ResultEnd { .. } => TYPE_RESULT_END,
        Frame::Credit { .. } => TYPE_CREDIT,
        Frame::Cancel { .. } => TYPE_CANCEL,
        Frame::Subscribe { .. } => TYPE_SUBSCRIBE,
        Frame::SubUpdate { .. } => TYPE_SUB_UPDATE,
    }
}

/// Serialize a frame to its full wire representation (header included).
pub fn frame_bytes(frame: &Frame) -> Result<Vec<u8>, ProtoError> {
    let mut payload = Vec::new();
    match frame {
        Frame::Error { code, message } => {
            payload.extend_from_slice(&(code.len() as u16).to_be_bytes());
            payload.extend_from_slice(code.as_bytes());
            payload.extend_from_slice(&(message.len() as u32).to_be_bytes());
            payload.extend_from_slice(message.as_bytes());
        }
        Frame::Busy {
            queue_depth,
            queued,
            estimated_rows,
            cost_budget,
        } => {
            payload.extend_from_slice(&queue_depth.to_be_bytes());
            payload.extend_from_slice(&queued.to_be_bytes());
            payload.extend_from_slice(&estimated_rows.to_be_bytes());
            payload.extend_from_slice(&cost_budget.to_be_bytes());
        }
        Frame::StatsReply { text } => payload.extend_from_slice(text.as_bytes()),
        Frame::Hello { max_version } => payload.push(*max_version),
        Frame::HelloAck {
            version,
            batch_rows,
            initial_credit,
        } => {
            payload.push(*version);
            payload.extend_from_slice(&batch_rows.to_be_bytes());
            payload.extend_from_slice(&initial_credit.to_be_bytes());
        }
        Frame::QueryV2 {
            cursor,
            delay_ms,
            sql,
        } => {
            payload.extend_from_slice(&cursor.to_be_bytes());
            payload.extend_from_slice(&delay_ms.to_be_bytes());
            payload.push(0); // flags, reserved
            payload.extend_from_slice(sql.as_bytes());
        }
        Frame::ResultStart {
            cursor,
            metrics,
            schema,
        } => {
            payload.extend_from_slice(&cursor.to_be_bytes());
            metrics.encode_into(&mut payload);
            write_table(schema, &mut payload)
                .map_err(|e| ProtoError::Malformed(format!("schema encode: {e}")))?;
        }
        Frame::ResultBatch { cursor, seq, table } => {
            payload.extend_from_slice(&cursor.to_be_bytes());
            payload.extend_from_slice(&seq.to_be_bytes());
            write_table(table, &mut payload)
                .map_err(|e| ProtoError::Malformed(format!("batch encode: {e}")))?;
        }
        Frame::ResultEnd {
            cursor,
            batches,
            rows,
            cancelled,
        } => {
            payload.extend_from_slice(&cursor.to_be_bytes());
            payload.extend_from_slice(&batches.to_be_bytes());
            payload.extend_from_slice(&rows.to_be_bytes());
            payload.push(*cancelled as u8);
        }
        Frame::Credit { cursor, n } => {
            payload.extend_from_slice(&cursor.to_be_bytes());
            payload.extend_from_slice(&n.to_be_bytes());
        }
        Frame::Cancel { cursor } => payload.extend_from_slice(&cursor.to_be_bytes()),
        Frame::Subscribe { cursor, sql } => {
            payload.extend_from_slice(&cursor.to_be_bytes());
            payload.extend_from_slice(sql.as_bytes());
        }
        Frame::SubUpdate {
            cursor,
            update,
            rows,
        } => {
            payload.extend_from_slice(&cursor.to_be_bytes());
            payload.extend_from_slice(&update.to_be_bytes());
            payload.extend_from_slice(&rows.to_be_bytes());
        }
        Frame::Stats | Frame::Ping | Frame::Pong | Frame::Shutdown | Frame::ShutdownAck => {}
    }
    // The length field is u32; a larger payload must fail loudly here,
    // not wrap and desynchronize the peer.
    let len = u32::try_from(payload.len()).map_err(|_| ProtoError::Oversize {
        len: u32::MAX,
        max: u32::MAX,
    })?;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION);
    out.push(type_byte(frame));
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Like [`frame_bytes`], but refuse to build a frame whose payload
/// exceeds `max_payload` — the **sender-side** half of the size cap, so
/// an oversized request fails locally with the stable `proto.oversize`
/// code instead of as a raw I/O error when the receiver closes the
/// connection.
pub fn frame_bytes_checked(frame: &Frame, max_payload: u32) -> Result<Vec<u8>, ProtoError> {
    let bytes = frame_bytes(frame)?;
    let len = (bytes.len() - HEADER_LEN) as u32;
    if len > max_payload {
        return Err(ProtoError::Oversize {
            len,
            max: max_payload,
        });
    }
    Ok(bytes)
}

fn str_from(bytes: &[u8], what: &str) -> Result<String, ProtoError> {
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ProtoError::Malformed(format!("{what} is not utf-8")))
}

fn u32_at(payload: &[u8], off: usize, what: &str) -> Result<u32, ProtoError> {
    payload
        .get(off..off + 4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or_else(|| ProtoError::Malformed(format!("{what} frame too short")))
}

fn u64_at(payload: &[u8], off: usize, what: &str) -> Result<u64, ProtoError> {
    payload
        .get(off..off + 8)
        .map(|b| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_be_bytes(a)
        })
        .ok_or_else(|| ProtoError::Malformed(format!("{what} frame too short")))
}

/// Decode one payload of the given frame type. Shared by the blocking
/// reader ([`read_frame`]) and the incremental parser ([`decode_frame`]).
fn decode_payload(ftype: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    match ftype {
        TYPE_ERROR => {
            if payload.len() < 2 {
                return Err(ProtoError::Malformed("error frame too short".into()));
            }
            let code_len = u16::from_be_bytes([payload[0], payload[1]]) as usize;
            if payload.len() < 2 + code_len + 4 {
                return Err(ProtoError::Malformed("error frame truncated".into()));
            }
            let code = str_from(&payload[2..2 + code_len], "error code")?;
            let off = 2 + code_len;
            let msg_len = u32_at(payload, off, "error")? as usize;
            if payload.len() < off + 4 + msg_len {
                return Err(ProtoError::Malformed("error message truncated".into()));
            }
            let message = str_from(&payload[off + 4..off + 4 + msg_len], "error message")?;
            Ok(Frame::Error { code, message })
        }
        TYPE_BUSY => Ok(Frame::Busy {
            queue_depth: u32_at(payload, 0, "busy")?,
            queued: u32_at(payload, 4, "busy")?,
            estimated_rows: u64_at(payload, 8, "busy")?,
            cost_budget: u64_at(payload, 16, "busy")?,
        }),
        TYPE_STATS => Ok(Frame::Stats),
        TYPE_STATS_REPLY => Ok(Frame::StatsReply {
            text: str_from(payload, "stats")?,
        }),
        TYPE_PING => Ok(Frame::Ping),
        TYPE_PONG => Ok(Frame::Pong),
        TYPE_SHUTDOWN => Ok(Frame::Shutdown),
        TYPE_SHUTDOWN_ACK => Ok(Frame::ShutdownAck),
        TYPE_HELLO => {
            let max_version = *payload
                .first()
                .ok_or_else(|| ProtoError::Malformed("hello frame too short".into()))?;
            Ok(Frame::Hello { max_version })
        }
        TYPE_HELLO_ACK => {
            if payload.len() < 9 {
                return Err(ProtoError::Malformed("hello-ack frame too short".into()));
            }
            Ok(Frame::HelloAck {
                version: payload[0],
                batch_rows: u32_at(payload, 1, "hello-ack")?,
                initial_credit: u32_at(payload, 5, "hello-ack")?,
            })
        }
        TYPE_QUERY_V2 => {
            if payload.len() < 9 {
                return Err(ProtoError::Malformed("query-v2 frame too short".into()));
            }
            let cursor = u32_at(payload, 0, "query-v2")?;
            let delay_ms = u32_at(payload, 4, "query-v2")?;
            // payload[8] is the reserved flags byte.
            let sql = str_from(&payload[9..], "sql")?;
            Ok(Frame::QueryV2 {
                cursor,
                delay_ms,
                sql,
            })
        }
        TYPE_RESULT_START => {
            if payload.len() < 4 + METRICS_LEN {
                return Err(ProtoError::Malformed("result-start frame too short".into()));
            }
            let cursor = u32_at(payload, 0, "result-start")?;
            let metrics = WireMetrics::decode(&payload[4..])?;
            let mut rest = &payload[4 + METRICS_LEN..];
            let schema = read_table(&mut rest)
                .map_err(|e| ProtoError::Malformed(format!("schema decode: {e}")))?;
            Ok(Frame::ResultStart {
                cursor,
                metrics,
                schema: Arc::new(schema),
            })
        }
        TYPE_RESULT_BATCH => {
            if payload.len() < 8 {
                return Err(ProtoError::Malformed("result-batch frame too short".into()));
            }
            let cursor = u32_at(payload, 0, "result-batch")?;
            let seq = u32_at(payload, 4, "result-batch")?;
            let mut rest = &payload[8..];
            let table = read_table(&mut rest)
                .map_err(|e| ProtoError::Malformed(format!("batch decode: {e}")))?;
            Ok(Frame::ResultBatch {
                cursor,
                seq,
                table: Arc::new(table),
            })
        }
        TYPE_RESULT_END => {
            if payload.len() < 17 {
                return Err(ProtoError::Malformed("result-end frame too short".into()));
            }
            Ok(Frame::ResultEnd {
                cursor: u32_at(payload, 0, "result-end")?,
                batches: u32_at(payload, 4, "result-end")?,
                rows: u64_at(payload, 8, "result-end")?,
                cancelled: payload[16] != 0,
            })
        }
        TYPE_CREDIT => Ok(Frame::Credit {
            cursor: u32_at(payload, 0, "credit")?,
            n: u32_at(payload, 4, "credit")?,
        }),
        TYPE_CANCEL => Ok(Frame::Cancel {
            cursor: u32_at(payload, 0, "cancel")?,
        }),
        TYPE_SUBSCRIBE => {
            if payload.len() < 4 {
                return Err(ProtoError::Malformed("subscribe frame too short".into()));
            }
            Ok(Frame::Subscribe {
                cursor: u32_at(payload, 0, "subscribe")?,
                sql: str_from(&payload[4..], "sql")?,
            })
        }
        TYPE_SUB_UPDATE => Ok(Frame::SubUpdate {
            cursor: u32_at(payload, 0, "sub-update")?,
            update: u32_at(payload, 4, "sub-update")?,
            rows: u64_at(payload, 8, "sub-update")?,
        }),
        other => Err(ProtoError::BadType(other)),
    }
}

/// Validate a header's magic + version and extract (type, payload len).
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32), ProtoError> {
    let magic = u16::from_be_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    if header[2] != VERSION {
        return Err(ProtoError::BadVersion(header[2]));
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    Ok((header[3], len))
}

/// Read one frame from a blocking stream, enforcing `max_payload`
/// **before** allocating.
pub fn read_frame<R: Read>(r: &mut R, max_payload: u32) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (ftype, len) = parse_header(&header)?;
    if len > max_payload {
        return Err(ProtoError::Oversize {
            len,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_payload(ftype, &payload)
}

/// Incrementally decode one frame from the front of `buf` (the
/// event-driven server's per-connection read buffer).
///
/// Returns `Ok(None)` while the buffer holds only part of a frame,
/// `Ok(Some((frame, consumed)))` once a whole frame is available (the
/// caller drains `consumed` bytes), or an error the moment the *header*
/// is provably bad — a hostile length field is rejected from 8 buffered
/// bytes, before any payload accumulates.
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<Option<(Frame, usize)>, ProtoError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (ftype, len) = parse_header(&header)?;
    if len > max_payload {
        return Err(ProtoError::Oversize {
            len,
            max: max_payload,
        });
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let frame = decode_payload(ftype, &buf[HEADER_LEN..total])?;
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_store::{Column, DataType, Field, Schema, Value};

    fn roundtrip(frame: Frame) -> Frame {
        let bytes = frame_bytes(&frame).unwrap();
        read_frame(&mut bytes.as_slice(), DEFAULT_MAX_RESPONSE).unwrap()
    }

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("station", DataType::Utf8),
            Field::nullable("value", DataType::Float64),
        ])
        .unwrap();
        let cols = vec![
            Column::from_values(
                DataType::Utf8,
                &[Value::Utf8("HGN".into()), Value::Utf8("ISK".into())],
            )
            .unwrap(),
            Column::from_values(DataType::Float64, &[Value::Float64(1.5), Value::Null]).unwrap(),
        ];
        Table::new(schema, cols).unwrap()
    }

    fn sample_metrics() -> WireMetrics {
        WireMetrics {
            queue_wait_us: 1,
            exec_us: 2,
            rows: 2,
            records_extracted: 3,
            cache_hits: 4,
            cache_misses: 5,
            result_recycled: true,
        }
    }

    #[test]
    fn every_frame_type_roundtrips() {
        let frames = vec![
            Frame::Error {
                code: "query.parse".into(),
                message: "boom".into(),
            },
            Frame::Busy {
                queue_depth: 4,
                queued: 4,
                estimated_rows: 1_000_000,
                cost_budget: 50_000,
            },
            Frame::Stats,
            Frame::StatsReply {
                text: "a=1\nb=2\n".into(),
            },
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::ShutdownAck,
            Frame::Hello {
                max_version: VERSION,
            },
            Frame::HelloAck {
                version: VERSION,
                batch_rows: 4096,
                initial_credit: 4,
            },
            Frame::QueryV2 {
                cursor: 7,
                delay_ms: 25,
                sql: "SELECT 1".into(),
            },
            Frame::ResultStart {
                cursor: 7,
                metrics: sample_metrics(),
                // Table::empty is the canonical wire form: the encoder drops
                // all-valid validity bitmaps, so a `Some([])` validity from
                // `slice(0, 0)` would not round-trip bit-identically.
                schema: Arc::new(Table::empty(sample_table().schema.clone())),
            },
            Frame::ResultBatch {
                cursor: 7,
                seq: 3,
                table: Arc::new(sample_table()),
            },
            Frame::ResultEnd {
                cursor: 7,
                batches: 4,
                rows: 8192,
                cancelled: true,
            },
            Frame::Credit { cursor: 7, n: 2 },
            Frame::Cancel { cursor: 7 },
            Frame::Subscribe {
                cursor: 9,
                sql: "SELECT COUNT(*) FROM mseed.records".into(),
            },
            Frame::SubUpdate {
                cursor: 9,
                update: 4,
                rows: 123_456,
            },
        ];
        for f in frames {
            assert_eq!(roundtrip(f.clone()), f);
        }
    }

    /// Header + payload for a frame type the encoder may not produce.
    fn raw_frame(ftype: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_be_bytes());
        bytes.push(VERSION);
        bytes.push(ftype);
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn every_frame_is_stamped_with_the_one_version() {
        for f in [
            Frame::Ping,
            Frame::Cancel { cursor: 1 },
            Frame::SubUpdate {
                cursor: 1,
                update: 0,
                rows: 0,
            },
        ] {
            assert_eq!(frame_bytes(&f).unwrap()[2], VERSION);
        }
        // The retired revisions (and anything newer) fail at the header.
        for v in [0, 1, 2, VERSION + 1] {
            let mut bytes = frame_bytes(&Frame::Ping).unwrap();
            bytes[2] = v;
            assert!(matches!(
                read_frame(&mut bytes.as_slice(), 1024),
                Err(ProtoError::BadVersion(got)) if got == v
            ));
        }
    }

    #[test]
    fn retired_type_bytes_stay_reserved() {
        // A well-formed whole-frame query payload under type 0x01, and any
        // payload under 0x02, are unknown types — never half-decoded.
        let mut query = vec![0, 0, 0, 0, 0];
        query.extend_from_slice(b"SELECT 1");
        for bytes in [raw_frame(0x01, &query), raw_frame(0x02, &[0; 64])] {
            let ftype = bytes[3];
            assert!(matches!(
                read_frame(&mut bytes.as_slice(), 1024),
                Err(ProtoError::BadType(t)) if t == ftype
            ));
        }
    }

    #[test]
    fn fixed_layout_payloads_must_be_complete() {
        // Every strict prefix of a fixed-layout payload is malformed —
        // including a Busy carrying depth + queued but no estimates
        // (never zero-filled).
        for frame in [
            Frame::Busy {
                queue_depth: 3,
                queued: 2,
                estimated_rows: 7,
                cost_budget: 9,
            },
            Frame::HelloAck {
                version: VERSION,
                batch_rows: 4096,
                initial_credit: 4,
            },
            Frame::ResultEnd {
                cursor: 7,
                batches: 4,
                rows: 8192,
                cancelled: false,
            },
            Frame::Credit { cursor: 7, n: 2 },
            Frame::Cancel { cursor: 7 },
            Frame::SubUpdate {
                cursor: 9,
                update: 4,
                rows: 123_456,
            },
        ] {
            let full = frame_bytes(&frame).unwrap();
            for len in 0..full.len() - HEADER_LEN {
                let short = raw_frame(full[3], &full[HEADER_LEN..HEADER_LEN + len]);
                assert!(
                    matches!(
                        read_frame(&mut short.as_slice(), 1024),
                        Err(ProtoError::Malformed(_))
                    ),
                    "{len}-byte payload of {frame:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_decode_handles_partial_and_concatenated_frames() {
        let a = frame_bytes(&Frame::Credit { cursor: 9, n: 1 }).unwrap();
        let b = frame_bytes(&Frame::QueryV2 {
            cursor: 9,
            delay_ms: 0,
            sql: "SELECT 1".into(),
        })
        .unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b);
        // Byte-by-byte arrival: every prefix short of frame A is None.
        for cut in 0..a.len() {
            assert!(decode_frame(&buf[..cut], 1024).unwrap().is_none());
        }
        let (f1, used1) = decode_frame(&buf, 1024).unwrap().unwrap();
        assert_eq!(f1, Frame::Credit { cursor: 9, n: 1 });
        assert_eq!(used1, a.len());
        let (f2, used2) = decode_frame(&buf[used1..], 1024).unwrap().unwrap();
        assert!(matches!(f2, Frame::QueryV2 { .. }));
        assert_eq!(used2, b.len());
    }

    #[test]
    fn incremental_decode_rejects_hostile_header_before_payload() {
        // 8 header bytes claiming a 4 GiB payload: rejected immediately,
        // with nothing buffered beyond the header.
        let mut bytes = frame_bytes(&Frame::Stats).unwrap();
        bytes[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        match decode_frame(&bytes[..HEADER_LEN], 1024) {
            Err(ProtoError::Oversize { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    #[test]
    fn sender_side_cap_rejects_with_stable_code() {
        let frame = Frame::QueryV2 {
            cursor: 1,
            delay_ms: 0,
            sql: "x".repeat(2048),
        };
        match frame_bytes_checked(&frame, 1024) {
            Err(e @ ProtoError::Oversize { .. }) => assert_eq!(e.code(), "proto.oversize"),
            other => panic!("expected oversize, got {other:?}"),
        }
        // Under the cap the bytes are identical to the unchecked path.
        let small = Frame::Ping;
        assert_eq!(
            frame_bytes_checked(&small, 1024).unwrap(),
            frame_bytes(&small).unwrap()
        );
    }

    #[test]
    fn bad_magic_version_type_detected() {
        let mut bytes = frame_bytes(&Frame::Ping).unwrap();
        bytes[0] = 0xFF;
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), 1024),
            Err(ProtoError::BadMagic(_))
        ));
        let mut bytes = frame_bytes(&Frame::Ping).unwrap();
        bytes[2] = 99;
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), 1024),
            Err(ProtoError::BadVersion(99))
        ));
        let mut bytes = frame_bytes(&Frame::Ping).unwrap();
        bytes[3] = 0x7F;
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), 1024),
            Err(ProtoError::BadType(0x7F))
        ));
    }

    #[test]
    fn oversize_rejected_before_allocation() {
        let mut bytes = frame_bytes(&Frame::Stats).unwrap();
        // Claim a huge payload; nothing follows.
        bytes[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        match read_frame(&mut bytes.as_slice(), 1024) {
            Err(ProtoError::Oversize { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let bytes = frame_bytes(&Frame::QueryV2 {
            cursor: 1,
            delay_ms: 0,
            sql: "SELECT 1".into(),
        })
        .unwrap();
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            read_frame(&mut &cut[..], 1024),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn malformed_query_payload_detected() {
        // A query frame whose payload is shorter than the fixed prefix.
        let out = raw_frame(0x0D, &[0, 0]);
        assert!(matches!(
            read_frame(&mut out.as_slice(), 1024),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn proto_error_codes_are_stable() {
        assert_eq!(ProtoError::BadMagic(0).code(), "proto.magic");
        assert_eq!(ProtoError::BadVersion(0).code(), "proto.version");
        assert_eq!(ProtoError::BadType(0).code(), "proto.type");
        assert_eq!(
            ProtoError::Oversize { len: 1, max: 0 }.code(),
            "proto.oversize"
        );
        assert_eq!(
            ProtoError::Malformed(String::new()).code(),
            "proto.malformed"
        );
    }
}
