//! The query server: an event-driven connection layer multiplexing all
//! clients onto one shared [`Warehouse`] behind a bounded worker pool.
//!
//! # Architecture
//!
//! ```text
//!                        poller thread (owns listener + every connection)
//!   nonblocking accept ──▶ per-conn read buffer ──incremental parse──▶ frames
//!        │                                                              │
//!        │                 admission control (queue depth + est. cost)  │
//!        │                              │ admitted                      ▼ Busy/Error
//!        │                              ▼                         per-conn outbound
//!        │                  bounded queue (≤ queue_depth)         queue (credit-gated
//!        │                              │ pop                     batch frames)
//!        │                              ▼                               ▲
//!        │                   worker pool (N threads)                    │
//!        │                      Warehouse::query (&self)                │
//!        │                              │                               │
//!        └───────◀─ completions ◀───────┘───────────────────────────────┘
//! ```
//!
//! One **poller thread** owns the nonblocking listener and every live
//! connection: it accepts, reads whatever bytes are ready into
//! per-connection buffers, parses frames incrementally
//! ([`crate::protocol::decode_frame`]), runs admission control, and
//! writes queued outbound bytes back until the socket would block. No
//! thread ever blocks on a socket, so connection count is bounded by file
//! descriptors and memory — not by threads. The bounded resource remains
//! the **worker pool**, the only thing that touches the warehouse;
//! workers post finished queries to a completion list the poller drains.
//!
//! # Streamed cursors and backpressure
//!
//! A query result never materializes on the wire as one frame. The
//! poller holds the result table behind an `Arc` and slices
//! `batch_rows`-row [`Frame::ResultBatch`]es from it on demand — but only
//! while the cursor has **credit** (each batch spends one; the client
//! replenishes with [`Frame::Credit`] as it consumes) and only while the
//! connection's outbound queue is under `max_outbuf_bytes`. A slow or
//! stalled reader therefore *suspends its cursor* — server memory for the
//! encoded stream is `O(connections × batch)`, never
//! `O(connections × result)`, with no exception: a cursor is the only
//! way a result reaches the wire. (The result table itself is a single
//! shared `Arc`, usually aliasing the warehouse's result-recycler entry.)
//! [`Frame::Cancel`] frees a cursor mid-stream; if the query is still
//! queued, a cancel flag makes the worker skip it entirely.
//!
//! # Admission control
//!
//! Admission happens at frame-handling time on the poller: when the
//! queue already holds `queue_depth` jobs the client gets an immediate
//! [`Frame::Busy`]. With `cost_budget_rows` configured, admission also
//! consults the planner: the query is costed with
//! [`Warehouse::estimate_query_rows`] (statistics-backed, no execution),
//! and a query whose estimate would push the *currently admitted* total
//! over the budget is rejected with a `Busy` frame carrying the estimate
//! and the budget — clients back off proportionally instead of blind. A
//! query too big for the budget on its own still runs when the server is
//! otherwise idle (admission never starves a query forever), and queries
//! the planner cannot estimate admit on queue depth alone.
//!
//! # Graceful shutdown
//!
//! [`Server::stop`] (or a [`Frame::Shutdown`] request, or SIGTERM in the
//! `lazyetl-serve` binary) runs the drain sequence:
//!
//! 1. the shutdown flag flips: the poller drops the listener (new
//!    connects are refused), new queries get a `server.shutdown` error;
//! 2. workers drain every admitted job and post the completions, then
//!    exit;
//! 3. the poller keeps serving until open cursors finish streaming and
//!    outbound buffers flush (bounded by a drain deadline), then closes
//!    every connection;
//! 4. once quiesced, the warehouse is persisted to `save_dir` (when
//!    configured) via [`Warehouse::save_to`] — the hot record cache goes
//!    into the snapshot, so the next boot warm-restarts.

use crate::protocol::{decode_frame, frame_bytes, Frame, WireMetrics, VERSION};
use lazyetl_core::persistence::SaveReport;
use lazyetl_core::{EtlError, Warehouse};
use lazyetl_store::Table;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries against the shared warehouse.
    pub workers: usize,
    /// Jobs the admission queue holds before new queries get
    /// [`Frame::Busy`]. In-flight queries (already popped by a worker) do
    /// not count; `0` rejects every query — the chaos-testing extreme.
    pub queue_depth: usize,
    /// Cap on request payloads; larger frames are rejected with a
    /// `proto.oversize` error and the connection closes.
    pub max_request_bytes: u32,
    /// Rows per [`Frame::ResultBatch`]. The default matches the
    /// executor's morsel size, so streamed batch boundaries line up with
    /// parallel-execution partitions.
    pub batch_rows: u32,
    /// Batches a fresh cursor may stream before the client must grant
    /// [`Frame::Credit`].
    pub initial_credit: u32,
    /// Ceiling on one connection's encoded-but-unsent outbound bytes;
    /// cursor pumping pauses above it.
    pub max_outbuf_bytes: usize,
    /// Cost-based admission budget in estimated result rows; `None`
    /// admits on queue depth alone.
    pub cost_budget_rows: Option<u64>,
    /// Snapshot directory for the graceful-shutdown save; `None` skips
    /// the save.
    pub save_dir: Option<PathBuf>,
    /// Poll the repository for changes this often ([`Warehouse::refresh`]
    /// on the serving side), waking live-tail subscriptions when the
    /// warehouse generation moves. `None` disables server-driven refresh
    /// — subscriptions then only advance when a query triggers
    /// auto-refresh.
    pub refresh_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            max_request_bytes: crate::protocol::DEFAULT_MAX_REQUEST,
            batch_rows: 4096,
            initial_credit: 4,
            max_outbuf_bytes: 256 * 1024,
            cost_budget_rows: None,
            save_dir: None,
            refresh_interval: None,
        }
    }
}

/// Cumulative serving counters (monotone except the `cursors_open`
/// gauge; snapshot via [`Server::stats`] or the wire `Stats` frame).
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    queries_ok: AtomicU64,
    queries_err: AtomicU64,
    busy_rejections: AtomicU64,
    cost_rejections: AtomicU64,
    proto_errors: AtomicU64,
    dropped_replies: AtomicU64,
    queue_wait_us: AtomicU64,
    exec_us: AtomicU64,
    records_extracted: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cursors_opened: AtomicU64,
    cursors_open: AtomicU64,
    batches_streamed: AtomicU64,
    credit_stalls: AtomicU64,
    outbuf_hwm_bytes: AtomicU64,
    subscriptions_opened: AtomicU64,
    sub_updates_pushed: AtomicU64,
    refreshes_applied: AtomicU64,
}

/// Point-in-time copy of the serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Queries answered with a result frame (or a streamed cursor).
    pub queries_ok: u64,
    /// Queries answered with an error frame.
    pub queries_err: u64,
    /// Queries rejected with a busy frame (queue depth + cost together).
    pub busy_rejections: u64,
    /// Busy rejections due to the estimated-cost budget specifically.
    pub cost_rejections: u64,
    /// Connections dropped for protocol violations.
    pub proto_errors: u64,
    /// Replies computed but undeliverable (client disconnected mid-query).
    pub dropped_replies: u64,
    /// Total admission-queue wait across all queries.
    pub queue_wait_us: u64,
    /// Total execution time across all queries.
    pub exec_us: u64,
    /// Records decoded across all queries.
    pub records_extracted: u64,
    /// Record-cache hits across all queries.
    pub cache_hits: u64,
    /// Record-cache misses across all queries.
    pub cache_misses: u64,
    /// Streamed cursors opened (queries that produced a result).
    pub cursors_opened: u64,
    /// Cursors currently live (gauge; 0 on a quiesced server).
    pub cursors_open: u64,
    /// `ResultBatch` frames streamed.
    pub batches_streamed: u64,
    /// Times a cursor ran out of credit with rows still pending — each
    /// is a slow reader suspended instead of buffered.
    pub credit_stalls: u64,
    /// High-water mark of any single connection's encoded-but-unsent
    /// outbound bytes — the memory-ceiling observable: it stays
    /// `O(batch)` no matter how large the result.
    pub outbuf_hwm_bytes: u64,
    /// Live-tail subscriptions opened (`Subscribe` frames that produced
    /// a result).
    pub subscriptions_opened: u64,
    /// `SubUpdate` frames pushed — one per result revision delivered to
    /// a subscriber (the initial snapshot included).
    pub sub_updates_pushed: u64,
    /// Server-driven [`Warehouse::refresh`] rounds that folded at least
    /// one repository change in.
    pub refreshes_applied: u64,
}

impl ServerStats {
    /// Aggregate cache hit rate over every served query.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Ceiling on the client-supplied per-query think time. `delay_ms` is a
/// load-generation knob, not a scheduling primitive: uncapped, one cheap
/// frame could pin a worker (and therefore graceful drain) for up to
/// `u32::MAX` milliseconds.
const MAX_QUERY_DELAY_MS: u32 = 10_000;

/// How long the drain sequence waits for open cursors to finish
/// streaming and outbound buffers to flush before closing connections
/// anyway (a reader that stays stalled must not pin shutdown forever).
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Poller sleep when a full tick made no progress: short enough that
/// queue-admission and first-byte latency stay sub-millisecond, long
/// enough that an idle server burns no CPU.
const IDLE_TICK: Duration = Duration::from_micros(500);

/// One admitted query: what the worker needs, plus where the completion
/// goes. `token` names the connection (tokens are never reused, so a
/// completion can never be delivered to a successor connection).
struct Job {
    sql: String,
    delay_ms: u32,
    enqueued: Instant,
    token: u64,
    /// The client-chosen cursor the result streams on.
    cursor: u32,
    /// This job (re-)runs a live-tail subscription: its completion opens
    /// (or refreshes) a long-lived cursor instead of a one-shot one.
    subscribe: bool,
    /// Set by `Cancel` (or connection death): the worker skips the query
    /// entirely if it has not started yet.
    cancel: Arc<AtomicBool>,
    /// Estimated rows charged against the admission cost budget;
    /// released when the completion posts.
    cost: u64,
}

/// What a worker produced for one job.
enum Done {
    Ok {
        metrics: WireMetrics,
        table: Arc<Table>,
        /// Warehouse generation observed **before** execution — the
        /// conservative watermark for subscription wakeups (a refresh
        /// racing the query re-triggers a push instead of being missed).
        generation: u64,
    },
    Err {
        code: String,
        message: String,
    },
    /// The job was cancelled before execution started.
    Skipped,
}

struct Completion {
    token: u64,
    cursor: u32,
    /// The SQL of a subscription job (`None` for one-shot queries) — kept
    /// so the poller can re-run the subscription on later refreshes.
    subscribe_sql: Option<String>,
    done: Done,
}

struct Shared {
    wh: Arc<Warehouse>,
    cfg: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Jobs popped by a worker but not yet posted as completions
    /// (incremented under the queue lock, so `queue empty ∧ running == 0`
    /// is a consistent quiescence check).
    running: AtomicU64,
    /// Estimated rows of every currently admitted (queued or running)
    /// costed query.
    admitted_cost: AtomicU64,
    shutdown: AtomicBool,
    counters: Counters,
}

/// What the drain sequence produced.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final serving counters.
    pub stats: ServerStats,
    /// The graceful snapshot, when `save_dir` was configured.
    pub save: Option<SaveReport>,
}

/// A running server. Dropping without [`Server::stop`] aborts ungracefully
/// (threads are detached); call `stop` for the drain + snapshot sequence.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    poller: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `wh` with `cfg`. Returns once the listener is live;
    /// [`Server::addr`] reports the bound address.
    pub fn start(
        wh: Arc<Warehouse>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            wh,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            running: AtomicU64::new(0),
            admitted_cost: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lazyetl-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let poller = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lazyetl-poller".into())
                .spawn(move || poller_loop(listener, &shared))
                .expect("spawn poller")
        };
        Ok(Server {
            shared,
            addr,
            poller: Some(poller),
            workers,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a shutdown was requested (by [`Server::stop`], a wire
    /// `Shutdown` frame, or the serve binary's signal handler).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Request shutdown without waiting (idempotent).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.job_ready.notify_all();
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.snapshot()
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().expect("queue poisoned").len()
    }

    /// Graceful shutdown: stop accepting, drain admitted queries, finish
    /// streaming open cursors (bounded by the drain deadline), join every
    /// thread, then persist the warehouse to `save_dir` (when
    /// configured). Returns the final counters and the save report.
    pub fn stop(mut self) -> Result<ShutdownReport, EtlError> {
        self.request_shutdown();
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let stats = self.shared.snapshot();
        let save = match &self.shared.cfg.save_dir {
            Some(dir) => Some(self.shared.wh.save_to(dir)?),
            None => None,
        };
        Ok(ShutdownReport { stats, save })
    }
}

impl Shared {
    fn snapshot(&self) -> ServerStats {
        let c = &self.counters;
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServerStats {
            connections: g(&c.connections),
            queries_ok: g(&c.queries_ok),
            queries_err: g(&c.queries_err),
            busy_rejections: g(&c.busy_rejections),
            cost_rejections: g(&c.cost_rejections),
            proto_errors: g(&c.proto_errors),
            dropped_replies: g(&c.dropped_replies),
            queue_wait_us: g(&c.queue_wait_us),
            exec_us: g(&c.exec_us),
            records_extracted: g(&c.records_extracted),
            cache_hits: g(&c.cache_hits),
            cache_misses: g(&c.cache_misses),
            cursors_opened: g(&c.cursors_opened),
            cursors_open: g(&c.cursors_open),
            batches_streamed: g(&c.batches_streamed),
            credit_stalls: g(&c.credit_stalls),
            outbuf_hwm_bytes: g(&c.outbuf_hwm_bytes),
            subscriptions_opened: g(&c.subscriptions_opened),
            sub_updates_pushed: g(&c.sub_updates_pushed),
            refreshes_applied: g(&c.refreshes_applied),
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Render server + warehouse stats as the wire `key=value` text.
    fn stats_text(&self) -> String {
        let s = self.snapshot();
        let w = self.wh.stats_snapshot();
        let mut out = String::new();
        for (k, v) in [
            ("server.connections", s.connections),
            ("server.queries_ok", s.queries_ok),
            ("server.queries_err", s.queries_err),
            ("server.busy_rejections", s.busy_rejections),
            ("server.cost_rejections", s.cost_rejections),
            ("server.proto_errors", s.proto_errors),
            ("server.dropped_replies", s.dropped_replies),
            ("server.queue_wait_us", s.queue_wait_us),
            ("server.exec_us", s.exec_us),
            ("server.records_extracted", s.records_extracted),
            ("server.cache_hits", s.cache_hits),
            ("server.cache_misses", s.cache_misses),
            ("server.cursors_opened", s.cursors_opened),
            ("server.cursors_open", s.cursors_open),
            ("server.batches_streamed", s.batches_streamed),
            ("server.credit_stalls", s.credit_stalls),
            ("server.outbuf_hwm_bytes", s.outbuf_hwm_bytes),
            ("server.subscriptions_opened", s.subscriptions_opened),
            ("server.sub_updates_pushed", s.sub_updates_pushed),
            ("server.refreshes_applied", s.refreshes_applied),
            ("server.workers", self.cfg.workers as u64),
            ("server.queue_depth", self.cfg.queue_depth as u64),
            ("server.batch_rows", self.cfg.batch_rows as u64),
            ("server.initial_credit", self.cfg.initial_credit as u64),
            (
                "server.cost_budget_rows",
                self.cfg.cost_budget_rows.unwrap_or(0),
            ),
            ("warehouse.files", w.files as u64),
            ("warehouse.records", w.records as u64),
            ("warehouse.resident_bytes", w.resident_bytes as u64),
            ("warehouse.generation", w.generation),
            ("warehouse.queries", w.queries),
            ("warehouse.cache_entries", w.cache_entries as u64),
            ("warehouse.cache_used_bytes", w.cache_used_bytes as u64),
            ("warehouse.cache_hits", w.cache.hits),
            ("warehouse.cache_misses", w.cache.misses),
            ("warehouse.cache_stale_drops", w.cache.stale_drops),
            ("warehouse.cache_evictions", w.cache.evictions),
            ("warehouse.segments_loaded", w.cache.segments_loaded),
            ("warehouse.pending_segments", w.pending_segments as u64),
            ("warehouse.recycler_entries", w.recycler_entries as u64),
            ("warehouse.recycler_hits", w.recycler.hits),
            ("warehouse.recycler_misses", w.recycler.misses),
            (
                "warehouse.recycler_results_patched",
                w.recycler.results_patched,
            ),
            (
                "warehouse.recycler_patch_rows_applied",
                w.recycler.patch_rows_applied,
            ),
            (
                "warehouse.recycler_recompute_fallbacks",
                w.recycler.recompute_fallbacks,
            ),
            (
                "warehouse.recycler_bytes_saved_estimate",
                w.recycler.bytes_saved_estimate,
            ),
            ("warehouse.recycler_results_kept", w.recycler.results_kept),
            ("warehouse.rows_scanned", w.exec.rows_scanned),
            ("warehouse.rows_pruned", w.exec.rows_pruned),
            ("warehouse.vectorized_batches", w.exec.vectorized_batches),
            ("warehouse.scalar_fallbacks", w.exec.scalar_fallbacks),
            ("warehouse.morsels_dispatched", w.exec.morsels_dispatched),
            ("warehouse.parallel_pipelines", w.exec.parallel_pipelines),
            ("warehouse.merge_ns", w.exec.merge_ns),
            ("warehouse.index_seeks", w.exec.index_seeks),
            ("warehouse.index_rows_examined", w.exec.index_rows_examined),
            ("warehouse.plans_estimated", w.exec.plans_estimated),
            ("warehouse.estimated_rows", w.exec.estimated_rows),
            ("warehouse.actual_rows", w.exec.actual_rows),
            ("warehouse.estimate_abs_error", w.exec.estimate_abs_error),
        ] {
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "server.cache_hit_rate={:.6}\n",
            s.cache_hit_rate()
        ));
        out.push_str(&format!(
            "warehouse.mode={}\n",
            match w.mode {
                lazyetl_core::Mode::Lazy => "lazy",
                lazyetl_core::Mode::Eager => "eager",
            }
        ));
        // Per-mount extraction accounting (one block per lazy source).
        for src in &w.sources {
            out.push_str(&format!("source.{}.kind={}\n", src.name, src.kind));
            for (k, v) in [
                ("files", src.files as u64),
                ("files_extracted", src.files_extracted),
                ("records_extracted", src.records_extracted),
                ("samples_extracted", src.samples_extracted),
                ("bytes_read", src.bytes_read),
                ("simulated_io_us", src.simulated_io.as_micros() as u64),
                ("fetch_requests", src.fetch_requests),
                ("fetched_bytes", src.fetched_bytes),
            ] {
                out.push_str(&format!("source.{}.{k}={v}\n", src.name));
            }
        }
        out
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = q.pop_front() {
                    // Counted under the queue lock so the poller's
                    // quiescence check (`queue empty ∧ running == 0`)
                    // never sees the gap between pop and increment.
                    shared.running.fetch_add(1, Ordering::SeqCst);
                    break job;
                }
                // Drain semantics: exit only once the queue is empty AND
                // shutdown was requested — admitted queries always finish.
                if shared.is_shutdown() {
                    return;
                }
                let (guard, _) = shared
                    .job_ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("queue poisoned");
                q = guard;
            }
        };
        let done = run_job(shared, &job);
        shared
            .completions
            .lock()
            .expect("completions poisoned")
            .push(Completion {
                token: job.token,
                cursor: job.cursor,
                subscribe_sql: job.subscribe.then(|| job.sql.clone()),
                done,
            });
        if job.cost > 0 {
            shared.admitted_cost.fetch_sub(job.cost, Ordering::SeqCst);
        }
        // Order matters: the completion is visible before `running`
        // drops, so quiescence implies every completion was posted.
        shared.running.fetch_sub(1, Ordering::SeqCst);
    }
}

fn run_job(shared: &Shared, job: &Job) -> Done {
    if job.cancel.load(Ordering::Acquire) {
        return Done::Skipped;
    }
    let queue_wait = job.enqueued.elapsed();
    if job.delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(
            job.delay_ms.min(MAX_QUERY_DELAY_MS) as u64
        ));
        // A cancel that lands during the think time still spares the
        // warehouse the execution.
        if job.cancel.load(Ordering::Acquire) {
            return Done::Skipped;
        }
    }
    let t0 = Instant::now();
    let c = &shared.counters;
    // Read the generation before executing: a refresh landing mid-query
    // makes the watermark stale, which re-pushes a subscription once too
    // often — never too rarely.
    let generation = shared.wh.generation();
    match shared.wh.query(&job.sql) {
        Ok(out) => {
            let exec = t0.elapsed();
            let metrics = WireMetrics {
                queue_wait_us: queue_wait.as_micros() as u64,
                exec_us: exec.as_micros() as u64,
                rows: out.table.num_rows() as u64,
                records_extracted: out.report.records_extracted as u64,
                cache_hits: out.report.cache_hits as u64,
                cache_misses: out.report.cache_misses as u64,
                result_recycled: out.report.result_recycled,
            };
            c.queries_ok.fetch_add(1, Ordering::Relaxed);
            c.queue_wait_us
                .fetch_add(metrics.queue_wait_us, Ordering::Relaxed);
            c.exec_us.fetch_add(metrics.exec_us, Ordering::Relaxed);
            c.records_extracted
                .fetch_add(metrics.records_extracted, Ordering::Relaxed);
            c.cache_hits
                .fetch_add(metrics.cache_hits, Ordering::Relaxed);
            c.cache_misses
                .fetch_add(metrics.cache_misses, Ordering::Relaxed);
            Done::Ok {
                metrics,
                table: out.table,
                generation,
            }
        }
        Err(e) => {
            c.queries_err.fetch_add(1, Ordering::Relaxed);
            Done::Err {
                code: e.code().to_string(),
                message: e.to_string(),
            }
        }
    }
}

/// A live streamed cursor: the materialized result (one shared `Arc`)
/// plus the read position and remaining credit.
struct Cursor {
    table: Arc<Table>,
    next_row: usize,
    credit: u32,
    seq: u32,
    /// True while suspended on zero credit (so one stall counts once).
    stalled: bool,
    /// `Some` = long-lived subscription; the cursor survives the end
    /// of each result revision and re-runs when the generation moves.
    sub: Option<SubState>,
}

/// The long-lived half of a subscription cursor.
struct SubState {
    /// The SQL re-run on every refresh (a recycler hit — O(delta) when
    /// the resident result was patched incrementally).
    sql: String,
    /// Next revision sequence number for the `SubUpdate` boundary frame.
    update: u32,
    /// Warehouse generation the current revision reflects.
    generation: u64,
    /// The current revision streamed fully; waiting for the generation to
    /// move before re-running.
    drained: bool,
}

/// A query admitted but not yet completed by a worker.
struct Inflight {
    cancel: Arc<AtomicBool>,
    /// The client cancelled while the query was queued/running; the
    /// completion turns into a cancelled `ResultEnd`.
    cancelled: bool,
    /// The cancel was already answered with a `ResultEnd` (an open
    /// subscription cursor cancelled while its refresh re-run was in
    /// flight); the completion is discarded silently.
    cancel_acked: bool,
}

/// Per-connection outbound queue: encoded frames waiting for the socket
/// to accept them. `bytes` is the backpressure observable.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    front_off: usize,
    /// Total unsent bytes across all queued frames.
    bytes: usize,
}

/// Everything the poller knows about one connection. Owned exclusively
/// by the poller thread — no locks anywhere in the per-connection state.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    out: OutQueue,
    cursors: HashMap<u32, Cursor>,
    inflight: HashMap<u32, Inflight>,
    /// Flush the outbound queue, then close (protocol error or
    /// shutdown-ack); no further reads.
    closing: bool,
}

enum ReadOutcome {
    /// Bytes arrived (or none were ready); connection healthy.
    Open { progress: bool },
    /// EOF or transport error — parse what is buffered, then drop.
    Closed { progress: bool },
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            out: OutQueue::default(),
            cursors: HashMap::new(),
            inflight: HashMap::new(),
            closing: false,
        }
    }

    /// Queue one frame for writing. Encoding failures (pathological —
    /// a table that cannot serialize) close the connection.
    fn push(&mut self, frame: &Frame, counters: &Counters) {
        match frame_bytes(frame) {
            Ok(bytes) => {
                self.out.bytes += bytes.len();
                self.out.frames.push_back(bytes);
                counters
                    .outbuf_hwm_bytes
                    .fetch_max(self.out.bytes as u64, Ordering::Relaxed);
            }
            Err(_) => self.closing = true,
        }
    }

    /// End a live cursor early: free it, answer with a cancelled
    /// `ResultEnd`, and flag a subscription's refresh re-run still in
    /// flight so its completion is discarded instead of reopening the
    /// cursor. False when no such cursor is live.
    fn cancel_cursor(&mut self, id: u32, counters: &Counters) -> bool {
        let Some(cur) = self.cursors.remove(&id) else {
            return false;
        };
        counters.cursors_open.fetch_sub(1, Ordering::Relaxed);
        self.push(
            &Frame::ResultEnd {
                cursor: id,
                batches: cur.seq,
                rows: cur.next_row as u64,
                cancelled: true,
            },
            counters,
        );
        if let Some(inflight) = self.inflight.get_mut(&id) {
            inflight.cancel.store(true, Ordering::Release);
            inflight.cancelled = true;
            inflight.cancel_acked = true;
        }
        true
    }

    /// Drain whatever the socket has ready into the read buffer.
    fn read_ready(&mut self) -> ReadOutcome {
        let mut chunk = [0u8; 16 * 1024];
        let mut progress = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed { progress },
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Closed { progress },
            }
        }
        ReadOutcome::Open { progress }
    }

    /// Write queued outbound bytes until the socket would block.
    /// Returns `(progress, dead)`.
    fn write_ready(&mut self) -> (bool, bool) {
        let mut progress = false;
        while let Some(front) = self.out.frames.front() {
            match self.stream.write(&front[self.out.front_off..]) {
                Ok(0) => return (progress, true),
                Ok(n) => {
                    progress = true;
                    self.out.front_off += n;
                    self.out.bytes -= n;
                    if self.out.front_off == front.len() {
                        self.out.frames.pop_front();
                        self.out.front_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return (progress, true),
            }
        }
        (progress, false)
    }
}

fn poller_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut drain_deadline: Option<Instant> = None;
    let mut last_refresh = Instant::now();
    loop {
        let mut progress = false;
        let draining = shared.is_shutdown();
        if draining {
            // Refuse new connects the moment drain starts: dropping the
            // listener resets anything still in the accept backlog.
            if listener.take().is_some() {
                progress = true;
            }
            if drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
            }
            // Subscriptions never exhaust on their own; drain ends them
            // with a cancelled ResultEnd so the quiescence check can pass.
            for conn in conns.values_mut() {
                let subs: Vec<u32> = conn
                    .cursors
                    .iter()
                    .filter(|(_, c)| c.sub.is_some())
                    .map(|(&id, _)| id)
                    .collect();
                for id in subs {
                    progress |= conn.cancel_cursor(id, &shared.counters);
                }
            }
        }

        // 1. Accept everything ready.
        if let Some(l) = &listener {
            loop {
                match l.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                        conns.insert(next_token, Conn::new(stream));
                        next_token += 1;
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // 2. Read + parse + handle, per connection.
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if conn.closing {
                continue;
            }
            let (read_progress, eof) = match conn.read_ready() {
                ReadOutcome::Open { progress } => (progress, false),
                ReadOutcome::Closed { progress } => (progress, true),
            };
            progress |= read_progress;
            // Parse every complete frame — including frames that raced
            // ahead of an EOF (a client may legally send a query and
            // close its write side in one burst).
            loop {
                match decode_frame(&conn.rbuf, shared.cfg.max_request_bytes) {
                    Ok(Some((frame, used))) => {
                        conn.rbuf.drain(..used);
                        progress = true;
                        handle_frame(shared, token, conn, frame);
                        if conn.closing {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Protocol violation: answer with the code, then
                        // close — the stream cannot be resynchronized.
                        shared.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                        conn.push(
                            &Frame::Error {
                                code: e.code().to_string(),
                                message: e.to_string(),
                            },
                            &shared.counters,
                        );
                        conn.closing = true;
                        break;
                    }
                }
            }
            if eof {
                dead.push(token);
            }
        }

        // 3. Deliver worker completions.
        let finished: Vec<Completion> = {
            let mut c = shared.completions.lock().expect("completions poisoned");
            std::mem::take(&mut *c)
        };
        for comp in finished {
            progress = true;
            match conns.get_mut(&comp.token) {
                Some(conn) => deliver_completion(shared, conn, comp),
                None => {
                    // The connection vanished while its query ran. The
                    // computed-but-undeliverable answer is worth counting
                    // (a skipped job produced nothing to drop).
                    if !matches!(comp.done, Done::Skipped) {
                        shared
                            .counters
                            .dropped_replies
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        // 3b. Server-driven refresh + subscription wakeups. The refresh
        // runs inline on the poller (it is the only writer the serving
        // side has); subscriptions whose revision is behind the new
        // generation re-enqueue their SQL — a recycler hit whose resident
        // result was patched incrementally, i.e. O(delta) per subscriber.
        if !draining {
            if let Some(interval) = shared.cfg.refresh_interval {
                if last_refresh.elapsed() >= interval {
                    last_refresh = Instant::now();
                    if let Ok(summary) = shared.wh.refresh() {
                        if !summary.is_noop() {
                            shared
                                .counters
                                .refreshes_applied
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            let gen_now = shared.wh.generation();
            for (&token, conn) in conns.iter_mut() {
                let mut wake: Vec<(u32, String)> = Vec::new();
                for (&id, cur) in conn.cursors.iter() {
                    if conn.inflight.contains_key(&id) {
                        continue; // re-run already queued/running
                    }
                    if let Some(sub) = cur.sub.as_ref() {
                        if sub.drained && sub.generation < gen_now {
                            wake.push((id, sub.sql.clone()));
                        }
                    }
                }
                for (id, sql) in wake {
                    let cancel = Arc::new(AtomicBool::new(false));
                    let enqueued = {
                        let mut q = shared.queue.lock().expect("queue poisoned");
                        // Same invariant as try_admit: push only while a
                        // worker is guaranteed alive to drain it.
                        if shared.is_shutdown() {
                            false
                        } else {
                            q.push_back(Job {
                                sql,
                                delay_ms: 0,
                                enqueued: Instant::now(),
                                token,
                                cursor: id,
                                subscribe: true,
                                cancel: Arc::clone(&cancel),
                                cost: 0,
                            });
                            true
                        }
                    };
                    if enqueued {
                        shared.job_ready.notify_one();
                        conn.inflight.insert(
                            id,
                            Inflight {
                                cancel,
                                cancelled: false,
                                cancel_acked: false,
                            },
                        );
                        progress = true;
                    }
                }
            }
        }

        // 4. Pump cursors (credit- and outbuf-gated), then flush sockets.
        for (&token, conn) in conns.iter_mut() {
            pump_cursors(shared, conn);
            let (write_progress, write_dead) = conn.write_ready();
            progress |= write_progress;
            if write_dead || (conn.closing && conn.out.bytes == 0) {
                dead.push(token);
            }
        }

        // 5. Reap dead connections: free their cursors, flag their
        // still-queued queries so workers skip them.
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                let open = conn.cursors.len() as u64;
                if open > 0 {
                    shared
                        .counters
                        .cursors_open
                        .fetch_sub(open, Ordering::Relaxed);
                }
                for inflight in conn.inflight.values() {
                    inflight.cancel.store(true, Ordering::Release);
                }
                progress = true;
            }
        }

        // 6. Drain-exit check: every admitted job completed and
        // delivered, every cursor finished, every outbound byte flushed
        // — or the deadline passed (a stalled reader cannot pin
        // shutdown).
        if draining {
            let quiesced = {
                let q = shared.queue.lock().expect("queue poisoned");
                let queue_empty = q.is_empty();
                drop(q);
                let running = shared.running.load(Ordering::SeqCst);
                let completions_empty = shared
                    .completions
                    .lock()
                    .expect("completions poisoned")
                    .is_empty();
                queue_empty
                    && running == 0
                    && completions_empty
                    && conns
                        .values()
                        .all(|c| c.out.bytes == 0 && c.cursors.is_empty() && c.inflight.is_empty())
            };
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if quiesced || expired {
                return; // conns drop here, closing every socket
            }
        }

        if !progress {
            std::thread::sleep(IDLE_TICK);
        }
    }
}

/// Admission verdict for one query frame.
enum Admit {
    Admitted,
    Busy {
        queued: u32,
        estimated_rows: u64,
        by_cost: bool,
    },
    Draining,
}

/// Admission control: queue depth first, then the estimated-cost budget.
/// On `Admitted` the job is already queued and a worker notified.
fn try_admit(
    shared: &Shared,
    token: u64,
    cursor: u32,
    sql: String,
    delay_ms: u32,
    subscribe: bool,
    cancel: Arc<AtomicBool>,
) -> Admit {
    // Cost the query before taking the queue lock (planning is pure
    // CPU but not free). Unestimable queries admit on depth alone —
    // including unparseable ones, which must reach a worker so the
    // client gets its `query.parse` error rather than a nonsense BUSY.
    let estimate = match shared.cfg.cost_budget_rows {
        Some(_) => shared
            .wh
            .estimate_query_rows(&sql)
            .ok()
            .flatten()
            .unwrap_or(0),
        None => 0,
    };
    let mut q = shared.queue.lock().expect("queue poisoned");
    // Re-checked under the queue lock: workers only exit after observing
    // (empty queue ∧ shutdown) under this same lock, so a job admitted
    // here while the flag is still down is guaranteed a live worker.
    if shared.is_shutdown() {
        return Admit::Draining;
    }
    if q.len() >= shared.cfg.queue_depth {
        return Admit::Busy {
            queued: q.len() as u32,
            estimated_rows: estimate,
            by_cost: false,
        };
    }
    let mut cost = 0;
    if let Some(budget) = shared.cfg.cost_budget_rows {
        if estimate > 0 {
            let admitted = shared.admitted_cost.load(Ordering::SeqCst);
            // A query over budget on its own still runs when nothing
            // else is admitted — admission must never starve forever.
            if admitted > 0 && admitted.saturating_add(estimate) > budget {
                return Admit::Busy {
                    queued: q.len() as u32,
                    estimated_rows: estimate,
                    by_cost: true,
                };
            }
            shared.admitted_cost.fetch_add(estimate, Ordering::SeqCst);
            cost = estimate;
        }
    }
    q.push_back(Job {
        sql,
        delay_ms,
        enqueued: Instant::now(),
        token,
        cursor,
        subscribe,
        cancel,
        cost,
    });
    drop(q);
    shared.job_ready.notify_one();
    Admit::Admitted
}

/// React to one parsed frame on the poller thread. Queries go through
/// admission; everything else is answered inline (stats and pings must
/// work even when the pool is saturated — that is when an operator needs
/// them most).
fn handle_frame(shared: &Shared, token: u64, conn: &mut Conn, frame: Frame) {
    let counters = &shared.counters;
    match frame {
        Frame::Hello { .. } => conn.push(
            &Frame::HelloAck {
                version: VERSION,
                batch_rows: shared.cfg.batch_rows,
                initial_credit: shared.cfg.initial_credit,
            },
            counters,
        ),
        Frame::QueryV2 {
            cursor,
            delay_ms,
            sql,
        } => admit_or_reject(shared, token, conn, cursor, sql, delay_ms, false),
        Frame::Subscribe { cursor, sql } => {
            admit_or_reject(shared, token, conn, cursor, sql, 0, true)
        }
        Frame::Credit { cursor, n } => {
            if let Some(cur) = conn.cursors.get_mut(&cursor) {
                cur.credit = cur.credit.saturating_add(n);
                cur.stalled = false;
            }
            // Unknown cursor: the grant raced the stream's end — ignore.
        }
        Frame::Cancel { cursor } => {
            if !conn.cancel_cursor(cursor, counters) {
                if let Some(inflight) = conn.inflight.get_mut(&cursor) {
                    // Queued or executing: flag it (a queued job is
                    // skipped outright) and acknowledge when the
                    // completion posts.
                    inflight.cancel.store(true, Ordering::Release);
                    inflight.cancelled = true;
                }
                // Unknown cursor: the cancel raced the stream's end — ignore.
            }
        }
        Frame::Stats => conn.push(
            &Frame::StatsReply {
                text: shared.stats_text(),
            },
            counters,
        ),
        Frame::Ping => conn.push(&Frame::Pong, counters),
        Frame::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            shared.job_ready.notify_all();
            conn.push(&Frame::ShutdownAck, counters);
            conn.closing = true;
        }
        // Response frames arriving at the server are a client bug.
        other => conn.push(
            &Frame::Error {
                code: "proto.unexpected".into(),
                message: format!("server cannot handle frame {other:?}"),
            },
            counters,
        ),
    }
}

fn admit_or_reject(
    shared: &Shared,
    token: u64,
    conn: &mut Conn,
    cursor: u32,
    sql: String,
    delay_ms: u32,
    subscribe: bool,
) {
    let counters = &shared.counters;
    // One id space per connection: one-shot and subscription cursors,
    // streaming or still queued, may not collide.
    if conn.cursors.contains_key(&cursor) || conn.inflight.contains_key(&cursor) {
        conn.push(
            &Frame::Error {
                code: "server.cursor".into(),
                message: format!("cursor {cursor} is already in use"),
            },
            counters,
        );
        return;
    }
    let cancel = Arc::new(AtomicBool::new(false));
    match try_admit(
        shared,
        token,
        cursor,
        sql,
        delay_ms,
        subscribe,
        Arc::clone(&cancel),
    ) {
        Admit::Admitted => {
            conn.inflight.insert(
                cursor,
                Inflight {
                    cancel,
                    cancelled: false,
                    cancel_acked: false,
                },
            );
        }
        Admit::Busy {
            queued,
            estimated_rows,
            by_cost,
        } => {
            counters.busy_rejections.fetch_add(1, Ordering::Relaxed);
            if by_cost {
                counters.cost_rejections.fetch_add(1, Ordering::Relaxed);
            }
            conn.push(
                &Frame::Busy {
                    queue_depth: shared.cfg.queue_depth as u32,
                    queued,
                    estimated_rows,
                    cost_budget: shared.cfg.cost_budget_rows.unwrap_or(0),
                },
                counters,
            );
        }
        Admit::Draining => conn.push(
            &Frame::Error {
                code: "server.shutdown".into(),
                message: "server is draining; no new queries".into(),
            },
            counters,
        ),
    }
}

/// Route one worker completion to its connection: a query opens a
/// cursor (or acknowledges its cancellation), a subscription opens a
/// long-lived cursor or — on a refresh re-run — swaps the new revision
/// into the live cursor.
fn deliver_completion(shared: &Shared, conn: &mut Conn, comp: Completion) {
    let counters = &shared.counters;
    let cursor = comp.cursor;
    let (cancelled, cancel_acked) = match conn.inflight.remove(&cursor) {
        Some(f) => (
            f.cancelled || f.cancel.load(Ordering::Acquire),
            f.cancel_acked,
        ),
        None => (false, false),
    };
    match comp.done {
        Done::Ok {
            metrics,
            table,
            generation,
        } if !cancelled => {
            if comp.subscribe_sql.is_some() && conn.cursors.contains_key(&cursor) {
                // Refresh re-run landing on the live subscription cursor:
                // swap the revision in and resume batching under the same
                // cursor — no new ResultStart, the SubUpdate boundary
                // frame delimits revisions.
                let cur = conn.cursors.get_mut(&cursor).expect("checked above");
                cur.table = table;
                cur.next_row = 0;
                if let Some(sub) = cur.sub.as_mut() {
                    sub.generation = generation;
                    sub.drained = false;
                }
                return;
            }
            // Schema travels on ResultStart as a zero-row slice, so even
            // an empty result tells the client its shape.
            let schema = match table.slice(0, 0) {
                Ok(t) => Arc::new(t),
                Err(_) => {
                    conn.push(
                        &Frame::Error {
                            code: "server.internal".into(),
                            message: "result schema slice failed".into(),
                        },
                        counters,
                    );
                    return;
                }
            };
            counters.cursors_opened.fetch_add(1, Ordering::Relaxed);
            counters.cursors_open.fetch_add(1, Ordering::Relaxed);
            let sub = comp.subscribe_sql.map(|sql| {
                counters
                    .subscriptions_opened
                    .fetch_add(1, Ordering::Relaxed);
                SubState {
                    sql,
                    update: 0,
                    generation,
                    drained: false,
                }
            });
            conn.push(
                &Frame::ResultStart {
                    cursor,
                    metrics,
                    schema,
                },
                counters,
            );
            conn.cursors.insert(
                cursor,
                Cursor {
                    table,
                    next_row: 0,
                    credit: shared.cfg.initial_credit,
                    seq: 0,
                    stalled: false,
                    sub,
                },
            );
        }
        Done::Err { code, message } if !cancelled => {
            conn.push(&Frame::Error { code, message }, counters);
            // An erroring refresh re-run ends the subscription: the
            // cursor cannot advance past a failed revision.
            conn.cancel_cursor(cursor, counters);
        }
        // Cancelled while queued/executing — the result (if any) is
        // discarded — or skipped by the worker because a cancel raced
        // delivery: acknowledge with a cancelled end, unless the `Cancel`
        // handler already did.
        _ => {
            if !cancel_acked {
                conn.push(
                    &Frame::ResultEnd {
                        cursor,
                        batches: 0,
                        rows: 0,
                        cancelled: true,
                    },
                    counters,
                );
            }
        }
    }
}

/// Stream batches for every cursor that has credit, stopping at the
/// outbound-buffer ceiling — the mechanism that bounds per-connection
/// memory by `O(batch)` instead of `O(result)`.
fn pump_cursors(shared: &Shared, conn: &mut Conn) {
    let counters = &shared.counters;
    let batch_rows = shared.cfg.batch_rows.max(1) as usize;
    let ids: Vec<u32> = conn.cursors.keys().copied().collect();
    for id in ids {
        // Take the cursor out for the duration of the pump so batches
        // can be queued (updating `out.bytes`) as they are sliced — the
        // ceiling check must see every byte already produced this tick.
        let mut cur = conn.cursors.remove(&id).expect("cursor vanished");
        if cur.sub.as_ref().is_some_and(|s| s.drained) {
            // Fully-streamed subscription revision: parked until the
            // warehouse generation moves and the wakeup re-runs it.
            conn.cursors.insert(id, cur);
            continue;
        }
        let mut finished = false;
        loop {
            let total = cur.table.num_rows();
            if cur.next_row >= total {
                if let Some(sub) = cur.sub.as_mut() {
                    // A subscription revision ends with SubUpdate, not
                    // ResultEnd: the cursor stays open for the next one.
                    conn.push(
                        &Frame::SubUpdate {
                            cursor: id,
                            update: sub.update,
                            rows: cur.next_row as u64,
                        },
                        counters,
                    );
                    sub.update += 1;
                    sub.drained = true;
                    counters.sub_updates_pushed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                conn.push(
                    &Frame::ResultEnd {
                        cursor: id,
                        batches: cur.seq,
                        rows: cur.next_row as u64,
                        cancelled: false,
                    },
                    counters,
                );
                finished = true;
                break;
            }
            if cur.credit == 0 {
                if !cur.stalled {
                    cur.stalled = true;
                    counters.credit_stalls.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            if conn.out.bytes >= shared.cfg.max_outbuf_bytes {
                break; // socket backlogged; resume next tick
            }
            let len = batch_rows.min(total - cur.next_row);
            match cur.table.slice(cur.next_row, len) {
                Ok(batch) => {
                    conn.push(
                        &Frame::ResultBatch {
                            cursor: id,
                            seq: cur.seq,
                            table: Arc::new(batch),
                        },
                        counters,
                    );
                    cur.seq += 1;
                    cur.next_row += len;
                    cur.credit -= 1;
                    counters.batches_streamed.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    conn.push(
                        &Frame::ResultEnd {
                            cursor: id,
                            batches: cur.seq,
                            rows: cur.next_row as u64,
                            cancelled: true,
                        },
                        counters,
                    );
                    finished = true;
                    break;
                }
            }
        }
        if finished {
            counters.cursors_open.fetch_sub(1, Ordering::Relaxed);
        } else {
            conn.cursors.insert(id, cur);
        }
    }
}
