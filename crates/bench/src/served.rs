//! Served-traffic load generation (experiment E14).
//!
//! E12 measured the `&self` query path with in-process threads; E14
//! measures the full serving stack: K **TCP clients** drive the Figure-1
//! mix through the wire protocol against one [`Server`] wrapping one
//! shared [`Warehouse`], all inside this process (no fork/exec — the
//! loadgen stays deterministic and CI-friendly). Reported per run:
//! throughput, p50/p99 latency, the busy-rejection rate admission control
//! produced, and the aggregate record-cache hit rate — swept over worker
//! pool sizes by the harness.
//!
//! Clients are closed-loop: a busy rejection is counted, backed off
//! (500µs) and retried; the latency recorded for a query spans first
//! attempt → result, so backpressure shows up in the percentiles, not
//! just the busy counter.

use crate::concurrent::{percentile, query_mix};
use lazyetl_core::Warehouse;
use lazyetl_server::{Client, QueryReply, Server, ServerConfig, ServerReply, ServerStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one served storm.
#[derive(Debug, Clone)]
pub struct ServedConfig {
    /// Concurrent TCP client connections.
    pub clients: usize,
    /// Queries each client issues (round-robin over the mix).
    pub queries_per_client: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Admission queue depth before BUSY.
    pub queue_depth: usize,
    /// Server-side think time per query (ms) — inflates execution so
    /// admission control becomes observable at tiny scales.
    pub delay_ms: u32,
}

impl Default for ServedConfig {
    fn default() -> Self {
        ServedConfig {
            clients: 4,
            queries_per_client: 12,
            workers: 2,
            queue_depth: 32,
            delay_ms: 0,
        }
    }
}

/// Aggregate result of one served storm.
#[derive(Debug, Clone)]
pub struct ServedRunResult {
    /// Queries answered with rows.
    pub total_queries: usize,
    /// Busy rejections absorbed by client retries.
    pub busy_rejections: usize,
    /// Wall-clock duration of the storm.
    pub elapsed: Duration,
    /// Successful queries per wall-clock second.
    pub throughput_qps: f64,
    /// Median first-attempt→result latency.
    pub p50: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Worst latency.
    pub max: Duration,
    /// Aggregate record-cache hit rate over the storm (from warehouse
    /// counters, so in-process and served traffic measure alike).
    pub cache_hit_rate: f64,
    /// Records decoded across the storm.
    pub records_extracted: u64,
    /// Server counters at the end of the storm (cumulative since serve
    /// start — one server serves one storm here).
    pub server: ServerStats,
}

impl ServedRunResult {
    /// Busy rejections per query attempt.
    pub fn busy_rate(&self) -> f64 {
        let attempts = self.total_queries + self.busy_rejections;
        if attempts == 0 {
            0.0
        } else {
            self.busy_rejections as f64 / attempts as f64
        }
    }
}

/// Serve `wh` on a loopback ephemeral port and drive `cfg.clients` TCP
/// clients over the Figure-1 mix. The server is torn down (gracefully,
/// without a snapshot) before returning.
///
/// Panics if any query fails — correctness failures under served
/// concurrency are what the e2e suite and this harness exist to surface.
pub fn run_served_mix(wh: &Arc<Warehouse>, cfg: &ServedConfig) -> ServedRunResult {
    let server = Server::start(
        Arc::clone(wh),
        "127.0.0.1:0",
        ServerConfig {
            workers: cfg.workers,
            queue_depth: cfg.queue_depth,
            ..Default::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.addr();
    let stats_before = wh.cache_snapshot().stats;
    let mix = query_mix();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Duration>, usize, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let mix = mix.clone();
                let iters = cfg.queries_per_client;
                let delay_ms = cfg.delay_ms;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut latencies = Vec::with_capacity(iters);
                    let mut busy = 0usize;
                    let mut extracted = 0u64;
                    for i in 0..iters {
                        let sql = mix[(c + i) % mix.len()];
                        let q0 = Instant::now();
                        let (reply, retries) = client
                            .query_retrying(sql, delay_ms, Duration::from_micros(500), 1_000_000)
                            .expect("served query failed");
                        busy += retries;
                        match reply {
                            ServerReply::Result(r) => {
                                latencies.push(q0.elapsed());
                                extracted += r.metrics.records_extracted;
                            }
                            ServerReply::Busy { .. } => {
                                panic!("busy after bounded retries")
                            }
                            ServerReply::Error { code, message } => {
                                panic!("server error {code}: {message}")
                            }
                        }
                    }
                    (latencies, busy, extracted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let server_stats = server.stats();
    server.stop().expect("graceful server stop");

    let mut latencies: Vec<Duration> = per_client
        .iter()
        .flat_map(|(l, _, _)| l.iter().copied())
        .collect();
    latencies.sort();
    let total_queries = latencies.len();
    let busy_rejections = per_client.iter().map(|&(_, b, _)| b).sum();
    let records_extracted = per_client.iter().map(|&(_, _, e)| e).sum();

    let stats_after = wh.cache_snapshot().stats;
    let hits = stats_after.hits - stats_before.hits;
    let misses = stats_after.misses - stats_before.misses;
    let stale = stats_after.stale_drops - stats_before.stale_drops;
    let lookups = hits + misses + stale;
    ServedRunResult {
        total_queries,
        busy_rejections,
        elapsed,
        throughput_qps: total_queries as f64 / elapsed.as_secs_f64().max(1e-9),
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        max: latencies.last().copied().unwrap_or(Duration::ZERO),
        cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        records_extracted,
        server: server_stats,
    }
}

/// One stream's full sample scan — the large-result workload for the
/// memory-ceiling measurement. Every scale generates NL.HGN/BHZ, and at
/// tiny scale this is already 24 000 rows: hundreds of batches.
pub const MEMCEIL_SCAN: &str =
    "SELECT D.sample_value FROM mseed.dataview WHERE F.station = 'HGN' AND F.channel = 'BHZ'";

/// Configuration of one memory-ceiling run (experiment E14, `memceil`
/// phase): a deliberately slow consumer against small batches, a tiny
/// credit window, and a tight outbound-buffer ceiling.
#[derive(Debug, Clone)]
pub struct MemCeilConfig {
    /// Rows per `ResultBatch` frame.
    pub batch_rows: u32,
    /// Credits granted at `ResultStart` (batches in flight before the
    /// client pulls).
    pub initial_credit: u32,
    /// Server-side ceiling on one connection's encoded-but-unsent bytes.
    pub max_outbuf_bytes: usize,
    /// How long the client plays dead mid-stream.
    pub stall: Duration,
}

impl Default for MemCeilConfig {
    fn default() -> Self {
        MemCeilConfig {
            batch_rows: 256,
            initial_credit: 2,
            max_outbuf_bytes: 32 * 1024,
            stall: Duration::from_millis(300),
        }
    }
}

/// Result of one memory-ceiling run.
#[derive(Debug, Clone)]
pub struct MemCeilResult {
    /// Rows the stream delivered (must equal the serial scan).
    pub rows: u64,
    /// `ResultBatch` frames streamed.
    pub batches_streamed: u64,
    /// Times the cursor was suspended on an empty credit window.
    pub credit_stalls: u64,
    /// High-water mark of the connection's outbound buffer during the
    /// stall — the observable the ceiling assertion gates.
    pub outbuf_hwm_bytes: u64,
    /// The asserted bound: configured ceiling + one batch of slack (a
    /// batch already being encoded when the ceiling trips still lands).
    pub ceiling_bytes: u64,
    /// `outbuf_hwm_bytes <= ceiling_bytes` — server memory stayed
    /// `O(batch)` while the reader stalled on an `O(result)` answer.
    pub ceiling_ok: bool,
    /// Wall-clock duration including the deliberate stall.
    pub elapsed: Duration,
}

/// Stream a large scan through a deliberately slow consumer and measure
/// the server's outbound-memory high-water mark.
///
/// The client takes one batch, then stalls for `cfg.stall` while the
/// cursor has thousands of rows pending: a whole-frame server would buffer
/// the whole encoded result; this server must suspend the cursor once
/// the credit window (and at most the outbuf ceiling) is exhausted. The
/// drained stream is verified row-for-row against the serial scan.
pub fn run_memory_ceiling(wh: &Arc<Warehouse>, cfg: &MemCeilConfig) -> MemCeilResult {
    // Serial ground truth (also warms the cache, so the streamed run
    // measures the serving layer, not extraction).
    let expected = wh.query(MEMCEIL_SCAN).expect("serial scan").table;
    assert!(
        expected.num_rows() as u32 > cfg.batch_rows * (cfg.initial_credit + 2),
        "scan too small to outrun the credit window"
    );
    let server = Server::start(
        Arc::clone(wh),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            batch_rows: cfg.batch_rows,
            initial_credit: cfg.initial_credit,
            max_outbuf_bytes: cfg.max_outbuf_bytes,
            ..Default::default()
        },
    )
    .expect("bind loopback server");
    let t0 = Instant::now();
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut stream = match client.query(MEMCEIL_SCAN).expect("transport ok") {
        QueryReply::Stream(s) => s,
        QueryReply::Busy { .. } => panic!("idle server rejected the scan"),
        QueryReply::Error { code, message } => panic!("scan failed: {code}: {message}"),
    };
    let mut got = stream.schema().clone();
    let first = stream
        .next_batch()
        .expect("first batch")
        .expect("scan is non-empty");
    got.append_table(&first).expect("same schema");

    // Play dead: the server spends its remaining credit, then must hold
    // the cursor. Sample the high-water mark while stalled.
    std::thread::sleep(cfg.stall);
    let stalled = server.stats();

    // Wake up and drain; the answer must be exactly the serial scan.
    for batch in &mut stream {
        let batch = batch.expect("stream batch");
        got.append_table(&batch).expect("same schema");
    }
    let rows = stream.rows();
    drop(stream);
    assert_eq!(
        got, *expected,
        "streamed scan diverged from the serial baseline"
    );
    let elapsed = t0.elapsed();
    let final_stats = server.stats();
    server.stop().expect("graceful server stop");

    // One batch of slack: a batch already being encoded when the ceiling
    // trips still lands in the buffer before pumping pauses.
    let ceiling_bytes = (cfg.max_outbuf_bytes + 16 * 1024) as u64;
    MemCeilResult {
        rows,
        batches_streamed: final_stats.batches_streamed,
        credit_stalls: final_stats.credit_stalls,
        outbuf_hwm_bytes: stalled.outbuf_hwm_bytes.max(final_stats.outbuf_hwm_bytes),
        ceiling_bytes,
        ceiling_ok: final_stats.outbuf_hwm_bytes.max(stalled.outbuf_hwm_bytes) <= ceiling_bytes,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scale_config, ScaleName};
    use lazyetl_core::WarehouseConfig;

    fn tiny_warehouse() -> Arc<Warehouse> {
        let dir = crate::materialize("served_unit", &scale_config(ScaleName::Tiny));
        Arc::new(
            Warehouse::open_lazy(
                &dir,
                WarehouseConfig {
                    auto_refresh: false,
                    ..Default::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn served_mix_reports_consistent_aggregates() {
        let wh = tiny_warehouse();
        let cfg = ServedConfig {
            clients: 3,
            queries_per_client: 4,
            workers: 2,
            queue_depth: 32,
            delay_ms: 0,
        };
        let r = run_served_mix(&wh, &cfg);
        assert_eq!(r.total_queries, 12);
        assert!(r.throughput_qps > 0.0);
        assert!(r.p50 <= r.p99 && r.p99 <= r.max);
        assert!((0.0..=1.0).contains(&r.cache_hit_rate));
        assert!(r.records_extracted > 0, "cold storm extracts data");
        assert_eq!(r.server.queries_ok as usize, r.total_queries);
        assert_eq!(r.server.queries_err, 0);
        // Warm storm over the same warehouse: extraction-free, hit rate up.
        let r2 = run_served_mix(&wh, &cfg);
        assert_eq!(r2.records_extracted, 0, "warm storm is extraction-free");
        assert!(r2.cache_hit_rate > r.cache_hit_rate);
    }

    #[test]
    fn tight_queue_produces_busy_rejections_yet_completes() {
        let wh = tiny_warehouse();
        wh.query(crate::FIGURE1_Q1).unwrap(); // pre-warm a little
        let cfg = ServedConfig {
            clients: 4,
            queries_per_client: 3,
            workers: 1,
            queue_depth: 1,
            delay_ms: 10,
        };
        let r = run_served_mix(&wh, &cfg);
        assert_eq!(r.total_queries, 12, "every query eventually lands");
        assert!(
            r.busy_rejections > 0,
            "4 clients racing a depth-1 queue with 10ms think time must \
             trip admission control"
        );
        assert_eq!(r.server.busy_rejections as usize, r.busy_rejections);
    }

    #[test]
    fn memory_ceiling_holds_under_a_stalled_reader() {
        let wh = tiny_warehouse();
        let cfg = MemCeilConfig {
            stall: Duration::from_millis(150),
            ..Default::default()
        };
        let r = run_memory_ceiling(&wh, &cfg);
        assert!(r.rows >= 20_000, "scan must dwarf the batch size: {r:?}");
        assert!(
            r.batches_streamed >= r.rows / cfg.batch_rows as u64,
            "result must have streamed in many batches: {r:?}"
        );
        assert!(
            r.credit_stalls >= 1,
            "a stalled reader must suspend the cursor: {r:?}"
        );
        assert!(r.ceiling_ok, "outbuf high water blew the ceiling: {r:?}");
    }
}
