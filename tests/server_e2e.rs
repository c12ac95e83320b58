//! End-to-end tests of the serving layer: real TCP connections against a
//! real warehouse, covering the wire protocol's failure modes, admission
//! control, streamed cursors (credit flow, cancel, backpressure), the
//! retired whole-frame types, and served-vs-serial result identity.

mod common;

use common::{figure1_repo, FIGURE1_Q1, FIGURE1_Q2};
use lazyetl::core::{Warehouse, WarehouseConfig, METADATA_QUERY};
use lazyetl::mseed::record::SourceId;
use lazyetl::mseed::Timestamp;
use lazyetl::repo::{updates, Repository};
use lazyetl::server::protocol::{self, Frame};
use lazyetl::server::{Client, QueryReply, Server, ServerConfig, ServerReply, SubscribeReply};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A full-scan projection over one stream: 2 files × 300 s × 40 Hz =
/// 24 000 rows — big enough that it streams as many record batches.
const WIDE_SCAN: &str =
    "SELECT D.sample_value FROM mseed.dataview WHERE F.station = 'HGN' AND F.channel = 'BHZ'";

fn quiet_config() -> WarehouseConfig {
    WarehouseConfig {
        auto_refresh: false,
        ..Default::default()
    }
}

fn start_server(wh: Arc<Warehouse>, cfg: ServerConfig) -> Server {
    Server::start(wh, "127.0.0.1:0", cfg).expect("bind loopback")
}

fn expect_rows(client: &mut Client, sql: &str) -> lazyetl::store::Table {
    match client.query_all(sql).expect("transport ok") {
        ServerReply::Result(r) => r.table,
        other => panic!("expected rows for {sql:?}, got {other:?}"),
    }
}

/// Poll a stats predicate until it holds or a 10 s deadline passes.
fn wait_for(server: &Server, what: &str, pred: impl Fn(&lazyetl::server::ServerStats) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if pred(&stats) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn served_results_match_serial_eager_baseline() {
    let repo = figure1_repo("srv_baseline", 512);
    // Serial eager baseline: the ground truth the lazy served path must
    // reproduce bit for bit.
    let eager = Warehouse::open_eager(&repo.root, quiet_config()).unwrap();
    let mix = [FIGURE1_Q1, FIGURE1_Q2, METADATA_QUERY];
    let baseline: Vec<_> = mix
        .iter()
        .map(|sql| (*eager.query(sql).unwrap().table).clone())
        .collect();

    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(Arc::clone(&wh), ServerConfig::default());
    let addr = server.addr();
    std::thread::scope(|s| {
        for t in 0..4 {
            let baseline = &baseline;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..3 {
                    for (i, sql) in mix.iter().enumerate() {
                        let got = expect_rows(&mut client, sql);
                        assert_eq!(
                            got, baseline[i],
                            "client {t} round {round} query {i}: served lazy result \
                             diverged from the serial eager baseline"
                        );
                    }
                }
            });
        }
    });
    let report = server.stop().unwrap();
    assert_eq!(report.stats.queries_ok, 4 * 3 * 3);
    assert_eq!(report.stats.queries_err, 0);
    assert_eq!(report.stats.proto_errors, 0);
    // Every query opened (and closed) a streamed cursor.
    assert_eq!(report.stats.cursors_opened, 4 * 3 * 3);
    assert_eq!(
        report.stats.cursors_open, 0,
        "quiesced server holds no cursors"
    );
}

#[test]
fn malformed_frames_are_rejected_with_stable_codes() {
    let repo = figure1_repo("srv_malformed", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            max_request_bytes: 4096,
            ..Default::default()
        },
    );
    let addr = server.addr();

    // Each malformed prelude gets an error frame with the right code,
    // then the connection closes.
    const V: u8 = protocol::VERSION;
    let cases: Vec<(Vec<u8>, &str)> = vec![
        // Wrong magic.
        (vec![0xFF, 0xFF, V, 0x07, 0, 0, 0, 0], "proto.magic"),
        // Wrong version.
        (vec![0x4C, 0x5A, 9, 0x07, 0, 0, 0, 0], "proto.version"),
        // Unknown frame type.
        (vec![0x4C, 0x5A, V, 0x6E, 0, 0, 0, 0], "proto.type"),
        // Payload larger than the server's request cap.
        (
            vec![0x4C, 0x5A, V, 0x0D, 0xFF, 0xFF, 0xFF, 0xFF],
            "proto.oversize",
        ),
        // Query frame whose payload is shorter than its fixed prefix.
        (
            vec![0x4C, 0x5A, V, 0x0D, 0, 0, 0, 2, 0, 0],
            "proto.malformed",
        ),
    ];
    for (bytes, want_code) in cases {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&bytes).unwrap();
        raw.flush().unwrap();
        let reply =
            protocol::read_frame(&mut raw, protocol::DEFAULT_MAX_RESPONSE).expect("error frame");
        match reply {
            Frame::Error { code, .. } => assert_eq!(code, want_code, "prelude {bytes:?}"),
            other => panic!("expected error frame for {bytes:?}, got {other:?}"),
        }
        // The connection is closed after a protocol violation.
        let mut buf = [0u8; 1];
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "connection stays open");
    }

    // A truncated frame (header promises more than ever arrives) must not
    // wedge the server: the writer disappears, the server just drops it.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&[0x4C, 0x5A, V, 0x0D, 0, 0, 0, 50, 1, 2, 3])
            .unwrap();
        drop(raw);
    }

    // After all that abuse the pool still answers queries.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let t = expect_rows(&mut client, METADATA_QUERY);
    assert!(t.num_rows() > 0);
    let report = server.stop().unwrap();
    assert_eq!(report.stats.proto_errors, 5);
}

#[test]
fn client_disconnect_mid_query_leaves_pool_healthy() {
    let repo = figure1_repo("srv_disconnect", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let addr = server.addr();

    // Send a slow query, then vanish while it is still in its think time.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let frame = protocol::frame_bytes(&Frame::QueryV2 {
            cursor: 1,
            delay_ms: 200,
            sql: METADATA_QUERY.to_string(),
        })
        .unwrap();
        raw.write_all(&frame).unwrap();
        raw.flush().unwrap();
        drop(raw);
    }

    // The single worker gets past the orphaned query and then serves this.
    let mut client = Client::connect(addr).unwrap();
    let t = expect_rows(&mut client, FIGURE1_Q2);
    assert!(t.num_rows() > 0);

    // Reaping the dead connection flagged its job, so the worker skipped
    // the orphan after the think time instead of executing it for nobody.
    let report = server.stop().unwrap();
    assert_eq!(report.stats.queries_ok, 1, "only the served query ran");
    assert_eq!(
        report.stats.dropped_replies, 0,
        "a skipped job drops nothing"
    );
    assert_eq!(report.stats.cursors_open, 0);
}

#[test]
fn busy_frame_fires_at_configured_queue_depth() {
    let repo = figure1_repo("srv_busy", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    wh.query(METADATA_QUERY).unwrap(); // warm so exec time ≈ delay
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        },
    );
    let addr = server.addr();

    // Client A occupies the single worker (600ms think time); client B
    // fills the depth-1 queue; client C must get a BUSY frame.
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut c = Client::connect(addr).unwrap();
            c.query_all_with_delay(METADATA_QUERY, 600).unwrap()
        });
        std::thread::sleep(Duration::from_millis(200)); // A popped by the worker
        let b = s.spawn(|| {
            let mut c = Client::connect(addr).unwrap();
            c.query_all_with_delay(METADATA_QUERY, 0).unwrap()
        });
        std::thread::sleep(Duration::from_millis(200)); // B sits in the queue
        let mut c = Client::connect(addr).unwrap();
        match c.query_all(METADATA_QUERY).unwrap() {
            ServerReply::Busy {
                queue_depth,
                queued,
                ..
            } => {
                assert_eq!(queue_depth, 1);
                assert_eq!(queued, 1);
            }
            other => panic!("expected busy, got {other:?}"),
        }
        (a.join().unwrap(), b.join().unwrap())
    });
    for (name, reply) in [("A", a), ("B", b)] {
        assert!(
            matches!(reply, ServerReply::Result(_)),
            "client {name} should have gotten rows, got {reply:?}"
        );
    }
    let report = server.stop().unwrap();
    assert_eq!(report.stats.busy_rejections, 1);
    assert_eq!(report.stats.queries_ok, 2);
}

#[test]
fn oversized_query_rejected_without_serving_interruption() {
    let repo = figure1_repo("srv_oversize", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            max_request_bytes: 1024,
            ..Default::default()
        },
    );
    let addr = server.addr();

    // A legitimate query frame that is simply too big for the cap.
    let huge_sql = format!(
        "SELECT network FROM mseed.files WHERE station = '{}'",
        "x".repeat(4096)
    );
    let mut raw = TcpStream::connect(addr).unwrap();
    let frame = protocol::frame_bytes(&Frame::QueryV2 {
        cursor: 1,
        delay_ms: 0,
        sql: huge_sql.clone(),
    })
    .unwrap();
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    match protocol::read_frame(&mut raw, protocol::DEFAULT_MAX_RESPONSE).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, "proto.oversize");
            assert!(message.contains("1024"), "limit named in {message:?}");
        }
        other => panic!("expected oversize error, got {other:?}"),
    }

    // The client enforces the same cap before ever touching the wire: an
    // oversized request fails locally with the same stable code, and the
    // connection is never poisoned — the same client keeps working.
    let mut capped = Client::connect(addr).unwrap();
    capped.set_max_request_bytes(1024);
    let err = capped
        .query_all(&huge_sql)
        .expect_err("rejected client-side");
    assert_eq!(err.code(), "proto.oversize");
    let t = expect_rows(&mut capped, METADATA_QUERY);
    assert!(t.num_rows() > 0);

    // Under the cap still works on a fresh connection.
    let mut client = Client::connect(addr).unwrap();
    let t = expect_rows(&mut client, METADATA_QUERY);
    assert!(t.num_rows() > 0);
    server.stop().unwrap();
}

#[test]
fn query_errors_travel_with_codes_and_connection_survives() {
    let repo = figure1_repo("srv_errors", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(Arc::clone(&wh), ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    match client.query_all("SELEKT broken").unwrap() {
        ServerReply::Error { code, .. } => assert_eq!(code, "query.parse"),
        other => panic!("expected parse error, got {other:?}"),
    }
    match client.query_all("SELECT nope FROM mseed.files").unwrap() {
        ServerReply::Error { code, .. } => assert_eq!(code, "query.plan"),
        other => panic!("expected plan error, got {other:?}"),
    }
    // The same connection keeps serving after in-band errors.
    let t = expect_rows(&mut client, METADATA_QUERY);
    assert!(t.num_rows() > 0);
    let report = server.stop().unwrap();
    assert_eq!(report.stats.queries_err, 2);
    assert_eq!(report.stats.queries_ok, 1);
}

#[test]
fn graceful_shutdown_drains_saves_and_next_boot_is_warm() {
    let repo = figure1_repo("srv_shutdown", 512);
    let save_dir = repo.root.join("_snapshot");
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            save_dir: Some(save_dir.clone()),
            ..Default::default()
        },
    );
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let hot = expect_rows(&mut client, FIGURE1_Q2); // populates the cache

    // Wire-initiated shutdown: ack arrives, drain runs, snapshot lands.
    client.shutdown().unwrap();
    let report = server.stop().unwrap();
    let save = report.save.expect("snapshot configured");
    assert!(!save.segments.is_empty(), "hot cache persisted");
    assert!(save_dir.join(lazyetl::core::MANIFEST_NAME).exists());

    // New queries after the shutdown request are refused (the listener
    // goes away at drain start, so the connect itself usually fails).
    let mut late = Client::connect(addr);
    if let Ok(c) = late.as_mut() {
        match c.query_all(METADATA_QUERY) {
            Ok(ServerReply::Error { code, .. }) => assert_eq!(code, "server.shutdown"),
            Ok(other) => panic!("late query should be refused, got {other:?}"),
            Err(_) => {} // listener already gone — equally acceptable
        }
    }

    // Second boot from the snapshot: warm cache, zero re-extraction.
    let wh2 = Arc::new(Warehouse::open_saved(&repo.root, &save_dir, quiet_config()).unwrap());
    let server2 = start_server(Arc::clone(&wh2), ServerConfig::default());
    let mut client2 = Client::connect(server2.addr()).unwrap();
    match client2.query_all(FIGURE1_Q2).unwrap() {
        ServerReply::Result(r) => {
            assert_eq!(r.table, hot, "warm boot answers identically");
            assert_eq!(
                r.metrics.records_extracted, 0,
                "warm boot re-extracts nothing"
            );
            assert!(r.metrics.cache_hits > 0, "served from the rehydrated cache");
        }
        other => panic!("warm query failed: {other:?}"),
    }
    let stats = client2.stats().unwrap();
    assert_eq!(
        stats.get("server.records_extracted").map(String::as_str),
        Some("0")
    );
    server2.stop().unwrap();
}

#[test]
fn stats_frame_reports_serving_counters() {
    let repo = figure1_repo("srv_stats", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(Arc::clone(&wh), ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    expect_rows(&mut client, FIGURE1_Q1);
    expect_rows(&mut client, FIGURE1_Q1);
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("server.queries_ok").map(String::as_str),
        Some("2")
    );
    assert_eq!(
        stats.get("warehouse.mode").map(String::as_str),
        Some("lazy")
    );
    let files: u64 = stats.get("warehouse.files").unwrap().parse().unwrap();
    assert_eq!(files as usize, repo.generated.files.len());
    let hit_rate: f64 = stats.get("server.cache_hit_rate").unwrap().parse().unwrap();
    assert!((0.0..=1.0).contains(&hit_rate));
    // The streaming counters travel over the same frame.
    let opened: u64 = stats.get("server.cursors_opened").unwrap().parse().unwrap();
    assert_eq!(opened, 2);
    let streamed: u64 = stats
        .get("server.batches_streamed")
        .unwrap()
        .parse()
        .unwrap();
    assert!(streamed >= 2, "each result is at least one batch");
    server.stop().unwrap();
}

#[test]
fn retired_v1_frames_get_proto_type_and_pool_survives() {
    let repo = figure1_repo("srv_v1retired", 512);
    let eager = Warehouse::open_eager(&repo.root, quiet_config()).unwrap();
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(Arc::clone(&wh), ServerConfig::default());
    let addr = server.addr();

    // A whole-frame query (type 0x01: delay, flags, SQL) with no Hello is
    // an unknown frame type: stable error, connection closed, nothing run.
    let mut payload = vec![0, 0, 0, 0, 0];
    payload.extend_from_slice(METADATA_QUERY.as_bytes());
    let mut bytes = vec![0x4C, 0x5A, protocol::VERSION, 0x01];
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&payload);
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&bytes).unwrap();
    match protocol::read_frame(&mut raw, protocol::DEFAULT_MAX_RESPONSE).unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, "proto.type"),
        other => panic!("expected proto.type, got {other:?}"),
    }
    let mut buf = [0u8; 1];
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "connection stays open");

    // The violation is counted in the stats frame and leaked nothing.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("server.proto_errors").map(String::as_str),
        Some("1")
    );
    assert_eq!(server.stats().cursors_open, 0);
    assert_eq!(server.stats().queries_ok, 0, "the retired query never ran");

    // The pool is healthy: the Figure-1 mix still matches the eager baseline.
    for sql in [FIGURE1_Q1, FIGURE1_Q2, METADATA_QUERY] {
        assert_eq!(
            expect_rows(&mut client, sql),
            *eager.query(sql).unwrap().table,
            "served result diverged from the eager baseline for {sql:?}"
        );
    }
    let report = server.stop().unwrap();
    assert_eq!(report.stats.queries_ok, 3);
    assert_eq!(report.stats.proto_errors, 1);
    assert_eq!(report.stats.cursors_open, 0);
}

#[test]
fn slow_consumer_backpressure_bounds_server_memory() {
    let repo = figure1_repo("srv_backpressure", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    // Serial ground truth for the drained stream.
    let expected = (*wh.query(WIDE_SCAN).unwrap().table).clone();
    assert!(
        expected.num_rows() >= 20_000,
        "scan must be large enough to stream in many batches"
    );

    let max_outbuf = 32 * 1024;
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            batch_rows: 256,
            initial_credit: 2,
            max_outbuf_bytes: max_outbuf,
            ..Default::default()
        },
    );
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(
        client.batch_rows(),
        256,
        "handshake advertises the batch size"
    );

    let mut stream = match client.query(WIDE_SCAN).unwrap() {
        QueryReply::Stream(s) => s,
        QueryReply::Busy { queued, .. } => panic!("unexpected busy ({queued} queued)"),
        QueryReply::Error { code, message } => panic!("unexpected error {code}: {message}"),
    };
    // Consume one batch, then stall: the server may spend its remaining
    // credit, then must suspend the cursor rather than buffer the result.
    let first = stream.next_batch().unwrap().expect("first batch");
    assert_eq!(first.num_rows(), 256);
    wait_for(&server, "credit stall", |s| s.credit_stalls >= 1);
    std::thread::sleep(Duration::from_millis(200)); // stay stalled a while
    let mid = server.stats();
    assert!(
        mid.outbuf_hwm_bytes <= (max_outbuf + 16 * 1024) as u64,
        "stalled reader must not grow server memory past the ceiling \
         (+1 batch of slack): hwm {} bytes",
        mid.outbuf_hwm_bytes
    );
    assert_eq!(mid.cursors_open, 1, "the suspended cursor stays live");

    // Resume: draining the stream reproduces the serial scan exactly.
    let mut got = stream.schema().clone();
    got.append_table(&first).unwrap();
    for batch in &mut stream {
        got.append_table(&batch.unwrap()).unwrap();
    }
    assert_eq!(got, expected, "streamed scan diverged from serial baseline");
    assert_eq!(stream.rows() as usize, expected.num_rows());
    drop(stream);

    wait_for(&server, "cursor retired", |s| s.cursors_open == 0);
    let report = server.stop().unwrap();
    assert!(report.stats.credit_stalls >= 1);
    assert!(report.stats.batches_streamed as usize >= expected.num_rows() / 256);
    assert_eq!(report.stats.queries_ok, 1);
}

#[test]
fn cancel_mid_stream_frees_cursor_and_worker() {
    let repo = figure1_repo("srv_cancel", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            workers: 1,
            batch_rows: 64,
            initial_credit: 1,
            ..Default::default()
        },
    );
    let mut client = Client::connect(server.addr()).unwrap();

    // Open a wide stream, take one batch, then abandon the rest.
    let mut stream = match client.query(WIDE_SCAN).unwrap() {
        QueryReply::Stream(s) => s,
        _ => panic!("expected stream"),
    };
    let first = stream.next_batch().unwrap().expect("first batch");
    assert_eq!(first.num_rows(), 64);
    stream.cancel().unwrap();
    assert!(stream.was_cancelled());
    assert!(stream.next_batch().unwrap().is_none(), "cancelled = ended");
    drop(stream);

    // The cursor is gone server-side and the single worker is free: the
    // same connection immediately serves another query.
    wait_for(&server, "cancelled cursor freed", |s| s.cursors_open == 0);
    let t = expect_rows(&mut client, METADATA_QUERY);
    assert!(t.num_rows() > 0);

    // Dropping a live stream cancels it too (drop-abort).
    match client.query(WIDE_SCAN).unwrap() {
        QueryReply::Stream(mut s) => {
            s.next_batch().unwrap().expect("streaming");
            drop(s); // best-effort Cancel rides out with the drop
        }
        _ => panic!("expected stream"),
    }
    wait_for(&server, "dropped cursor freed", |s| s.cursors_open == 0);
    let t = expect_rows(&mut client, METADATA_QUERY);
    assert!(t.num_rows() > 0);

    let report = server.stop().unwrap();
    assert_eq!(report.stats.cursors_open, 0);
    assert_eq!(report.stats.queries_err, 0);
    assert_eq!(report.stats.proto_errors, 0);
}

#[test]
fn disconnect_storm_leaves_no_leaked_cursors() {
    let repo = figure1_repo("srv_storm", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    wh.query(WIDE_SCAN).unwrap(); // warm the cache so the storm is fast
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            workers: 2,
            batch_rows: 128,
            initial_credit: 2,
            ..Default::default()
        },
    );
    let addr = server.addr();

    // Wave 1: clients that open a wide stream, read one batch, and slam
    // the connection shut with the cursor still live.
    for _ in 0..40 {
        let mut client = Client::connect(addr).unwrap();
        match client.query(WIDE_SCAN).unwrap() {
            QueryReply::Stream(mut s) => {
                s.next_batch().unwrap().expect("streaming");
            }
            _ => panic!("expected stream"),
        }
        drop(client); // stream drop-aborts, then the socket dies
    }
    // Wave 2: connections that never even finish a handshake.
    for _ in 0..40 {
        drop(TcpStream::connect(addr).unwrap());
    }
    // Wave 3: handshake then immediate disappearance mid-request.
    for _ in 0..20 {
        let client = Client::connect(addr).unwrap();
        drop(client);
    }

    wait_for(&server, "all cursors reaped", |s| s.cursors_open == 0);
    // The server is fully healthy: a fresh client gets exact rows.
    let mut client = Client::connect(addr).unwrap();
    let t = expect_rows(&mut client, METADATA_QUERY);
    assert!(t.num_rows() > 0);

    let report = server.stop().unwrap();
    assert_eq!(
        report.stats.cursors_open, 0,
        "no leaked cursors after the storm"
    );
    assert!(report.stats.connections >= 100);
    assert_eq!(
        report.stats.proto_errors, 0,
        "disconnects are not protocol errors"
    );
}

#[test]
fn cost_budget_rejects_wide_scans_with_estimate_in_busy_frame() {
    let repo = figure1_repo("srv_cost", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    wh.query(METADATA_QUERY).unwrap(); // catalog walked → statistics live

    let budget = 1_000;
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            workers: 1,
            cost_budget_rows: Some(budget),
            ..Default::default()
        },
    );
    let addr = server.addr();

    // Occupy the worker so admitted cost is nonzero when the scan lands
    // (an idle server always admits — cost control must never starve).
    std::thread::scope(|s| {
        let bg = s.spawn(|| {
            let mut c = Client::connect(addr).unwrap();
            c.query_all_with_delay(METADATA_QUERY, 800).unwrap()
        });
        std::thread::sleep(Duration::from_millis(250)); // worker busy now
        let mut c = Client::connect(addr).unwrap();
        match c.query_all(WIDE_SCAN).unwrap() {
            ServerReply::Busy {
                estimated_rows,
                cost_budget,
                ..
            } => {
                assert_eq!(cost_budget, budget, "budget echoed in the busy frame");
                assert!(
                    estimated_rows > budget,
                    "estimate {estimated_rows} should exceed the {budget}-row budget"
                );
            }
            other => panic!("expected cost-based busy, got {other:?}"),
        }
        assert!(matches!(bg.join().unwrap(), ServerReply::Result(_)));
    });

    // With the worker idle again the very same scan is admitted: the
    // budget sheds load under pressure, it does not blacklist queries.
    let mut c = Client::connect(addr).unwrap();
    let t = expect_rows(&mut c, WIDE_SCAN);
    assert!(t.num_rows() >= 20_000);

    let report = server.stop().unwrap();
    assert_eq!(report.stats.cost_rejections, 1);
    assert!(report.stats.busy_rejections >= 1);
}

/// Open a live-tail subscription or die trying.
fn expect_subscription<'a>(client: &'a mut Client, sql: &str) -> lazyetl::server::Subscription<'a> {
    match client.subscribe(sql).expect("transport ok") {
        SubscribeReply::Subscription(sub) => sub,
        SubscribeReply::Busy { queued, .. } => panic!("busy ({queued} queued) for {sql:?}"),
        SubscribeReply::Error { code, message } => panic!("{code}: {message} for {sql:?}"),
    }
}

#[test]
fn subscription_pushes_updated_result_after_refresh() {
    let repo = figure1_repo("srv_subscribe", 512);
    let cfg = WarehouseConfig {
        auto_refresh: false,
        recycle_query_results: true,
        ..Default::default()
    };
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, cfg).unwrap());
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            refresh_interval: Some(Duration::from_millis(20)),
            ..Default::default()
        },
    );
    let addr = server.addr();

    let sql = "SELECT COUNT(*) FROM mseed.records";
    let mut client = Client::connect(addr).unwrap();
    let mut sub = expect_subscription(&mut client, sql);
    let snapshot = sub.next_update().unwrap().expect("initial snapshot");
    assert_eq!(snapshot.num_rows(), 1);

    // Change the repository behind the server's back: the poller's
    // refresh timer folds it in and pushes the new revision — the K
    // pollers of the paper's workflow become one O(delta) push.
    let mut raw = Repository::open(repo.root.clone()).unwrap();
    let src = SourceId::new("NL", "HGN", "", "BHZ").unwrap();
    updates::add_file(
        &mut raw,
        &src,
        Timestamp::from_ymd_hms(2010, 1, 12, 23, 30, 0, 0),
        10,
        0xF01,
    )
    .unwrap();

    let revision = sub.next_update().unwrap().expect("pushed revision");
    assert_eq!(revision.num_rows(), 1);
    assert_ne!(
        revision.to_ascii(10),
        snapshot.to_ascii(10),
        "the push reflects the inserted records"
    );
    drop(sub);

    // Pushed revision ≡ what a fresh query against the same server sees.
    let mut verify = Client::connect(addr).unwrap();
    let requeried = expect_rows(&mut verify, sql);
    assert_eq!(revision.to_ascii(10), requeried.to_ascii(10));

    // The subscription re-run was served from the patched resident
    // result, not a recompute — the tentpole's O(delta) claim.
    let recycler = wh.stats_snapshot().recycler;
    assert!(
        recycler.results_patched >= 1,
        "refresh patched the subscribed result: {recycler:?}"
    );

    let report = server.stop().unwrap();
    assert!(report.stats.subscriptions_opened >= 1);
    assert!(
        report.stats.sub_updates_pushed >= 2,
        "initial snapshot + refresh push: {:?}",
        report.stats
    );
    assert!(report.stats.refreshes_applied >= 1);
    assert_eq!(report.stats.cursors_open, 0, "drain freed the cursor");
}

#[test]
fn subscription_cancel_mid_push_frees_cursor() {
    let repo = figure1_repo("srv_sub_cancel", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    // Tiny batches + credit 1: the wide scan cannot finish its initial
    // revision before the cancel lands mid-stream.
    let server = start_server(
        Arc::clone(&wh),
        ServerConfig {
            batch_rows: 64,
            initial_credit: 1,
            ..Default::default()
        },
    );
    let addr = server.addr();

    let mut client = Client::connect(addr).unwrap();
    let mut sub = expect_subscription(&mut client, WIDE_SCAN);
    sub.cancel().expect("cancel drains to the server's ack");
    drop(sub);
    wait_for(&server, "cursor freed", |s| s.cursors_open == 0);

    // The connection is clean: a normal query works right after.
    let t = expect_rows(&mut client, FIGURE1_Q1);
    assert!(t.num_rows() > 0);

    let report = server.stop().unwrap();
    assert_eq!(report.stats.cursors_open, 0);
    assert!(report.stats.subscriptions_opened >= 1);
}

#[test]
fn subscription_ends_cleanly_on_server_drain() {
    let repo = figure1_repo("srv_sub_drain", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(Arc::clone(&wh), ServerConfig::default());

    let mut client = Client::connect(server.addr()).unwrap();
    let mut sub = expect_subscription(&mut client, FIGURE1_Q2);
    let initial = sub.next_update().unwrap().expect("initial snapshot");
    assert!(initial.num_rows() > 0);

    // Drain while the subscription idles: the server ends the tail with
    // a cancelled ResultEnd instead of hanging shutdown on it.
    server.request_shutdown();
    assert!(
        sub.next_update().unwrap().is_none(),
        "drain ends the subscription"
    );
    let report = server.stop().unwrap();
    assert_eq!(report.stats.cursors_open, 0);
}

#[test]
fn cursor_ids_collide_across_queries_and_subscriptions() {
    let repo = figure1_repo("srv_cursor_ids", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(Arc::clone(&wh), ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut send = |frame: Frame| {
        raw.write_all(&protocol::frame_bytes(&frame).unwrap())
            .unwrap();
        // Read up to the frame that settles the request.
        loop {
            match protocol::read_frame(&mut raw, protocol::DEFAULT_MAX_RESPONSE).unwrap() {
                Frame::ResultStart { .. } | Frame::ResultBatch { .. } => {}
                settled => return settled,
            }
        }
    };
    let sql = "SELECT COUNT(*) FROM mseed.files".to_string();

    // A live subscription cursor blocks a one-shot query on the same id…
    let opened = send(Frame::Subscribe {
        cursor: 5,
        sql: sql.clone(),
    });
    assert!(
        matches!(opened, Frame::SubUpdate { cursor: 5, .. }),
        "{opened:?}"
    );
    for frame in [
        Frame::QueryV2 {
            cursor: 5,
            delay_ms: 0,
            sql: sql.clone(),
        },
        Frame::Subscribe {
            cursor: 5,
            sql: sql.clone(),
        },
    ] {
        match send(frame) {
            Frame::Error { code, .. } => assert_eq!(code, "server.cursor"),
            other => panic!("expected server.cursor, got {other:?}"),
        }
    }
    // …while a fresh id on the same connection is served.
    let ended = send(Frame::QueryV2 {
        cursor: 6,
        delay_ms: 0,
        sql,
    });
    assert!(
        matches!(
            ended,
            Frame::ResultEnd {
                cursor: 6,
                cancelled: false,
                ..
            }
        ),
        "{ended:?}"
    );
    drop(raw);
    wait_for(&server, "subscription cursor reaped", |s| {
        s.cursors_open == 0
    });
    let report = server.stop().unwrap();
    assert_eq!(report.stats.queries_ok, 2, "the collisions never ran");
    assert_eq!(report.stats.proto_errors, 0, "a collision is not fatal");
}

#[test]
fn subscribe_rejected_below_current_version() {
    let repo = figure1_repo("srv_sub_version", 512);
    let wh = Arc::new(Warehouse::open_lazy(&repo.root, quiet_config()).unwrap());
    let server = start_server(Arc::clone(&wh), ServerConfig::default());

    // A Subscribe frame stamped with an older protocol version fails at
    // the header with the stable code.
    let mut bytes = protocol::frame_bytes(&Frame::Subscribe {
        cursor: 1,
        sql: FIGURE1_Q1.to_string(),
    })
    .unwrap();
    bytes[2] = protocol::VERSION - 1;
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&bytes).unwrap();
    match protocol::read_frame(&mut stream, protocol::DEFAULT_MAX_RESPONSE).unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, "proto.version"),
        other => panic!("expected proto.version, got {other:?}"),
    }

    let report = server.stop().unwrap();
    assert_eq!(report.stats.subscriptions_opened, 0);
    assert_eq!(report.stats.proto_errors, 1);
}
