//! Serve a lazy warehouse over TCP and query it through the wire
//! protocol — the whole serving stack in one process.
//!
//! ```sh
//! cargo run --release --example served_quickstart
//! ```
//!
//! Boots a server on an ephemeral loopback port, drives the Figure-1
//! queries through a [`lazyetl::server::Client`] — results arrive as a
//! credit-gated **batch stream**, so rows print before the
//! query's tail is even on the wire — prints the per-request serving
//! metrics, then shuts down gracefully: draining in-flight queries and
//! snapshotting the hot cache so a second boot would warm-restart.

use lazyetl::mseed::gen::{generate_repository, GeneratorConfig};
use lazyetl::mseed::Timestamp;
use lazyetl::server::{Client, QueryReply, Server, ServerConfig};
use lazyetl::{Warehouse, WarehouseConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A source repository (synthesized; point --root at real mSEED).
    let root = std::env::temp_dir().join("lazyetl_served_quickstart");
    std::fs::remove_dir_all(&root).ok();
    let config = GeneratorConfig {
        start: Timestamp::from_ymd_hms(2010, 1, 12, 22, 0, 0, 0),
        file_duration_secs: 600,
        files_per_stream: 2,
        ..Default::default()
    };
    generate_repository(&root, &config)?;

    // 2. One shared warehouse behind a bounded worker pool. The queue
    //    depth is the admission-control knob: beyond it, clients get a
    //    BUSY frame instead of a growing backlog.
    let wh = Arc::new(Warehouse::open_lazy(&root, WarehouseConfig::default())?);
    let save_dir = root.join("_snapshot");
    let server = Server::start(
        Arc::clone(&wh),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            save_dir: Some(save_dir.clone()),
            ..Default::default()
        },
    )?;
    println!("serving on {}\n", server.addr());

    // 3. A client on the other side of the socket. `connect` runs the
    //    Hello handshake; `query` returns a QueryStream: batches on
    //    demand, one credit granted back per batch consumed.
    let mut client = Client::connect(server.addr())?;
    println!("{} rows/batch\n", client.batch_rows());
    for sql in [
        "SELECT network, station, COUNT(*) FROM mseed.files GROUP BY network, station",
        "SELECT F.station, MIN(D.sample_value), MAX(D.sample_value) \
         FROM mseed.dataview WHERE F.network = 'NL' AND F.channel = 'BHZ' \
         GROUP BY F.station",
    ] {
        let reply = client.query(sql)?;
        match reply {
            QueryReply::Stream(mut stream) => {
                while let Some(batch) = stream.next_batch()? {
                    println!("{}", batch.to_ascii(10));
                }
                let m = stream.metrics();
                println!(
                    "rows={} batches={} queue_wait={}us exec={}us extracted={} hits={}/{}\n",
                    stream.rows(),
                    stream.batches(),
                    m.queue_wait_us,
                    m.exec_us,
                    m.records_extracted,
                    m.cache_hits,
                    m.cache_hits + m.cache_misses,
                );
            }
            QueryReply::Busy { queued, .. } => println!("busy ({queued} queued), retry later"),
            QueryReply::Error { code, message } => println!("{code}: {message}"),
        }
    }

    // 4. The server-side view of the same traffic.
    for (k, v) in client.stats()? {
        if k.starts_with("server.") {
            println!("{k}={v}");
        }
    }

    // 5. Graceful shutdown: drain, then snapshot the hot cache — the
    //    next boot would `Warehouse::open_saved` and start warm.
    let report = server.stop()?;
    println!(
        "\nshutdown: {} queries served, snapshot at {} ({} segments)",
        report.stats.queries_ok,
        save_dir.display(),
        report.save.map(|s| s.segments.len()).unwrap_or(0),
    );
    std::fs::remove_dir_all(&root).ok();
    Ok(())
}
