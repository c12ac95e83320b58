//! # lazyetl-server — serve the lazy warehouse over the wire
//!
//! The paper's pitch is time-to-first-insight for *one* analyst; the
//! roadmap's warehouse serves many. This crate turns the `Send + Sync`
//! [`lazyetl_core::Warehouse`] into a network service on plain
//! `std::net` — no async runtime, no external dependencies:
//!
//! * [`protocol`] — the length-prefixed, versioned, typed wire frames of
//!   the one protocol both peers speak. Results stream as credit-gated
//!   record-batch frames over client-chosen cursors (`Hello` handshake,
//!   `ResultStart` / `ResultBatch` / `ResultEnd` / `Credit` / `Cancel`);
//!   live-tail subscriptions (`Subscribe` / `SubUpdate`) keep a cursor
//!   open and re-push its result as a new revision whenever a repository
//!   refresh moves the warehouse generation — O(delta) per subscriber
//!   when the recycler patched the resident result;
//! * [`server`] — an **event-driven connection layer**: one poller
//!   thread owns every connection on nonblocking sockets (connection
//!   count bounded by memory, not threads), parses frames incrementally,
//!   and multiplexes admitted queries onto the bounded worker pool.
//!   Admission control rejects with `BUSY` on queue depth **and** on
//!   estimated cost (the PR 8 cardinality estimates); credit-based
//!   backpressure bounds per-connection memory by `O(batch)` — a slow
//!   reader suspends its cursor instead of buffering its result.
//!   Graceful shutdown drains in-flight queries, finishes open cursors
//!   and snapshots the hot cache via the PR 3 durable save path;
//! * [`client`] — a blocking [`client::Client`] whose
//!   [`query`](client::Client::query) returns a
//!   [`client::QueryStream`]: batches on demand, `cancel()`, drop-aborts.
//!   [`query_all`](client::Client::query_all) collects the stream into
//!   one table; [`subscribe`](client::Client::subscribe) opens a live
//!   tail.
//!
//! Two binaries ship with the crate:
//!
//! * `lazyetl-serve` — boot a warehouse (cold, or warm from a snapshot)
//!   and serve it; SIGTERM triggers the drain→snapshot sequence;
//! * `lazyetl-cli` — query / stats / ping / shutdown from a shell.
//!
//! ## Quick start
//!
//! ```no_run
//! use lazyetl_core::{Warehouse, WarehouseConfig};
//! use lazyetl_server::{Client, QueryReply, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let wh = Arc::new(Warehouse::open_lazy("/data/mseed", WarehouseConfig::default()).unwrap());
//! let server = Server::start(wh, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap(); // Hello handshake
//! match client.query("SELECT COUNT(*) FROM mseed.files").unwrap() {
//!     QueryReply::Stream(mut stream) => {
//!         // Batches arrive on demand; each pull grants the server one
//!         // credit. Stop pulling and the server suspends the cursor.
//!         while let Some(batch) = stream.next_batch().unwrap() {
//!             println!("{}", batch.to_ascii(10));
//!         }
//!     }
//!     QueryReply::Busy { estimated_rows, .. } => println!("busy (est {estimated_rows} rows)"),
//!     QueryReply::Error { code, message } => eprintln!("{code}: {message}"),
//! }
//!
//! let report = server.stop().unwrap(); // drain + optional snapshot
//! println!("served {} queries", report.stats.queries_ok);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{
    Client, ClientError, QueryReply, QueryStream, ServedResult, ServerReply, SubscribeReply,
    Subscription,
};
pub use protocol::{Frame, ProtoError, WireMetrics};
pub use server::{Server, ServerConfig, ServerStats, ShutdownReport};
