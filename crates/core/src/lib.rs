//! # Lazy ETL — query-driven, on-demand ETL for scientific data warehouses
//!
//! Reproduction of *"Lazy ETL in Action: ETL Technology Dates Scientific
//! Data"* (Kargın, Ivanova, Zhang, Manegold, Kersten — PVLDB 6(12), 2013).
//!
//! Traditional (eager) ETL fills a warehouse with **all** data from the
//! source repository before the first query can run. Lazy ETL instead
//! loads only **metadata** at attach time and integrates the
//! extract-transform-load pipeline into query execution: each query's plan
//! is rewritten at run time so that exactly the files and records it needs
//! are extracted, transformed and loaded — transparently, with a
//! lock-striped LRU recycling cache and mtime-based lazy refresh. The
//! warehouse is `Send + Sync` and [`warehouse::Warehouse::query`] takes
//! `&self`: share one instance across any number of client threads.
//!
//! ## Quick start
//!
//! ```no_run
//! use lazyetl_core::warehouse::{Warehouse, WarehouseConfig};
//!
//! // Attach an mSEED repository lazily: only metadata is read.
//! let wh = Warehouse::open_lazy("/data/mseed", WarehouseConfig::default()).unwrap();
//!
//! // Figure 1 of the paper, verbatim — extraction happens on demand.
//! let out = wh.query(
//!     "SELECT F.station, MIN(D.sample_value), MAX(D.sample_value) \
//!      FROM mseed.dataview \
//!      WHERE F.network = 'NL' AND F.channel = 'BHZ' \
//!      GROUP BY F.station",
//! ).unwrap();
//! println!("{}", out.table.to_ascii(20));
//! println!("extracted from {} files", out.report.files_extracted.len());
//! ```
//!
//! ## Module map
//!
//! * [`schema`] — the paper's three-table warehouse schema (F/R/D) and the
//!   `dataview` universal view;
//! * [`extract`] — the [`extract::Extractor`] boundary and the MiniSEED
//!   implementation (metadata scan vs. selective decode);
//! * [`rewrite`] — compile-time + run-time lazy plan rewriting (§3.1);
//! * [`cache`] — intermediate-result recycling with LRU and staleness
//!   checks (§3.3);
//! * [`qcache`] — the second recycler level: final query results keyed by
//!   optimized-plan fingerprint, invalidated by refresh generations;
//! * [`parallel`] — scoped-thread extraction of independent files
//!   (byte-identical results at any thread count);
//! * [`persistence`] + [`segment`] — the durable save/recover path:
//!   crash-consistent warehouse snapshots (manifest v2 + journal) that
//!   persist the record cache as checksummed per-shard segment files,
//!   so a reopened lazy warehouse starts warm;
//! * [`warehouse`] — the facade tying repository, catalog, cache and query
//!   engine together; eager mode is the paper's baseline;
//! * [`analysis`] — STA/LTA event hunting, the demo's analysis workload;
//! * [`log`] — the ETL operations log (demo item 8).

#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod error;
pub mod extract;
pub mod log;
pub mod parallel;
pub mod persistence;
pub mod qcache;
pub mod rewrite;
pub mod schema;
pub mod segment;
pub mod warehouse;

pub use analysis::{
    coincidence_trigger, fetch_record_waveform, hunt_events, recursive_sta_lta, sta_lta,
    waveform_ascii, z_detect, CoincidenceEvent, Detection, RecordWaveform, StaLtaConfig,
    StationDetections, ZDetectConfig,
};
pub use cache::{CacheLookup, CacheSnapshot, CacheStats, RecyclingCache};
pub use error::{EtlError, Result};
pub use extract::{
    CsvExtractor, Extractor, MseedExtractor, RangedReader, RecordData, RecordLocator, SacExtractor,
};
pub use log::{EtlLog, EtlOp, LogEntry};
pub use persistence::{
    load_saved_stats, load_saved_tables, load_saved_time_index, read_manifest, recover_saved_dir,
    replay_journal, save_warehouse, save_warehouse_crashing_at, saved_mode, stray_files,
    RecoveryReport, SaveReport, SavedFile, SavedManifest, CRASH_MARKER, JOURNAL_NAME,
    MANIFEST_NAME,
};
pub use qcache::{
    DeltaOutcome, QueryResultCache, RefreshDelta, ResultCacheSnapshot, ResultCacheStats,
    ResultMeta, ResultScope,
};
pub use rewrite::{lazy_rewrite, LocatorIndex, RewriteReport};
pub use schema::{
    data_schema, dataview_sql, files_schema, records_schema, FIGURE1_Q1, FIGURE1_Q2, METADATA_QUERY,
};
pub use segment::{SegmentEntry, SegmentInfo};
pub use warehouse::{
    global_file_id, split_file_id, CatalogRef, LoadReport, Mode, QueryOutput, QueryReport,
    RefreshSummary, SourceStats, Warehouse, WarehouseBuilder, WarehouseConfig, WarehouseStats,
    MAX_MOUNT_INDEX,
};
