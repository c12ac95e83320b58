//! The scientific data warehouse facade.
//!
//! Two construction modes mirror the paper's comparison:
//!
//! * [`Warehouse::open_lazy`] — loads **only metadata** (F and R); the
//!   actual data table `D` is registered as an external table that the
//!   lazy rewriter materializes per query. "With the initial loading of
//!   only metadata, the data warehouse is instantly ready for analysis
//!   queries" (§4).
//! * [`Warehouse::open_eager`] — the traditional baseline: extracts,
//!   transforms and loads everything up front.
//!
//! Querying goes through the full pipeline: parse → plan (with view
//! expansion) → optimize (metadata predicates first) → run-time lazy
//! rewrite → execute, with every stage's plan captured for the demo's
//! observability items (4)–(6) and every ETL operation logged (item 8).
//!
//! # Concurrency
//!
//! [`Warehouse::query`] takes `&self` and the warehouse is `Send + Sync`:
//! one warehouse serves any number of client threads. The design is
//! read-mostly:
//!
//! * the catalog, repository registry and locator index sit behind one
//!   [`RwLock`] — queries share a read lock, only [`Warehouse::refresh`]
//!   (folding repository changes in) takes the write lock;
//! * the record cache is lock-striped into shards keyed by
//!   `(file_id, seq_no)` hash ([`crate::cache`]), so concurrent
//!   extractions feed disjoint stripes instead of serializing;
//! * the result recycler, ETL log and refresh-generation counter are
//!   internally synchronized (`Mutex` / atomics).
//!
//! Two queries racing on the same cold record may both extract it (a
//! benign shard race — last admission wins, results are unaffected);
//! everything else a query observes is the same as in the serial design.
//!
//! # Federation
//!
//! A warehouse mounts one or more **named** [`LazySource`]s (built with
//! [`WarehouseBuilder`]): local directories, CSV trees, simulated-remote
//! servers. One catalog spans them all — file ids are made warehouse-
//! global by packing the mount index into the high half
//! (`(mount << 32) | local_id`), and with more than one mount every URI
//! is displayed mount-qualified (`name://relative/path`). Queries are
//! unaware of the split: the lazy rewriter hands back global pairs and
//! the fetch pipeline routes each file's reads through its own source,
//! accounting extraction work per mount ([`SourceStats`]). The classic
//! single-directory constructors ([`Warehouse::open_lazy`] /
//! [`Warehouse::open_eager`] / [`Warehouse::open_saved`]) are thin shims
//! over the builder with one mount named `repo`, and keep today's bare
//! URIs and ids.

use crate::cache::{CacheLookup, CacheSnapshot, RecyclingCache};
use crate::error::{EtlError, Result};
use crate::extract::{push_file_row, push_record_row, FormatRegistry, RecordLocator};
use crate::log::{EtlLog, EtlOp};
use crate::parallel::{extract_groups_into, FileGroup};
use crate::qcache::{QueryResultCache, ResultCacheSnapshot, ResultMeta, ResultScope};
use crate::rewrite::{lazy_rewrite, LocatorIndex, RewriteContext, RewriteReport};
use crate::schema::{self, DATA_TABLE, FILES_TABLE, RECORDS_TABLE};
use lazyetl_query::exec::{execute, ExecContext};
use lazyetl_query::optimizer::{
    coerce_timestamp_literals, fold_constants, optimize, optimize_with_cost,
};
use lazyetl_query::planner::{plan_select, TableSource};
use lazyetl_query::{
    classify, parse_select, CostModel, LogicalPlan, MaintKind, MaintPlan, Maintainability,
};
use lazyetl_repo::{AccessProfile, FileEntry, FileId, LazySource, RepoError, Repository};
use lazyetl_store::{Catalog, ColumnData, Table};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Largest mount index that fits the high half of a warehouse-global
/// file id; packing a larger one would overflow `i64` and silently alias
/// another mount's files.
pub const MAX_MOUNT_INDEX: usize = (i64::MAX >> 32) as usize;

/// Pack a mount index and a mount-local file id into the warehouse-global
/// file id used in F/R/D rows, cache keys and rewrite pairs. Mount 0
/// yields ids identical to the local ones, so single-source warehouses
/// (and everything persisted by them) are unchanged.
///
/// Checked: a mount index beyond [`MAX_MOUNT_INDEX`] is a typed
/// [`RepoError::IdOverflow`] (stable code `repo.id_overflow`), never a
/// wrapped-around id.
pub fn global_file_id(mount: usize, local: FileId) -> std::result::Result<i64, RepoError> {
    if mount > MAX_MOUNT_INDEX {
        return Err(RepoError::IdOverflow { mount });
    }
    Ok(((mount as i64) << 32) | local.0 as i64)
}

/// Invert [`global_file_id`].
pub fn split_file_id(fid: i64) -> (usize, FileId) {
    ((fid >> 32) as usize, FileId((fid & 0xFFFF_FFFF) as u32))
}

/// Warehouse construction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Metadata-only initial load; actual data on demand (the paper's
    /// contribution).
    Lazy,
    /// Traditional full initial load (the baseline).
    Eager,
}

/// Tunables; defaults reproduce the paper's configuration.
#[derive(Debug, Clone)]
pub struct WarehouseConfig {
    /// Byte budget of the recycling cache ("not larger than the size of
    /// system's main memory", §3.3).
    pub cache_budget_bytes: usize,
    /// Number of lock stripes of the recycling cache (clamped to ≥ 1).
    /// More shards mean less contention between concurrent queries; `1`
    /// restores the exact global-LRU eviction order of the serial design.
    /// Experiment E12 sweeps this.
    pub cache_shards: usize,
    /// Check the repository for updates at the start of every query
    /// ("refreshments are handled … when the data warehouse is queried",
    /// §3.3). Benchmarks measuring pure query latency disable this.
    pub auto_refresh: bool,
    /// Bounded staleness for auto-refresh (cf. the "lazy aggregates" line
    /// of work the paper cites \[13\]): when set, the query-start rescan is
    /// skipped if the previous one ran less than this long ago. Metadata
    /// may then lag the repository by at most this bound; extracted
    /// payloads stay fresh regardless, because the record cache checks
    /// file mtimes at every fetch. `None` rescans on every query.
    pub max_staleness: Option<Duration>,
    /// Apply the compile-time reorganization that evaluates metadata
    /// predicates first (§3.1). Disabling is the E4 ablation: every query
    /// degenerates to a full-repository extraction.
    pub metadata_predicate_first: bool,
    /// Prune candidate records whose time range cannot intersect the
    /// query's sample-time predicates (ablation flag).
    pub record_level_pruning: bool,
    /// Serve record-level pruning with the ordered time index's
    /// binary-search seek. `false` is the E17 baseline: the same pairs are
    /// kept, but pruning sweeps every candidate record linearly.
    pub time_index_seek: bool,
    /// Plan with the cost model (cardinality estimates over the catalog's
    /// zone-map statistics, selectivity-driven join reordering, per-source
    /// access-cost multipliers). `false` keeps the pure heuristic pipeline
    /// — the pre-upgrade behaviour and the E17 planner ablation. Results
    /// are identical either way; only plan shape and cost change.
    pub cost_based_planning: bool,
    /// Recycle **final query results** keyed by optimized-plan fingerprint
    /// (the second recycler level of §3.3; experiment E11). Off by default
    /// so per-query extraction accounting stays observable.
    pub recycle_query_results: bool,
    /// Byte budget of the result recycler (only used when
    /// [`recycle_query_results`](Self::recycle_query_results) is on).
    pub result_cache_budget_bytes: usize,
    /// Maintain recycled results incrementally across insert-only
    /// refreshes (patch filter/project/aggregate results from the delta)
    /// instead of dropping them. `false` is the E18 recompute baseline;
    /// scoped invalidation (keeping entries whose tables/time windows the
    /// delta provably misses) stays on either way.
    pub maintain_recycled_results: bool,
    /// Worker threads for the extraction phase of lazy fetches (file
    /// granularity; experiment E10). `1` is the paper's sequential
    /// behaviour; higher values overlap decoding of independent files
    /// without changing any observable result.
    pub extraction_threads: usize,
    /// Worker threads for one query's execution pipelines (morsel-driven
    /// scan/filter/aggregate/join parallelism). `1` is the serial
    /// reference executor; the determinism harness in the query crate
    /// proves higher values never change observable results.
    pub parallelism: usize,
    /// Simulated remote-access cost model for experiment accounting.
    pub access: AccessProfile,
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            cache_budget_bytes: 256 << 20,
            cache_shards: crate::cache::DEFAULT_SHARDS,
            auto_refresh: true,
            max_staleness: None,
            metadata_predicate_first: true,
            record_level_pruning: true,
            time_index_seek: true,
            cost_based_planning: true,
            recycle_query_results: false,
            result_cache_budget_bytes: 64 << 20,
            maintain_recycled_results: true,
            extraction_threads: 1,
            parallelism: 1,
            access: AccessProfile::local(),
        }
    }
}

/// What initial loading cost.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Lazy or eager.
    pub mode: Mode,
    /// Files registered.
    pub files: usize,
    /// Record-metadata rows loaded.
    pub records: usize,
    /// Waveform samples materialized into `D` (0 for lazy).
    pub samples_loaded: u64,
    /// Bytes read from the repository.
    pub bytes_read: u64,
    /// Wall-clock duration of the load.
    pub elapsed: Duration,
    /// Simulated remote-access time under [`WarehouseConfig::access`].
    pub simulated_io: Duration,
}

/// What a refresh did.
#[derive(Debug, Clone, Default)]
pub struct RefreshSummary {
    /// Newly appeared files.
    pub added: usize,
    /// Files whose content changed.
    pub modified: usize,
    /// Files that disappeared.
    pub removed: usize,
    /// Record-metadata rows re-loaded.
    pub records_reloaded: usize,
    /// Samples re-extracted (eager mode only).
    pub samples_reloaded: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

impl RefreshSummary {
    /// True when the repository was unchanged.
    pub fn is_noop(&self) -> bool {
        self.added == 0 && self.modified == 0 && self.removed == 0
    }
}

/// Per-query diagnostics (feeds demo items 3, 4, 5, 6, 8).
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The SQL text.
    pub sql: String,
    /// End-to-end wall-clock time.
    pub elapsed: Duration,
    /// Result row count.
    pub rows: usize,
    /// (stage name, rendered plan) in pipeline order.
    pub stages: Vec<(String, String)>,
    /// Run-time rewrite details (lazy mode, when the query touches data).
    pub rewrite: Option<RewriteReport>,
    /// URIs of files actual data was extracted from for this query.
    pub files_extracted: Vec<String>,
    /// Records decoded for this query.
    pub records_extracted: usize,
    /// Samples decoded for this query.
    pub samples_extracted: u64,
    /// Needed record ranges served from the cache.
    pub cache_hits: usize,
    /// Needed record ranges not in the cache.
    pub cache_misses: usize,
    /// Stale cache entries dropped and re-extracted.
    pub stale_drops: usize,
    /// Repository bytes read for this query.
    pub bytes_read: u64,
    /// Simulated remote-access time for this query.
    pub simulated_io: Duration,
    /// What the query-start refresh found, when auto-refresh is on.
    pub refresh: Option<RefreshSummary>,
    /// True when the whole result was served by the result recycler
    /// (no extraction, no execution).
    pub result_recycled: bool,
}

/// Point-in-time aggregate view of a warehouse: what an operations
/// dashboard (or the serving layer's stats frame) shows about one shared
/// instance. Produced by [`Warehouse::stats_snapshot`]; all counters are
/// cumulative since open.
#[derive(Debug, Clone)]
pub struct WarehouseStats {
    /// Lazy or eager.
    pub mode: Mode,
    /// Files currently registered in the repository.
    pub files: usize,
    /// Record-metadata rows currently indexed.
    pub records: usize,
    /// Bytes resident in catalog tables.
    pub resident_bytes: usize,
    /// Refresh-invalidation generation.
    pub generation: u64,
    /// Queries served since open (successful or not).
    pub queries: u64,
    /// Record-cache counters (hits, misses, evictions, …).
    pub cache: crate::cache::CacheStats,
    /// Record-cache resident entries.
    pub cache_entries: usize,
    /// Record-cache resident bytes.
    pub cache_used_bytes: usize,
    /// Record-cache byte budget.
    pub cache_budget_bytes: usize,
    /// Saved cache segments attached but not yet rehydrated (warm
    /// restarts only; 0 on cold opens and after first touch).
    pub pending_segments: usize,
    /// Result-recycler counters (hits, misses, patches, scoped keeps, …).
    /// All zero unless [`WarehouseConfig::recycle_query_results`] is on.
    pub recycler: crate::qcache::ResultCacheStats,
    /// Result-recycler resident entries.
    pub recycler_entries: usize,
    /// Executor counters: rows scanned/pruned, vectorized batches and
    /// scalar fallbacks, cumulative across every query this warehouse ran.
    pub exec: lazyetl_query::ExecCounters,
    /// Per-mount extraction accounting, in mount order.
    pub sources: Vec<SourceStats>,
}

/// Query result: the rows plus the diagnostics.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result rows.
    pub table: Arc<Table>,
    /// Diagnostics.
    pub report: QueryReport,
}

#[derive(Debug, Default)]
struct FetchStats {
    files_extracted: BTreeSet<String>,
    records_extracted: usize,
    samples_extracted: u64,
    cache_hits: usize,
    cache_misses: usize,
    stale_drops: usize,
    bytes_read: u64,
    simulated_io: Duration,
}

/// One named source mounted into a warehouse.
#[derive(Debug)]
struct Mount {
    name: String,
    source: Box<dyn LazySource>,
}

/// Cumulative per-mount extraction counters (updated by the sequential
/// assembly phase of fetches; atomics because the warehouse is shared).
#[derive(Debug, Default)]
struct SourceCounters {
    files_extracted: AtomicU64,
    records_extracted: AtomicU64,
    samples_extracted: AtomicU64,
    bytes_read: AtomicU64,
    simulated_io_us: AtomicU64,
}

/// Point-in-time extraction accounting for one mounted source, as
/// reported by [`Warehouse::stats_snapshot`] (and the serving layer's
/// stats frame). Counters are cumulative since open.
#[derive(Debug, Clone)]
pub struct SourceStats {
    /// Mount name (`repo` for the single-directory shims).
    pub name: String,
    /// Source backend kind (`local`, `csv`, `remote`, …).
    pub kind: &'static str,
    /// Files currently registered under this mount.
    pub files: usize,
    /// Files actual data was extracted from (file touches, not uniqued).
    pub files_extracted: u64,
    /// Records decoded from this source.
    pub records_extracted: u64,
    /// Samples decoded from this source.
    pub samples_extracted: u64,
    /// Payload bytes read from this source for extraction.
    pub bytes_read: u64,
    /// Modeled remote-access time under the source's access profile.
    pub simulated_io: Duration,
    /// Ranged-fetch requests the source itself served (0 for sources
    /// read via a local path).
    pub fetch_requests: u64,
    /// Bytes those ranged fetches transferred.
    pub fetched_bytes: u64,
}

/// The mutable warehouse state queries read and refreshes rewrite: the
/// mounted source registry, the catalog holding F/R (and D in eager
/// mode), and the locator index derived from R.
#[derive(Debug)]
struct WarehouseState {
    mounts: Vec<Mount>,
    catalog: Catalog,
    index: LocatorIndex,
}

/// One change to the set of files a warehouse holds. Opening, refreshing
/// and reopening differ only in how they compute it; all three fold it in
/// with [`WarehouseState::stage`] then [`WarehouseState::commit`].
#[derive(Default)]
struct FileDelta {
    /// Global ids of files whose rows leave F, R (and D).
    drop: HashSet<i64>,
    /// `(mount, entry)` of files whose rows are built from what their
    /// source holds now. A replaced file is in both lists.
    load: Vec<(usize, FileEntry)>,
}

/// A [`FileDelta`] with everything that can fail already done: the rows
/// its files contribute, built but not installed.
struct StagedDelta {
    drop: HashSet<i64>,
    /// Rows to append to F, R and D (`D`'s stay empty in lazy mode).
    rows: [Table; 3],
    log: Vec<EtlOp>,
    samples: u64,
    bytes_read: u64,
    simulated_io: Duration,
}

/// What a committed fold did.
struct Folded {
    /// Whether any row left or entered a table. `false` means catalog,
    /// index and cache are exactly as they were.
    changed: bool,
    /// Where the appended rows start in F, R and D: each table's tail is
    /// the delta a refresh hands the result recycler.
    tail: [usize; 3],
    /// Record-metadata rows appended.
    records: usize,
    /// Samples extracted into `D` (eager mode).
    samples: u64,
    /// Source bytes read while staging.
    bytes_read: u64,
    /// Modeled access time of those reads.
    simulated_io: Duration,
}

/// The catalog tables a warehouse of this mode holds rows in — what a
/// fold maintains (index-aligned with [`StagedDelta::rows`] and
/// [`Folded::tail`]) and what a save persists.
pub(crate) fn mode_tables(mode: Mode) -> &'static [&'static str] {
    match mode {
        Mode::Lazy => &[FILES_TABLE, RECORDS_TABLE],
        Mode::Eager => &[FILES_TABLE, RECORDS_TABLE, DATA_TABLE],
    }
}

impl WarehouseState {
    /// No files yet: the metadata schema (and an empty `D` in eager mode)
    /// over the mounted sources.
    fn new(mounts: Vec<Mount>, mode: Mode) -> Result<WarehouseState> {
        let mut catalog = Catalog::new();
        schema::install_metadata_schema(&mut catalog)?;
        if mode == Mode::Eager {
            catalog.create_table(DATA_TABLE, Table::empty(schema::data_schema()))?;
        }
        Ok(WarehouseState {
            mounts,
            catalog,
            index: LocatorIndex::default(),
        })
    }

    /// Display form of a mount-local URI: bare for single-mount
    /// warehouses (compatibility), `name://uri` when federated.
    fn full_uri(&self, mount: usize, uri: &str) -> String {
        if self.mounts.len() == 1 {
            uri.to_string()
        } else {
            format!("{}://{}", self.mounts[mount].name, uri)
        }
    }

    /// Files *attached* to the warehouse (F rows) — foreign files a
    /// source lists but the scan skipped are not counted.
    fn total_files(&self) -> usize {
        self.catalog
            .table(FILES_TABLE)
            .map(|t| t.num_rows())
            .unwrap_or(0)
    }

    /// The fallible half of a fold: read the metadata (in eager mode also
    /// the samples) of every file in `delta.load` into fresh rows. Nothing
    /// of `self` changes, so a failure here leaves the warehouse as it
    /// was. Entries are read as given; the registry need not know them
    /// yet.
    fn stage(
        &self,
        mode: Mode,
        extractor: &FormatRegistry,
        delta: FileDelta,
    ) -> Result<StagedDelta> {
        let mut staged = StagedDelta {
            drop: delta.drop,
            rows: [
                Table::empty(schema::files_schema()),
                Table::empty(schema::records_schema()),
                Table::empty(schema::data_schema()),
            ],
            log: Vec::new(),
            samples: 0,
            bytes_read: 0,
            simulated_io: Duration::ZERO,
        };
        let [files, records, data] = &mut staged.rows;
        for (mount, entry) in &delta.load {
            let src = self.mounts[*mount].source.as_ref();
            if !extractor.claims(src, entry)? {
                // A foreign file (e.g. a CSV without the magic line)
                // stays detached.
                continue;
            }
            let format = extractor.for_entry(entry)?;
            let access = src.access();
            let fid = global_file_id(*mount, entry.id)?;
            let uri = self.full_uri(*mount, &entry.uri);
            let mut md = format.scan_metadata(src, entry)?;
            md.file.file_id = fid;
            md.file.uri = uri.clone();
            push_file_row(files, &md.file)?;
            for rr in &mut md.records {
                rr.file_id = fid;
                push_record_row(records, rr)?;
            }
            staged.bytes_read += md.bytes_read;
            staged.simulated_io += access.cost(md.bytes_read);
            if staged.drop.contains(&fid) {
                staged.log.push(EtlOp::MetadataRefresh { uri: uri.clone() });
                staged.log.push(EtlOp::StaleDrop { uri: uri.clone() });
            } else {
                staged.log.push(EtlOp::MetadataLoad {
                    uri: uri.clone(),
                    records: md.records.len(),
                    bytes_read: md.bytes_read,
                });
            }
            if mode == Mode::Eager {
                let locators: Vec<RecordLocator> = md
                    .records
                    .iter()
                    .map(|r| RecordLocator {
                        seq_no: r.seq_no,
                        byte_offset: r.byte_offset as u64,
                        record_length: r.record_length as u32,
                    })
                    .collect();
                let datas = format.extract_records(src, entry, &locators)?;
                let mut samples = 0usize;
                for rd in &datas {
                    samples += rd.values.len();
                    data.append_table(&rd.to_table(fid)?)?;
                }
                staged.samples += samples as u64;
                staged.bytes_read += entry.size;
                staged.simulated_io += access.cost(entry.size);
                staged.log.push(EtlOp::Extract {
                    uri,
                    records: datas.len(),
                    samples,
                });
            }
        }
        Ok(staged)
    }

    /// The installing half of a fold (it reads no source; an error here
    /// is a broken internal condition): rows of the dropped ids leave each
    /// table in one mask pass (none when nothing is dropped), the staged
    /// rows are appended, exactly the dropped ids are invalidated in the
    /// record cache, and the locator index follows `R`. A staged delta
    /// that drops and adds nothing touches nothing.
    fn commit(
        &mut self,
        mode: Mode,
        staged: StagedDelta,
        cache: &RecyclingCache,
        log: &EtlLog,
    ) -> Result<Folded> {
        let mut folded = Folded {
            changed: false,
            tail: [0; 3],
            records: staged.rows[1].num_rows(),
            samples: staged.samples,
            bytes_read: staged.bytes_read,
            simulated_io: staged.simulated_io,
        };
        for ((name, rows), tail) in mode_tables(mode)
            .iter()
            .zip(staged.rows)
            .zip(&mut folded.tail)
        {
            let missing = || EtlError::Internal(format!("{name} table missing"));
            let table = self.catalog.table(name).ok_or_else(missing)?;
            let mut kept = None;
            if !staged.drop.is_empty() {
                let Some(ColumnData::Int64(ids)) = table.column("file_id").map(|c| c.data()) else {
                    return Err(EtlError::Internal(format!("{name} table lacks file_id")));
                };
                let mask: Vec<bool> = ids.iter().map(|id| !staged.drop.contains(id)).collect();
                if mask.contains(&false) {
                    kept = Some(table.filter(&mask)?);
                }
            }
            *tail = kept.as_ref().map_or(table.num_rows(), Table::num_rows);
            if kept.is_none() && rows.num_rows() == 0 {
                continue;
            }
            folded.changed = true;
            let table = self.catalog.table_mut(name).ok_or_else(missing)?;
            if let Some(kept) = kept {
                *table = kept;
            }
            if table.num_rows() == 0 {
                // Opening appends onto nothing: move, don't copy all of D.
                *table = rows;
            } else {
                table.append_table(&rows)?;
            }
        }
        for &fid in &staged.drop {
            cache.invalidate_file(fid);
        }
        for op in staged.log {
            log.push(op);
        }
        if folded.changed {
            self.index = LocatorIndex::build(
                self.catalog
                    .table(RECORDS_TABLE)
                    .expect("records table present"),
            )?;
        }
        Ok(folded)
    }
}

/// Read guard over the warehouse catalog (shared with running queries).
///
/// Holds the state read lock; a concurrent [`Warehouse::refresh`] waits
/// until it is dropped.
pub struct CatalogRef<'a>(RwLockReadGuard<'a, WarehouseState>);

impl Deref for CatalogRef<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.0.catalog
    }
}

/// The scientific data warehouse. `Send + Sync`: share one instance (e.g.
/// behind an [`Arc`]) across any number of query threads.
pub struct Warehouse {
    mode: Mode,
    config: WarehouseConfig,
    state: RwLock<WarehouseState>,
    cache: RecyclingCache,
    qcache: QueryResultCache,
    /// Per-mount extraction counters, index-aligned with the mounts.
    source_counters: Vec<SourceCounters>,
    /// Bumped whenever a refresh folds repository changes into the
    /// catalog; recycled results from older generations are invalid.
    generation: AtomicU64,
    /// Queries served since this warehouse opened (successful or not).
    queries: AtomicU64,
    /// Executor counters (rows scanned/pruned, vectorized batches),
    /// shared by reference with every query's execution context.
    exec_metrics: lazyetl_query::ExecMetrics,
    log: EtlLog,
    extractor: FormatRegistry,
    load_report: LoadReport,
    /// When the repository was last rescanned (drives `max_staleness`).
    last_rescan: Mutex<Instant>,
}

/// Compile-time proof that the warehouse can be shared across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Warehouse>();
};

/// Single construction path for warehouses: name sources, pick the mode,
/// open. The `Warehouse::open*` constructors are thin shims over this.
///
/// ```no_run
/// # use lazyetl_core::{WarehouseBuilder, WarehouseConfig, Mode};
/// # use lazyetl_repo::{CsvSource, RemoteSource};
/// # fn main() -> lazyetl_core::Result<()> {
/// let wh = WarehouseBuilder::new()
///     .config(WarehouseConfig::default())
///     .mode(Mode::Lazy)
///     .local_dir("archive", "/data/mseed")?
///     .source("surveys", Box::new(CsvSource::open("/data/csv")?))
///     .source("orfeus", Box::new(RemoteSource::open("/mnt/mirror")?))
///     .open()?;
/// # Ok(()) }
/// ```
///
/// Mount order is part of the warehouse identity: global file ids embed
/// the mount index, so saved state reopens correctly only under the same
/// names in the same order (drifted mounts degrade to a fresh reload).
/// The builder never touches a source's [`AccessProfile`] — each backend
/// keeps the profile it was constructed with.
#[derive(Default)]
pub struct WarehouseBuilder {
    config: WarehouseConfig,
    mode: Option<Mode>,
    mounts: Vec<Mount>,
}

impl WarehouseBuilder {
    /// A builder with default config, lazy mode and no sources.
    pub fn new() -> WarehouseBuilder {
        WarehouseBuilder::default()
    }

    /// Set the warehouse configuration.
    pub fn config(mut self, config: WarehouseConfig) -> WarehouseBuilder {
        self.config = config;
        self
    }

    /// Set the construction mode (default: [`Mode::Lazy`]).
    pub fn mode(mut self, mode: Mode) -> WarehouseBuilder {
        self.mode = Some(mode);
        self
    }

    /// Mount a source under `name`. Order matters (see type docs).
    pub fn source(
        mut self,
        name: impl Into<String>,
        source: Box<dyn LazySource>,
    ) -> WarehouseBuilder {
        self.mounts.push(Mount {
            name: name.into(),
            source,
        });
        self
    }

    /// Convenience: mount a plain local directory under `name`.
    pub fn local_dir(
        self,
        name: impl Into<String>,
        root: impl AsRef<Path>,
    ) -> Result<WarehouseBuilder> {
        let repo = Repository::open(root.as_ref().to_path_buf())?;
        Ok(self.source(name, Box::new(repo)))
    }

    fn validate(&self) -> Result<()> {
        if self.mounts.is_empty() {
            return Err(EtlError::Internal(
                "warehouse needs at least one source".into(),
            ));
        }
        if self.mounts.len() > MAX_MOUNT_INDEX + 1 {
            return Err(RepoError::IdOverflow {
                mount: self.mounts.len() - 1,
            }
            .into());
        }
        for (i, m) in self.mounts.iter().enumerate() {
            if m.name.is_empty() || m.name.contains("://") {
                return Err(EtlError::Internal(format!(
                    "invalid mount name {:?}",
                    m.name
                )));
            }
            if self.mounts[..i].iter().any(|p| p.name == m.name) {
                return Err(EtlError::Internal(format!(
                    "duplicate mount name {:?}",
                    m.name
                )));
            }
        }
        Ok(())
    }

    /// Open the warehouse: scan metadata of every mount (and, eagerly,
    /// extract everything).
    pub fn open(self) -> Result<Warehouse> {
        self.validate()?;
        let mode = self.mode.unwrap_or(Mode::Lazy);
        Warehouse::open_from(self.mounts, self.config, mode)
    }

    /// Reopen from state persisted by [`Warehouse::save_to`], reconciling
    /// every mount's files by URI. The persisted mode wins; a mode set on
    /// the builder is ignored.
    pub fn open_saved(self, saved_dir: impl AsRef<Path>) -> Result<Warehouse> {
        self.validate()?;
        Warehouse::open_saved_from(self.mounts, saved_dir.as_ref(), self.config)
    }
}

impl Warehouse {
    /// Open a repository lazily: load only metadata; the warehouse is
    /// ready for queries immediately.
    ///
    /// Shim over [`WarehouseBuilder`]: one local mount named `repo`,
    /// accessed under [`WarehouseConfig::access`].
    pub fn open_lazy(root: impl AsRef<Path>, config: WarehouseConfig) -> Result<Warehouse> {
        Self::open_dir(root, config, Mode::Lazy)
    }

    /// Open a repository eagerly: full traditional ETL before the first
    /// query can run. Shim over [`WarehouseBuilder`] (see
    /// [`Self::open_lazy`]).
    pub fn open_eager(root: impl AsRef<Path>, config: WarehouseConfig) -> Result<Warehouse> {
        Self::open_dir(root, config, Mode::Eager)
    }

    fn open_dir(root: impl AsRef<Path>, config: WarehouseConfig, mode: Mode) -> Result<Warehouse> {
        let mut repo = Repository::open(root.as_ref().to_path_buf())?;
        repo.access = config.access;
        WarehouseBuilder::new()
            .config(config)
            .mode(mode)
            .source("repo", Box::new(repo))
            .open()
    }

    /// Opening is the fold of "every registered file is new" onto an
    /// empty state.
    fn open_from(mounts: Vec<Mount>, config: WarehouseConfig, mode: Mode) -> Result<Warehouse> {
        let t0 = Instant::now();
        let mut state = WarehouseState::new(mounts, mode)?;
        let cache = RecyclingCache::with_shards(config.cache_budget_bytes, config.cache_shards);
        let log = EtlLog::new();
        let mut delta = FileDelta::default();
        for (mi, mount) in state.mounts.iter().enumerate() {
            delta
                .load
                .extend(mount.source.files().iter().map(|e| (mi, e.clone())));
        }
        let staged = state.stage(mode, &FormatRegistry::default(), delta)?;
        let folded = state.commit(mode, staged, &cache, &log)?;
        Ok(Warehouse::assemble(
            mode, state, cache, log, &folded, t0, config,
        ))
    }

    /// The one place a [`Warehouse`] is put together; `folded` is what
    /// the opening fold read and `t0` when opening began.
    fn assemble(
        mode: Mode,
        state: WarehouseState,
        cache: RecyclingCache,
        log: EtlLog,
        folded: &Folded,
        t0: Instant,
        config: WarehouseConfig,
    ) -> Warehouse {
        let load_report = LoadReport {
            mode,
            files: state.total_files(),
            records: state.index.len(),
            samples_loaded: state
                .catalog
                .table(DATA_TABLE)
                .map_or(0, |t| t.num_rows() as u64),
            bytes_read: folded.bytes_read,
            elapsed: t0.elapsed(),
            simulated_io: folded.simulated_io,
        };
        Warehouse {
            mode,
            cache,
            qcache: QueryResultCache::new(config.result_cache_budget_bytes),
            source_counters: state
                .mounts
                .iter()
                .map(|_| SourceCounters::default())
                .collect(),
            generation: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            exec_metrics: lazyetl_query::ExecMetrics::new(),
            config,
            state: RwLock::new(state),
            log,
            extractor: FormatRegistry::default(),
            load_report,
            last_rescan: Mutex::new(Instant::now()),
        }
    }

    fn read_state(&self) -> RwLockReadGuard<'_, WarehouseState> {
        self.state.read().expect("warehouse state poisoned")
    }

    /// Which mode this warehouse was opened in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The configuration this warehouse was opened with.
    pub fn config(&self) -> &WarehouseConfig {
        &self.config
    }

    /// The record cache (the durable save path exports its shards).
    pub(crate) fn record_cache(&self) -> &RecyclingCache {
        &self.cache
    }

    /// The initial-load cost report.
    pub fn load_report(&self) -> &LoadReport {
        &self.load_report
    }

    /// Names and backend kinds of the mounted sources, in mount order.
    pub fn sources(&self) -> Vec<(String, &'static str)> {
        self.read_state()
            .mounts
            .iter()
            .map(|m| (m.name.clone(), m.source.kind()))
            .collect()
    }

    /// The catalog (metadata browsing, demo item 2; holds the state read
    /// lock while alive).
    ///
    /// **Do not call [`Self::refresh`] — or, with auto-refresh on,
    /// [`Self::query`] — from the same thread while the guard is alive:**
    /// the state lock is not reentrant, so acquiring the write lock under
    /// a live read guard deadlocks. Drop the guard first.
    pub fn catalog(&self) -> CatalogRef<'_> {
        CatalogRef(self.read_state())
    }

    /// Bytes resident in catalog tables (warehouse footprint, E2).
    pub fn resident_bytes(&self) -> usize {
        self.read_state().catalog.resident_bytes()
    }

    /// Snapshot of the recycling cache (demo item 7).
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.cache.snapshot()
    }

    /// Snapshot of the result recycler (empty unless
    /// [`WarehouseConfig::recycle_query_results`] is on).
    pub fn result_cache_snapshot(&self) -> ResultCacheSnapshot {
        self.qcache.snapshot()
    }

    /// Current invalidation generation (bumped by refreshes that fold
    /// repository changes into the catalog).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Aggregate stats snapshot: repository/catalog occupancy, query and
    /// cache counters. Cheap enough to call per stats request; takes the
    /// state read lock briefly.
    pub fn stats_snapshot(&self) -> WarehouseStats {
        let (files, records, resident_bytes, sources) = {
            let state = self.read_state();
            let sources = state
                .mounts
                .iter()
                .zip(&self.source_counters)
                .map(|(m, c)| {
                    let io = m.source.io_stats();
                    SourceStats {
                        name: m.name.clone(),
                        kind: m.source.kind(),
                        files: m.source.files().len(),
                        files_extracted: c.files_extracted.load(Ordering::Relaxed),
                        records_extracted: c.records_extracted.load(Ordering::Relaxed),
                        samples_extracted: c.samples_extracted.load(Ordering::Relaxed),
                        bytes_read: c.bytes_read.load(Ordering::Relaxed),
                        simulated_io: Duration::from_micros(
                            c.simulated_io_us.load(Ordering::Relaxed),
                        ),
                        fetch_requests: io.fetch_requests,
                        fetched_bytes: io.fetched_bytes,
                    }
                })
                .collect();
            (
                state.total_files(),
                state.index.len(),
                state.catalog.resident_bytes(),
                sources,
            )
        };
        let snap = self.cache.snapshot();
        WarehouseStats {
            mode: self.mode,
            files,
            records,
            resident_bytes,
            sources,
            generation: self.generation(),
            queries: self.queries.load(Ordering::Relaxed),
            cache: snap.stats,
            cache_entries: snap.entries.len(),
            cache_used_bytes: snap.used_bytes,
            cache_budget_bytes: snap.budget_bytes,
            pending_segments: self.cache.pending_segments(),
            recycler: self.qcache.stats(),
            recycler_entries: self.qcache.len(),
            exec: self.exec_metrics.snapshot(),
        }
    }

    /// Persist this warehouse to `dir` via
    /// [`crate::persistence::save_warehouse`] — the serving layer's
    /// graceful-shutdown hook (drain queries, then snapshot the hot cache
    /// so the next boot warm-restarts).
    pub fn save_to(&self, dir: impl AsRef<Path>) -> Result<crate::persistence::SaveReport> {
        crate::persistence::save_warehouse(self, dir.as_ref())
    }

    /// The ETL operations log (demo item 8).
    pub fn etl_log(&self) -> &EtlLog {
        &self.log
    }

    /// Render the ETL log as text.
    pub fn etl_log_render(&self) -> String {
        self.log.render()
    }

    /// Run a SQL query through the full lazy/eager pipeline.
    ///
    /// Takes `&self`: any number of threads may query one warehouse
    /// concurrently. A query holds the state read lock from planning to
    /// execution, so it sees one consistent catalog/index snapshot; the
    /// auto-refresh rescan (when due) runs *before* that lock is taken.
    pub fn query(&self, sql: &str) -> Result<QueryOutput> {
        let t0 = Instant::now();
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.log.push(EtlOp::QueryStart {
            sql: sql.to_string(),
        });
        let mut report = QueryReport {
            sql: sql.to_string(),
            elapsed: Duration::ZERO,
            rows: 0,
            stages: Vec::new(),
            rewrite: None,
            files_extracted: Vec::new(),
            records_extracted: 0,
            samples_extracted: 0,
            cache_hits: 0,
            cache_misses: 0,
            stale_drops: 0,
            bytes_read: 0,
            simulated_io: Duration::ZERO,
            refresh: None,
            result_recycled: false,
        };
        let within_staleness_bound = self.config.max_staleness.is_some_and(|bound| {
            self.last_rescan
                .lock()
                .expect("last_rescan poisoned")
                .elapsed()
                < bound
        });
        if self.config.auto_refresh && !within_staleness_bound {
            let summary = self.refresh()?;
            if !summary.is_noop() {
                report.refresh = Some(summary);
            }
        }

        // From here on the query works against one consistent snapshot of
        // catalog + index; concurrent refreshes wait for the read lock.
        let state = self.read_state();

        let (logical, plan, cost_model) = self.compile(&state, sql)?;
        report.stages.push(("logical".into(), logical.display()));
        report.stages.push(("optimized".into(), plan.display()));
        self.log.push(EtlOp::PlanRewrite {
            stage: "compile-time".into(),
            detail: if cost_model.is_some() {
                "predicates pushed toward metadata scans; joins costed on table statistics".into()
            } else if self.config.metadata_predicate_first {
                "predicates pushed toward metadata scans".into()
            } else {
                "pushdown disabled (ablation)".into()
            },
        });

        // Result recycler: the optimized plan (literals included) is the
        // fingerprint; a hit skips extraction and execution entirely.
        let generation = self.generation();
        let fingerprint = if self.config.recycle_query_results {
            let fp = plan.display();
            if let Some(table) = self.qcache.get(&fp, generation) {
                report.stages.push(("recycled".into(), fp.clone()));
                report.rows = table.num_rows();
                report.result_recycled = true;
                report.elapsed = t0.elapsed();
                self.log.push(EtlOp::ResultRecycleHit { rows: report.rows });
                self.log.push(EtlOp::QueryFinish {
                    rows: report.rows,
                    elapsed_us: report.elapsed.as_micros() as u64,
                });
                return Ok(QueryOutput { table, report });
            }
            Some(fp)
        } else {
            None
        };
        // Classify the plan for incremental maintenance / scoped
        // invalidation; the class travels with the admitted entry.
        let classification = fingerprint.as_ref().map(|_| classify(&plan));
        let maint: Option<&MaintPlan> = match &classification {
            Some(Maintainability::Maintainable(m)) if self.config.maintain_recycled_results => {
                Some(m)
            }
            _ => None,
        };

        // Run-time lazy rewrite (lazy mode only). The optimized plan is
        // kept aside: the rewrite replaces its scans with injected data,
        // and EXPLAIN's join-order/access report describes the plan as
        // chosen, not as materialized.
        let optimized_plan = cost_model.as_ref().map(|_| plan.clone());
        // Maintainable plans execute in augmented form (AVG companions
        // appended, the planner's top projection peeled) so the raw
        // aggregate state can be cached alongside the visible result.
        let run_plan = match maint {
            Some(m) => m.exec_plan.clone(),
            None => plan.clone(),
        };
        let has_external =
            run_plan.any_node(&mut |n| matches!(n, LogicalPlan::ExternalScan { .. }));
        let final_plan = if self.mode == Mode::Lazy && has_external {
            let mut rewrite_report = RewriteReport::default();
            let mut stats = FetchStats::default();
            {
                let state = &*state;
                let cache = &self.cache;
                let log = &self.log;
                let extractor = &self.extractor;
                let threads = self.config.extraction_threads;
                let parallelism = self.config.parallelism;
                let metrics = &self.exec_metrics;
                let counters = &self.source_counters;
                let exec_meta = move |p: &LogicalPlan| -> Result<Arc<Table>> {
                    let ctx = ExecContext::new(&state.catalog)
                        .with_metrics(metrics)
                        .with_parallelism(parallelism);
                    execute(p, &ctx).map_err(EtlError::Query)
                };
                let mut fetch = |pairs: &[(i64, i64)]| -> Result<Arc<Table>> {
                    fetch_pairs(
                        state, counters, extractor, cache, log, threads, pairs, &mut stats,
                    )
                };
                let ctx = RewriteContext {
                    index: &state.index,
                    record_level_pruning: self.config.record_level_pruning,
                    time_index_seek: self.config.time_index_seek,
                };
                let rewritten =
                    lazy_rewrite(&run_plan, &ctx, &exec_meta, &mut fetch, &mut rewrite_report)?;
                if rewrite_report.index_seek || rewrite_report.index_entries_examined > 0 {
                    self.exec_metrics.add_index_prune(
                        rewrite_report.index_seek,
                        rewrite_report.index_entries_examined as u64,
                    );
                }
                report
                    .stages
                    .push(("rewritten".into(), rewritten.display()));
                report.rewrite = Some(rewrite_report.clone());
                self.log.push(EtlOp::PlanRewrite {
                    stage: "run-time".into(),
                    detail: format!(
                        "injected {} records ({} pruned) from metadata join of {} rows",
                        rewrite_report.fetched_pairs,
                        rewrite_report.pruned_pairs,
                        rewrite_report.metadata_rows
                    ),
                });
                report.files_extracted = stats.files_extracted.iter().cloned().collect();
                report.records_extracted = stats.records_extracted;
                report.samples_extracted = stats.samples_extracted;
                report.cache_hits = stats.cache_hits;
                report.cache_misses = stats.cache_misses;
                report.stale_drops = stats.stale_drops;
                report.bytes_read = stats.bytes_read;
                report.simulated_io = stats.simulated_io;
                rewritten
            }
        } else {
            run_plan
        };

        // Cost the final plan *before* executing it (post-rewrite, so
        // injected data is estimable), proving the estimate never peeks
        // at the result it predicts.
        let estimated = cost_model
            .as_ref()
            .and_then(|m| m.estimate_rows(&final_plan))
            .map(|r| r.round().max(0.0) as u64);

        // Execute.
        let state_table = execute(
            &final_plan,
            &ExecContext::new(&state.catalog)
                .with_metrics(&self.exec_metrics)
                .with_parallelism(self.config.parallelism),
        )
        .map_err(EtlError::Query)?;
        // Maintainable aggregations executed in peeled form: re-apply the
        // planner's top projection to produce the user-visible table (the
        // raw state is cached for future delta merges).
        let table = match maint.map(|m| &m.kind) {
            Some(MaintKind::Aggregate {
                post_project: Some(exprs),
                ..
            }) => {
                let project = LogicalPlan::Project {
                    input: Box::new(LogicalPlan::InlineData {
                        label: "maintained-state".to_string(),
                        table: state_table.clone(),
                    }),
                    exprs: exprs.clone(),
                };
                execute(
                    &project,
                    &ExecContext::new(&state.catalog)
                        .with_metrics(&self.exec_metrics)
                        .with_parallelism(self.config.parallelism),
                )
                .map_err(EtlError::Query)?
            }
            _ => state_table.clone(),
        };
        if let (Some(model), Some(chosen)) = (&cost_model, &optimized_plan) {
            if let Some(est) = estimated {
                self.exec_metrics.add_estimate(est, table.num_rows() as u64);
            }
            report.stages.push((
                "explain".into(),
                render_explain(
                    chosen,
                    model,
                    estimated,
                    table.num_rows(),
                    report.rewrite.as_ref(),
                ),
            ));
        }
        if let Some(fp) = fingerprint {
            let meta = match (&classification, maint) {
                (_, Some(m)) => ResultMeta {
                    tables: Some(m.tables.clone()),
                    interval: crate::rewrite::sample_time_interval(&plan),
                    scope: ResultScope::Maintainable {
                        exec_plan: Arc::new(m.exec_plan.clone()),
                        kind: m.kind.clone(),
                        state: state_table.clone(),
                    },
                },
                (Some(Maintainability::TimeScoped { tables }), _) => ResultMeta {
                    tables: Some(tables.clone()),
                    interval: crate::rewrite::sample_time_interval(&plan),
                    scope: ResultScope::TimeScoped,
                },
                // Maintainable plan with maintenance disabled, or opaque:
                // only the table-scope keep applies.
                (Some(Maintainability::Maintainable(m)), None) => ResultMeta {
                    tables: Some(m.tables.clone()),
                    interval: (None, None),
                    scope: ResultScope::Opaque,
                },
                (Some(Maintainability::Opaque), _) => ResultMeta {
                    tables: Some(lazyetl_query::maintain::referenced_tables(&plan)),
                    interval: (None, None),
                    scope: ResultScope::Opaque,
                },
                (None, _) => ResultMeta::opaque(),
            };
            let bytes = table.byte_size();
            self.qcache
                .insert_with_meta(fp, table.clone(), generation, meta);
            self.log.push(EtlOp::ResultRecycleAdmit {
                rows: table.num_rows(),
                bytes,
            });
        }
        report.rows = table.num_rows();
        report.elapsed = t0.elapsed();
        self.log.push(EtlOp::QueryFinish {
            rows: report.rows,
            elapsed_us: report.elapsed.as_micros() as u64,
        });
        Ok(QueryOutput { table, report })
    }

    /// Build the per-query cost model: zone-map statistics of every
    /// resident table (memoized in the catalog, so reopened snapshots
    /// serve their persisted stats and everything else computes once), a
    /// synthesized row count for the external `data` table (lazy mode —
    /// its eventual size is the sum of R's per-record sample counts), and
    /// the data table's access-cost multiplier from per-source accounting.
    fn build_cost_model(&self, state: &WarehouseState) -> CostModel {
        let mut model = CostModel::from_catalog(&state.catalog);
        if self.mode == Mode::Lazy {
            if let Some(r) = state.catalog.table(RECORDS_TABLE) {
                if let Some(col) = r.schema.index_of("num_samples") {
                    let mut samples = 0i64;
                    for row in 0..r.num_rows() {
                        samples += r.columns[col]
                            .get(row)
                            .ok()
                            .and_then(|v| v.as_i64())
                            .unwrap_or(0)
                            .max(0);
                    }
                    let mut s = lazyetl_store::ColumnStats::empty("sample_value");
                    s.count = samples as usize;
                    model.set_table(DATA_TABLE, Arc::new(vec![s]));
                }
            }
        }
        model.set_multiplier(DATA_TABLE, self.data_access_multiplier(state));
        model
    }

    /// Access-cost multiplier of the external data table: how much more
    /// expensive materializing one record is than scanning a resident
    /// row, in units of 100 µs of I/O per record above local. Observed
    /// per-source accounting (simulated I/O over records extracted) is
    /// preferred; a mount that has not extracted anything yet falls back
    /// to its nominal access profile priced for a typical 4 KiB record.
    /// The most expensive mount wins — a plan cannot choose which mount a
    /// record lives on.
    fn data_access_multiplier(&self, state: &WarehouseState) -> f64 {
        let mut worst = 1.0f64;
        for (mount, c) in state.mounts.iter().zip(&self.source_counters) {
            let recs = c.records_extracted.load(Ordering::Relaxed);
            let per_record_us = if recs > 0 {
                c.simulated_io_us.load(Ordering::Relaxed) as f64 / recs as f64
            } else {
                mount.source.access().cost(4096).as_secs_f64() * 1e6
            };
            worst = worst.max(1.0 + per_record_us / 100.0);
        }
        worst
    }

    /// Explain a query: run the pipeline and return the per-stage plans.
    ///
    /// In lazy mode this performs the run-time rewrite (and therefore the
    /// extraction) — exactly what the demo shows its audience. With
    /// cost-based planning on, the final `explain` stage reports the
    /// chosen join order, estimated vs. actual result rows, and whether
    /// record pruning was an index seek or a scan.
    pub fn explain(&self, sql: &str) -> Result<Vec<(String, String)>> {
        Ok(self.query(sql)?.report.stages)
    }

    /// The query front end: parse, resolve tables for this warehouse's
    /// mode, plan, and optimize as the configuration says. Returns the
    /// logical plan, the optimized plan, and the cost model when the
    /// optimization was costed. [`Self::query`], [`Self::plan_preview`]
    /// and [`Self::estimate_query_rows`] all compile here, so none of them
    /// can describe a plan the warehouse would not run.
    fn compile(
        &self,
        state: &WarehouseState,
        sql: &str,
    ) -> Result<(LogicalPlan, LogicalPlan, Option<CostModel>)> {
        let stmt = parse_select(sql)?;
        let source = match self.mode {
            Mode::Lazy => {
                TableSource::new(&state.catalog).with_external(DATA_TABLE, schema::data_schema())
            }
            Mode::Eager => TableSource::new(&state.catalog),
        };
        let logical = plan_select(&stmt, &source)?;

        // Compile-time optimization (metadata predicates first), costed
        // on the catalog's statistics when cost-based planning is on.
        let cost_model = (self.config.metadata_predicate_first && self.config.cost_based_planning)
            .then(|| self.build_cost_model(state));
        let optimized = if let Some(model) = &cost_model {
            optimize_with_cost(&logical, model)?
        } else if self.config.metadata_predicate_first {
            optimize(&logical)?
        } else {
            // Ablation: keep literal coercion and folding, skip pushdown.
            fold_constants(&coerce_timestamp_literals(&logical)?)
        };
        Ok((logical, optimized, cost_model))
    }

    /// Compile-time plan preview: parse, plan and optimize *without*
    /// executing anything — no extraction, no cache traffic, no log
    /// entries. Returns the `logical` and `optimized` stages exactly as
    /// [`Self::query`] would report them; the `rewritten` stage only
    /// exists at run time (see [`Self::explain`]).
    pub fn plan_preview(&self, sql: &str) -> Result<Vec<(String, String)>> {
        let (logical, optimized, _) = self.compile(&self.read_state(), sql)?;
        Ok(vec![
            ("logical".to_string(), logical.display()),
            ("optimized".to_string(), optimized.display()),
        ])
    }

    /// Estimate the result cardinality of `sql` **without executing it**
    /// — no extraction, no cache traffic, no log entries, no refresh.
    /// This is the serving layer's cost-based-admission probe: compile
    /// with the statistics-backed cost model, and ask the model for the
    /// optimized plan's row estimate.
    ///
    /// Returns `Ok(None)` when no estimate is available: cost-based
    /// planning disabled, or the plan contains something the model cannot
    /// cost. Callers treat `None` as "admit on queue depth alone".
    pub fn estimate_query_rows(&self, sql: &str) -> Result<Option<u64>> {
        let (_, optimized, cost_model) = self.compile(&self.read_state(), sql)?;
        Ok(cost_model
            .and_then(|model| model.estimate_rows(&optimized))
            .map(|r| r.round().max(0.0) as u64))
    }

    /// Rescan the repository and fold any changes into the warehouse.
    ///
    /// The no-change common case (every auto-refreshing query against a
    /// quiet repository) is detected with a read-only probe under the
    /// **shared read lock**, so concurrent queries keep flowing. Only
    /// when something actually changed does the fold take the state
    /// write lock: running queries finish first, queries arriving during
    /// the fold wait for the new state. Lazy mode reloads metadata of
    /// changed/added files and invalidates the changed files' cache
    /// entries; eager mode additionally re-extracts their data. Removed
    /// files disappear from all tables.
    ///
    /// A refresh that fails (a changed file that does not parse, a source
    /// that cannot be read) changes nothing — registry, catalog, index,
    /// cache, generation and recycler stay as they were — so the next
    /// refresh finds and retries the same delta.
    pub fn refresh(&self) -> Result<RefreshSummary> {
        let t0 = Instant::now();
        {
            let state = self.read_state();
            let quiet = state
                .mounts
                .iter()
                .map(|m| m.source.scan_changes().map(|c| c.is_empty()))
                .collect::<std::result::Result<Vec<bool>, _>>()?
                .into_iter()
                .all(|empty| empty);
            if quiet {
                *self.last_rescan.lock().expect("last_rescan poisoned") = Instant::now();
                return Ok(RefreshSummary {
                    elapsed: t0.elapsed(),
                    ..Default::default()
                });
            }
        }
        // Something changed: escalate to the write lock, held across the
        // scan and the commit of its report. The scan recomputes
        // authoritatively, so a concurrent refresh that beat us to the
        // fold is harmless — our scan then reports empty.
        let mut state = self.state.write().expect("warehouse state poisoned");
        let mut summary = RefreshSummary::default();
        let mut delta = FileDelta::default();
        let mut added_fids: Vec<i64> = Vec::new();
        let mut changes = Vec::with_capacity(state.mounts.len());
        for (mi, mount) in state.mounts.iter().enumerate() {
            let change = mount.source.scan_changes()?;
            summary.added += change.added.len();
            summary.modified += change.modified.len();
            summary.removed += change.removed.len();
            for e in change.removed.iter().chain(&change.modified) {
                delta.drop.insert(global_file_id(mi, e.id)?);
            }
            for e in &change.added {
                added_fids.push(global_file_id(mi, e.id)?);
            }
            for e in change.modified.iter().chain(&change.added) {
                delta.load.push((mi, e.clone()));
            }
            changes.push(change);
        }
        *self.last_rescan.lock().expect("last_rescan poisoned") = Instant::now();
        if summary.is_noop() {
            summary.elapsed = t0.elapsed();
            return Ok(summary);
        }
        // A delta is insert-only when nothing was modified or removed.
        let insert_only = delta.drop.is_empty();
        // Everything that can fail happens before anything changes: a
        // refresh that fails here is a no-op, and the next one retries it.
        let staged = state.stage(self.mode, &self.extractor, delta)?;
        for (mount, change) in state.mounts.iter_mut().zip(&changes) {
            mount.source.commit(change);
        }
        // Recycled results were computed against the pre-change catalog.
        let prev_generation = self.generation.fetch_add(1, Ordering::AcqRel);
        let folded = state.commit(self.mode, staged, &self.cache, &self.log)?;
        summary.records_reloaded = folded.records;
        summary.samples_reloaded = folded.samples;

        // Fold the delta into the result recycler: entries the change
        // provably misses are kept, maintainable ones are patched from
        // the delta rows, the rest fall back to recompute-on-next-query.
        self.apply_result_delta(
            &state,
            prev_generation,
            prev_generation + 1,
            insert_only,
            &added_fids,
            &folded,
        );
        summary.elapsed = t0.elapsed();
        Ok(summary)
    }

    /// Build the refresh's table-level deltas and fold them into the
    /// result recycler (scoped keeps + incremental patches). Called under
    /// the state write lock, after the fold committed; an insert-only
    /// delta's rows are the tails `folded` points at.
    fn apply_result_delta(
        &self,
        state: &WarehouseState,
        prev_generation: u64,
        generation: u64,
        insert_only: bool,
        added_fids: &[i64],
        folded: &Folded,
    ) {
        if !self.config.recycle_query_results || self.qcache.is_empty() {
            return;
        }
        // Every refresh touches the whole metadata/data family; entries
        // over none of these (e.g. constant queries) are kept by the
        // table-scope check.
        let touched: Vec<String> = vec![
            DATA_TABLE.to_string(),
            FILES_TABLE.to_string(),
            RECORDS_TABLE.to_string(),
        ];
        // Row-level deltas exist only for insert-only refreshes; other
        // shapes still benefit from scoped invalidation.
        let (f_delta, r_delta, interval) = if insert_only {
            let f = table_tail(&state.catalog, FILES_TABLE, folded.tail[0]);
            let r = table_tail(&state.catalog, RECORDS_TABLE, folded.tail[1]);
            let interval = r.as_ref().map_or((None, None), record_time_coverage);
            (f, r, interval)
        } else {
            (None, None, (None, None))
        };
        self.log.push(EtlOp::RefreshDelta {
            generation,
            added_files: added_fids.len(),
            added_records: r_delta.as_ref().map_or(0, |t| t.num_rows()),
            insert_only,
        });
        let delta = crate::qcache::RefreshDelta {
            prev_generation,
            generation,
            insert_only,
            tables: &touched,
            interval,
        };
        // The actual-data delta is extracted lazily, once, and only if a
        // maintainable entry's plan really reads `D`.
        let mut d_delta: Option<Arc<Table>> = None;
        let mut d_failed = false;
        let mut exec_cb = |p: &LogicalPlan| -> Option<Arc<Table>> {
            let (f, r) = match (&f_delta, &r_delta) {
                (Some(f), Some(r)) => (f.clone(), r.clone()),
                _ => return None,
            };
            let needs_data = p.any_node(&mut |n| match n {
                LogicalPlan::ExternalScan { .. } => true,
                LogicalPlan::TableScan { table, .. } => table == DATA_TABLE,
                _ => false,
            });
            if needs_data && d_delta.is_none() && !d_failed {
                d_delta = self.extract_data_delta(state, added_fids, folded.tail[2]);
                d_failed = d_delta.is_none();
            }
            if needs_data && d_failed {
                return None;
            }
            let d = d_delta.clone();
            let inline = |label: &str, table: Arc<Table>| LogicalPlan::InlineData {
                label: label.to_string(),
                table,
            };
            let substituted = p.transform_up(&mut |n| match n {
                LogicalPlan::TableScan { table, .. } if table == FILES_TABLE => {
                    inline("files-delta", f.clone())
                }
                LogicalPlan::TableScan { table, .. } if table == RECORDS_TABLE => {
                    inline("records-delta", r.clone())
                }
                LogicalPlan::TableScan { table, .. } if table == DATA_TABLE => inline(
                    "data-delta",
                    d.clone().expect("data delta materialized above"),
                ),
                LogicalPlan::ExternalScan { .. } => inline(
                    "data-delta",
                    d.clone().expect("data delta materialized above"),
                ),
                other => other,
            });
            let ctx = ExecContext::new(&state.catalog)
                .with_metrics(&self.exec_metrics)
                .with_parallelism(self.config.parallelism);
            execute(&substituted, &ctx).ok()
        };
        let outcome =
            self.qcache
                .apply_delta(&delta, self.config.maintain_recycled_results, &mut exec_cb);
        if outcome.kept > 0 {
            self.log.push(EtlOp::ResultKeep {
                bytes: outcome.kept_bytes,
            });
        }
        if outcome.patched > 0 {
            self.log.push(EtlOp::ResultPatch {
                rows: outcome.patch_rows,
            });
        }
        for reason in outcome.dropped {
            self.log.push(EtlOp::ResultRecomputeFallback { reason });
        }
    }

    /// Materialize the delta's `D` rows: eager mode takes the resident
    /// data table's tail; lazy mode extracts the added files' records
    /// through the regular fetch pipeline (cache-admitted,
    /// source-accounted).
    fn extract_data_delta(
        &self,
        state: &WarehouseState,
        added_fids: &[i64],
        d_tail: usize,
    ) -> Option<Arc<Table>> {
        match self.mode {
            Mode::Eager => table_tail(&state.catalog, DATA_TABLE, d_tail),
            Mode::Lazy => {
                let mut pairs: Vec<(i64, i64)> = Vec::new();
                for &fid in added_fids {
                    for &seq in state.index.seqs_of_file(fid) {
                        pairs.push((fid, seq));
                    }
                }
                let mut stats = FetchStats::default();
                fetch_pairs(
                    state,
                    &self.source_counters,
                    &self.extractor,
                    &self.cache,
                    &self.log,
                    self.config.extraction_threads,
                    &pairs,
                    &mut stats,
                )
                .ok()
            }
        }
    }

    /// Reopen a warehouse from state persisted by
    /// [`crate::persistence::save_warehouse`], skipping the metadata scan
    /// (and, for eager saves, the full extraction).
    ///
    /// The directory is first brought back to a consistent snapshot
    /// ([`crate::persistence::recover_saved_dir`] replays the save
    /// journal and sweeps any debris an interrupted save left), so
    /// reopening after a crash lands on either the pre-save or the
    /// post-save state — never a torn one.
    ///
    /// The repository may have drifted since the save; the difference
    /// between the saved `F` table and the sources is folded in like a
    /// refresh — unchanged files keep their persisted rows, changed or
    /// renumbered files are reloaded, vanished files are purged, and new
    /// files are scanned fresh; an empty difference reads nothing. For
    /// lazy saves the persisted record-cache segments are then attached
    /// for lazy rehydration: each shard's segment is read on first touch,
    /// and only entries of files that survived reconciliation unchanged
    /// are admitted — drift invalidates exactly the affected records.
    pub fn open_saved(
        root: impl AsRef<Path>,
        saved_dir: impl AsRef<Path>,
        config: WarehouseConfig,
    ) -> Result<Warehouse> {
        let mut repo = Repository::open(root.as_ref().to_path_buf())?;
        repo.access = config.access;
        WarehouseBuilder::new()
            .config(config)
            .source("repo", Box::new(repo))
            .open_saved(saved_dir)
    }

    fn open_saved_from(
        mounts: Vec<Mount>,
        saved_dir: &Path,
        config: WarehouseConfig,
    ) -> Result<Warehouse> {
        let t0 = Instant::now();
        let recovery = crate::persistence::recover_saved_dir(saved_dir)?;
        let manifest = crate::persistence::read_manifest(saved_dir)?;
        let mode = manifest.mode;
        let (files, records, data) = crate::persistence::load_saved_tables(saved_dir)?;
        let mut state = WarehouseState::new(mounts, mode)?;
        state.catalog.replace_table(FILES_TABLE, files)?;
        state.catalog.replace_table(RECORDS_TABLE, records)?;
        if let Some(d) = data {
            state.catalog.replace_table(DATA_TABLE, d)?;
        }
        let cache = RecyclingCache::with_shards(config.cache_budget_bytes, config.cache_shards);
        let log = EtlLog::new();

        // Reopening is the refresh against the saved F table: a saved row
        // that no live file matches in URI, id, mtime and size is dropped,
        // a live file that no saved row matches is loaded.
        let mut saved: HashMap<String, (i64, i64, i64)> = HashMap::new();
        {
            let f_table = state
                .catalog
                .table(FILES_TABLE)
                .expect("files table installed");
            let need = |name: &str| {
                f_table
                    .column(name)
                    .ok_or_else(|| EtlError::Internal(format!("files table lacks {name}")))
            };
            let (uri, id, mtime, size) = (
                need("uri")?,
                need("file_id")?,
                need("mtime")?,
                need("size")?,
            );
            for row in 0..f_table.num_rows() {
                saved.insert(
                    uri.get(row)?.as_str().unwrap_or_default().to_string(),
                    (
                        id.get(row)?.as_i64().unwrap_or(-1),
                        mtime.get(row)?.as_i64().unwrap_or(0),
                        size.get(row)?.as_i64().unwrap_or(-1),
                    ),
                );
            }
        }
        let mut delta = FileDelta::default();
        // file_id → current mtime of files whose saved rows survive
        // unchanged; the only entries cache segments may rehydrate.
        let mut valid: HashMap<i64, lazyetl_mseed::Timestamp> = HashMap::new();
        let mut live_files = 0usize;
        for (mi, mount) in state.mounts.iter().enumerate() {
            for e in mount.source.files() {
                live_files += 1;
                let fid = global_file_id(mi, e.id)?;
                let was = saved.remove(&state.full_uri(mi, &e.uri));
                if was == Some((fid, e.mtime.micros(), e.size as i64)) {
                    valid.insert(fid, e.mtime);
                } else {
                    delta.drop.extend(was.map(|row| row.0));
                    delta.load.push((mi, e.clone()));
                }
            }
        }
        // Anything left in `saved` vanished from the repository.
        delta.drop.extend(saved.into_values().map(|row| row.0));
        let reloaded = delta.load.len();
        let staged = state.stage(mode, &FormatRegistry::default(), delta)?;
        let folded = state.commit(mode, staged, &cache, &log)?;

        // Seed the planner from the snapshot's stats/index sections — but
        // only when the fold changed **nothing**: a reloaded or vanished
        // file means the persisted statistics describe rows that no longer
        // exist, so a drifted reopen deliberately opens statless (zone
        // maps recompute on demand, the time index re-sorts) rather than
        // plan on stale numbers. Damaged or pre-upgrade sections degrade
        // the same way; neither ever fails the open.
        let planner_seed = if folded.changed {
            "skipped (repository drifted)"
        } else {
            let persisted_index =
                crate::persistence::load_saved_time_index(saved_dir, &manifest).unwrap_or(None);
            state.index = LocatorIndex::build_seeded(
                state
                    .catalog
                    .table(RECORDS_TABLE)
                    .expect("records table present"),
                persisted_index.as_ref(),
            )?;
            let mut stats_seeded = false;
            if let Ok(Some(stats)) = crate::persistence::load_saved_stats(saved_dir, &manifest) {
                for (name, cols) in stats {
                    stats_seeded |= state.catalog.seed_zone_map(&name, cols);
                }
            }
            match (stats_seeded, persisted_index.is_some()) {
                (true, true) => "stats + time index",
                (true, false) => "stats only",
                (false, true) => "time index only",
                (false, false) => "none persisted (statless)",
            }
        };

        // Attach persisted cache segments for lazy rehydration (eager
        // saves have none).
        let mut segments_attached = 0usize;
        if mode == Mode::Lazy && !manifest.segments.is_empty() {
            let (saved_shards, segs) =
                crate::persistence::segments_to_attach(saved_dir, &manifest, valid);
            segments_attached = segs.len();
            cache.attach_segments(saved_shards, segs);
        }

        // Replay the save journal into the fresh log (observability: the
        // reopened warehouse shows how its snapshot came to be), noting
        // any rollback the recovery sweep performed.
        for op in recovery.replayed {
            log.push(op);
        }
        if let Some(epoch) = recovery.rolled_back {
            log.push(EtlOp::RecoveryRollback { epoch });
        }
        log.push(EtlOp::PlanRewrite {
            stage: "bootstrap".into(),
            detail: format!(
                "reopened from saved state (epoch {}); {reloaded} of {live_files} files \
                 reconciled; {segments_attached} cache segments attached; \
                 planner seed: {planner_seed}",
                manifest.epoch,
            ),
        });
        Ok(Warehouse::assemble(
            mode, state, cache, log, &folded, t0, config,
        ))
    }
}

/// Render the `explain` stage of a costed query: the chosen join order,
/// estimated vs. actual result rows, and how each table was accessed —
/// resident scans with their statistics and cost multipliers, and the
/// injected data's index-seek-vs-sweep pruning verdict.
fn render_explain(
    plan: &LogicalPlan,
    model: &CostModel,
    estimated: Option<u64>,
    actual: usize,
    rewrite: Option<&RewriteReport>,
) -> String {
    let mut names = Vec::new();
    lazyetl_query::cost::base_tables(plan, &mut names);
    let order: Vec<String> = names
        .iter()
        .map(|n| {
            if n == DATA_TABLE && rewrite.is_some() {
                format!("{DATA_TABLE} (injected)")
            } else {
                n.clone()
            }
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "join order: {}\n",
        if order.is_empty() {
            "(no base tables)".to_string()
        } else {
            order.join(" JOIN ")
        }
    ));
    match estimated {
        Some(est) => out.push_str(&format!(
            "estimated rows: {est} | actual rows: {actual} | abs error: {}\n",
            est.abs_diff(actual as u64)
        )),
        None => out.push_str(&format!(
            "estimated rows: n/a (statless fallback) | actual rows: {actual}\n"
        )),
    }
    for n in &names {
        if n == DATA_TABLE && rewrite.is_some() {
            continue; // covered by the injected-data line below
        }
        let mult = model.table(n).map(|t| t.multiplier).unwrap_or(1.0);
        let rows = model
            .table_rows(n)
            .map(|r| format!("~{} rows", r.round() as u64))
            .unwrap_or_else(|| "rows unknown".into());
        out.push_str(&format!("access {n}: scan, {rows}, cost x{mult:.1}\n"));
    }
    if let Some(rw) = rewrite {
        let mult = model.table(DATA_TABLE).map(|t| t.multiplier).unwrap_or(1.0);
        out.push_str(&format!(
            "access {DATA_TABLE}: {} ({} index entries examined); \
             {} of {} candidate records fetched, {} pruned, cost x{mult:.1}\n",
            if rw.index_seek {
                "time-index seek"
            } else {
                "linear sweep"
            },
            rw.index_entries_examined,
            rw.fetched_pairs,
            rw.candidate_pairs,
            rw.pruned_pairs
        ));
    }
    out
}

/// The rows of `name` from row `from` on (`None` when the table is
/// missing): what the last fold appended.
fn table_tail(catalog: &Catalog, name: &str, from: usize) -> Option<Arc<Table>> {
    let table = catalog.table(name)?;
    table
        .slice(from, table.num_rows().checked_sub(from)?)
        .ok()
        .map(Arc::new)
}

/// `(min start_time, max end_time)` over an R-delta's rows — the record
/// time coverage scoped invalidation compares entry windows against.
fn record_time_coverage(table: &Arc<Table>) -> (Option<i64>, Option<i64>) {
    let (Some(start), Some(end)) = (table.column("start_time"), table.column("end_time")) else {
        return (None, None);
    };
    let (mut lo, mut hi) = (None, None);
    for i in 0..table.num_rows() {
        if let Some(t) = start.get(i).ok().and_then(|v| v.as_i64()) {
            lo = Some(lo.map_or(t, |c: i64| c.min(t)));
        }
        if let Some(t) = end.get(i).ok().and_then(|v| v.as_i64()) {
            hi = Some(hi.map_or(t, |c: i64| c.max(t)));
        }
    }
    (lo, hi)
}

/// Materialize `D` rows for (file, record) pairs in three phases:
///
/// * **triage** (sequential) — per file, look each record up in the cache,
///   collecting hits and the locators still needing extraction;
/// * **extract + admit** (parallel up to `threads`, see
///   [`crate::parallel`]) — decode the missing records file by file, each
///   worker admitting its records straight into the lock-striped cache;
/// * **assemble** (sequential) — per file in pair order: cached rows
///   first, then fresh rows in byte-offset order.
///
/// The assembled table is byte-identical for every thread count. Each
/// file's reads go through its own mounted source; extraction work is
/// costed under that source's access profile and tallied into its
/// [`SourceCounters`].
#[allow(clippy::too_many_arguments)]
fn fetch_pairs(
    state: &WarehouseState,
    counters: &[SourceCounters],
    extractor: &FormatRegistry,
    cache: &RecyclingCache,
    log: &EtlLog,
    threads: usize,
    pairs: &[(i64, i64)],
    stats: &mut FetchStats,
) -> Result<Arc<Table>> {
    // Phase A: group pairs by file and triage against the cache.
    let mut groups: Vec<FileGroup<'_>> = Vec::new();
    let mut i = 0usize;
    while i < pairs.len() {
        let file_id = pairs[i].0;
        let mut seqs = Vec::new();
        while i < pairs.len() && pairs[i].0 == file_id {
            seqs.push(pairs[i].1);
            i += 1;
        }
        let (mount, local_id) = split_file_id(file_id);
        let source = state
            .mounts
            .get(mount)
            .ok_or_else(|| {
                EtlError::Internal(format!(
                    "file id {file_id} names mount {mount}, which does not exist"
                ))
            })?
            .source
            .as_ref();
        let entry = source
            .by_id(local_id)
            .ok_or_else(|| EtlError::Internal(format!("file id {file_id} not in source registry")))?
            .clone();
        let current_mtime = source.current_mtime(&entry.uri)?;
        let display_uri = state.full_uri(mount, &entry.uri);
        let mut group = FileGroup {
            source,
            file_id,
            display_uri,
            entry,
            current_mtime,
            hit_tables: Vec::new(),
            to_extract: Vec::new(),
        };
        for &seq in &seqs {
            let info = state.index.get(file_id, seq).ok_or_else(|| {
                EtlError::Internal(format!(
                    "record ({file_id}, {seq}) missing from locator index"
                ))
            })?;
            match cache.get((file_id, seq), current_mtime) {
                CacheLookup::Hit(t) => {
                    group.hit_tables.push(t);
                    stats.cache_hits += 1;
                    continue;
                }
                CacheLookup::Stale => {
                    stats.stale_drops += 1;
                    log.push(EtlOp::StaleDrop {
                        uri: group.display_uri.clone(),
                    });
                }
                CacheLookup::Miss => {
                    stats.cache_misses += 1;
                }
            }
            group.to_extract.push(info.locator);
        }
        group.to_extract.sort_by_key(|l| l.byte_offset);
        groups.push(group);
    }

    // Phase B: extract missing records, possibly in parallel; workers
    // admit each record to its cache shard as soon as it materializes.
    let extracted = extract_groups_into(extractor, &groups, threads, Some(cache));

    // Phase C: assemble rows in pair order.
    let mut out = Table::empty(schema::data_schema());
    for (group, datas) in groups.iter().zip(extracted) {
        if !group.hit_tables.is_empty() {
            for t in &group.hit_tables {
                out.append_table(t)?;
            }
            log.push(EtlOp::CacheHit {
                uri: group.display_uri.clone(),
                records: group.hit_tables.len(),
            });
        }
        let datas = datas?;
        if datas.is_empty() {
            continue;
        }
        let mut file_bytes = 0u64;
        let mut samples = 0usize;
        for (rec, loc) in datas.iter().zip(&group.to_extract) {
            samples += rec.samples;
            file_bytes += loc.record_length as u64;
            out.append_table(&rec.table)?;
            if rec.evicted_on_admit > 0 {
                log.push(EtlOp::CacheEvict {
                    entries: rec.evicted_on_admit,
                    bytes: 0,
                });
            }
        }
        let simulated = group.source.access().cost(file_bytes);
        stats.records_extracted += datas.len();
        stats.samples_extracted += samples as u64;
        stats.bytes_read += file_bytes;
        stats.simulated_io += simulated;
        stats.files_extracted.insert(group.display_uri.clone());
        let (mount, _) = split_file_id(group.file_id);
        if let Some(c) = counters.get(mount) {
            c.files_extracted.fetch_add(1, Ordering::Relaxed);
            c.records_extracted
                .fetch_add(datas.len() as u64, Ordering::Relaxed);
            c.samples_extracted
                .fetch_add(samples as u64, Ordering::Relaxed);
            c.bytes_read.fetch_add(file_bytes, Ordering::Relaxed);
            c.simulated_io_us
                .fetch_add(simulated.as_micros() as u64, Ordering::Relaxed);
        }
        log.push(EtlOp::Extract {
            uri: group.display_uri.clone(),
            records: datas.len(),
            samples,
        });
    }
    Ok(Arc::new(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_id_packing_roundtrips_in_range() {
        let fid = global_file_id(0, FileId(7)).unwrap();
        assert_eq!(fid, 7, "mount 0 keeps local ids");
        assert_eq!(split_file_id(fid), (0, FileId(7)));
        let fid = global_file_id(3, FileId(u32::MAX)).unwrap();
        assert_eq!(split_file_id(fid), (3, FileId(u32::MAX)));
    }

    #[test]
    fn file_id_packing_is_checked_at_the_boundary() {
        // The largest representable mount index packs and inverts cleanly
        // even with the largest local id.
        let fid = global_file_id(MAX_MOUNT_INDEX, FileId(u32::MAX)).unwrap();
        assert_eq!(fid, i64::MAX);
        assert_eq!(split_file_id(fid), (MAX_MOUNT_INDEX, FileId(u32::MAX)));
        // One past the boundary is a typed overflow, not a wrapped id.
        let err = global_file_id(MAX_MOUNT_INDEX + 1, FileId(0)).unwrap_err();
        assert_eq!(err.code(), "repo.id_overflow");
        assert!(matches!(err, RepoError::IdOverflow { mount } if mount == MAX_MOUNT_INDEX + 1));
    }
}
