//! The layer probes: one adapter function per layer call the traced run
//! times. Everything `spine-trace` knows about the inside of a layer is in
//! this file, so a changed signature breaks one function here — and never
//! the end-to-end driver, which does not compile this file.
//!
//! A probe is a replay: the call a layer makes inside `Warehouse::query`,
//! made again from outside on the same inputs. Spans inside the program
//! are a later issue (ROADMAP item 1).

use lazyetl_core::cache::CacheKey;
use lazyetl_core::rewrite::{FetchFn, MetadataExec, RewriteContext};
use lazyetl_core::{
    data_schema, lazy_rewrite, CacheLookup, LocatorIndex, QueryResultCache, RecordData,
    RecyclingCache, RewriteReport, Warehouse,
};
use lazyetl_mseed::encoding::Samples;
use lazyetl_mseed::{Record, Timestamp};
use lazyetl_query::{
    execute, optimize, parse_select, plan_select, ExecContext, ExecMetrics, LogicalPlan,
    TableSource,
};
use lazyetl_repo::Repository;
use lazyetl_server::protocol::{decode_frame, frame_bytes, DEFAULT_MAX_RESPONSE};
use lazyetl_server::Frame;
use lazyetl_store::{Catalog, Table};
use std::path::Path;
use std::sync::Arc;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `mseed`: read the records at `offsets` of one file and decode their
/// payloads — what the extractor does for a query's cache misses.
pub fn mseed_decode(path: &Path, offsets: &[(u64, u32)]) -> Result<Vec<(Record, Samples)>, String> {
    lazyetl_mseed::read::read_records_at(path, offsets)
        .map_err(text)?
        .into_iter()
        .map(|rec| {
            let samples = rec.decode_samples().map_err(text)?;
            Ok((rec, samples))
        })
        .collect()
}

/// `repo`: the metadata walk of `Repository::open`.
pub fn repo_scan(dir: &Path) -> Result<Repository, String> {
    Repository::open(dir).map_err(text)
}

/// `repo`: the per-query refresh probe on a quiet repository. Returns the
/// number of changes it found.
pub fn repo_probe(repo: &Repository) -> Result<usize, String> {
    let c = repo.scan_changes().map_err(text)?;
    Ok(c.added.len() + c.modified.len() + c.removed.len())
}

/// `store`: assemble one `data` relation from per-record tables — what
/// fetch Phase C does with a query's cache hits.
pub fn store_append(tables: &[Arc<Table>]) -> Result<Table, String> {
    let mut out = Table::empty(data_schema());
    for t in tables {
        out.append_table(t).map_err(text)?;
    }
    Ok(out)
}

/// `query`: the front end as the warehouse exposes it — parse, plan,
/// optimize and render. Returns the optimized plan's rendering, which is
/// also the recycler's key.
pub fn query_frontend(wh: &Warehouse, sql: &str) -> Result<String, String> {
    let stages = wh.plan_preview(sql).map_err(text)?;
    stages
        .into_iter()
        .find(|(stage, _)| stage == "optimized")
        .map(|(_, plan)| plan)
        .ok_or_else(|| "plan_preview has no optimized stage".to_string())
}

/// `query`: the optimized plan itself, for the execution probes.
pub fn query_plan(catalog: &Catalog, sql: &str) -> Result<LogicalPlan, String> {
    let stmt = parse_select(sql).map_err(text)?;
    let source = TableSource::new(catalog).with_external("data", data_schema());
    optimize(&plan_select(&stmt, &source).map_err(text)?).map_err(text)
}

/// `query`: execute a plan (a metadata sub-plan, or a rewritten plan with
/// its `data` rows injected) with the warehouse's default context.
pub fn query_exec(
    plan: &LogicalPlan,
    catalog: &Catalog,
    metrics: &ExecMetrics,
) -> Result<Arc<Table>, String> {
    execute(plan, &ExecContext::new(catalog).with_metrics(metrics)).map_err(text)
}

/// `core`: the run-time rewrite. `exec_meta` answers the metadata sub-plan
/// and `fetch` materializes the `(file, record)` pairs it asks for.
pub fn core_rewrite(
    plan: &LogicalPlan,
    index: &LocatorIndex,
    exec_meta: &MetadataExec<'_>,
    fetch: &mut FetchFn<'_>,
) -> Result<(LogicalPlan, RewriteReport), String> {
    let ctx = RewriteContext {
        index,
        record_level_pruning: true,
        time_index_seek: true,
    };
    let mut report = RewriteReport::default();
    let rewritten = lazy_rewrite(plan, &ctx, exec_meta, fetch, &mut report).map_err(text)?;
    Ok((rewritten, report))
}

/// `core`: the record-level transformation of one decoded record into
/// `data` rows.
pub fn core_transform(file_id: i64, record: &Record, samples: &Samples) -> Result<Table, String> {
    let rate = record.sample_rate();
    RecordData {
        seq_no: record.header.sequence_number as i64,
        start: record.start_timestamp().map_err(text)?,
        period_us: if rate <= 0.0 {
            0
        } else {
            (1_000_000.0 / rate).round() as i64
        },
        values: samples.to_f64(),
    }
    .to_table(file_id)
    .map_err(text)
}

/// `core`: look a batch of records up in a record cache.
pub fn core_cache_get(
    cache: &RecyclingCache,
    keys: &[CacheKey],
    mtime_of: impl Fn(i64) -> Timestamp,
) -> Vec<Option<Arc<Table>>> {
    keys.iter()
        .map(|&key| match cache.get(key, mtime_of(key.0)) {
            CacheLookup::Hit(t) => Some(t),
            CacheLookup::Stale | CacheLookup::Miss => None,
        })
        .collect()
}

/// `core`: admit one record; returns the entries evicted to make room.
pub fn core_cache_insert(
    cache: &RecyclingCache,
    key: CacheKey,
    table: Arc<Table>,
    mtime: Timestamp,
) -> usize {
    cache.insert(key, table, mtime)
}

/// `core`: look a fingerprint up in a result recycler.
pub fn core_qcache_get(qcache: &QueryResultCache, fingerprint: &str) -> Option<Arc<Table>> {
    qcache.get(fingerprint, 0)
}

/// `core`: admit a result to a result recycler.
pub fn core_qcache_insert(qcache: &QueryResultCache, fingerprint: String, table: Arc<Table>) {
    qcache.insert(fingerprint, table, 0);
}

/// `server`: encode a result as `ResultBatch` frames of `batch_rows` rows
/// and decode them again. Returns the bytes that crossed.
pub fn server_codec(table: &Table, batch_rows: usize) -> Result<usize, String> {
    let mut bytes = 0;
    let mut offset = 0;
    let mut seq = 0;
    while offset < table.num_rows() {
        let len = batch_rows.min(table.num_rows() - offset);
        let frame = Frame::ResultBatch {
            cursor: 1,
            seq,
            table: Arc::new(table.slice(offset, len).map_err(text)?),
        };
        let wire = frame_bytes(&frame).map_err(text)?;
        match decode_frame(&wire, DEFAULT_MAX_RESPONSE).map_err(text)? {
            Some((_, consumed)) if consumed == wire.len() => bytes += consumed,
            other => return Err(format!("frame did not decode whole: {other:?}")),
        }
        offset += len;
        seq += 1;
    }
    Ok(bytes)
}
