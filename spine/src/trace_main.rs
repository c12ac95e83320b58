//! `spine-trace round …` — one traced round.
//!
//! The round itself is the end-to-end driver's (`spine::round::run`) with
//! the tracer on: a span around every public call it makes. Afterwards the
//! layer probes of [`layers`] are replayed on the inputs of the recorded
//! operations, against bench-owned caches that saw the same sequence, so
//! each probe does the work its layer did inside `Warehouse::query`. The
//! output is the round's result, `layer.*` metrics, each probe's `share.*`
//! of the traced parent span, and the span log as JSON lines.

mod layers;

use lazyetl_core::cache::CacheKey;
use lazyetl_core::{
    CatalogRef, EtlError, LocatorIndex, QueryResultCache, RecyclingCache, Warehouse,
    WarehouseBuilder,
};
use lazyetl_mseed::Timestamp;
use lazyetl_query::ExecMetrics;
use lazyetl_repo::Repository;
use lazyetl_store::{ColumnData, Table};
use spine::oracle::fingerprint;
use spine::round::{self, named_args, required, QueryRecord, RoundArgs};
use spine::trace::Tracer;
use spine::workloads::Workload;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Rows per `ResultBatch`, the server's default.
const BATCH_ROWS: usize = 4096;

/// Run `f` inside a span. The tracer sits in a `RefCell` because the
/// rewriter's metadata callback is an `Fn`.
fn spanned<R>(tr: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = tr.borrow_mut().begin(name);
    let out = f();
    tr.borrow_mut().end(open);
    out
}

/// What the probes add up besides time.
#[derive(Default)]
struct Sums {
    replayed: u64,
    /// Σ latency of the replayed queries (the round trip, when served).
    parent_ns: u64,
    /// Σ time of the replayed queries inside `Warehouse::query`.
    core_parent_ns: u64,
    decoded_samples: u64,
    appended_bytes: u64,
    cache_gets: u64,
    exec_rows: u64,
    codec_bytes: u64,
    /// Replays whose answer or hit/miss counts differ from the recorded
    /// query's: the replay did not do the same work.
    diverged: u64,
}

/// Bench-owned state a replay runs against.
struct Shadow<'a> {
    wh: &'a Warehouse,
    catalog: CatalogRef<'a>,
    index: LocatorIndex,
    files: HashMap<i64, (PathBuf, Timestamp)>,
    repo: Repository,
    cache: RecyclingCache,
    qcache: Option<QueryResultCache>,
    metrics: ExecMetrics,
    served: bool,
}

fn column<'t>(table: &'t Table, name: &str) -> Result<&'t ColumnData, String> {
    table
        .column(name)
        .map(|c| c.data())
        .ok_or_else(|| format!("mseed.files has no column {name}"))
}

impl<'a> Shadow<'a> {
    fn new(wh: &'a Warehouse, dir: &Path, workload: Workload) -> Result<Shadow<'a>, String> {
        let config = workload.config();
        let catalog = wh.catalog();
        let records = catalog
            .table("records")
            .ok_or("catalog has no records table")?;
        let index = LocatorIndex::build(records).map_err(|e| e.to_string())?;
        let files_table = catalog.table("files").ok_or("catalog has no files table")?;
        let mut files = HashMap::new();
        match (
            column(files_table, "file_id")?,
            column(files_table, "uri")?,
            column(files_table, "mtime")?,
        ) {
            (ColumnData::Int64(ids), ColumnData::Utf8(uris), ColumnData::Timestamp(mtimes)) => {
                for ((id, uri), mtime) in ids.iter().zip(uris).zip(mtimes) {
                    files.insert(*id, (dir.join(uri), Timestamp(*mtime)));
                }
            }
            other => return Err(format!("unexpected mseed.files columns {other:?}")),
        }
        Ok(Shadow {
            wh,
            catalog,
            index,
            files,
            repo: layers::repo_scan(dir)?,
            cache: RecyclingCache::with_shards(config.cache_budget_bytes, config.cache_shards),
            qcache: config
                .recycle_query_results
                .then(|| QueryResultCache::new(config.result_cache_budget_bytes)),
            metrics: ExecMetrics::new(),
            served: workload.spec().served,
        })
    }

    /// Materialize the `data` rows of `pairs` the way fetch does: cache
    /// triage, decode of the misses, admission, assembly in pair order.
    fn fetch(
        &self,
        tr: &RefCell<Tracer>,
        pairs: &[CacheKey],
        sums: &RefCell<Sums>,
        hits: &RefCell<(u64, u64)>,
    ) -> Result<Arc<Table>, String> {
        let mut tables = spanned(tr, "core.cache_get", || {
            layers::core_cache_get(&self.cache, pairs, |file_id| {
                self.files.get(&file_id).map_or(Timestamp(0), |f| f.1)
            })
        });
        sums.borrow_mut().cache_gets += pairs.len() as u64;
        let found = tables.iter().filter(|t| t.is_some()).count() as u64;
        {
            let mut h = hits.borrow_mut();
            h.0 += found;
            h.1 += pairs.len() as u64 - found;
        }
        let mut i = 0;
        while i < pairs.len() {
            let file_id = pairs[i].0;
            let end = i + pairs[i..].iter().take_while(|p| p.0 == file_id).count();
            let missing: Vec<usize> = (i..end).filter(|&k| tables[k].is_none()).collect();
            if !missing.is_empty() {
                let (path, mtime) = self
                    .files
                    .get(&file_id)
                    .ok_or_else(|| format!("file {file_id} is not in mseed.files"))?;
                let offsets = missing
                    .iter()
                    .map(|&k| {
                        self.index
                            .get(file_id, pairs[k].1)
                            .map(|info| (info.locator.byte_offset, info.locator.record_length))
                            .ok_or_else(|| format!("record {:?} is not indexed", pairs[k]))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let decoded = spanned(tr, "mseed.decode", || layers::mseed_decode(path, &offsets))?;
                sums.borrow_mut().decoded_samples +=
                    decoded.iter().map(|(_, s)| s.len() as u64).sum::<u64>();
                let fresh = spanned(tr, "core.transform", || {
                    decoded
                        .iter()
                        .map(|(rec, samples)| {
                            layers::core_transform(file_id, rec, samples).map(Arc::new)
                        })
                        .collect::<Result<Vec<_>, _>>()
                })?;
                spanned(tr, "core.cache_insert", || {
                    for (&k, table) in missing.iter().zip(&fresh) {
                        layers::core_cache_insert(&self.cache, pairs[k], table.clone(), *mtime);
                    }
                });
                for (k, table) in missing.into_iter().zip(fresh) {
                    tables[k] = Some(table);
                }
            }
            i = end;
        }
        let tables: Vec<Arc<Table>> = tables.into_iter().flatten().collect();
        let out = spanned(tr, "store.append", || layers::store_append(&tables))?;
        sums.borrow_mut().appended_bytes += out.byte_size() as u64;
        Ok(Arc::new(out))
    }

    /// Replay the probes of one recorded query. With the tracer off this
    /// only moves the bench-owned caches along (priming, warm-up).
    fn replay(
        &self,
        tr: &RefCell<Tracer>,
        rec: &QueryRecord,
        sums: &RefCell<Sums>,
    ) -> Result<(), String> {
        tr.borrow_mut().set_op(Some(rec.op));
        let root = tr.borrow_mut().begin("replay");
        let outcome = self.replay_inner(tr, rec, sums);
        tr.borrow_mut().end(root);
        outcome
    }

    fn replay_inner(
        &self,
        tr: &RefCell<Tracer>,
        rec: &QueryRecord,
        sums: &RefCell<Sums>,
    ) -> Result<(), String> {
        // Product default: every query probes the repository for changes.
        spanned(tr, "repo.probe", || layers::repo_probe(&self.repo))?;
        let fp = spanned(tr, "query.frontend", || {
            layers::query_frontend(self.wh, &rec.sql)
        })?;
        if let Some(qcache) = &self.qcache {
            let hit = spanned(tr, "core.qcache_get", || {
                layers::core_qcache_get(qcache, &fp)
            });
            if rec.recycled {
                if hit.is_none() {
                    layers::core_qcache_insert(qcache, fp, rec.table.clone());
                }
                return self.codec(tr, rec, sums);
            }
        }
        let plan = spanned(tr, "bench.plan", || {
            layers::query_plan(&self.catalog, &rec.sql)
        })?;
        let rows_before = self.metrics.snapshot().rows_scanned;
        let hits = RefCell::new((0u64, 0u64));
        let exec_meta = |p: &lazyetl_query::LogicalPlan| {
            spanned(tr, "query.exec_meta", || {
                layers::query_exec(p, &self.catalog, &self.metrics)
            })
            .map_err(EtlError::Internal)
        };
        let mut fetch = |pairs: &[CacheKey]| {
            self.fetch(tr, pairs, sums, &hits)
                .map_err(EtlError::Internal)
        };
        let (rewritten, _) = spanned(tr, "core.rewrite", || {
            layers::core_rewrite(&plan, &self.index, &exec_meta, &mut fetch)
        })?;
        let result = spanned(tr, "query.exec", || {
            layers::query_exec(&rewritten, &self.catalog, &self.metrics)
        })?;
        let mut s = sums.borrow_mut();
        s.exec_rows += self.metrics.snapshot().rows_scanned - rows_before;
        let (hit, miss) = *hits.borrow();
        // With several clients the order of admissions is not replayable,
        // so only the answer is compared.
        let same_triage = self.served || (hit, miss) == (rec.cache_hits, rec.cache_misses);
        if fingerprint(&result) != fingerprint(&rec.table) || !same_triage {
            s.diverged += 1;
        }
        drop(s);
        self.codec(tr, rec, sums)
    }

    fn codec(
        &self,
        tr: &RefCell<Tracer>,
        rec: &QueryRecord,
        sums: &RefCell<Sums>,
    ) -> Result<(), String> {
        if self.served {
            let bytes = spanned(tr, "server.codec", || {
                layers::server_codec(&rec.table, BATCH_ROWS)
            })?;
            sums.borrow_mut().codec_bytes += bytes as u64;
        }
        Ok(())
    }
}

/// Replay the recorded queries of a round; returns the replay's own span
/// log (timed operations only) and what the probes added up.
fn replay_round(
    args: &RoundArgs,
    out: &round::RoundOutput,
    clock: &Tracer,
) -> Result<(Tracer, Sums), String> {
    let w = args.workload;
    let stride = w.spec().replay_stride as u32;
    let live = RefCell::new(clock.fork());
    let quiet = RefCell::new(Tracer::off());
    let sums = RefCell::new(Sums::default());
    let unused = RefCell::new(Sums::default());

    // `cold.first-answer` drops its warehouse with every operation; the
    // replay needs one for the catalog and the front end.
    let own;
    let wh: &Warehouse = match &out.warehouse {
        Some(wh) => wh,
        None => {
            own = WarehouseBuilder::new()
                .config(w.config())
                .local_dir("repo", &out.data_dir)
                .and_then(WarehouseBuilder::open)
                .map_err(|e| format!("replay: open warehouse: {e}"))?;
            &own
        }
    };
    let mut shadow = Shadow::new(wh, &out.data_dir, w)?;
    if w != Workload::FreshPoll {
        for (i, query) in w.priming().into_iter().enumerate() {
            let primed = wh.query(&query.sql()).map_err(|e| e.to_string())?;
            let rec = QueryRecord {
                op: i as u32,
                timed: false,
                sql: query.sql(),
                latency_ns: 0,
                recycled: false,
                cache_hits: 0,
                cache_misses: 0,
                records_extracted: 0,
                table: primed.table,
                wire: None,
            };
            shadow.replay(&quiet, &rec, &unused)?;
        }
    }
    let mut last_op = None;
    for rec in &out.records {
        if w == Workload::ColdFirstAnswer && last_op != Some(rec.op) {
            // A new operation opened a new warehouse: nothing is cached.
            shadow.cache =
                RecyclingCache::with_shards(w.config().cache_budget_bytes, w.config().cache_shards);
        }
        last_op = Some(rec.op);
        if rec.op % stride != 0 {
            continue;
        }
        if !rec.timed {
            shadow.replay(&quiet, rec, &unused)?;
            continue;
        }
        shadow.replay(&live, rec, &sums)?;
        let mut s = sums.borrow_mut();
        s.replayed += 1;
        s.parent_ns += rec.latency_ns;
        s.core_parent_ns += match &rec.wire {
            Some(wire) => wire.exec_us * 1000,
            None => rec.latency_ns,
        };
    }
    drop(shadow);
    Ok((live.into_inner(), sums.into_inner()))
}

/// Per span name: how many, and their summed self time in ns.
type SelfTimes = std::collections::BTreeMap<&'static str, (u64, u64)>;

/// Mean length in µs of the spans called `name`.
fn mean_us(times: &SelfTimes, name: &str) -> f64 {
    match times.get(name) {
        Some(&(n, total)) if n > 0 => total as f64 / n as f64 / 1e3,
        _ => 0.0,
    }
}

/// `amount` per µs spent in the spans called `names`: mega-units per second.
fn rate(amount: u64, times: &SelfTimes, names: &[&str]) -> f64 {
    let ns: u64 = names.iter().filter_map(|n| times.get(n)).map(|t| t.1).sum();
    if ns == 0 {
        0.0
    } else {
        amount as f64 / (ns as f64 / 1e3)
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let named = named_args(args)?;
    let spans_path = PathBuf::from(required(&named, "spans")?);
    let args = RoundArgs::from_named(&named)?;
    let mut tracer = Tracer::on();
    let out = round::run(&args, &mut tracer)?;
    let (replays, sums) = replay_round(&args, &out, &tracer)?;

    print!("{}", out.result.to_lines());
    let round_times = tracer.self_times();
    let replay_times = replays.self_times();
    let timed: Vec<&QueryRecord> = out.records.iter().filter(|r| r.timed).collect();
    let round_trip_us: f64 = timed.iter().map(|r| r.latency_ns as f64 / 1e3).sum();
    let wire_us = |field: fn(&lazyetl_server::WireMetrics) -> u64| -> f64 {
        timed
            .iter()
            .filter_map(|r| r.wire.as_ref())
            .map(|w| field(w) as f64)
            .sum()
    };
    let served = args.workload.spec().served;
    let core_us = if served {
        wire_us(|w| w.exec_us)
    } else {
        round_trip_us
    };
    let mut layer = vec![
        ("repo.scan_us", mean_us(&round_times, "repo.scan")),
        ("core.open_us", mean_us(&round_times, "core.open")),
        ("core.refresh_us", mean_us(&round_times, "core.refresh")),
        ("core.query_us", core_us / timed.len().max(1) as f64),
        ("repo.probe_us", mean_us(&replay_times, "repo.probe")),
        (
            "query.frontend_us",
            mean_us(&replay_times, "query.frontend"),
        ),
        (
            "core.qcache_get_us",
            mean_us(&replay_times, "core.qcache_get"),
        ),
        (
            "core.cache_get_us",
            // One span covers all the lookups of a fetch.
            match replay_times.get("core.cache_get") {
                Some(&(_, ns)) if sums.cache_gets > 0 => ns as f64 / 1e3 / sums.cache_gets as f64,
                _ => 0.0,
            },
        ),
        (
            "mseed.decode_msamples_s",
            rate(sums.decoded_samples, &replay_times, &["mseed.decode"]),
        ),
        (
            "store.append_mb_s",
            rate(sums.appended_bytes, &replay_times, &["store.append"]),
        ),
        (
            "query.exec_mrows_s",
            rate(
                sums.exec_rows,
                &replay_times,
                &["query.exec", "query.exec_meta"],
            ),
        ),
        (
            "server.codec_mb_s",
            rate(sums.codec_bytes, &replay_times, &["server.codec"]),
        ),
    ];

    // Each probe's self time as a share of the parent span it replays a
    // part of: `Warehouse::query`, or the round trip when served.
    let mut core_probe_ns = 0;
    for (name, (_, self_ns)) in &replay_times {
        if *name == "replay" || name.starts_with("bench.") {
            continue;
        }
        if *name != "server.codec" {
            core_probe_ns += self_ns;
        }
        println!(
            "share.{name}={}",
            *self_ns as f64 / sums.parent_ns.max(1) as f64
        );
    }
    if served && round_trip_us > 0.0 {
        println!(
            "share.server.overhead={}",
            1.0 - wire_us(|w| w.exec_us) / round_trip_us
        );
        println!(
            "share.server.queue_wait={}",
            wire_us(|w| w.queue_wait_us) / round_trip_us
        );
    }
    if sums.replayed > 0 {
        layer.push((
            "core.untraced_share",
            1.0 - core_probe_ns as f64 / sums.core_parent_ns.max(1) as f64,
        ));
    }
    for (name, value) in layer {
        println!("layer.{name}={value}");
    }
    if sums.diverged > 0 {
        eprintln!(
            "spine-trace: {} of {} replays on {} did not repeat the recorded work",
            sums.diverged,
            sums.replayed,
            args.workload.name()
        );
    }

    tracer.absorb(replays);
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    out.cleanup();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("round") => run(&args[1..]),
        _ => Err("usage: spine-trace round --workload … --spans FILE (started by spine)".into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spine-trace: {e}");
            ExitCode::from(2)
        }
    }
}
