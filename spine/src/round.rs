//! One round of one workload, run in a process of its own.
//!
//! A round sets the system up, runs a few warm-up operations, then the
//! timed ones, and checks every answer against the oracle. It touches the
//! system only through the durable surface: `WarehouseBuilder`,
//! `Warehouse::{query, refresh, stats_snapshot}`, `Server::{start, stop}`,
//! the v2 `Client::{connect, query_all}`, `Repository::open` and
//! `updates::add_file`. The layer probes of the traced run live elsewhere
//! (`spine-trace`), so an API change inside a layer can break a probe but
//! not these numbers.

use crate::oracle::{fingerprint, fingerprint_rows, read_expected, Expected};
use crate::proc::{client_count, cpu_ns, nproc, peak_rss_kib};
use crate::scales::copy_tree;
use crate::trace::Tracer;
use crate::workloads::{op_stream, Op, Workload, FRESH_POLLS, FRESH_QUERIES, LANDED_FILE_SECS};
use lazyetl_core::{QueryOutput, Warehouse, WarehouseBuilder, WarehouseConfig, WarehouseStats};
use lazyetl_mseed::record::SourceId;
use lazyetl_repo::{updates, Repository};
use lazyetl_server::{Client, Server, ServerConfig, ServerReply, WireMetrics};
use lazyetl_store::{Table, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// What a round is told.
#[derive(Debug, Clone)]
pub struct RoundArgs {
    /// Which workload.
    pub workload: Workload,
    /// The run's `--seed`.
    pub seed: u64,
    /// Which of the run's rounds.
    pub round: usize,
    /// Timed operations (warm-up operations come on top).
    pub timed_ops: usize,
    /// The workload's repository; never written.
    pub repo: PathBuf,
    /// The oracle file of this run.
    pub oracle: PathBuf,
    /// A directory this round may write in.
    pub scratch: PathBuf,
}

/// The `--key value` arguments of an internal subcommand.
pub fn named_args(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => out.insert(&k[2..], v.as_str()),
            _ => return Err(format!("malformed internal arguments {args:?}")),
        };
    }
    Ok(out)
}

/// One of [`named_args`], or why it is missing.
pub fn required<'a>(named: &BTreeMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    named
        .get(key)
        .copied()
        .ok_or_else(|| format!("internal argument --{key} is missing"))
}

impl RoundArgs {
    /// Read the arguments of the `round` subcommand.
    pub fn from_named(named: &BTreeMap<&str, &str>) -> Result<RoundArgs, String> {
        let number = |key: &str| -> Result<u64, String> {
            required(named, key)?
                .parse()
                .map_err(|e| format!("--{key}: {e}"))
        };
        let workload = required(named, "workload")?;
        Ok(RoundArgs {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload}"))?,
            seed: number("seed")?,
            round: number("round")? as usize,
            timed_ops: number("timed-ops")? as usize,
            repo: required(named, "repo")?.into(),
            oracle: required(named, "oracle")?.into(),
            scratch: required(named, "scratch")?.into(),
        })
    }

    /// Warm-up plus timed operations.
    pub fn ops(&self) -> usize {
        self.workload.warmup_ops(self.timed_ops) + self.timed_ops
    }
}

/// Counts over the timed operations of a round, read from the public
/// reports (`QueryReport`, `stats_snapshot()`, `ServerStats`,
/// `WireMetrics`). With one client they repeat exactly.
pub const COUNT_NAMES: [&str; 16] = [
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "records_extracted",
    "samples_extracted",
    "bytes_read",
    "recycler_hits",
    "recycler_misses",
    "results_patched",
    "recompute_fallbacks",
    "scalar_fallbacks",
    "rows_scanned",
    "result_rows",
    "server_busy",
    "queue_wait_us",
    "server_exec_us",
];

/// Named counts; a missing name reads as 0.
pub type Counts = BTreeMap<&'static str, u64>;

fn bump(counts: &mut Counts, name: &'static str, by: u64) {
    debug_assert!(COUNT_NAMES.contains(&name), "unknown count {name}");
    *counts.entry(name).or_default() += by;
}

/// The cumulative counters of a warehouse that the benchmark reports.
fn stats_counts(s: &WarehouseStats) -> [(&'static str, u64); 9] {
    [
        ("cache_hits", s.cache.hits),
        ("cache_misses", s.cache.misses),
        ("cache_evictions", s.cache.evictions),
        ("recycler_hits", s.recycler.hits),
        (
            "recycler_misses",
            s.recycler.misses + s.recycler.generation_drops,
        ),
        ("results_patched", s.recycler.results_patched),
        ("recompute_fallbacks", s.recycler.recompute_fallbacks),
        ("scalar_fallbacks", s.exec.scalar_fallbacks),
        ("rows_scanned", s.exec.rows_scanned),
    ]
}

/// Add what the counters gained between two snapshots (`before: None`
/// for a warehouse opened inside the timed operation).
fn add_stats_delta(counts: &mut Counts, before: Option<&WarehouseStats>, after: &WarehouseStats) {
    let before = before.map(stats_counts);
    for (i, (name, a)) in stats_counts(after).into_iter().enumerate() {
        bump(counts, name, a - before.map_or(0, |b| b[i].1));
    }
}

/// What a round measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundResult {
    /// Everything before the first timed operation: open, priming,
    /// server start, warm-up operations.
    pub setup_ns: u64,
    /// Latency of each successful timed operation.
    pub latencies_ns: Vec<u64>,
    /// Wall time of the timed operations: their summed latencies with one
    /// client, first start to last end with several.
    pub wall_ns: u64,
    /// Process CPU time (user + system, every thread — poller spin and
    /// workers included) spent in the timed operations.
    pub cpu_ns: u64,
    /// `VmHWM` when the timed operations ended.
    pub peak_rss_kib: u64,
    /// Operations run, warm-up included.
    pub attempted: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Counts over the timed operations.
    pub counts: Counts,
}

impl RoundResult {
    /// `key=value` lines, the child → parent format.
    pub fn to_lines(&self) -> String {
        let mut out = format!(
            "setup_ns={}\nwall_ns={}\ncpu_ns={}\npeak_rss_kib={}\nattempted={}\nfailed={}\n",
            self.setup_ns,
            self.wall_ns,
            self.cpu_ns,
            self.peak_rss_kib,
            self.attempted,
            self.failed
        );
        if let Some(f) = &self.first_failure {
            out.push_str(&format!("first_failure={}\n", f.replace('\n', " ")));
        }
        for (name, v) in &self.counts {
            out.push_str(&format!("count.{name}={v}\n"));
        }
        let lat: Vec<String> = self.latencies_ns.iter().map(u64::to_string).collect();
        out.push_str(&format!("lat_ns={}\n", lat.join(",")));
        out
    }

    /// Parse [`RoundResult::to_lines`]; lines with other keys are ignored.
    pub fn parse(text: &str) -> Result<RoundResult, String> {
        let mut r = RoundResult::default();
        let mut seen = 0;
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("round output: {key}={value}: {e}"))
            };
            match key {
                "setup_ns" => r.setup_ns = num()?,
                "wall_ns" => r.wall_ns = num()?,
                "cpu_ns" => r.cpu_ns = num()?,
                "peak_rss_kib" => r.peak_rss_kib = num()?,
                "attempted" => r.attempted = num()?,
                "failed" => r.failed = num()?,
                "first_failure" => {
                    r.first_failure = Some(value.to_string());
                    continue;
                }
                "lat_ns" => {
                    r.latencies_ns = value
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse::<u64>().map_err(|e| format!("lat_ns: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                _ => {
                    if let Some(name) = key.strip_prefix("count.") {
                        if let Some(known) = COUNT_NAMES.iter().find(|n| **n == name) {
                            r.counts.insert(known, num()?);
                        }
                    }
                    continue;
                }
            }
            seen += 1;
        }
        if seen < 7 {
            return Err(format!("round output is incomplete ({seen} of 7 fields)"));
        }
        Ok(r)
    }
}

/// One query of the round as the traced run's replay needs it.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Operation id (index in the round's stream).
    pub op: u32,
    /// Whether the operation was timed.
    pub timed: bool,
    /// The SQL text.
    pub sql: String,
    /// Latency of the call (the round trip, when served).
    pub latency_ns: u64,
    /// Served from the result recycler.
    pub recycled: bool,
    /// Record-cache hits of the query.
    pub cache_hits: u64,
    /// Record-cache misses of the query.
    pub cache_misses: u64,
    /// Records decoded for the query.
    pub records_extracted: u64,
    /// The result.
    pub table: Arc<Table>,
    /// Server-side costs (served workloads).
    pub wire: Option<WireMetrics>,
}

/// A finished round.
pub struct RoundOutput {
    /// The measurements.
    pub result: RoundResult,
    /// Per-query records; empty unless traced.
    pub records: Vec<QueryRecord>,
    /// The warehouse the operations ran against, still warm (none for
    /// `cold.first-answer`, which drops one per operation).
    pub warehouse: Option<Arc<Warehouse>>,
    /// The repository directory the operations ran against.
    pub data_dir: PathBuf,
    /// Set when `data_dir` is the round's own copy.
    owns_data_dir: bool,
}

impl RoundOutput {
    /// Drop the warehouse and delete what the round wrote.
    pub fn cleanup(self) {
        drop(self.warehouse);
        if self.owns_data_dir {
            std::fs::remove_dir_all(&self.data_dir).ok();
        }
    }
}

/// Running totals of a round.
#[derive(Default)]
struct Tally {
    result: RoundResult,
    records: Vec<QueryRecord>,
}

impl Tally {
    fn fail(&mut self, op: usize, what: String) {
        self.result.failed += 1;
        if self.result.first_failure.is_none() {
            self.result.first_failure = Some(format!("op {op}: {what}"));
        }
    }

    /// Account one finished operation. `verdict` is its first failure.
    fn finish_op(
        &mut self,
        op: usize,
        timed: bool,
        latency_ns: u64,
        cpu: u64,
        verdict: Result<(), String>,
    ) {
        self.result.attempted += 1;
        if timed {
            self.result.wall_ns += latency_ns;
            self.result.cpu_ns += cpu;
        }
        match verdict {
            Ok(()) if timed => self.result.latencies_ns.push(latency_ns),
            Ok(()) => {}
            Err(what) => self.fail(op, what),
        }
    }

    fn count_report(&mut self, out: &QueryOutput) {
        let c = &mut self.result.counts;
        bump(c, "records_extracted", out.report.records_extracted as u64);
        bump(c, "samples_extracted", out.report.samples_extracted);
        bump(c, "bytes_read", out.report.bytes_read);
        bump(c, "result_rows", out.report.rows as u64);
    }

    fn record(&mut self, op: usize, timed: bool, sql: &str, latency_ns: u64, out: &QueryOutput) {
        self.records.push(QueryRecord {
            op: op as u32,
            timed,
            sql: sql.to_string(),
            latency_ns,
            recycled: out.report.result_recycled,
            cache_hits: out.report.cache_hits as u64,
            cache_misses: out.report.cache_misses as u64,
            records_extracted: out.report.records_extracted as u64,
            table: out.table.clone(),
            wire: None,
        });
    }
}

fn check(got: u64, expected: u64, sql: &str) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "answer {got:016x} differs from the oracle's {expected:016x}: {sql}"
        ))
    }
}

fn open_lazy(
    dir: &Path,
    config: WarehouseConfig,
    tracer: &mut Tracer,
) -> Result<Warehouse, String> {
    let span = tracer.begin("repo.scan");
    let repo = Repository::open(dir);
    tracer.end(span);
    let repo = repo.map_err(|e| format!("open repository {}: {e}", dir.display()))?;
    let span = tracer.begin("core.open");
    let wh = WarehouseBuilder::new()
        .config(config)
        .source("repo", Box::new(repo))
        .open();
    tracer.end(span);
    wh.map_err(|e| format!("open warehouse over {}: {e}", dir.display()))
}

fn prime(wh: &Warehouse, workload: Workload, tracer: &mut Tracer) -> Result<(), String> {
    for query in workload.priming() {
        let sql = &query.sql();
        let span = tracer.begin("core.query");
        let out = wh.query(sql);
        tracer.end(span);
        out.map_err(|e| format!("priming: {e} in {sql}"))?;
    }
    Ok(())
}

/// One timed call of `Warehouse::query`, span inside the latency so that
/// the traced run's latency carries what tracing costs.
fn timed_query(
    wh: &Warehouse,
    sql: &str,
    tracer: &mut Tracer,
) -> (Result<QueryOutput, String>, u64) {
    let t0 = Instant::now();
    let span = tracer.begin("core.query");
    let out = wh.query(sql);
    tracer.end(span);
    let dt = t0.elapsed().as_nanos() as u64;
    (out.map_err(|e| format!("{e} in {sql}")), dt)
}

fn per_query(expected: Expected) -> Result<Vec<u64>, String> {
    match expected {
        Expected::PerQuery(fps) => Ok(fps),
        Expected::BaseRecords(_) => Err("oracle file has no per-query answers".into()),
    }
}

/// Run one round.
pub fn run(args: &RoundArgs, tracer: &mut Tracer) -> Result<RoundOutput, String> {
    let w = args.workload;
    let n = args.ops();
    let warmup = n - args.timed_ops;
    let expected = read_expected(&args.oracle, w, args.seed, args.timed_ops, args.round)?;
    let ops = op_stream(w, args.seed, args.round, warmup, args.timed_ops);
    match w {
        Workload::ColdFirstAnswer => cold(args, &ops, warmup, per_query(expected)?, tracer),
        Workload::WarmScan | Workload::WarmPoint | Workload::ScanOverCache => {
            in_process(args, &ops, warmup, per_query(expected)?, tracer)
        }
        Workload::ServedPoint => served(args, &ops, warmup, per_query(expected)?, tracer),
        Workload::FreshPoll => match expected {
            Expected::BaseRecords(base) => fresh(args, &ops, warmup, base, tracer),
            Expected::PerQuery(_) => Err("oracle file has no record count".into()),
        },
    }
}

fn in_process(
    args: &RoundArgs,
    ops: &[Op],
    warmup: usize,
    expected: Vec<u64>,
    tracer: &mut Tracer,
) -> Result<RoundOutput, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let t_setup = Instant::now();
    let wh = open_lazy(&args.repo, w.config(), tracer)?;
    prime(&wh, w, tracer)?;
    let sqls: Vec<String> = ops.iter().map(|op| op.queries[0].sql()).collect();
    let mut before = wh.stats_snapshot();
    for (i, sql) in sqls.iter().enumerate() {
        let timed = i >= warmup;
        if i == warmup {
            tally.result.setup_ns = t_setup.elapsed().as_nanos() as u64;
            before = wh.stats_snapshot();
        }
        tracer.set_op(Some(i as u32));
        let cpu0 = cpu_ns();
        let (out, dt) = timed_query(&wh, sql, tracer);
        let cpu = cpu_ns() - cpu0;
        let verdict = out.and_then(|out| {
            if timed {
                tally.count_report(&out);
            }
            if tracer.is_on() {
                tally.record(i, timed, sql, dt, &out);
            }
            check(fingerprint(&out.table), expected[i], sql)
        });
        tally.finish_op(i, timed, dt, cpu, verdict);
    }
    tracer.set_op(None);
    add_stats_delta(
        &mut tally.result.counts,
        Some(&before),
        &wh.stats_snapshot(),
    );
    tally.result.peak_rss_kib = peak_rss_kib();
    Ok(RoundOutput {
        result: tally.result,
        records: tally.records,
        warehouse: Some(Arc::new(wh)),
        data_dir: args.repo.clone(),
        owns_data_dir: false,
    })
}

fn cold(
    args: &RoundArgs,
    ops: &[Op],
    warmup: usize,
    expected: Vec<u64>,
    tracer: &mut Tracer,
) -> Result<RoundOutput, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let t_setup = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let timed = i >= warmup;
        if i == warmup {
            tally.result.setup_ns = t_setup.elapsed().as_nanos() as u64;
        }
        let sqls: Vec<String> = op.queries.iter().map(|q| q.sql()).collect();
        tracer.set_op(Some(i as u32));
        let cpu0 = cpu_ns();
        let t0 = Instant::now();
        let op_span = tracer.begin("op");
        let mut outs = Vec::with_capacity(sqls.len());
        let opened = open_lazy(&args.repo, w.config(), tracer).and_then(|wh| {
            for sql in &sqls {
                let (out, dt) = timed_query(&wh, sql, tracer);
                outs.push((out?, dt));
            }
            Ok(wh)
        });
        let queried = t0.elapsed();
        // The clock stops while the op's counters are read.
        let stats = opened.as_ref().ok().map(Warehouse::stats_snapshot);
        let t1 = Instant::now();
        let span = tracer.begin("core.drop");
        let opened = opened.map(drop);
        tracer.end(span);
        tracer.end(op_span);
        let dt = (queried + t1.elapsed()).as_nanos() as u64;
        let cpu = cpu_ns() - cpu0;
        let verdict = opened.and_then(|()| {
            for (q, ((out, query_ns), sql)) in outs.iter().zip(&sqls).enumerate() {
                if timed {
                    tally.count_report(out);
                }
                if tracer.is_on() {
                    tally.record(i, timed, sql, *query_ns, out);
                }
                check(fingerprint(&out.table), expected[i * sqls.len() + q], sql)?;
            }
            Ok(())
        });
        if let (true, Some(stats)) = (timed, &stats) {
            add_stats_delta(&mut tally.result.counts, None, stats);
        }
        tally.finish_op(i, timed, dt, cpu, verdict);
    }
    tracer.set_op(None);
    tally.result.peak_rss_kib = peak_rss_kib();
    Ok(RoundOutput {
        result: tally.result,
        records: tally.records,
        warehouse: None,
        data_dir: args.repo.clone(),
        owns_data_dir: false,
    })
}

fn fresh(
    args: &RoundArgs,
    ops: &[Op],
    warmup: usize,
    base_records: i64,
    tracer: &mut Tracer,
) -> Result<RoundOutput, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let t_setup = Instant::now();
    let dir = args.scratch.join(format!("fresh_round{}", args.round));
    std::fs::remove_dir_all(&dir).ok();
    copy_tree(&args.repo, &dir)
        .map_err(|e| format!("copy repository to {}: {e}", dir.display()))?;
    let wh = open_lazy(&dir, w.config(), tracer)?;
    prime(&wh, w, tracer)?;
    // The generator's own handle on the repository; the warehouse finds
    // the landed files by itself, through its per-query refresh probe.
    let mut landing =
        Repository::open(&dir).map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    let source = SourceId::new("NL", "HGN", "", "BHZ").map_err(|e| e.to_string())?;
    let mut records = base_records;
    let mut before = wh.stats_snapshot();
    for (i, op) in ops.iter().enumerate() {
        let timed = i >= warmup;
        if i == warmup {
            tally.result.setup_ns = t_setup.elapsed().as_nanos() as u64;
            before = wh.stats_snapshot();
        }
        tracer.set_op(Some(i as u32));
        let land = op.land.expect("fresh.poll ops land a file");
        let span = tracer.begin("repo.add_file");
        let uri = updates::add_file(
            &mut landing,
            &source,
            land.start,
            LANDED_FILE_SECS,
            land.seed,
        );
        tracer.end(span);
        let uri = uri.map_err(|e| format!("land file: {e}"))?;
        records += lazyetl_mseed::scan_metadata_file(&dir.join(&uri))
            .map_err(|e| format!("scan landed {uri}: {e}"))?
            .records
            .len() as i64;
        let want_count = fingerprint_rows(&[vec![Value::Int64(records)]], 1);

        let sqls: Vec<String> = op.queries.iter().map(|q| q.sql()).collect();
        let cpu0 = cpu_ns();
        let t0 = Instant::now();
        let op_span = tracer.begin("op");
        let mut verdict = Ok(());
        if tracer.is_on() {
            // Traced, the fold of the landed file is its own call, so its
            // cost is a span; untraced, the first query's auto-refresh
            // does the same work inside `Warehouse::query`.
            let span = tracer.begin("core.refresh");
            let folded = wh.refresh();
            tracer.end(span);
            verdict = folded.map(drop).map_err(|e| format!("refresh: {e}"));
        }
        let mut outs = Vec::with_capacity(sqls.len());
        for sql in &sqls {
            if verdict.is_err() {
                break;
            }
            match timed_query(&wh, sql, tracer) {
                (Ok(out), query_ns) => outs.push((out, query_ns)),
                (Err(e), _) => verdict = Err(e),
            }
        }
        tracer.end(op_span);
        let dt = t0.elapsed().as_nanos() as u64;
        let cpu = cpu_ns() - cpu0;
        for ((out, query_ns), sql) in outs.iter().zip(&sqls) {
            if timed {
                tally.count_report(out);
            }
            if tracer.is_on() {
                tally.record(i, timed, sql, *query_ns, out);
            }
            if sql == FRESH_QUERIES[0] && verdict.is_ok() {
                verdict = check(fingerprint(&out.table), want_count, sql);
            }
        }
        tally.finish_op(i, timed, dt, cpu, verdict);
    }
    tracer.set_op(None);
    add_stats_delta(
        &mut tally.result.counts,
        Some(&before),
        &wh.stats_snapshot(),
    );
    tally.result.peak_rss_kib = peak_rss_kib();

    // Every dashboard must now read what a warehouse opened afresh over
    // the grown repository reads (incremental ≡ recompute).
    let verdict = open_lazy(&dir, w.config(), &mut Tracer::off()).and_then(|reopened| {
        for sql in FRESH_POLLS {
            let kept = wh.query(sql).map_err(|e| format!("{e} in {sql}"))?;
            let recomputed = reopened.query(sql).map_err(|e| format!("{e} in {sql}"))?;
            check(
                fingerprint(&kept.table),
                fingerprint(&recomputed.table),
                sql,
            )?;
        }
        Ok(())
    });
    tally.finish_op(ops.len(), false, 0, 0, verdict);
    Ok(RoundOutput {
        result: tally.result,
        records: tally.records,
        warehouse: Some(Arc::new(wh)),
        data_dir: dir,
        owns_data_dir: true,
    })
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientTally {
    tally: Tally,
    first_start: Option<Instant>,
    last_end: Option<Instant>,
}

fn served_op(
    client: &mut Client,
    i: usize,
    sql: &str,
    expected: u64,
    timed: bool,
    out: &mut ClientTally,
    tracer: &mut Tracer,
) {
    tracer.set_op(Some(i as u32));
    let t0 = Instant::now();
    let span = tracer.begin("server.roundtrip");
    let reply = client.query_all(sql);
    tracer.end(span);
    let end = Instant::now();
    let dt = (end - t0).as_nanos() as u64;
    if timed {
        out.first_start.get_or_insert(t0);
        out.last_end = Some(end);
    }
    let verdict = match reply {
        Ok(ServerReply::Result(r)) => {
            if timed {
                let c = &mut out.tally.result.counts;
                bump(c, "records_extracted", r.metrics.records_extracted);
                bump(c, "result_rows", r.metrics.rows);
                bump(c, "queue_wait_us", r.metrics.queue_wait_us);
                bump(c, "server_exec_us", r.metrics.exec_us);
            }
            let got = fingerprint(&r.table);
            if tracer.is_on() {
                out.tally.records.push(QueryRecord {
                    op: i as u32,
                    timed,
                    sql: sql.to_string(),
                    latency_ns: dt,
                    recycled: r.metrics.result_recycled,
                    cache_hits: r.metrics.cache_hits,
                    cache_misses: r.metrics.cache_misses,
                    records_extracted: r.metrics.records_extracted,
                    table: Arc::new(r.table),
                    wire: Some(r.metrics),
                });
            }
            check(got, expected, sql)
        }
        Ok(ServerReply::Busy { queued, .. }) => Err(format!("BUSY ({queued} queued): {sql}")),
        Ok(ServerReply::Error { code, message }) => Err(format!("{code}: {message} in {sql}")),
        Err(e) => Err(format!("client: {e} in {sql}")),
    };
    // Wall time is taken from the threads' clocks below, CPU time from
    // the whole process around them.
    out.tally.finish_op(i, timed, dt, 0, verdict);
}

fn served(
    args: &RoundArgs,
    ops: &[Op],
    warmup: usize,
    expected: Vec<u64>,
    tracer: &mut Tracer,
) -> Result<RoundOutput, String> {
    let w = args.workload;
    let t_setup = Instant::now();
    let wh = Arc::new(open_lazy(&args.repo, w.config(), tracer)?);
    prime(&wh, w, tracer)?;
    let span = tracer.begin("server.start");
    let server = Server::start(
        Arc::clone(&wh),
        "127.0.0.1:0",
        ServerConfig {
            workers: nproc(),
            // Deep enough that a BUSY is a failure, not a design.
            queue_depth: 1024,
            ..Default::default()
        },
    );
    tracer.end(span);
    let server = server.map_err(|e| format!("start server: {e}"))?;
    let n_clients = client_count();
    let mut clients = Vec::with_capacity(n_clients);
    for _ in 0..n_clients {
        let span = tracer.begin("server.connect");
        let client = Client::connect(server.addr());
        tracer.end(span);
        clients.push(client.map_err(|e| format!("connect: {e}"))?);
    }
    let sqls: Vec<String> = ops.iter().map(|op| op.queries[0].sql()).collect();

    let mut total = ClientTally::default();
    for i in 0..warmup {
        let client = &mut clients[i % n_clients];
        served_op(client, i, &sqls[i], expected[i], false, &mut total, tracer);
    }
    total.tally.result.setup_ns = t_setup.elapsed().as_nanos() as u64;

    let before = wh.stats_snapshot();
    let barrier = Barrier::new(n_clients);
    let cpu0 = cpu_ns();
    let per_client: Vec<(ClientTally, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut thread_tracer = tracer.fork();
                let (sqls, expected, barrier) = (&sqls, &expected, &barrier);
                scope.spawn(move || {
                    let mut out = ClientTally::default();
                    barrier.wait();
                    // Client c owns every n-th operation: a closed loop
                    // per connection, no think time.
                    for i in (warmup + c..sqls.len()).step_by(n_clients) {
                        served_op(
                            client,
                            i,
                            &sqls[i],
                            expected[i],
                            true,
                            &mut out,
                            &mut thread_tracer,
                        );
                    }
                    (out, thread_tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu = cpu_ns() - cpu0;
    add_stats_delta(
        &mut total.tally.result.counts,
        Some(&before),
        &wh.stats_snapshot(),
    );
    let busy = server.stats().busy_rejections;
    let span = tracer.begin("server.stop");
    let stopped = server.stop();
    tracer.end(span);
    stopped.map_err(|e| format!("stop server: {e}"))?;

    // First start to last end over the clients' own clocks.
    let first_start = per_client.iter().filter_map(|(c, _)| c.first_start).min();
    let last_end = per_client.iter().filter_map(|(c, _)| c.last_end).max();
    for (client, thread_tracer) in per_client {
        tracer.absorb(thread_tracer);
        let (r, t) = (&mut total.tally.result, client.tally.result);
        r.attempted += t.attempted;
        r.failed += t.failed;
        r.latencies_ns.extend(t.latencies_ns);
        for (name, v) in t.counts {
            bump(&mut r.counts, name, v);
        }
        if r.first_failure.is_none() {
            r.first_failure = t.first_failure;
        }
        total.tally.records.extend(client.tally.records);
    }
    let mut result = total.tally.result;
    bump(&mut result.counts, "server_busy", busy);
    result.cpu_ns = cpu;
    result.wall_ns = match (first_start, last_end) {
        (Some(a), Some(b)) => (b - a).as_nanos() as u64,
        _ => 0,
    };
    result.peak_rss_kib = peak_rss_kib();
    total.tally.records.sort_by_key(|r| r.op);
    Ok(RoundOutput {
        result,
        records: total.tally.records,
        warehouse: Some(wh),
        data_dir: args.repo.clone(),
        owns_data_dir: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_result_survives_the_child_to_parent_format() {
        let mut counts = Counts::new();
        counts.insert("cache_hits", 42);
        counts.insert("rows_scanned", 7);
        let r = RoundResult {
            setup_ns: 1,
            latencies_ns: vec![5, 6, 7],
            wall_ns: 18,
            cpu_ns: 17,
            peak_rss_kib: 4096,
            attempted: 4,
            failed: 1,
            first_failure: Some("op 3: wrong".into()),
            counts,
        };
        assert_eq!(RoundResult::parse(&r.to_lines()), Ok(r));
    }

    #[test]
    fn truncated_round_output_is_rejected() {
        assert!(RoundResult::parse("setup_ns=1\nwall_ns=2\n").is_err());
        assert!(RoundResult::parse("setup_ns=x\n").is_err());
    }
}
