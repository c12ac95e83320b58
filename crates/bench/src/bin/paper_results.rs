//! The experiment harness: regenerates every table/series of the paper's
//! evaluation narrative (see ARCHITECTURE.md, "Experiment inventory").
//!
//! ```sh
//! cargo run --release -p lazyetl-bench --bin paper_results            # all, small scale
//! cargo run --release -p lazyetl-bench --bin paper_results -- e1 e4   # a subset
//! cargo run --release -p lazyetl-bench --bin paper_results -- all medium
//! ```
//!
//! Output is markdown-ish text, suitable for pasting into reports. The
//! counts E3, E4 and E12–E18 report are asserted by
//! `crates/bench/tests/experiments.rs`; this binary only prints.

use lazyetl_bench::concurrent::{run_concurrent_mix, ConcurrentConfig};
use lazyetl_bench::*;
use lazyetl_core::{Warehouse, WarehouseConfig};
use lazyetl_repo::{updates, AccessProfile, Repository};
use lazyetl_store::persist;
use std::sync::Arc;
use std::time::Duration;

fn base_config() -> WarehouseConfig {
    WarehouseConfig {
        auto_refresh: false,
        ..Default::default()
    }
}

/// E1: initial loading time, eager vs lazy, sweeping repository size.
fn e1_initial_load() {
    let mut rows = Vec::new();
    for scale in [
        ScaleName::Tiny,
        ScaleName::Small,
        ScaleName::Medium,
        ScaleName::Large,
    ] {
        let dir = scale_repo(scale);
        let repo = Repository::open(&dir).expect("repo opens");
        let files = repo.len();
        let bytes = repo.total_bytes();
        drop(repo);
        let (lazy, t_lazy) = time(|| Warehouse::open_lazy(&dir, base_config()).unwrap());
        let (eager, t_eager) = time(|| Warehouse::open_eager(&dir, base_config()).unwrap());
        let wan = AccessProfile::wan();
        rows.push(vec![
            scale.label().to_string(),
            files.to_string(),
            fmt_bytes(bytes),
            fmt_dur(t_eager),
            fmt_dur(t_lazy),
            format!(
                "{:.0}x",
                t_eager.as_secs_f64() / t_lazy.as_secs_f64().max(1e-9)
            ),
            fmt_bytes(eager.load_report().bytes_read),
            fmt_bytes(lazy.load_report().bytes_read),
            fmt_dur(
                wan.cost(eager.load_report().bytes_read) + Duration::from_millis(20) * files as u32,
            ),
            fmt_dur(
                wan.cost(lazy.load_report().bytes_read) + Duration::from_millis(20) * files as u32,
            ),
        ]);
    }
    print_table(
        "E1 — Initial loading: eager vs lazy (local disk; last two columns model a 20ms/20MBps WAN)",
        &[
            "scale", "files", "repo size", "eager load", "lazy load", "speedup",
            "eager bytes", "lazy bytes", "eager WAN(est)", "lazy WAN(est)",
        ],
        &rows,
    );
}

/// E2: storage footprint — raw repo vs eager warehouse vs lazy warehouse.
fn e2_storage(scale: ScaleName) {
    let dir = scale_repo(scale);
    let repo = Repository::open(&dir).unwrap();
    let raw = repo.total_bytes();
    drop(repo);
    let lazy = Warehouse::open_lazy(&dir, base_config()).unwrap();
    let eager = Warehouse::open_eager(&dir, base_config()).unwrap();

    // On-disk footprint of the eager warehouse: persist all three tables.
    let persist_dir = std::env::temp_dir().join("lazyetl_e2_persist");
    std::fs::remove_dir_all(&persist_dir).ok();
    std::fs::create_dir_all(&persist_dir).unwrap();
    let mut eager_disk = 0u64;
    for t in ["files", "records", "data"] {
        let path = persist_dir.join(format!("{t}.lztb"));
        persist::save_table(eager.catalog().table(t).unwrap(), &path).unwrap();
        eager_disk += std::fs::metadata(&path).unwrap().len();
    }
    let mut lazy_disk = 0u64;
    for t in ["files", "records"] {
        let path = persist_dir.join(format!("lazy_{t}.lztb"));
        persist::save_table(lazy.catalog().table(t).unwrap(), &path).unwrap();
        lazy_disk += std::fs::metadata(&path).unwrap().len();
    }
    std::fs::remove_dir_all(&persist_dir).ok();

    let rows = vec![
        vec![
            "raw mSEED repository (Steim-2)".into(),
            fmt_bytes(raw),
            "1.0x".into(),
        ],
        vec![
            "eager warehouse, resident".into(),
            fmt_bytes(eager.resident_bytes() as u64),
            format!("{:.1}x", eager.resident_bytes() as f64 / raw as f64),
        ],
        vec![
            "eager warehouse, persisted".into(),
            fmt_bytes(eager_disk),
            format!("{:.1}x", eager_disk as f64 / raw as f64),
        ],
        vec![
            "lazy warehouse, resident (metadata only)".into(),
            fmt_bytes(lazy.resident_bytes() as u64),
            format!("{:.3}x", lazy.resident_bytes() as f64 / raw as f64),
        ],
        vec![
            "lazy warehouse, persisted (metadata only)".into(),
            fmt_bytes(lazy_disk),
            format!("{:.3}x", lazy_disk as f64 / raw as f64),
        ],
    ];
    print_table(
        &format!(
            "E2 — Storage footprint vs raw repository ({} scale) — paper: 'up to 10 times the original storage size'",
            scale.label()
        ),
        &["representation", "size", "vs raw"],
        &rows,
    );
}

/// E3: the Figure-1 queries — eager resident vs lazy cold vs lazy warm.
fn e3_figure1(scale: ScaleName) {
    let dir = scale_repo(scale);
    let mut rows = Vec::new();
    for (name, sql) in [
        ("Q1 (2s STA window)", FIGURE1_Q1),
        ("Q2 (min/max per NL station)", FIGURE1_Q2),
    ] {
        let eager = Warehouse::open_eager(&dir, base_config()).unwrap();
        let (eo, t_eager) = time(|| eager.query(sql).unwrap());
        let lazy = Warehouse::open_lazy(&dir, base_config()).unwrap();
        let (lo, t_cold) = time(|| lazy.query(sql).unwrap());
        let (lw, t_warm) = time(|| lazy.query(sql).unwrap());
        assert_eq!(eo.table.num_rows(), lo.table.num_rows());
        rows.push(vec![
            name.to_string(),
            fmt_dur(t_eager),
            fmt_dur(t_cold),
            fmt_dur(t_warm),
            lo.report.files_extracted.len().to_string(),
            lo.report.records_extracted.to_string(),
            format!("{}", lw.report.cache_hits),
        ]);
    }
    print_table(
        &format!("E3 — Figure-1 query latency ({} scale)", scale.label()),
        &[
            "query",
            "eager (resident)",
            "lazy cold",
            "lazy warm",
            "files extracted",
            "records extracted",
            "warm cache hits",
        ],
        &rows,
    );
}

/// E4: selectivity sweep — lazy extraction cost vs fraction touched.
fn e4_selectivity(scale: ScaleName) {
    let dir = scale_repo(scale);
    let eager = Warehouse::open_eager(&dir, base_config()).unwrap();
    let eager_load = eager.load_report().elapsed;
    let mut rows = Vec::new();
    let full_repo_sql = "SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview \
                         WHERE F.station IN ('HGN', 'WIT', 'OPLO', 'WTSB', 'ISK', 'BFO', 'WET', 'BALB')"
        .to_string();
    let sweep: Vec<(String, String)> = (1..=5usize)
        .map(|k| (format!("{k}/5 stations, BHZ"), selectivity_query(k)))
        .chain([("whole repository".to_string(), full_repo_sql)])
        .collect();
    for (label, sql) in sweep {
        let lazy = Warehouse::open_lazy(&dir, base_config()).unwrap();
        let lazy_load = lazy.load_report().elapsed;
        let (lo, t_cold) = time(|| lazy.query(&sql).unwrap());
        let (_, t_warm) = time(|| lazy.query(&sql).unwrap());
        let (_, t_eager) = time(|| eager.query(&sql).unwrap());
        rows.push(vec![
            label,
            lo.report.files_extracted.len().to_string(),
            fmt_dur(lazy_load + t_cold),
            fmt_dur(eager_load + t_eager),
            fmt_dur(t_cold),
            fmt_dur(t_warm),
            fmt_dur(t_eager),
        ]);
    }
    print_table(
        &format!(
            "E4 — Selectivity sweep ({} scale): total = load+query; crossover appears as selectivity grows",
            scale.label()
        ),
        &[
            "touched", "files extracted", "lazy total", "eager total",
            "lazy cold qry", "lazy warm qry", "eager qry",
        ],
        &rows,
    );

    // What metadata-predicates-first and record-level pruning save on the
    // most selective query. Without metadata-first every record in the
    // index is extracted; without record-level pruning every candidate of
    // the metadata join is; the pipeline extracts only what survives both.
    let wh = Warehouse::open_lazy(&dir, base_config()).unwrap();
    let (out, t) = time(|| wh.query(FIGURE1_Q1).unwrap());
    let r = out.report.rewrite.unwrap();
    print_table(
        &format!(
            "E4b — Records Figure-1 Q1 extracts with each stage of §3.1 left out ({} scale)",
            scale.label()
        ),
        &["configuration", "records extracted"],
        &[
            vec![
                "without metadata-first".into(),
                wh.load_report().records.to_string(),
            ],
            vec![
                "without record-level pruning".into(),
                r.candidate_pairs.to_string(),
            ],
            vec![
                format!("full lazy ETL ({} cold)", fmt_dur(t)),
                r.fetched_pairs.to_string(),
            ],
        ],
    );
}

/// E5: time from data availability to first answer.
fn e5_time_to_insight(scale: ScaleName) {
    let dir = scale_repo(scale);
    let mut rows = Vec::new();
    for (label, sql) in [
        ("metadata browse", METADATA_QUERY),
        ("Figure-1 Q1", FIGURE1_Q1),
        ("Figure-1 Q2", FIGURE1_Q2),
    ] {
        let (lazy, t_lload) = time(|| Warehouse::open_lazy(&dir, base_config()).unwrap());
        let (_, t_lq) = time(|| lazy.query(sql).unwrap());
        let (eager, t_eload) = time(|| Warehouse::open_eager(&dir, base_config()).unwrap());
        let (_, t_eq) = time(|| eager.query(sql).unwrap());
        rows.push(vec![
            label.to_string(),
            fmt_dur(t_eload + t_eq),
            fmt_dur(t_lload + t_lq),
            format!(
                "{:.1}x",
                (t_eload + t_eq).as_secs_f64() / (t_lload + t_lq).as_secs_f64().max(1e-9)
            ),
        ]);
    }
    print_table(
        &format!(
            "E5 — Time from source availability to first answer ({} scale)",
            scale.label()
        ),
        &[
            "first query",
            "eager load+query",
            "lazy load+query",
            "lazy advantage",
        ],
        &rows,
    );
}

/// E12: concurrent clients against one shared warehouse — throughput,
/// latency percentiles and cache hit rate, swept over shard counts.
fn e12_concurrent(scale: ScaleName) {
    let dir = scale_repo(scale);
    let run_cfg = ConcurrentConfig::default();
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let wh = Arc::new(
            Warehouse::open_lazy(
                &dir,
                WarehouseConfig {
                    cache_shards: shards,
                    auto_refresh: false,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        // Cold storm populates the cache; warm storm measures the shared
        // steady state the shard sweep is about.
        let cold = run_concurrent_mix(&wh, &run_cfg);
        let warm = run_concurrent_mix(&wh, &run_cfg);
        rows.push(vec![
            shards.to_string(),
            run_cfg.threads.to_string(),
            format!("{:.0}", warm.throughput_qps),
            fmt_dur(warm.p50),
            fmt_dur(warm.p99),
            format!("{:.0}%", 100.0 * warm.cache_hit_rate),
            cold.records_extracted.to_string(),
            warm.records_extracted.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E12 — Concurrent clients ({} scale): {} threads x Figure-1 mix, warm storm vs shard count",
            scale.label(),
            run_cfg.threads
        ),
        &[
            "shards", "threads", "qps", "p50", "p99",
            "hit rate", "cold extractions", "warm extractions",
        ],
        &rows,
    );
}

/// E13: warm restart — cold open vs. reopen-from-snapshot over the
/// Figure-1 mix; the durable save path's headline numbers.
fn e13_warm_restart(scale: ScaleName) {
    use lazyetl_bench::warm_restart::run_warm_restart;
    let dir = scale_repo(scale);
    let r = run_warm_restart(&dir, &base_config());
    let warm_beats_cold = r.warm.time_to_first_insight() < r.cold.time_to_first_insight();
    let mut rows = Vec::new();
    for (phase, p) in [("cold", &r.cold), ("warm", &r.warm)] {
        rows.push(vec![
            phase.to_string(),
            fmt_dur(p.open),
            fmt_dur(p.first_query),
            fmt_dur(p.time_to_first_insight()),
            fmt_dur(p.mix_total),
            format!("{:.0}%", 100.0 * p.hit_rate()),
            p.records_extracted.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E13 — Warm restart ({} scale): save {} / {} in {} segments; warm TTI beats cold: {}",
            scale.label(),
            fmt_dur(r.save),
            fmt_bytes(r.saved_bytes),
            r.segments,
            warm_beats_cold
        ),
        &[
            "restart",
            "open",
            "first query",
            "time-to-first-insight",
            "mix total",
            "hit rate",
            "records extracted",
        ],
        &rows,
    );
}

/// E14: served traffic — K TCP clients through the wire protocol against
/// one in-process server, swept over worker-pool sizes. The serving
/// layer's headline numbers: throughput, tail latency, busy-rejection
/// rate, cache hit rate.
fn e14_served(scale: ScaleName) {
    use lazyetl_bench::served::{
        run_idle_connections, run_memory_ceiling, run_served_mix, IdleConfig, MemCeilConfig,
        ServedConfig, ServedRunResult,
    };
    let dir = scale_repo(scale);
    let wh = Arc::new(
        Warehouse::open_lazy(
            &dir,
            WarehouseConfig {
                // Serving benches measure the pool, not the rescan; the
                // server's production default keeps auto-refresh on.
                auto_refresh: false,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let mix_row = |phase: &str, cfg: &ServedConfig, r: &ServedRunResult| {
        vec![
            phase.to_string(),
            cfg.workers.to_string(),
            cfg.clients.to_string(),
            format!("{:.0}", r.throughput_qps),
            fmt_dur(r.p50),
            fmt_dur(r.p99),
            format!("{:.1}%", 100.0 * r.busy_rate()),
            format!("{:.0}%", 100.0 * r.cache_hit_rate),
            r.records_extracted.to_string(),
        ]
    };
    let mut rows = Vec::new();

    // Cold storm: first served traffic pays the lazy extraction.
    let cold_cfg = ServedConfig {
        workers: 2,
        ..Default::default()
    };
    rows.push(mix_row("cold", &cold_cfg, &run_served_mix(&wh, &cold_cfg)));

    // Warm sweep over the worker pool: steady-state serving throughput.
    // The 25ms server-side think time makes service time sleep-dominated
    // (mean warm CPU per mix query is ~9ms, almost all of it Q2), so
    // throughput ≈ min(workers, clients)/service_time and the sweep
    // measures the pool, not the host: worker sleeps overlap even on a
    // single core. Best-of-2 damps scheduler noise on shared runners.
    for workers in [1usize, 2, 4] {
        let cfg = ServedConfig {
            workers,
            queries_per_client: 12,
            delay_ms: 25,
            ..Default::default()
        };
        let r = (0..2)
            .map(|_| run_served_mix(&wh, &cfg))
            .max_by(|a, b| a.throughput_qps.total_cmp(&b.throughput_qps))
            .expect("two runs happened");
        rows.push(mix_row("warm", &cfg, &r));
    }

    // Admission-control demonstration: 4 clients racing a depth-1 queue
    // behind 1 worker with think time — BUSY frames must fire.
    let tight_cfg = ServedConfig {
        workers: 1,
        queue_depth: 1,
        delay_ms: 5,
        queries_per_client: 6,
        ..Default::default()
    };
    rows.push(mix_row(
        "admission",
        &tight_cfg,
        &run_served_mix(&wh, &tight_cfg),
    ));

    // Connection sweep: hundreds of warm clients against a 2-worker pool.
    // The event-driven poller owns every connection on one thread, so the
    // connection count is a memory knob, not a thread count — the sweep's
    // question is how p99 degrades as connections pile onto the same pool.
    for clients in [50usize, 100, 200] {
        let cfg = ServedConfig {
            clients,
            queries_per_client: 2,
            workers: 2,
            queue_depth: 4096,
            delay_ms: 0,
        };
        rows.push(mix_row("connsweep", &cfg, &run_served_mix(&wh, &cfg)));
    }

    // Memory ceiling: one reader stalls mid-stream on a large scan; the
    // credit window and outbuf ceiling must hold server memory at
    // O(batch) where whole-frame serving would buffer the O(result)
    // reply.
    let mc = run_memory_ceiling(&wh, &MemCeilConfig::default());
    rows.push(vec![
        "memceil".into(),
        "1".into(),
        "1".into(),
        format!("{} rows", mc.rows),
        format!("hwm {}B", mc.outbuf_hwm_bytes),
        format!("cap {}B", mc.ceiling_bytes),
        format!("{} stalls", mc.credit_stalls),
        if mc.ceiling_ok {
            "ok".into()
        } else {
            "BLOWN".into()
        },
        mc.batches_streamed.to_string(),
    ]);

    // Idle connections: a thousand handshaken clients that never speak
    // again. The readiness-driven poller sleeps in poll(2) through them.
    let idle = run_idle_connections(&wh, &IdleConfig::default());
    rows.push(vec![
        "idle".into(),
        "-".into(),
        format!("{}+1", idle.idle_connections),
        format!("{}/{} pings", idle.pings_answered, idle.pings),
        fmt_dur(idle.ping_p50),
        "-".into(),
        format!("{:.0} wakeups/s", idle.poller_wakeups_per_s()),
        "-".into(),
        "-".into(),
    ]);

    print_table(
        &format!(
            "E14 — Served traffic ({} scale): TCP clients through the wire protocol, one shared warehouse",
            scale.label()
        ),
        &[
            "phase", "workers", "clients", "qps", "p50", "p99",
            "busy rate", "hit rate", "extracted",
        ],
        &rows,
    );
}

/// E15: kernel throughput — the identical plan through the row
/// interpreter vs the typed kernels, plus the zone-map short-circuit.
/// `crates/bench/tests/experiments.rs` asserts its counts.
fn e15_kernels(scale: ScaleName) {
    use lazyetl_bench::kernels::{
        bench_rows, build_bench_catalog, run_kernel_bench, run_parallel_sweep,
    };
    let rows = bench_rows(scale);
    let catalog = build_bench_catalog(rows);
    let r = run_kernel_bench(&catalog, 3);
    let mut table_rows = Vec::new();
    for k in &r.kernels {
        table_rows.push(vec![
            k.kernel.to_string(),
            rows.to_string(),
            k.out_rows.to_string(),
            fmt_dur(k.scalar),
            fmt_dur(k.vectorized),
            format!("{:.1}x", k.speedup()),
            format!("{:.1}M", k.rows_per_sec(k.vectorized) / 1e6),
            k.results_match.to_string(),
        ]);
    }
    let z = &r.zone_map;
    table_rows.push(vec![
        "zonemap".to_string(),
        rows.to_string(),
        "0".to_string(),
        fmt_dur(z.unpruned),
        fmt_dur(z.pruned),
        format!(
            "{:.0}x",
            z.unpruned.as_secs_f64() / z.pruned.as_secs_f64().max(1e-9)
        ),
        format!("pruned {}", z.rows_pruned),
        z.results_match.to_string(),
    ]);
    // Cores-vs-speedup sweep: the aggregate kernel at 1/2/4 execution
    // workers. `cores` rides along because the speedup means nothing on
    // a host that cannot run the workers at once.
    for p in run_parallel_sweep(&catalog, 3) {
        table_rows.push(vec![
            "agg_parallel".to_string(),
            rows.to_string(),
            p.workers.to_string(),
            fmt_dur(p.elapsed),
            String::new(),
            format!("{:.2}x", p.speedup),
            format!("{} cores", p.cores),
            p.results_match.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E15 — Kernel throughput ({} scale, {} rows): scalar interpreter vs typed kernels; \
             zonemap row = provably-empty filter with pruning off vs on",
            scale.label(),
            rows
        ),
        &[
            "kernel",
            "rows",
            "out rows",
            "scalar",
            "vectorized",
            "speedup",
            "Mrows/s vec",
            "match",
        ],
        &table_rows,
    );
}

/// E16: federated lazy extraction — three disjoint sources (local mSEED
/// archive, CSV survey drop, latency-injected simulated remote) behind
/// one warehouse; the federated answer must equal the eager union, the
/// warm re-query must extract nothing, and the per-source accounting is
/// exact (`crates/bench/tests/experiments.rs`).
fn e16_federated(scale: ScaleName) {
    use lazyetl_bench::federated::run_federated;
    let r = run_federated(scale, true);
    let mut rows = Vec::new();
    for s in &r.sources {
        let st = &s.stats;
        rows.push(vec![
            st.name.clone(),
            st.kind.to_string(),
            st.files.to_string(),
            st.files_extracted.to_string(),
            st.records_extracted.to_string(),
            fmt_bytes(st.bytes_read),
            st.fetch_requests.to_string(),
            fmt_dur(st.simulated_io),
            s.warm_files_extracted.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E16 — Federated lazy extraction ({} scale): open {} (vs eager union {}), \
             cold {} / warm {} (union query {}), {} rows, union match: {}",
            scale.label(),
            fmt_dur(r.federated_open),
            fmt_dur(r.union_open),
            fmt_dur(r.cold),
            fmt_dur(r.warm),
            fmt_dur(r.union_query),
            r.rows,
            r.union_matches,
        ),
        &[
            "mount",
            "kind",
            "files",
            "extracted",
            "records",
            "bytes",
            "fetches",
            "sim IO",
            "warm re-extractions",
        ],
        &rows,
    );
}

/// E17: cost-based planner & ordered time index — the window-query mix
/// through the warehouse's pipeline: index entries the seek examined
/// against the `fetched + pruned` candidates a linear sweep would
/// examine, and the estimate accounting
/// (`crates/bench/tests/experiments.rs`).
fn e17_planner(scale: ScaleName) {
    use lazyetl_bench::planner::run_planner_bench;
    let r = run_planner_bench(&scale_repo(scale));
    let rows = vec![vec![
        r.queries.to_string(),
        fmt_dur(r.cold),
        r.index_seeks.to_string(),
        r.entries_examined.to_string(),
        r.sweep_entries().to_string(),
        r.fetched_pairs.to_string(),
        r.pruned_pairs.to_string(),
        r.plans_estimated.to_string(),
        r.estimate_abs_error.to_string(),
    ]];
    print_table(
        &format!(
            "E17 — Cost-based planning & time index ({} scale): window mix, seek vs the entries a linear sweep would examine",
            scale.label()
        ),
        &[
            "queries", "cold mix", "index seeks", "seek examined", "sweep examined",
            "fetched", "pruned", "plans estimated", "abs error",
        ],
        &rows,
    );
}

/// E6: repository updates — cost of staying fresh.
fn e6_updates(scale: ScaleName) {
    let src = scale_repo(scale);
    let mut rows = Vec::new();
    for (label, n_changes) in [("1 file appended", 1usize), ("4 files appended", 4)] {
        let dir = mutable_copy(&src, &format!("e6_{n_changes}"));
        let cfg = WarehouseConfig {
            auto_refresh: true,
            ..Default::default()
        };
        let lazy = Warehouse::open_lazy(&dir, cfg.clone()).unwrap();
        let eager = Warehouse::open_eager(&dir, cfg).unwrap();
        // Warm both with a metadata query.
        lazy.query(METADATA_QUERY).unwrap();
        eager.query(METADATA_QUERY).unwrap();

        let mut repo = Repository::open(&dir).unwrap();
        let uris: Vec<String> = repo
            .files()
            .iter()
            .filter(|f| f.uri.contains("BHZ"))
            .take(n_changes)
            .map(|f| f.uri.clone())
            .collect();
        for (i, uri) in uris.iter().enumerate() {
            updates::append_records(&mut repo, uri, 30, 1000 + i as u64).unwrap();
        }
        // The next query pays the refresh; measure it.
        let (_, t_lazy) = time(|| lazy.query(METADATA_QUERY).unwrap());
        let (_, t_eager) = time(|| eager.query(METADATA_QUERY).unwrap());
        // Baseline: full reload from scratch.
        let (_, t_reload) = time(|| Warehouse::open_eager(&dir, base_config()).unwrap());
        rows.push(vec![
            label.to_string(),
            fmt_dur(t_lazy),
            fmt_dur(t_eager),
            fmt_dur(t_reload),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }
    print_table(
        &format!(
            "E6 — Update handling ({} scale): next-query cost after repository changes",
            scale.label()
        ),
        &[
            "change",
            "lazy refresh+query",
            "eager refresh+query",
            "eager full reload",
        ],
        &rows,
    );
}

/// E7: cache behaviour under budget pressure.
fn e7_cache(scale: ScaleName) {
    let dir = scale_repo(scale);
    let mut rows = Vec::new();
    // Working set: all five stations' BHZ channels.
    let sql = selectivity_query(5);
    for (label, budget) in [
        ("unbounded (256 MiB)", 256usize << 20),
        ("50% of working set", 0usize), // filled below
        ("10% of working set", 1),
    ] {
        // First pass with big budget to size the working set.
        let budget = match label {
            "unbounded (256 MiB)" => budget,
            _ => {
                let probe = Warehouse::open_lazy(
                    &dir,
                    WarehouseConfig {
                        auto_refresh: false,
                        ..Default::default()
                    },
                )
                .unwrap();
                probe.query(&sql).unwrap();
                let ws = probe.cache_snapshot().used_bytes;
                if label.starts_with("50%") {
                    ws / 2
                } else {
                    ws / 10
                }
            }
        };
        let wh = Warehouse::open_lazy(
            &dir,
            WarehouseConfig {
                cache_budget_bytes: budget,
                auto_refresh: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (_, t_cold) = time(|| wh.query(&sql).unwrap());
        let (o2, t_warm) = time(|| wh.query(&sql).unwrap());
        let snap = wh.cache_snapshot();
        rows.push(vec![
            label.to_string(),
            fmt_bytes(budget as u64),
            fmt_dur(t_cold),
            fmt_dur(t_warm),
            format!(
                "{:.0}%",
                100.0 * o2.report.cache_hits as f64
                    / (o2.report.cache_hits + o2.report.cache_misses).max(1) as f64
            ),
            snap.stats.evictions.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E7 — Recycling cache under budget pressure ({} scale)",
            scale.label()
        ),
        &[
            "budget",
            "bytes",
            "cold query",
            "repeat query",
            "repeat hit rate",
            "evictions",
        ],
        &rows,
    );
}

/// E9: STA/LTA event mining end to end.
fn e9_sta_lta(scale: ScaleName) {
    let dir = scale_repo(scale);
    let cfg = lazyetl_core::StaLtaConfig {
        threshold: 3.5,
        ..Default::default()
    };
    let mut rows = Vec::new();
    let (lazy, t_lload) = time(|| Warehouse::open_lazy(&dir, base_config()).unwrap());
    let (hunt_l, t_lq) = time(|| {
        lazyetl_core::hunt_events(
            &lazy,
            "ISK",
            "BHE",
            "2010-01-12T22:00:00",
            "2010-01-12T23:00:00",
            &cfg,
        )
        .unwrap()
    });
    let (eager, t_eload) = time(|| Warehouse::open_eager(&dir, base_config()).unwrap());
    let (hunt_e, t_eq) = time(|| {
        lazyetl_core::hunt_events(
            &eager,
            "ISK",
            "BHE",
            "2010-01-12T22:00:00",
            "2010-01-12T23:00:00",
            &cfg,
        )
        .unwrap()
    });
    assert_eq!(hunt_l.detections.len(), hunt_e.detections.len());
    rows.push(vec![
        "lazy".into(),
        fmt_dur(t_lload),
        fmt_dur(t_lq),
        fmt_dur(t_lload + t_lq),
        hunt_l.samples.to_string(),
        hunt_l.detections.len().to_string(),
    ]);
    rows.push(vec![
        "eager".into(),
        fmt_dur(t_eload),
        fmt_dur(t_eq),
        fmt_dur(t_eload + t_eq),
        hunt_e.samples.to_string(),
        hunt_e.detections.len().to_string(),
    ]);
    print_table(
        &format!(
            "E9 — STA/LTA event hunt on KO.ISK BHE, one hour ({} scale)",
            scale.label()
        ),
        &[
            "mode",
            "load",
            "hunt",
            "total",
            "samples scanned",
            "detections",
        ],
        &rows,
    );
}

/// E10: parallel lazy extraction — wall clock vs worker threads on an
/// extraction-bound sweep (one record from every file).
fn e10_parallel(scale: ScaleName) {
    let dir = scale_repo(scale);
    let sweep = "SELECT COUNT(D.sample_value) FROM mseed.dataview WHERE R.seq_no = 1";
    let mut rows = Vec::new();
    let mut base = Duration::ZERO;
    for threads in [1usize, 2, 4, 8] {
        let wh = Warehouse::open_lazy(
            &dir,
            WarehouseConfig {
                auto_refresh: false,
                cache_budget_bytes: 0,
                extraction_threads: threads,
                ..Default::default()
            },
        )
        .unwrap();
        // Median of three runs.
        let mut times: Vec<Duration> = (0..3)
            .map(|_| time(|| wh.query(sweep).unwrap()).1)
            .collect();
        times.sort();
        let t = times[1];
        if threads == 1 {
            base = t;
        }
        let out = wh.query(sweep).unwrap();
        rows.push(vec![
            threads.to_string(),
            fmt_dur(t),
            format!("{:.2}x", base.as_secs_f64() / t.as_secs_f64().max(1e-9)),
            out.report.files_extracted.len().to_string(),
            out.report.records_extracted.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E10 — Parallel lazy extraction ({} scale): decode+materialize overlap; \
             sequential join/aggregate bounds the speedup (Amdahl)",
            scale.label()
        ),
        &["threads", "cold query", "speedup", "files", "records"],
        &rows,
    );
}

/// E11: the two recycler levels — record cache vs whole-result recycler.
fn e11_recycling(scale: ScaleName) {
    let dir = scale_repo(scale);
    let mut rows = Vec::new();
    let variants: [(&str, WarehouseConfig); 3] = [
        (
            "no caching (re-extract every run)",
            WarehouseConfig {
                auto_refresh: false,
                cache_budget_bytes: 0,
                ..Default::default()
            },
        ),
        (
            "record cache (paper's recycler)",
            WarehouseConfig {
                auto_refresh: false,
                ..Default::default()
            },
        ),
        (
            "result recycler (end result of the view)",
            WarehouseConfig {
                auto_refresh: false,
                recycle_query_results: true,
                ..Default::default()
            },
        ),
    ];
    for (label, cfg) in variants {
        let wh = Warehouse::open_lazy(&dir, cfg).unwrap();
        let (_, t_cold) = time(|| wh.query(FIGURE1_Q2).unwrap());
        let mut warms: Vec<Duration> = (0..3)
            .map(|_| time(|| wh.query(FIGURE1_Q2).unwrap()).1)
            .collect();
        warms.sort();
        let out = wh.query(FIGURE1_Q2).unwrap();
        rows.push(vec![
            label.to_string(),
            fmt_dur(t_cold),
            fmt_dur(warms[1]),
            out.report.records_extracted.to_string(),
            if out.report.result_recycled {
                "whole result".into()
            } else if out.report.cache_hits > 0 {
                "record payloads".into()
            } else {
                "nothing".into()
            },
        ]);
    }
    print_table(
        &format!(
            "E11 — Recycler levels on Figure-1 Q2 ({} scale): warm repeats",
            scale.label()
        ),
        &[
            "configuration",
            "cold query",
            "warm query",
            "warm re-extractions",
            "reused",
        ],
        &rows,
    );
}

/// E8 appears as integration tests + the explain_lazy example; here we
/// print the plans once for the record.
fn e8_observability(scale: ScaleName) {
    let dir = scale_repo(scale);
    let wh = Warehouse::open_lazy(&dir, base_config()).unwrap();
    let out = wh.query(FIGURE1_Q1).unwrap();
    println!(
        "\n### E8 — Plan observability (Figure-1 Q1, {} scale)\n",
        scale.label()
    );
    for (stage, plan) in &out.report.stages {
        println!("--- {stage} ---\n{plan}");
    }
    let r = out.report.rewrite.as_ref().unwrap();
    println!(
        "metadata rows: {}, candidates: {}, pruned: {}, fetched: {}",
        r.metadata_rows, r.candidate_pairs, r.pruned_pairs, r.fetched_pairs
    );
    println!("files extracted: {:?}", out.report.files_extracted);
}

/// E18: fresh-data polling — a steady update stream under K pollers,
/// incremental result maintenance vs a recycler-off warehouse that
/// recomputes every poll.
fn e18_fresh(scale: ScaleName) {
    use lazyetl_bench::fresh::{run_fresh_bench, FreshConfig, FRESH_QUERIES};
    let src = scale_repo(scale);
    let cfg = FreshConfig::default();
    let (incr, recomp, results_match) = run_fresh_bench(&src, &cfg);
    let speedup = recomp.total().as_secs_f64() / incr.total().as_secs_f64().max(1e-9);
    let mut rows = Vec::new();
    for r in [&incr, &recomp] {
        rows.push(vec![
            r.mode.to_string(),
            r.rounds.to_string(),
            r.pollers.to_string(),
            r.polls.to_string(),
            fmt_dur(r.refresh_total),
            fmt_dur(r.poll_total),
            fmt_dur(r.total()),
            r.recycler.results_patched.to_string(),
            r.recycler.patch_rows_applied.to_string(),
            r.recycler.recompute_fallbacks.to_string(),
            r.recycler.bytes_saved_estimate.to_string(),
            results_match.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E18 — Fresh-data polling ({} scale): {} update rounds, {} pollers x {} queries; incremental maintenance vs recompute ({speedup:.1}x)",
            scale.label(),
            cfg.rounds,
            cfg.pollers,
            FRESH_QUERIES.len(),
        ),
        &[
            "mode", "rounds", "pollers", "polls", "refresh", "poll", "total",
            "patched", "patch rows", "fallbacks", "bytes saved", "match",
        ],
        &rows,
    );
}

/// Every experiment the harness knows, in run order.
const KNOWN_EXPERIMENTS: [&str; 18] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ScaleName::Small;
    let mut wanted: Vec<String> = Vec::new();
    for a in &args {
        if let Some(s) = ScaleName::parse(a) {
            scale = s;
        } else {
            wanted.push(a.clone());
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = KNOWN_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    // Validate up front: a bad experiment name is a hard failure, not a
    // warning scrolled past 500 lines of tables.
    let unknown: Vec<&String> = wanted
        .iter()
        .filter(|w| !KNOWN_EXPERIMENTS.contains(&w.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s) {unknown:?}\nvalid experiments: {} or 'all'\nvalid scales: tiny small medium large",
            KNOWN_EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    println!("# Lazy ETL experiment harness — scale: {}", scale.label());
    for w in &wanted {
        match w.as_str() {
            "e1" => e1_initial_load(),
            "e2" => e2_storage(scale),
            "e3" => e3_figure1(scale),
            "e4" => e4_selectivity(scale),
            "e5" => e5_time_to_insight(scale),
            "e6" => e6_updates(scale),
            "e7" => e7_cache(scale),
            "e8" => e8_observability(scale),
            "e9" => e9_sta_lta(scale),
            "e10" => e10_parallel(scale),
            "e11" => e11_recycling(scale),
            "e12" => e12_concurrent(scale),
            "e13" => e13_warm_restart(scale),
            "e14" => e14_served(scale),
            "e15" => e15_kernels(scale),
            "e16" => e16_federated(scale),
            "e17" => e17_planner(scale),
            "e18" => e18_fresh(scale),
            _ => unreachable!("validated above"),
        }
    }
}
