//! The behaviour the E-series experiments report, asserted exactly at
//! `tiny` scale by calling the library functions `paper_results` prints
//! from.
//!
//! Generation is deterministic, so every count below is a literal: a
//! change that moves one changed what the system does. Wall-clock figures
//! are not asserted here; the `spine` benchmark measures speed.

use lazyetl_bench::concurrent::{run_concurrent_mix, ConcurrentConfig};
use lazyetl_bench::federated::run_federated;
use lazyetl_bench::fresh::{run_fresh_bench, FreshConfig};
use lazyetl_bench::kernels::{
    bench_rows, build_bench_catalog, run_kernel_bench, run_parallel_sweep,
};
use lazyetl_bench::planner::run_planner_bench_at;
use lazyetl_bench::served::{
    run_idle_connections, run_memory_ceiling, run_served_mix, IdleConfig, MemCeilConfig,
    ServedConfig, ServedRunResult,
};
use lazyetl_bench::warm_restart::run_warm_restart_reps;
use lazyetl_bench::{scale_repo, selectivity_query, ScaleName, FIGURE1_Q1, FIGURE1_Q2};
use lazyetl_core::qcache::ResultCacheStats;
use lazyetl_core::{Warehouse, WarehouseConfig};
use std::sync::Arc;
use std::time::Duration;

fn manual_refresh() -> WarehouseConfig {
    WarehouseConfig {
        auto_refresh: false,
        ..Default::default()
    }
}

fn tiny_lazy(config: WarehouseConfig) -> Arc<Warehouse> {
    Arc::new(Warehouse::open_lazy(scale_repo(ScaleName::Tiny), config).unwrap())
}

/// E3: each Figure-1 query extracts exactly the records it touches, and a
/// repeat is served from the cache.
#[test]
fn e3_figure1_queries_extract_exactly_what_they_touch() {
    let wh = tiny_lazy(manual_refresh());
    for (sql, files, records) in [(FIGURE1_Q1, 0, 0), (FIGURE1_Q2, 4, 28)] {
        let cold = wh.query(sql).unwrap().report;
        assert_eq!(cold.files_extracted.len(), files, "{sql}");
        assert_eq!(cold.records_extracted, records, "{sql}");
        let warm = wh.query(sql).unwrap().report;
        assert_eq!(warm.records_extracted, 0, "{sql}");
        assert_eq!(warm.cache_hits, records, "{sql}");
    }
}

/// E4: each station the selectivity sweep adds costs one more file, and
/// on Figure-1 Q1 metadata-first narrows the 70 indexed records to 7
/// candidates, which record-level pruning narrows to none.
#[test]
fn e4_extraction_follows_selectivity_and_q1_funnel_is_exact() {
    for k in 1..=5 {
        let wh = tiny_lazy(manual_refresh());
        let out = wh.query(&selectivity_query(k)).unwrap().report;
        assert_eq!(
            (out.files_extracted.len(), out.records_extracted),
            (k, 7 * k),
            "{k} stations"
        );
    }
    let wh = tiny_lazy(manual_refresh());
    let out = wh.query(FIGURE1_Q1).unwrap().report;
    let r = out.rewrite.expect("Q1 reads data");
    assert_eq!(
        (wh.load_report().records, r.candidate_pairs, r.fetched_pairs),
        (70, 7, 0)
    );
    assert_eq!(out.records_extracted, 0);
}

/// E12: after a cold storm, a warm storm of concurrent clients extracts
/// nothing and hits the cache on every lookup, at every shard count.
#[test]
fn e12_warm_storm_is_all_cache_hits_at_every_shard_count() {
    // Three queries per thread: every thread runs the whole mix once.
    let cfg = ConcurrentConfig {
        queries_per_thread: 3,
        ..Default::default()
    };
    for shards in [1, 2, 4, 8] {
        let wh = tiny_lazy(WarehouseConfig {
            cache_shards: shards,
            ..manual_refresh()
        });
        let cold = run_concurrent_mix(&wh, &cfg);
        assert!(cold.records_extracted >= 28, "{shards} shards: {cold:?}");
        let warm = run_concurrent_mix(&wh, &cfg);
        assert_eq!(warm.total_queries, 12, "{shards} shards");
        assert_eq!(warm.records_extracted, 0, "{shards} shards: {warm:?}");
        assert_eq!(warm.cache_hit_rate, 1.0, "{shards} shards: {warm:?}");
    }
}

/// E13: a warehouse reopened from its snapshot answers the mix without
/// extracting anything; a cold open extracts the mix's records again.
#[test]
fn e13_warm_reopen_extracts_nothing() {
    let r = run_warm_restart_reps(&scale_repo(ScaleName::Tiny), &manual_refresh(), 1);
    assert_eq!(r.cold.records_extracted, 28, "{r:?}");
    assert_eq!(r.warm.records_extracted, 0, "{r:?}");
    assert_eq!(r.warm.cache_misses, 0, "{r:?}");
    assert_eq!(r.warm.cache_hits, 28, "{r:?}");
    assert_eq!(r.segments, 8, "{r:?}");
}

/// Every served query opened a cursor and streamed at least one batch.
fn assert_streamed(phase: &str, r: &ServedRunResult) {
    assert!(
        r.server.cursors_opened >= r.total_queries as u64,
        "{phase}: {} cursors for {} queries",
        r.server.cursors_opened,
        r.total_queries
    );
    assert!(
        r.server.batches_streamed >= r.total_queries as u64,
        "{phase}"
    );
    assert_eq!(r.server.queries_err, 0, "{phase}");
}

/// E14, mix phases: admission control fires under a depth-1 queue yet
/// every query lands, and hundreds of connections over two workers all
/// complete.
#[test]
fn e14_served_mix_streams_every_query_and_admission_fires() {
    let wh = tiny_lazy(manual_refresh());
    let cold_cfg = ServedConfig::default();
    let cold = run_served_mix(&wh, &cold_cfg);
    assert_eq!(cold.total_queries, 48);
    assert!(cold.records_extracted > 0);
    assert_streamed("cold", &cold);

    let tight = run_served_mix(
        &wh,
        &ServedConfig {
            workers: 1,
            queue_depth: 1,
            delay_ms: 5,
            queries_per_client: 6,
            ..Default::default()
        },
    );
    assert_eq!(tight.total_queries, 24);
    assert!(tight.busy_rejections >= 1, "admission control never fired");
    assert_eq!(tight.server.busy_rejections as usize, tight.busy_rejections);
    assert_eq!(tight.records_extracted, 0);
    assert_streamed("admission", &tight);

    // The sweep is about the connection layer, so the result recycler
    // answers the repeats and keeps query execution out of it.
    let recycling = tiny_lazy(WarehouseConfig {
        recycle_query_results: true,
        ..manual_refresh()
    });
    for clients in [50, 100, 200] {
        let r = run_served_mix(
            &recycling,
            &ServedConfig {
                clients,
                queries_per_client: 2,
                workers: 2,
                queue_depth: 4096,
                delay_ms: 0,
            },
        );
        assert_eq!(r.total_queries, 2 * clients, "connections lost under load");
        assert_streamed("connsweep", &r);
    }
}

/// E14, memory ceiling: a stalled reader suspends its cursor, and the
/// server's outbound buffer stays under the ceiling.
#[test]
fn e14_stalled_reader_holds_the_memory_ceiling() {
    let cfg = MemCeilConfig::default();
    let r = run_memory_ceiling(&tiny_lazy(manual_refresh()), &cfg);
    assert_eq!(r.rows, 24_000, "{r:?}");
    assert_eq!(r.batches_streamed, r.rows.div_ceil(cfg.batch_rows as u64));
    assert!(
        r.credit_stalls >= 1,
        "credit backpressure never fired: {r:?}"
    );
    assert!(r.ceiling_ok, "{r:?}");
}

/// E14, idle connections: every ping among a thousand silent connections
/// is answered, and the poller sleeps through them.
#[test]
fn e14_idle_connections_do_not_wake_the_poller() {
    let cfg = IdleConfig {
        idle_window: Duration::from_millis(500),
        ..Default::default()
    };
    let r = run_idle_connections(&tiny_lazy(manual_refresh()), &cfg);
    assert_eq!(r.idle_connections, 1000);
    assert_eq!(r.pings_answered, r.pings, "{r:?}");
    assert!(r.poller_wakeups_per_s() <= 100.0, "the poller spins: {r:?}");
}

/// E15: the typed kernels agree with the row interpreter, run without
/// falling back to it, and the zone map prunes the whole provably-empty
/// scan; the aggregate agrees with the serial run at 1, 2 and 4 workers.
#[test]
fn e15_kernels_agree_with_the_interpreter_and_prune() {
    let rows = bench_rows(ScaleName::Tiny);
    assert_eq!(rows, 200_000);
    let catalog = build_bench_catalog(rows);
    let r = run_kernel_bench(&catalog, 1);
    let shape: Vec<(&str, usize, usize)> = r
        .kernels
        .iter()
        .map(|k| (k.kernel, k.rows, k.out_rows))
        .collect();
    assert_eq!(
        shape,
        [
            ("filter", rows, 30_002),
            ("project", rows, rows),
            ("aggregate", rows, 5)
        ]
    );
    for k in &r.kernels {
        assert!(k.results_match, "{}: paths disagree", k.kernel);
        assert!(k.vectorized_batches > 0, "{}: {k:?}", k.kernel);
        assert_eq!(k.scalar_fallbacks, 0, "{}: {k:?}", k.kernel);
    }
    assert_eq!(r.zone_map.rows_pruned, rows as u64);
    assert!(r.zone_map.results_match);

    let sweep = run_parallel_sweep(&catalog, 1);
    let workers: Vec<usize> = sweep.iter().map(|p| p.workers).collect();
    assert_eq!(workers, [1, 2, 4]);
    for p in &sweep {
        assert!(
            p.results_match,
            "{} workers diverged from serial",
            p.workers
        );
    }
}

/// E16: three mounts of three kinds, each extracting exactly its slice;
/// the federated answer equals the eager union; the warm re-query
/// extracts nothing on any mount.
#[test]
fn e16_federated_accounting_is_exact_per_mount() {
    let r = run_federated(ScaleName::Tiny, false);
    let mounts: Vec<(&str, &str, usize, u64, u64, u64)> = r
        .sources
        .iter()
        .map(|s| {
            let st = &s.stats;
            (
                st.name.as_str(),
                st.kind,
                st.files,
                st.files_extracted,
                st.records_extracted,
                st.samples_extracted,
            )
        })
        .collect();
    assert_eq!(
        mounts,
        [
            ("archive", "local", 8, 4, 28, 96_000),
            ("surveys", "csv", 4, 2, 94, 48_000),
            ("orfeus", "remote", 4, 2, 14, 48_000),
        ]
    );
    for s in &r.sources {
        assert_eq!(
            s.warm_files_extracted, 0,
            "{}: warm re-extraction",
            s.stats.name
        );
    }
    assert!(
        r.union_matches,
        "federated answer diverged from the eager union"
    );
    assert_eq!(r.rows, 8);
    assert_eq!(r.warm_records_extracted, 0);
    assert_eq!(r.warm_cache_hits, 28 + 94 + 14);

    let fetches: Vec<u64> = r.sources.iter().map(|s| s.stats.fetch_requests).collect();
    assert_eq!(fetches, [0, 0, 6], "only the remote mount range-fetches");
    assert!(
        r.sources[2].stats.simulated_io > Duration::ZERO,
        "no modeled WAN time"
    );
}

/// E17: the time index examines 70 entries where a linear sweep over the
/// same candidates would examine 287, and every plan is estimated exactly.
#[test]
fn e17_index_seek_and_cost_accounting_are_exact() {
    let r = run_planner_bench_at(ScaleName::Tiny);
    assert_eq!(
        (
            r.index_seeks,
            r.entries_examined,
            r.fetched_pairs,
            r.pruned_pairs,
            r.plans_estimated,
        ),
        (5, 70, 70, 217, 6),
        "{r:?}"
    );
    assert_eq!(r.sweep_entries(), 287, "{r:?}");
    assert_eq!(
        (r.queries, r.rows, r.estimate_abs_error),
        (6, 10, 0),
        "{r:?}"
    );
}

/// E18: under a steady update stream, incremental maintenance patches
/// every resident result, and a recycler-off warehouse that recomputes
/// every poll gives equal answers. The recycler's hit and miss counts
/// stand in for the speed comparison.
#[test]
fn e18_incremental_maintenance_patches_where_recompute_falls_back() {
    let cfg = FreshConfig::default();
    let (incr, recomp, results_match) = run_fresh_bench(&scale_repo(ScaleName::Tiny), &cfg);
    assert!(results_match, "incremental and recompute answers diverged");
    for r in [&incr, &recomp] {
        assert_eq!((r.rounds, r.pollers, r.polls), (5, 4, 60), "{}", r.mode);
    }
    // Incremental mode looks up 3 warm-up queries, 60 polls and 3 final
    // queries, and misses only while warming up.
    let s = &incr.recycler;
    assert_eq!(
        (
            s.results_patched,
            s.patch_rows_applied,
            s.recompute_fallbacks,
            s.hits + s.misses,
        ),
        (15, 15, 0, 66),
        "{s:?}"
    );
    assert_eq!(s.hits, 63, "{s:?}");
    // The baseline never consults the recycler: every poll recomputes.
    assert_eq!(recomp.recycler, ResultCacheStats::default());
}
