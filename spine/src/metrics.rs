//! The names, units and regression bounds of what the benchmark reports.
//! `BENCHMARK.json` at the repository root carries the same lists; a test
//! keeps the two in step.

/// End-to-end metrics: name, unit, whether lower is better, and the share
/// of the parent's median by which it may get worse (`BENCHMARK.json`
/// carries the same bounds). `fail_rate` is the sixth; the contract's
/// result line carries it as `failed` / `attempted`.
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("setup_s", "s", true, 0.25),
    ("latency_ms_p50", "ms", true, 0.25),
    ("throughput_ops_s", "ops/s", false, 0.25),
    ("cpu_ms_per_op", "ms", true, 0.25),
    ("peak_rss_mb", "MiB", true, 0.10),
];

/// Per-layer metrics: name, unit, and whether every workload exercises the
/// layer call behind it. Those that do are the `per_layer` list of
/// `BENCHMARK.json` and of the one-line JSON result; the other five are
/// times of calls only some workloads make (they read 0 elsewhere, which
/// is the point: `server.overhead_us` > 0 only on `served.point`), printed
/// in the layer table but kept out of the contract, whose driver rejects a
/// time that reads the same on every run.
pub const PER_LAYER: [(&str, &str, bool); 27] = [
    ("mseed.decode_msamples_s", "Msamples/s", true),
    ("mseed.samples_decoded_per_op", "count", true),
    ("repo.scan_us", "us", true),
    ("repo.probe_us", "us", true),
    ("repo.bytes_read_per_op", "bytes", true),
    ("store.append_mb_s", "MB/s", true),
    ("query.frontend_us", "us", true),
    ("query.exec_mrows_s", "Mrows/s", true),
    ("query.scalar_fallbacks_per_op", "count", true),
    ("query.rows_scanned_per_result_row", "ratio", true),
    ("core.query_us", "us", true),
    ("core.untraced_share", "ratio", true),
    ("core.cache_hit_rate", "ratio", true),
    ("core.cache_get_us", "us", false),
    ("core.cache_evictions_per_op", "count", true),
    ("core.records_extracted_per_op", "count", true),
    ("core.recycler_hit_rate", "ratio", true),
    ("core.qcache_get_us", "us", false),
    ("core.refresh_us", "us", false),
    ("core.results_patched_per_op", "count", true),
    ("core.recompute_fallbacks_per_op", "count", true),
    ("core.open_us", "us", true),
    ("server.overhead_us", "us", false),
    ("server.queue_wait_us", "us", false),
    ("server.busy_rate", "ratio", true),
    ("server.codec_mb_s", "MB/s", true),
    ("trace_overhead_pct", "%", true),
];
