//! The morsel-driven executor's proof obligation: for every query shape
//! the engine supports, parallel execution must be **observably
//! indistinguishable** from the serial reference path — same rows in the
//! same order, same NULLs, same errors — across thread counts 1/2/4/8
//! and adversarial morsel sizes (1 row per morsel, a prime that never
//! divides the input evenly, and the 4096-row default).
//!
//! The comparison is deliberately blunt: render both results with
//! `Table::to_ascii` and require byte equality. Anything that survives
//! that — value widths, NULL placement, row order, group order — is
//! pinned. Float columns use dyadic values (multiples of 0.25) so sums
//! are exact in f64 and associativity cannot blur the comparison; the
//! executor's merge rules are supposed to make order irrelevant anyway,
//! and `proptest_parallel.rs` hammers the same claim with arbitrary
//! tables.

use lazyetl_query::error::QueryError;
use lazyetl_query::exec::{execute, ExecContext};
use lazyetl_query::metrics::ExecMetrics;
use lazyetl_query::optimizer::optimize;
use lazyetl_query::planner::{plan_sql, TableSource};
use lazyetl_store::{Catalog, DataType, Field, Schema, Table, Value};
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const MORSELS: [usize; 3] = [1, 7, 4096];

/// A seismic-flavoured catalog (the paper's domain) big enough that the
/// default morsel size still splits it, with NULLs in every column that
/// can hold them and enough key skew to make joins and groups interesting.
fn catalog(rows: usize) -> Catalog {
    let stations = ["ISK", "ANTO", "KONO", "BFO"];
    let channels = ["BHE", "BHN", "BHZ"];
    let files_schema = Schema::new(vec![
        Field::new("file_id", DataType::Int64),
        Field::nullable("station", DataType::Utf8),
        Field::nullable("channel", DataType::Utf8),
        Field::nullable("qual", DataType::Int32),
        Field::nullable("size", DataType::Int64),
        Field::nullable("drift", DataType::Float64),
        Field::nullable("seen", DataType::Timestamp),
        Field::nullable("ok", DataType::Bool),
    ])
    .unwrap();
    let mut files = Table::empty(files_schema);
    for i in 0..rows as i64 {
        files
            .append_row(vec![
                Value::Int64(i),
                if i % 11 == 3 {
                    Value::Null
                } else {
                    Value::Utf8(stations[(i % 4) as usize].to_string())
                },
                if i % 13 == 5 {
                    Value::Null
                } else {
                    Value::Utf8(channels[(i % 3) as usize].to_string())
                },
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int32((i % 5) as i32)
                },
                if i % 17 == 9 {
                    Value::Null
                } else {
                    Value::Int64(512 + (i * 37) % 4096)
                },
                // Dyadic: exact in f64, so any summation order agrees.
                if i % 19 == 7 {
                    Value::Null
                } else {
                    Value::Float64(((i % 400) - 200) as f64 * 0.25)
                },
                if i % 23 == 11 {
                    Value::Null
                } else {
                    Value::Timestamp(1_300_000_000_000 + i * 250)
                },
                if i % 29 == 13 {
                    Value::Null
                } else {
                    Value::Bool(i % 2 == 0)
                },
            ])
            .unwrap();
    }
    let stations_schema = Schema::new(vec![
        Field::nullable("name", DataType::Utf8),
        Field::new("network", DataType::Utf8),
        Field::new("elevation", DataType::Int64),
    ])
    .unwrap();
    let mut st = Table::empty(stations_schema);
    for (i, s) in stations.iter().enumerate() {
        st.append_row(vec![
            Value::Utf8(s.to_string()),
            Value::Utf8(if i % 2 == 0 { "GE" } else { "TR" }.to_string()),
            Value::Int64(100 + 37 * i as i64),
        ])
        .unwrap();
    }
    st.append_row(vec![
        Value::Null,
        Value::Utf8("XX".to_string()),
        Value::Int64(0),
    ])
    .unwrap();
    let mut c = Catalog::new();
    c.create_table("files", files).unwrap();
    c.create_table("stations", st).unwrap();
    c
}

/// The query mix: every operator the executor parallelizes plus the
/// serial tails (sort/limit/distinct/having) that consume their output.
fn query_mix() -> Vec<&'static str> {
    vec![
        // Fused filter/project pipelines, incl. NULL-producing arithmetic.
        "SELECT file_id, size FROM files WHERE size > 2000",
        "SELECT file_id, qual + 1 AS q1, drift * 2.0 AS d2 FROM files WHERE qual >= 2",
        "SELECT file_id FROM files WHERE station = 'ISK' AND channel <> 'BHZ' AND ok = TRUE",
        "SELECT file_id, size / (qual - qual) AS div0 FROM files WHERE file_id < 50",
        "SELECT station, size FROM files WHERE size BETWEEN 1000 AND 3000 AND station IN ('ISK', 'KONO')",
        "SELECT file_id FROM files WHERE drift IS NULL",
        // A predicate the zone map can prove empty (pruning + morsels).
        "SELECT file_id FROM files WHERE size > 100000",
        // Aggregation: global and grouped, every function, typed + boxed.
        "SELECT COUNT(*), COUNT(size), SUM(size), AVG(drift), MIN(station), MAX(seen) FROM files",
        "SELECT station, COUNT(*) AS n, SUM(size) AS bytes FROM files GROUP BY station ORDER BY station",
        "SELECT qual, MIN(drift), MAX(drift), AVG(size) FROM files GROUP BY qual ORDER BY qual",
        "SELECT station, channel, COUNT(*) FROM files GROUP BY station, channel ORDER BY station, channel",
        "SELECT qual, COUNT(DISTINCT station), COUNT(DISTINCT channel) FROM files GROUP BY qual ORDER BY qual",
        "SELECT channel, MIN(station) AS lo, MAX(station) AS hi FROM files GROUP BY channel ORDER BY channel",
        "SELECT station, COUNT(*) AS n FROM files WHERE ok = TRUE GROUP BY station HAVING COUNT(*) >= 5 ORDER BY n DESC, station",
        // Single-column keys with their own keying (NULLable Utf8, Int32,
        // Timestamp), DISTINCT beside plain aggregates, and no ORDER BY:
        // group order itself must be the serial first-appearance order.
        "SELECT station, COUNT(DISTINCT channel) AS dc, COUNT(*) AS n, SUM(size) AS bytes, MIN(seen) FROM files GROUP BY station",
        "SELECT qual, COUNT(DISTINCT station) AS ds, COUNT(drift), MAX(drift), SUM(size) FROM files GROUP BY qual",
        "SELECT seen, COUNT(DISTINCT ok) AS dk, COUNT(*) AS n, AVG(drift) AS ad, MIN(station) FROM files GROUP BY seen",
        // Joins: string key (generic GroupKey path) with NULL keys on
        // both sides, feeding grouped aggregation.
        "SELECT s.network, COUNT(*) AS files FROM files f JOIN stations s ON f.station = s.name GROUP BY s.network ORDER BY s.network",
        "SELECT f.file_id, s.elevation FROM files f JOIN stations s ON f.station = s.name WHERE f.qual = 4 ORDER BY f.file_id LIMIT 20",
        // Self-join on an integer key (packed path).
        "SELECT a.file_id FROM files a JOIN files b ON a.size = b.size WHERE a.file_id < b.file_id ORDER BY a.file_id LIMIT 25",
        // Serial tails over parallel producers.
        "SELECT DISTINCT channel FROM files ORDER BY channel",
        "SELECT station, size FROM files ORDER BY size DESC, file_id LIMIT 10",
    ]
}

fn run(
    catalog: &Catalog,
    sql: &str,
    parallelism: usize,
    morsel_rows: usize,
    metrics: Option<&ExecMetrics>,
) -> Result<Arc<Table>, QueryError> {
    let src = TableSource::new(catalog);
    let plan = optimize(&plan_sql(sql, &src)?)?;
    let mut ctx = ExecContext::new(catalog)
        .with_parallelism(parallelism)
        .with_morsel_rows(morsel_rows);
    if let Some(m) = metrics {
        ctx = ctx.with_metrics(m);
    }
    execute(&plan, &ctx)
}

/// Byte-exact render of an entire result.
fn ascii(t: &Table) -> String {
    t.to_ascii(usize::MAX)
}

#[test]
fn parallel_equals_serial_across_threads_and_morsel_sizes() {
    let catalog = catalog(10_000);
    for sql in query_mix() {
        let serial = run(&catalog, sql, 1, 4096, None)
            .unwrap_or_else(|e| panic!("serial reference failed for {sql}: {e}"));
        let expected = ascii(&serial);
        for &threads in &THREADS {
            for &morsel in &MORSELS {
                let got = run(&catalog, sql, threads, morsel, None).unwrap_or_else(|e| {
                    panic!("threads={threads} morsel={morsel} failed for {sql}: {e}")
                });
                assert_eq!(
                    ascii(&got),
                    expected,
                    "{sql} diverged at threads={threads} morsel={morsel}"
                );
            }
        }
    }
}

#[test]
fn empty_and_tiny_tables_are_safe_at_any_decomposition() {
    let catalog = catalog(3);
    for sql in query_mix() {
        let expected = ascii(&run(&catalog, sql, 1, 4096, None).unwrap());
        for &threads in &THREADS {
            for &morsel in &MORSELS {
                let got = run(&catalog, sql, threads, morsel, None).unwrap();
                assert_eq!(
                    ascii(&got),
                    expected,
                    "{sql} diverged on tiny table at threads={threads} morsel={morsel}"
                );
            }
        }
    }
}

/// An erroring morsel must surface the same `QueryError` as the serial
/// pass — never a partial table, never a pool poisoning.
#[test]
fn errors_propagate_identically() {
    let catalog = catalog(500);
    // Timestamp-vs-float comparison is unorderable: every row errors, so
    // the first morsel's failure must match the serial error exactly.
    let cases = [
        "SELECT file_id FROM files WHERE seen > 1.5",
        "SELECT seen > 1.5 AS bad FROM files",
    ];
    for sql in cases {
        let serial = run(&catalog, sql, 1, 4096, None).unwrap_err();
        for &threads in &THREADS {
            for &morsel in &MORSELS {
                let got = run(&catalog, sql, threads, morsel, None).unwrap_err();
                assert_eq!(
                    got.to_string(),
                    serial.to_string(),
                    "{sql} error diverged at threads={threads} morsel={morsel}"
                );
            }
        }
    }
}

/// Integer SUM overflow is decided by the true i128 total, so a sum that
/// overflows i64 errors identically no matter how morsels split the rows
/// — and a sum that transiently exceeds i64 but settles back in range
/// succeeds identically.
#[test]
fn sum_overflow_is_association_free() {
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("x", DataType::Int64),
    ])
    .unwrap();
    let mut t = Table::empty(schema);
    // Group 0 genuinely overflows; group 1 overshoots then cancels.
    for vals in [
        (0, i64::MAX),
        (0, i64::MAX),
        (1, i64::MAX),
        (1, 1),
        (1, -10),
    ] {
        t.append_row(vec![Value::Int64(vals.0), Value::Int64(vals.1)])
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.create_table("t", t).unwrap();

    let overflowing = "SELECT SUM(x) FROM t WHERE g = 0";
    let serial_err = run(&catalog, overflowing, 1, 4096, None).unwrap_err();
    let settling = "SELECT SUM(x) FROM t WHERE g = 1";
    let serial_ok = ascii(&run(&catalog, settling, 1, 4096, None).unwrap());
    for &threads in &THREADS {
        for &morsel in &MORSELS {
            let err = run(&catalog, overflowing, threads, morsel, None).unwrap_err();
            assert_eq!(err.to_string(), serial_err.to_string());
            assert!(matches!(err, QueryError::Execution(_)), "{err:?}");
            let ok = run(&catalog, settling, threads, morsel, None).unwrap();
            assert_eq!(ascii(&ok), serial_ok);
        }
    }
}

/// The new counters fire exactly when a pipeline actually goes parallel.
#[test]
fn parallel_counters_track_dispatch() {
    let catalog = catalog(10_000);
    let sql = "SELECT station, COUNT(*), SUM(size) FROM files WHERE size > 600 GROUP BY station";

    let serial = ExecMetrics::new();
    run(&catalog, sql, 1, 4096, Some(&serial)).unwrap();
    let s = serial.snapshot();
    assert_eq!(s.morsels_dispatched, 0, "serial run dispatched morsels");
    assert_eq!(s.parallel_pipelines, 0);
    assert_eq!(s.merge_ns, 0);

    let parallel = ExecMetrics::new();
    run(&catalog, sql, 4, 256, Some(&parallel)).unwrap();
    let p = parallel.snapshot();
    // Filter pipeline + grouped aggregation both fan out.
    assert!(p.parallel_pipelines >= 2, "{p:?}");
    assert!(p.morsels_dispatched >= p.parallel_pipelines, "{p:?}");

    // Morsel accounting scales with the decomposition, not the threads.
    let fine = ExecMetrics::new();
    run(&catalog, sql, 4, 64, Some(&fine)).unwrap();
    assert!(
        fine.snapshot().morsels_dispatched > p.morsels_dispatched,
        "smaller morsels must dispatch more work units"
    );
}

/// `with_parallelism`/`with_morsel_rows` clamp degenerate values instead
/// of dividing by zero or spawning zero workers.
#[test]
fn degenerate_knobs_clamp() {
    let catalog = catalog(100);
    let sql = "SELECT COUNT(*) FROM files";
    let expected = ascii(&run(&catalog, sql, 1, 4096, None).unwrap());
    let got = run(&catalog, sql, 0, 0, None).unwrap();
    assert_eq!(ascii(&got), expected);
}
