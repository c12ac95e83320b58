//! E15 "kernel throughput": scalar vs vectorized execution, plus the
//! zone-map pruning short-circuit.
//!
//! The executor has two ways to evaluate every expression batch: the
//! row-at-a-time interpreter (boxed `Value` per cell — the semantic
//! reference) and the store's typed kernels. Production always runs the
//! kernels with interpreter fallback; this experiment pins each path via
//! `ExecContext::vectorized` and measures rows/second over an identical
//! plan, proving the fast path earns its keep **and** that both paths
//! agree row for row. A fourth measurement runs a provably-empty filter
//! with zone-map pruning on vs off, reporting `rows_pruned`.
//!
//! Everything is deterministic: the synthetic table derives from a fixed
//! LCG seed, so the behavioural counters are exact.

use lazyetl_query::exec::{execute, ExecContext};
use lazyetl_query::metrics::ExecMetrics;
use lazyetl_query::optimizer::optimize;
use lazyetl_query::planner::{plan_sql, TableSource};
use lazyetl_store::{Catalog, DataType, Field, Schema, Table, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows in the synthetic measurement table for a named scale.
pub fn bench_rows(scale: crate::ScaleName) -> usize {
    match scale {
        crate::ScaleName::Tiny => 200_000,
        crate::ScaleName::Small => 500_000,
        crate::ScaleName::Medium => 1_000_000,
        crate::ScaleName::Large => 2_000_000,
    }
}

/// One scalar-vs-vectorized measurement.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Which operator class ("filter", "project", "aggregate").
    pub kernel: &'static str,
    /// Input rows per run.
    pub rows: usize,
    /// Output rows (identical on both paths by construction).
    pub out_rows: usize,
    /// Best wall-clock of the row-interpreter path.
    pub scalar: Duration,
    /// Best wall-clock of the kernel path.
    pub vectorized: Duration,
    /// Expression batches one kernel-path run evaluated on the kernels.
    pub vectorized_batches: u64,
    /// Expression batches one kernel-path run handed to the interpreter.
    pub scalar_fallbacks: u64,
    /// Both paths produced byte-identical tables.
    pub results_match: bool,
}

impl KernelResult {
    /// scalar time / vectorized time.
    pub fn speedup(&self) -> f64 {
        self.scalar.as_secs_f64() / self.vectorized.as_secs_f64().max(1e-9)
    }

    /// Input rows per second through the named path.
    pub fn rows_per_sec(&self, d: Duration) -> f64 {
        self.rows as f64 / d.as_secs_f64().max(1e-9)
    }
}

/// The zone-map measurement: a provably-empty filter with pruning on/off.
#[derive(Debug, Clone)]
pub struct ZoneMapResult {
    /// Table rows the pruned scan never touched.
    pub rows: usize,
    /// `rows_pruned` counter after the pruned run (must equal `rows`).
    pub rows_pruned: u64,
    /// Best wall-clock with pruning on.
    pub pruned: Duration,
    /// Best wall-clock with pruning off (scan + filter actually run).
    pub unpruned: Duration,
    /// Both runs returned the same (empty) result.
    pub results_match: bool,
}

/// Everything E15 reports.
#[derive(Debug, Clone)]
pub struct KernelBenchResult {
    /// filter / project / aggregate measurements.
    pub kernels: Vec<KernelResult>,
    /// The pruning measurement.
    pub zone_map: ZoneMapResult,
}

/// One point of the cores-vs-speedup sweep: the aggregate kernel at a
/// fixed worker count.
#[derive(Debug, Clone)]
pub struct ParallelSweepResult {
    /// `ExecContext::parallelism` for this point.
    pub workers: usize,
    /// Input rows.
    pub rows: usize,
    /// Best wall-clock at this worker count.
    pub elapsed: Duration,
    /// 1-worker time / this time.
    pub speedup: f64,
    /// Result table is identical to the 1-worker run.
    pub results_match: bool,
    /// Logical cores of the measuring host, reported beside the speedup:
    /// the ratio only means anything when the hardware can actually run
    /// the workers at once.
    pub cores: usize,
}

/// Deterministic synthetic table: `station` (5 distinct strings), `v`
/// (float), `qual` (int, ~7% NULL), `t` (increasing timestamp).
pub fn build_bench_catalog(rows: usize) -> Catalog {
    const STATIONS: [&str; 5] = ["HGN", "WIT", "OPLO", "WTSB", "ISK"];
    let schema = Schema::new(vec![
        Field::new("station", DataType::Utf8),
        Field::new("v", DataType::Float64),
        Field::nullable("qual", DataType::Int64),
        Field::new("t", DataType::Timestamp),
    ])
    .expect("bench schema is valid");
    let mut state = 0x5EED_CAFE_u64;
    let mut next = || {
        // xorshift64*: deterministic, dependency-free.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut t = Table::empty(schema);
    for i in 0..rows {
        let r = next();
        t.append_row(vec![
            Value::Utf8(STATIONS[(r % 5) as usize].to_string()),
            Value::Float64(((r >> 8) % 2000) as f64 / 10.0 - 100.0),
            if r % 13 == 0 {
                Value::Null
            } else {
                Value::Int64(((r >> 16) % 100) as i64)
            },
            Value::Timestamp(1_263_333_600_000_000 + i as i64 * 1_000),
        ])
        .expect("bench row matches schema");
    }
    let mut catalog = Catalog::new();
    catalog
        .create_table("samples", t)
        .expect("fresh catalog accepts the table");
    catalog
}

/// Best-of-`reps` wall clock of `f` (first computing the result once for
/// the caller to keep).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed());
        out = Some(r);
    }
    (out.expect("at least one rep"), best)
}

fn run_one(
    catalog: &Catalog,
    sql: &str,
    kernel: &'static str,
    rows: usize,
    reps: usize,
) -> KernelResult {
    let src = TableSource::new(catalog);
    let plan = optimize(&plan_sql(sql, &src).expect("bench SQL parses")).expect("plan optimizes");
    let scalar_ctx = ExecContext {
        vectorized: false,
        zone_map_pruning: false,
        ..ExecContext::new(catalog)
    };
    let metrics = ExecMetrics::new();
    let vector_ctx = ExecContext {
        zone_map_pruning: false,
        ..ExecContext::new(catalog)
    }
    .with_metrics(&metrics);
    let (scalar_out, scalar) = best_of(reps, || {
        execute(&plan, &scalar_ctx).expect("scalar path executes")
    });
    let (vector_out, vectorized) = best_of(reps, || {
        execute(&plan, &vector_ctx).expect("vectorized path executes")
    });
    let counters = metrics.snapshot();
    let runs = reps.max(1) as u64;
    KernelResult {
        kernel,
        rows,
        out_rows: vector_out.num_rows(),
        scalar,
        vectorized,
        vectorized_batches: counters.vectorized_batches / runs,
        scalar_fallbacks: counters.scalar_fallbacks / runs,
        results_match: tables_equal(&scalar_out, &vector_out),
    }
}

/// Row-order-sensitive table equality via boxed values (cheap enough at
/// result sizes; both paths preserve input order).
fn tables_equal(a: &Arc<Table>, b: &Arc<Table>) -> bool {
    if a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns() {
        return false;
    }
    for row in 0..a.num_rows() {
        match (a.row(row), b.row(row)) {
            (Ok(ra), Ok(rb)) if ra == rb => {}
            _ => return false,
        }
    }
    true
}

/// Rows in a catalog built by [`build_bench_catalog`].
fn catalog_rows(catalog: &Catalog) -> usize {
    catalog.table("samples").expect("bench table").num_rows()
}

/// Run the whole E15 suite over a [`build_bench_catalog`] catalog
/// (`reps` = best-of repetitions).
pub fn run_kernel_bench(catalog: &Catalog, reps: usize) -> KernelBenchResult {
    let rows = catalog_rows(catalog);
    let kernels = vec![
        run_one(
            catalog,
            // Conjunction of a float compare and two string predicates:
            // the interpreter clones `station` once per row per predicate.
            "SELECT station, v FROM samples \
             WHERE v > 25.0 AND station IN ('HGN', 'ISK') AND station <> 'XXX'",
            "filter",
            rows,
            reps,
        ),
        run_one(
            catalog,
            // Arithmetic chain over two columns incl. a NULL-bearing one.
            "SELECT v * 2.0 + 1.0 AS y, qual + 10 AS q, v - qual AS d FROM samples",
            "project",
            rows,
            reps,
        ),
        run_one(
            catalog,
            // Int-keyed grouping with numeric and string accumulators:
            // MIN/MAX(station) is where the boxed path pays a String
            // clone per row.
            "SELECT qual % 4 AS g, COUNT(*) AS c, SUM(v) AS s, AVG(v) AS a, \
                    MIN(station) AS lo, MAX(station) AS hi \
             FROM samples GROUP BY qual % 4",
            "aggregate",
            rows,
            reps,
        ),
    ];

    // Zone map: `t` spans a known range; a filter beyond max is provably
    // empty, so the pruned run must skip the whole scan.
    let src = TableSource::new(catalog);
    let sql = "SELECT COUNT(*) AS c FROM samples WHERE t > '2030-01-01T00:00:00.000'";
    let plan = optimize(&plan_sql(sql, &src).expect("bench SQL parses")).expect("plan optimizes");
    let metrics = ExecMetrics::new();
    let pruned_ctx = ExecContext::new(catalog).with_metrics(&metrics);
    let unpruned_ctx = ExecContext {
        zone_map_pruning: false,
        ..ExecContext::new(catalog)
    };
    let (pruned_out, pruned) = best_of(reps, || {
        execute(&plan, &pruned_ctx).expect("pruned run executes")
    });
    let rows_pruned_per_run = metrics.snapshot().rows_pruned / reps.max(1) as u64;
    let (unpruned_out, unpruned) = best_of(reps, || {
        execute(&plan, &unpruned_ctx).expect("unpruned run executes")
    });
    let zone_map = ZoneMapResult {
        rows,
        rows_pruned: rows_pruned_per_run,
        pruned,
        unpruned,
        results_match: tables_equal(&pruned_out, &unpruned_out),
    };
    KernelBenchResult { kernels, zone_map }
}

/// The E15 cores-vs-speedup sweep: the aggregate kernel (the heaviest of
/// the three, and the one morsel-driven aggregation targets) at 1, 2 and
/// 4 execution workers over an identical plan. Every point's result must
/// be byte-identical to the 1-worker run — the sweep measures scaling,
/// the determinism harness in the query crate proves the equivalence.
pub fn run_parallel_sweep(catalog: &Catalog, reps: usize) -> Vec<ParallelSweepResult> {
    let rows = catalog_rows(catalog);
    let src = TableSource::new(catalog);
    // Every aggregate here is association-free, so parallel output is
    // bit-identical to serial: integer SUM totals in i128, integer AVG
    // sums exactly in f64 (totals stay far below 2^53), and MIN/MAX are
    // pure comparisons. SUM/AVG over `v` (multiples of 0.1, inexact in
    // binary) would differ from serial in the last ULPs when partial
    // sums merge — the equivalence suites pin float behaviour with
    // dyadic inputs instead.
    let sql = "SELECT qual % 4 AS g, COUNT(*) AS c, SUM(qual) AS s, AVG(qual) AS a, \
                      MIN(station) AS lo, MAX(v) AS hi \
               FROM samples GROUP BY qual % 4";
    let plan = optimize(&plan_sql(sql, &src).expect("bench SQL parses")).expect("plan optimizes");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Vec::new();
    let mut baseline: Option<(Arc<Table>, Duration)> = None;
    for workers in [1usize, 2, 4] {
        let ctx = ExecContext::new(catalog).with_parallelism(workers);
        let (table, elapsed) =
            best_of(reps, || execute(&plan, &ctx).expect("sweep point executes"));
        let (serial_table, serial_elapsed) = baseline.get_or_insert((table.clone(), elapsed));
        out.push(ParallelSweepResult {
            workers,
            rows,
            elapsed,
            speedup: serial_elapsed.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
            results_match: tables_equal(serial_table, &table),
            cores,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_bench_paths_agree_and_pruning_fires() {
        // Small row count: this is a correctness smoke, not a perf claim.
        let r = run_kernel_bench(&build_bench_catalog(4_000), 1);
        assert_eq!(r.kernels.len(), 3);
        for k in &r.kernels {
            assert!(k.results_match, "{}: paths disagree", k.kernel);
            assert!(k.out_rows > 0, "{}: degenerate output", k.kernel);
        }
        assert_eq!(r.zone_map.rows_pruned, 4_000, "whole scan pruned");
        assert!(r.zone_map.results_match);
    }

    #[test]
    fn parallel_sweep_points_agree_with_serial() {
        let sweep = run_parallel_sweep(&build_bench_catalog(10_000), 1);
        assert_eq!(
            sweep.iter().map(|p| p.workers).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        for p in &sweep {
            assert!(
                p.results_match,
                "{} workers disagree with the serial run",
                p.workers
            );
            assert!(p.cores >= 1);
        }
        assert!((sweep[0].speedup - 1.0).abs() < 1e-9, "baseline is itself");
    }
}
