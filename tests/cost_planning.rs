//! Cost-based planning is an *optimization*, never a semantics change:
//! for any query, the warehouse's costed pipeline (statistics, join
//! reordering, access multipliers) must return exactly what the query
//! crate's as-written `optimize` returns over the same data — only the
//! plan shape and the EXPLAIN report may differ.
//!
//! Also pins the EXPLAIN surface itself: the `explain` stage reports the
//! chosen join order, estimated vs. actual rows, and how record pruning
//! went (an index seek, or no sample-time window to prune by).

mod common;

use common::{figure1_repo, TestRepo, FIGURE1_Q1, FIGURE1_Q2};
use lazyetl::query::{execute, optimize, plan_sql, ExecContext, TableSource};
use lazyetl::store::{Table, Value};
use lazyetl::{Warehouse, WarehouseConfig};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn cfg() -> WarehouseConfig {
    WarehouseConfig {
        auto_refresh: false,
        ..Default::default()
    }
}

struct Rig {
    costed: Warehouse,
    /// Holds the reference catalog: every table resident, nothing costed.
    eager: Warehouse,
    _repo: TestRepo,
}

fn rig() -> &'static Rig {
    static RIG: OnceLock<Rig> = OnceLock::new();
    RIG.get_or_init(|| {
        let repo = figure1_repo("cost_equiv", 512);
        Rig {
            costed: Warehouse::open_lazy(&repo.root, cfg()).unwrap(),
            eager: Warehouse::open_eager(&repo.root, cfg()).unwrap(),
            _repo: repo,
        }
    })
}

/// `sql` planned, optimized with joins in their as-written order, and
/// executed over `wh`'s catalog — bypassing the warehouse's pipeline.
fn as_written(wh: &Warehouse, sql: &str) -> Arc<Table> {
    let catalog = wh.catalog();
    let plan = optimize(&plan_sql(sql, &TableSource::new(&catalog)).unwrap()).unwrap();
    execute(&plan, &ExecContext::new(&catalog)).unwrap()
}

/// Cell-wise comparison with a relative epsilon for floats: a reordered
/// join can feed float aggregation in a different order.
fn assert_tables_close(sql: &str, a: &Table, b: &Table) {
    assert_eq!(a.num_rows(), b.num_rows(), "row count for {sql}");
    assert_eq!(
        a.schema.fields.len(),
        b.schema.fields.len(),
        "width for {sql}"
    );
    for col in 0..a.schema.fields.len() {
        for row in 0..a.num_rows() {
            let va = a.columns[col].get(row).unwrap();
            let vb = b.columns[col].get(row).unwrap();
            match (&va, &vb) {
                (Value::Float64(x), Value::Float64(y)) => {
                    let tol = (x.abs().max(y.abs()) * 1e-9).max(1e-9);
                    assert!((x - y).abs() <= tol, "{sql}: cell [{row},{col}] {x} vs {y}");
                }
                _ => assert_eq!(va, vb, "{sql}: cell [{row},{col}]"),
            }
        }
    }
}

fn check(sql: &str) {
    let r = rig();
    let costed = r.costed.query(sql).unwrap();
    assert_tables_close(sql, &costed.table, &as_written(&r.eager, sql));
}

fn explain_stage(stages: &[(String, String)]) -> Option<&str> {
    stages
        .iter()
        .find(|(n, _)| n == "explain")
        .map(|(_, s)| s.as_str())
}

// ---------------------------------------------------------------------------
// EXPLAIN golden tests
// ---------------------------------------------------------------------------

#[test]
fn explain_reports_join_order_estimates_and_index_seek() {
    let repo = figure1_repo("explain_cost", 512);
    let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
    let out = wh.query(FIGURE1_Q1).unwrap();
    let explain =
        explain_stage(&out.report.stages).expect("costed queries always emit an explain stage");

    // Join order: the metadata tables plus the runtime-injected data.
    assert!(explain.contains("join order:"), "{explain}");
    assert!(explain.contains("files"), "{explain}");
    assert!(explain.contains("records"), "{explain}");
    assert!(explain.contains("data (injected)"), "{explain}");

    // Estimated vs. actual result rows, with the absolute error the
    // metrics accumulate. Q1 is a one-row aggregate and the model knows
    // it: a grand total without GROUP BY estimates exactly 1.
    assert!(
        explain.contains("estimated rows: 1 | actual rows: 1 | abs error: 0"),
        "{explain}"
    );

    // Per-table access methods: resident scans with statistics, and the
    // time-window query's record pruning served by the index seek.
    assert!(explain.contains("access files: scan"), "{explain}");
    assert!(explain.contains("access records: scan"), "{explain}");
    assert!(
        explain.contains("access data: time-index seek"),
        "{explain}"
    );

    // The same estimate feeds the warehouse-wide counters (and from
    // there the server's stats frame).
    let exec = wh.stats_snapshot().exec;
    assert_eq!(exec.plans_estimated, 1);
    assert_eq!(exec.estimated_rows, 1);
    assert_eq!(exec.actual_rows, 1);
    assert_eq!(exec.estimate_abs_error, 0);
    assert!(exec.index_seeks >= 1, "window query pruned via the index");
}

#[test]
fn explain_says_when_a_query_has_no_time_window() {
    let repo = figure1_repo("explain_no_window", 512);
    let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
    let out = wh.query(FIGURE1_Q2).unwrap();
    assert_eq!(
        out.report
            .stages
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        vec!["logical", "optimized", "rewritten", "explain"]
    );
    // Q2 has no sample-time predicate: nothing was seeked or swept.
    let explain = explain_stage(&out.report.stages).unwrap();
    assert!(
        explain.contains("access data: no sample-time window;"),
        "{explain}"
    );
    assert_eq!(wh.stats_snapshot().exec.index_seeks, 0);
}

#[test]
fn plan_preview_shows_the_plan_the_query_runs() {
    let repo = figure1_repo("preview_truth", 512);
    let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
    // Three explicit joins, as written `(d ⋈ r) ⋈ f`: the cost model puts
    // the filtered `files` first, so the costed and the heuristic
    // optimizer disagree on this one — and the preview must show the
    // costed order, because that is what `query` executes and what keys
    // the recycler.
    let sql = "SELECT f.station, COUNT(*) FROM mseed.data d \
               JOIN mseed.records r ON d.file_id = r.file_id AND d.seq_no = r.seq_no \
               JOIN mseed.files f ON r.file_id = f.file_id \
               WHERE f.network = 'NL' GROUP BY f.station";
    let optimized = |stages: Vec<(String, String)>| {
        stages
            .into_iter()
            .find(|(stage, _)| stage == "optimized")
            .map(|(_, plan)| plan)
            .expect("optimized stage")
    };
    let preview = optimized(wh.plan_preview(sql).unwrap());
    let ran = optimized(wh.query(sql).unwrap().report.stages);
    assert_eq!(preview, ran);
}

#[test]
fn metadata_only_queries_are_costed_too() {
    let repo = figure1_repo("explain_meta", 512);
    let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
    let out = wh
        .query("SELECT station, channel FROM mseed.files ORDER BY station, channel")
        .unwrap();
    let explain = explain_stage(&out.report.stages).unwrap();
    // No external data touched: just the resident scan, estimated from
    // its zone-map statistics — a full scan estimates exactly its rows.
    assert!(explain.contains("join order: files"), "{explain}");
    assert!(
        explain.contains(&format!(
            "estimated rows: {n} | actual rows: {n} | abs error: 0",
            n = out.table.num_rows()
        )),
        "{explain}"
    );
    assert!(!explain.contains("access data:"), "{explain}");
}

// ---------------------------------------------------------------------------
// Property: costed lazy answers ≡ as-written eager answers, over random queries
// ---------------------------------------------------------------------------

fn station_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["HGN", "OPLO", "WIT", "WTSB", "ISK", "NOPE"])
}

fn agg_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["AVG", "MIN", "MAX", "SUM", "COUNT"])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 64,
    })]

    #[test]
    fn costed_equals_heuristic_on_windowed_aggregates(
        station in station_strategy(),
        agg in agg_strategy(),
        start_min in 10u32..20,
        len_min in 1u32..5,
    ) {
        let lo = format!("2010-01-12T22:{start_min:02}:00.000");
        let hi = format!("2010-01-12T22:{:02}:00.000", (start_min + len_min).min(59));
        check(&format!(
            "SELECT {agg}(D.sample_value) FROM mseed.dataview \
             WHERE F.station = '{station}' \
             AND D.sample_time >= '{lo}' AND D.sample_time < '{hi}'"
        ));
    }

    #[test]
    fn costed_equals_heuristic_on_metadata_joins(
        net in prop::sample::select(vec!["NL", "KO", "XX"]),
        min_seq in 0i64..4,
    ) {
        // Three-relation join chains with unique (aliased) column names
        // are exactly what the reorder pass rewrites; written here in a
        // deliberately suboptimal order. The `r2` self-join on both keys
        // matches each record once, so a reorder that loses a key shows.
        check(&format!(
            "SELECT f.station, r.seq_no \
             FROM mseed.records r JOIN mseed.files f ON r.file_id = f.file_id \
             JOIN mseed.records r2 ON r2.file_id = r.file_id AND r2.seq_no = r.seq_no \
             WHERE f.network = '{net}' AND r.seq_no > {min_seq} \
             ORDER BY f.station, r.seq_no LIMIT 40"
        ));
    }

    #[test]
    fn costed_equals_heuristic_on_grouped_dataview(
        channel in prop::sample::select(vec!["BHZ", "BHE"]),
        agg in agg_strategy(),
    ) {
        check(&format!(
            "SELECT F.station, {agg}(D.sample_value) FROM mseed.dataview \
             WHERE F.channel = '{channel}' \
             GROUP BY F.station ORDER BY F.station"
        ));
    }
}
