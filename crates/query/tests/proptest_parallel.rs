//! Property-based oracle for morsel-driven execution: on **arbitrary**
//! NULL-mixed tables, every supported query shape must render
//! byte-identically (via `Table::to_ascii`) under serial and parallel
//! execution, for thread counts {1, 2, 4, 8} crossed with morsel sizes
//! {1, 7, 4096} — one row per morsel, a prime that never divides the
//! input evenly, and the default. Queries that error must produce the
//! **same** error on every decomposition.
//!
//! Floats are generated dyadic (sixteenths) so sums are exactly
//! representable and any summation order yields the same bits; what the
//! oracle then pins is everything else — row order, group order, NULL
//! handling, join match order, DISTINCT de-dup order, and error choice.

use lazyetl_query::exec::{execute, ExecContext};
use lazyetl_query::optimizer::optimize;
use lazyetl_query::planner::{plan_sql, TableSource};
use lazyetl_store::{Catalog, DataType, Field, Schema, Table, Value};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const MORSELS: [usize; 3] = [1, 7, 4096];

/// One generated row: every column independently nullable, floats dyadic.
type Row = (
    Option<i64>,    // id   BIGINT
    Option<i32>,    // q    INTEGER
    Option<f64>,    // v    DOUBLE (dyadic)
    Option<String>, // name VARCHAR
    Option<i64>,    // t    TIMESTAMP
    Option<bool>,   // flag BOOLEAN
);

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop::option::of(-1000i64..1000),
        prop::option::of(-50i32..50),
        prop::option::of((-16_000i32..16_000).prop_map(|x| f64::from(x) / 16.0)),
        prop::option::of("[a-d]{0,3}"),
        prop::option::of(0i64..5_000_000),
        prop::option::of(any::<bool>()),
    )
}

fn table_of(rows: &[Row]) -> Table {
    let schema = Schema::new(vec![
        Field::nullable("id", DataType::Int64),
        Field::nullable("q", DataType::Int32),
        Field::nullable("v", DataType::Float64),
        Field::nullable("name", DataType::Utf8),
        Field::nullable("t", DataType::Timestamp),
        Field::nullable("flag", DataType::Bool),
    ])
    .unwrap();
    let mut t = Table::empty(schema);
    for (id, q, v, name, ts, flag) in rows {
        t.append_row(vec![
            id.map_or(Value::Null, Value::Int64),
            q.map_or(Value::Null, Value::Int32),
            v.map_or(Value::Null, Value::Float64),
            name.clone().map_or(Value::Null, Value::Utf8),
            ts.map_or(Value::Null, Value::Timestamp),
            flag.map_or(Value::Null, Value::Bool),
        ])
        .unwrap();
    }
    t
}

/// The Figure-1-flavoured query mix, parameterized by generated bounds so
/// selectivities vary from empty to everything per case.
fn query_mix(bound: i64, fbound: f64, s: &str) -> Vec<String> {
    vec![
        // Fused filter/project pipelines.
        format!("SELECT id, v FROM t WHERE id > {bound}"),
        format!("SELECT id + q AS sq, v * 2.0 AS dv FROM t WHERE v < {fbound}"),
        format!("SELECT name FROM t WHERE name = '{s}' OR id <= {bound}"),
        format!("SELECT id, id / (q - q) AS div0 FROM t WHERE q IS NOT NULL"),
        // Aggregation: global, grouped on a NULLable key, multi-key,
        // DISTINCT, every function.
        "SELECT COUNT(*), COUNT(v), SUM(id), SUM(v), AVG(v), MIN(name), MAX(t) FROM t".into(),
        "SELECT name, COUNT(*) AS n, SUM(v) AS sv, MIN(id), MAX(id) FROM t GROUP BY name".into(),
        format!(
            "SELECT q, COUNT(DISTINCT name) AS dn, AVG(v) AS av FROM t \
             WHERE id > {bound} GROUP BY q"
        ),
        "SELECT flag, q, COUNT(*) FROM t GROUP BY flag, q".into(),
        // Single-column keys with their own keying (NULLable Utf8, Int32,
        // Timestamp), each with DISTINCT beside plain aggregates.
        "SELECT name, COUNT(DISTINCT q) AS dq, COUNT(*) AS n, SUM(v) AS sv, MIN(t) FROM t \
         GROUP BY name"
            .into(),
        "SELECT q, COUNT(DISTINCT name) AS dn, COUNT(v), MAX(v), SUM(id) FROM t GROUP BY q".into(),
        "SELECT t, COUNT(DISTINCT flag) AS df, COUNT(*) AS n, AVG(v) AS av, MIN(name) FROM t \
         GROUP BY t"
            .into(),
        format!(
            "SELECT name, COUNT(*) AS n FROM t GROUP BY name \
             HAVING COUNT(*) >= 2 ORDER BY n DESC, name LIMIT 5"
        ),
        // Joins: single generic key and packed integer key, self-joins so
        // one generated table exercises both sides.
        "SELECT a.id, b.id FROM t a JOIN t b ON a.name = b.name".into(),
        format!("SELECT a.id, b.q FROM t a JOIN t b ON a.q = b.q WHERE a.id > {bound}"),
        // Serial tails over parallel producers.
        "SELECT DISTINCT name, flag FROM t".into(),
        "SELECT id, v FROM t ORDER BY v DESC, id LIMIT 7".into(),
    ]
}

fn run(
    catalog: &Catalog,
    sql: &str,
    parallelism: usize,
    morsel_rows: usize,
) -> Result<String, String> {
    let src = TableSource::new(catalog);
    let plan =
        optimize(&plan_sql(sql, &src).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let ctx = ExecContext::new(catalog)
        .with_parallelism(parallelism)
        .with_morsel_rows(morsel_rows);
    execute(&plan, &ctx)
        .map(|t| t.to_ascii(usize::MAX))
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel ≡ serial, byte for byte, errors included, on arbitrary
    /// tables across the full thread × morsel grid.
    #[test]
    fn parallel_execution_matches_serial_oracle(
        rows in prop::collection::vec(row_strategy(), 0..80),
        bound in -1000i64..1000,
        fbound in -1000.0f64..1000.0,
        s in "[a-d]{0,2}",
    ) {
        let mut catalog = Catalog::new();
        catalog.create_table("t", table_of(&rows)).unwrap();
        for sql in query_mix(bound, fbound, &s) {
            let serial = run(&catalog, &sql, 1, 4096);
            for &threads in &THREADS {
                for &morsel in &MORSELS {
                    let got = run(&catalog, &sql, threads, morsel);
                    prop_assert_eq!(
                        &got,
                        &serial,
                        "{} diverged at threads={} morsel={}",
                        sql,
                        threads,
                        morsel
                    );
                }
            }
        }
    }

    /// Unorderable comparisons keep erroring identically when the failing
    /// rows land in different morsels.
    #[test]
    fn error_rows_fail_identically_anywhere_in_the_table(
        rows in prop::collection::vec(row_strategy(), 1..60),
    ) {
        let mut catalog = Catalog::new();
        catalog.create_table("t", table_of(&rows)).unwrap();
        // Timestamp-vs-float is unorderable whenever `t` is non-NULL; with
        // all-NULL `t` columns both paths must instead agree on success.
        let sql = "SELECT id FROM t WHERE t > 0.5";
        let serial = run(&catalog, sql, 1, 4096);
        for &threads in &THREADS {
            for &morsel in &MORSELS {
                let got = run(&catalog, sql, threads, morsel);
                prop_assert_eq!(&got, &serial, "threads={} morsel={}", threads, morsel);
            }
        }
    }
}
