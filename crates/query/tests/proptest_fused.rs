//! Property-based oracle for aggregating over a join without building it:
//! `execute(Aggregate(Join))` — which folds the join's matches straight
//! into the accumulators when the shape allows — must equal
//! `execute(Aggregate(InlineData(execute(Join))))`, the materialized path,
//! to the bit (f64 bits, group order, errors) at threads {1, 2, 4} ×
//! morsel sizes {1, 7, 4096}.
//!
//! `proptest_parallel`'s single table has neither probe-side key runs nor
//! duplicate build keys, so the cases here are two seeded tables: a build
//! side `b` whose keys match 0, 1 or 3 times, and a probe side `p` made of
//! key runs of length 1, 2 and `morsel_rows ± 1` (a separate test covers
//! runs of 4096 ± 1 and ≥ 3 × 4096), with NULL keys on both sides,
//! `BIGINT`/`INTEGER`/`VARCHAR` keys over one or two key columns, doubles
//! of mixed magnitude (so a changed addition order shows in the last
//! bits) and `BIGINT`s near overflow. Shapes that must fall back (a
//! probe-side group key, an argument reading both sides, a filter above
//! the join) run through the same oracle, and the join alone must emit its
//! rows in the serial (probe row, build row) order.

use lazyetl_query::exec::{execute, ExecContext};
use lazyetl_query::metrics::ExecMetrics;
use lazyetl_query::optimizer::optimize;
use lazyetl_query::planner::{plan_sql, TableSource};
use lazyetl_query::LogicalPlan;
use lazyetl_store::{Catalog, DataType, Field, Schema, Table, Value};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];
const MORSELS: [usize; 3] = [1, 7, 4096];

/// splitmix64: the case generator, seeded per proptest case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// NULL with probability `pct` percent, else `v`.
    fn maybe(&mut self, pct: u64, v: impl FnOnce(&mut Rng) -> Value) -> Value {
        if self.below(100) < pct {
            Value::Null
        } else {
            v(self)
        }
    }

    /// A double of mixed magnitude and sign with a full mantissa.
    fn mixed_f64(&mut self) -> f64 {
        let mantissa = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        sign * mantissa * 10f64.powi(self.below(16) as i32 - 4)
    }

    /// A `BIGINT` that is small, or close enough to ±2^62 that a few of
    /// them overflow an `i64` sum (and `n * 2` overflows outright).
    fn near_overflow(&mut self) -> i64 {
        match self.below(10) {
            0..=2 => i64::MAX / 2 + self.below(1000) as i64,
            3 => i64::MIN / 2 - self.below(1000) as i64,
            _ => self.below(2000) as i64 - 1000,
        }
    }
}

/// The key column type under test.
#[derive(Debug, Clone, Copy)]
enum KeyType {
    Int64,
    Int32,
    Utf8,
}

impl KeyType {
    fn data_type(self) -> DataType {
        match self {
            KeyType::Int64 => DataType::Int64,
            KeyType::Int32 => DataType::Int32,
            KeyType::Utf8 => DataType::Utf8,
        }
    }

    fn value(self, v: i64) -> Value {
        match self {
            KeyType::Int64 => Value::Int64(v * 1_000_003 - 5),
            KeyType::Int32 => Value::Int32(v as i32 - 2),
            KeyType::Utf8 => Value::Utf8(format!("k{v}")),
        }
    }
}

/// A key domain value no build row carries.
const UNMATCHED: i64 = 99;

fn table(fields: Vec<Field>, rows: Vec<Vec<Value>>) -> Table {
    let mut t = Table::empty(Schema::new(fields).unwrap());
    for row in rows {
        t.append_row(row).unwrap();
    }
    t
}

/// Build side: per key value 0, 1 or 3 rows, some NULL keys, shuffled.
fn build_table(rng: &mut Rng, kt: KeyType, domain: i64) -> Table {
    let mut rows = Vec::new();
    if rng.below(8) != 0 {
        for v in 0..domain {
            for _ in 0..rng.pick(&[0, 1, 1, 3]) {
                rows.push(vec![
                    kt.value(v),
                    Value::Int64(rng.below(2) as i64),
                    rng.maybe(10, |r| Value::Utf8(r.pick(&["a", "b", "c"]).into())),
                    rng.maybe(10, |r| Value::Int64(r.below(4) as i64)),
                    Value::Float64(rng.mixed_f64()),
                ]);
            }
        }
        for _ in 0..rng.below(3) {
            rows.push(vec![
                Value::Null,
                rng.maybe(50, |_| Value::Int64(0)),
                Value::Utf8("n".into()),
                Value::Int64(9),
                Value::Float64(1.0),
            ]);
        }
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    table(
        vec![
            Field::nullable("k1", kt.data_type()),
            Field::nullable("k2", DataType::Int64),
            Field::nullable("g1", DataType::Utf8),
            Field::nullable("g2", DataType::Int64),
            Field::nullable("bv", DataType::Float64),
        ],
        rows,
    )
}

/// Probe side: runs of one key (NULL, unmatched or from the domain) whose
/// lengths are drawn from `lens`; every row gets its own values.
fn probe_table(rng: &mut Rng, kt: KeyType, domain: i64, runs: usize, lens: &[usize]) -> Table {
    let mut rows = Vec::new();
    for _ in 0..runs {
        let k1 = match rng.below(10) {
            0 => Value::Null,
            1 => kt.value(UNMATCHED),
            _ => kt.value(rng.below(domain as u64) as i64),
        };
        let k2 = rng.maybe(5, |r| Value::Int64(r.below(2) as i64));
        for _ in 0..rng.pick(lens) {
            rows.push(vec![
                k1.clone(),
                k2.clone(),
                rng.maybe(10, |r| Value::Float64(r.mixed_f64())),
                rng.maybe(10, |r| Value::Int64(r.near_overflow())),
                rng.maybe(10, |r| Value::Utf8(r.pick(&["p", "q", "r", "s"]).into())),
                Value::Int32(rng.below(3) as i32),
            ]);
        }
    }
    table(
        vec![
            Field::nullable("k1", kt.data_type()),
            Field::nullable("k2", DataType::Int64),
            Field::nullable("x", DataType::Float64),
            Field::nullable("n", DataType::Int64),
            Field::nullable("s", DataType::Utf8),
            Field::new("pg", DataType::Int32),
        ],
        rows,
    )
}

/// An aggregate query and whether it may fold over the join: `Always`
/// when the build side is `b`, `IfEveryProbeRowJoins` for computed
/// arguments, `Never` for the fall-back shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fuses {
    Always,
    IfEveryProbeRowJoins,
    Never,
}

fn query_mix(on: &str) -> Vec<(String, Fuses)> {
    let q = |sql: &str, f| (sql.replace("ON", &format!("ON {on}")), f);
    vec![
        q(
            "SELECT COUNT(*), COUNT(p.x), SUM(p.x), AVG(p.x), MIN(p.x), MAX(p.x) \
             FROM b JOIN p ON",
            Fuses::Always,
        ),
        q(
            "SELECT b.g1, COUNT(*), SUM(p.n), AVG(p.n), MIN(p.s), MAX(p.s) \
             FROM b JOIN p ON GROUP BY b.g1",
            Fuses::Always,
        ),
        q(
            "SELECT b.g2, b.g1, COUNT(p.x), SUM(p.x), AVG(p.x), MIN(p.n), MAX(p.x) \
             FROM b JOIN p ON GROUP BY b.g2, b.g1",
            Fuses::Always,
        ),
        q(
            "SELECT b.g2, COUNT(DISTINCT p.s), SUM(p.x), MAX(p.pg) FROM b JOIN p ON GROUP BY b.g2",
            Fuses::Always,
        ),
        q(
            "SELECT lower(b.g1), MIN(p.x), COUNT(*) FROM b JOIN p ON GROUP BY lower(b.g1)",
            Fuses::Always,
        ),
        q(
            "SELECT b.g1, SUM(p.n * 2), AVG(p.x + 1.5) FROM b JOIN p ON GROUP BY b.g1",
            Fuses::IfEveryProbeRowJoins,
        ),
        // Fall-back shapes: a probe-side group key, an argument over both
        // sides, a filter between the aggregate and the join.
        q(
            "SELECT p.pg, COUNT(*), SUM(p.x) FROM b JOIN p ON GROUP BY p.pg",
            Fuses::Never,
        ),
        q(
            "SELECT b.g1, SUM(p.x + b.bv) FROM b JOIN p ON GROUP BY b.g1",
            Fuses::Never,
        ),
        q(
            "SELECT b.g1, SUM(p.x) FROM b JOIN p ON WHERE p.x > b.bv GROUP BY b.g1",
            Fuses::Never,
        ),
    ]
}

/// `plan` with every aggregate's input executed first and injected as
/// rows — the materialized path the fused one must reproduce.
fn materialized(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> Result<LogicalPlan, String> {
    match plan {
        LogicalPlan::Aggregate {
            input,
            group,
            aggregates,
        } => Ok(LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::InlineData {
                label: "joined".into(),
                table: execute(input, ctx).map_err(|e| e.to_string())?,
            }),
            group: group.clone(),
            aggregates: aggregates.clone(),
        }),
        other => other.try_map_children(|c| materialized(c, ctx)),
    }
}

/// A table's schema and cells, doubles as their bits.
type Bits = (Vec<String>, Vec<Vec<String>>);

fn bits(t: &Table) -> Bits {
    let names = t
        .schema
        .fields
        .iter()
        .map(|f| format!("{}:{}", f.name, f.data_type))
        .collect();
    let rows = (0..t.num_rows())
        .map(|i| {
            t.row(i)
                .unwrap()
                .iter()
                .map(|v| match v {
                    Value::Float64(x) => format!("f64:{:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect();
    (names, rows)
}

fn plan(catalog: &Catalog, sql: &str) -> LogicalPlan {
    optimize(&plan_sql(sql, &TableSource::new(catalog)).unwrap()).unwrap()
}

/// Fused ≡ materialized over the whole thread × morsel grid; returns how
/// often the fused runs that succeeded actually fused, and how many did.
fn check(catalog: &Catalog, sql: &str, grid: &[(usize, usize)]) -> (u64, u64) {
    let plan = plan(catalog, sql);
    let (mut fused, mut ok) = (0, 0);
    for &(threads, morsel) in grid {
        let metrics = ExecMetrics::new();
        let ctx = ExecContext::new(catalog)
            .with_parallelism(threads)
            .with_morsel_rows(morsel);
        let got = execute(&plan, &ctx.with_metrics(&metrics))
            .map(|t| bits(&t))
            .map_err(|e| e.to_string());
        let ctx = ExecContext::new(catalog)
            .with_parallelism(threads)
            .with_morsel_rows(morsel);
        let want = materialized(&plan, &ctx)
            .and_then(|p| execute(&p, &ctx).map_err(|e| e.to_string()))
            .map(|t| bits(&t));
        assert_eq!(
            got, want,
            "{sql} diverged at threads={threads} morsel={morsel}"
        );
        if got.is_ok() {
            ok += 1;
            fused += metrics.snapshot().aggregates_fused;
        }
    }
    (fused, ok)
}

/// The rows of `b ⋈ p` in the serial emission order: the smaller side
/// builds (`b` only when strictly smaller), each probe row meets its
/// matching build rows in ascending order, NULL keys never match.
fn reference_join(b: &Table, p: &Table, keys: usize) -> Vec<(usize, usize)> {
    let key = |t: &Table, row: usize| -> Option<Vec<String>> {
        (0..keys)
            .map(|k| {
                let v = t.columns[k].get(row).unwrap();
                (!v.is_null()).then(|| format!("{v:?}"))
            })
            .collect()
    };
    let build_is_b = b.num_rows() < p.num_rows();
    let (build, probe) = if build_is_b { (b, p) } else { (p, b) };
    let mut pairs = Vec::new();
    for pr in 0..probe.num_rows() {
        let Some(pk) = key(probe, pr) else { continue };
        for br in 0..build.num_rows() {
            if key(build, br).as_ref() == Some(&pk) {
                pairs.push(if build_is_b { (br, pr) } else { (pr, br) });
            }
        }
    }
    pairs
}

fn full_grid() -> Vec<(usize, usize)> {
    THREADS
        .iter()
        .flat_map(|&t| MORSELS.iter().map(move |&m| (t, m)))
        .collect()
}

fn run_case(rng: &mut Rng, b: Table, p: Table, keys: usize, grid: &[(usize, usize)]) {
    let pairs = reference_join(&b, &p, keys);
    let mut probe_rows: Vec<usize> = pairs.iter().map(|&(_, pr)| pr).collect();
    probe_rows.dedup();
    let b_builds = b.num_rows() < p.num_rows();
    let every_probe_row_joins = probe_rows.len() == p.num_rows();

    let mut catalog = Catalog::new();
    catalog.create_table("b", b.clone()).unwrap();
    catalog.create_table("p", p.clone()).unwrap();
    let on = if keys == 1 {
        "b.k1 = p.k1".to_string()
    } else {
        "b.k1 = p.k1 AND b.k2 = p.k2".to_string()
    };

    // The join alone: the serial (probe row, build row) order everywhere.
    let joined = format!("SELECT * FROM b JOIN p ON {on}");
    let want: Vec<Vec<String>> = pairs
        .iter()
        .map(|&(br, pr)| {
            let mut row = b.row(br).unwrap();
            row.extend(p.row(pr).unwrap());
            row.iter().map(|v| format!("{v:?}")).collect()
        })
        .collect();
    let join_plan = plan(&catalog, &joined);
    for &(threads, morsel) in grid {
        let ctx = ExecContext::new(&catalog)
            .with_parallelism(threads)
            .with_morsel_rows(morsel);
        let t = execute(&join_plan, &ctx).unwrap();
        let got: Vec<Vec<String>> = (0..t.num_rows())
            .map(|i| t.row(i).unwrap().iter().map(|v| format!("{v:?}")).collect())
            .collect();
        assert_eq!(got, want, "join order at threads={threads} morsel={morsel}");
    }

    // A random subset of the mix keeps the debug-build suite short; the
    // seeds cover every shape.
    for (sql, fuses) in query_mix(&on) {
        if rng.below(3) == 0 {
            continue;
        }
        let (fused, ok) = check(&catalog, &sql, grid);
        let expect = match fuses {
            Fuses::Always => b_builds,
            Fuses::IfEveryProbeRowJoins => b_builds && every_probe_row_joins,
            Fuses::Never => false,
        };
        assert_eq!(
            fused,
            if expect { ok } else { 0 },
            "{sql}: fused {fused} of {ok} runs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused ≡ materialized on seeded tables with short key runs.
    #[test]
    fn fused_aggregate_matches_materialized_join(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let kt = rng.pick(&[KeyType::Int64, KeyType::Int32, KeyType::Utf8]);
        let keys = rng.pick(&[1, 2]);
        let domain = 1 + rng.below(5) as i64;
        let b = build_table(&mut rng, kt, domain);
        let runs = rng.pick(&[0, 1, 4, 12, 24]);
        let p = probe_table(&mut rng, kt, domain, runs, &[1, 2, 6, 8]);
        run_case(&mut rng, b, p, keys, &full_grid());
    }
}

/// Runs as long as a morsel ± 1 and longer than three default morsels:
/// range cuts fall inside runs, at their edges and many times per run.
#[test]
fn long_key_runs_fold_like_the_materialized_join() {
    let mut rng = Rng(0x5EED_F05E);
    for kt in [KeyType::Int64, KeyType::Utf8] {
        let b = build_table(&mut rng, kt, 3);
        let p = probe_table(&mut rng, kt, 3, 4, &[4095, 4097, 3 * 4096 + 5]);
        // Morsel size 1 over ~20k rows is the slow corner in debug builds;
        // it is covered by the short-run cases above.
        let grid: Vec<(usize, usize)> = full_grid().into_iter().filter(|&(_, m)| m > 1).collect();
        run_case(&mut rng, b, p, 1, &grid);
    }
}
