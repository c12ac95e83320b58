//! Plan execution: column-at-a-time operators with full materialization,
//! parallelized morsel-at-a-time.
//!
//! Every operator consumes whole tables and produces a whole table — the
//! execution model of MonetDB, the paper's host system. Full
//! materialization is what makes *intermediate result recycling* (the
//! paper's lazy-loading cache, §3.3) a natural fit: any intermediate is a
//! complete table that can be cached and reused.
//!
//! With [`ExecContext::parallelism`] > 1 the load-bearing operators go
//! morsel-driven: inputs split into fixed-size row ranges
//! ([`ExecContext::morsel_rows`] each), workers claim morsels from the
//! shared pool ([`lazyetl_store::parallel`]), and a serial merge step
//! reassembles the partial results **in morsel order**. The decomposition
//! depends only on the input row count and the morsel size — never on the
//! thread count — so a configuration is deterministic at any parallelism,
//! and the merge rules are chosen so parallel output ≡ serial output
//! row-for-row (`tests/parallel_exec.rs` and `tests/proptest_parallel.rs`
//! pin this):
//!
//! - **Filter/Project** chains are elementwise, so filtering/projecting
//!   each morsel and concatenating equals the whole-table pass exactly.
//! - **Aggregation** is one path at every thread count: accumulate each
//!   row range into a partial, merge partials in range order, finish.
//!   Serial execution is the one-range case. Groups enter the output in
//!   first-appearance order across ranges, which is one scan's
//!   first-appearance order. Integer SUM accumulates in `i128` so
//!   overflow is detected at finish time from the true total — the same
//!   answer for any decomposition. The result recycler patches cached
//!   aggregates with the same merge ([`merge_state_tables`]).
//! - **Join** partitions both sides by deterministic key hash,
//!   builds/probes per partition, and stable-sorts the matched index
//!   pairs back into the serial probe order.
//! - Sort, Limit and Distinct stay serial — they are merge-dominated.
//!
//! An erroring or panicking morsel surfaces the **first** error in morsel
//! (= row) order and discards the rest, never a partial table.

use crate::error::{QueryError, Result};
use crate::expr::{
    eval_expr_opts, eval_predicate_mask_opts, infer_type, AggFunc, EvalOptions, Expr,
};
use crate::maintain::MergeSpec;
use crate::metrics::ExecMetrics;
use crate::plan::LogicalPlan;
use lazyetl_store::parallel::{try_parallel_map, WorkerPanic};
use lazyetl_store::{Catalog, Column, DataType, Field, GroupKey, Schema, Table, Value};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Default rows per morsel: large enough to amortize dispatch, small
/// enough that a 100k-row extraction still fans out across a few cores.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Execution context: the catalog and the execution-mode knobs
/// (vectorization, zone-map pruning, counters).
pub struct ExecContext<'a> {
    /// Catalog with resident tables.
    pub catalog: &'a Catalog,
    /// Cumulative counters to update while executing (shared across
    /// queries by the warehouse). `None` executes uncounted.
    pub metrics: Option<&'a ExecMetrics>,
    /// Run expression batches through the typed kernels (with scalar
    /// fallback) and pack integer join keys. `false` pins the
    /// row-at-a-time reference paths — the E15 ablation baseline.
    pub vectorized: bool,
    /// Short-circuit a filter directly above a table scan when the
    /// table's zone map proves the predicate empty.
    pub zone_map_pruning: bool,
    /// Worker threads available to one query's pipelines. `1` (the
    /// default) pins the serial reference path; higher values enable the
    /// morsel-driven operators.
    pub parallelism: usize,
    /// Rows per morsel for the parallel operators. The morsel
    /// decomposition depends only on this and the input row count —
    /// never on `parallelism` — so results are deterministic at any
    /// thread count.
    pub morsel_rows: usize,
}

impl<'a> ExecContext<'a> {
    /// Context over a catalog; vectorized execution and zone-map pruning
    /// are on, counters off.
    pub fn new(catalog: &'a Catalog) -> ExecContext<'a> {
        ExecContext {
            catalog,
            metrics: None,
            vectorized: true,
            zone_map_pruning: true,
            parallelism: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }

    /// Attach cumulative executor counters.
    pub fn with_metrics(mut self, metrics: &'a ExecMetrics) -> ExecContext<'a> {
        self.metrics = Some(metrics);
        self
    }

    /// Set the worker-thread budget for this query's pipelines.
    pub fn with_parallelism(mut self, threads: usize) -> ExecContext<'a> {
        self.parallelism = threads.max(1);
        self
    }

    /// Override the morsel size (rows per parallel work unit).
    pub fn with_morsel_rows(mut self, rows: usize) -> ExecContext<'a> {
        self.morsel_rows = rows.max(1);
        self
    }

    /// The expression-evaluation options implied by this context.
    fn eval_opts(&self) -> EvalOptions<'a> {
        EvalOptions {
            vectorized: self.vectorized,
            metrics: self.metrics,
        }
    }

    /// Count rows produced by a leaf scan.
    fn count_scan(&self, rows: usize) {
        if let Some(m) = self.metrics {
            m.add_rows_scanned(rows as u64);
        }
    }

    /// Count one operator going parallel with `n` dispatched morsels.
    fn count_parallel(&self, n: usize) {
        if let Some(m) = self.metrics {
            m.add_parallel_pipeline();
            m.add_morsels_dispatched(n as u64);
        }
    }

    /// Account the serial merge tail of a parallel operator.
    fn count_merge(&self, started: Instant) {
        if let Some(m) = self.metrics {
            m.add_merge_ns(started.elapsed().as_nanos() as u64);
        }
    }
}

/// Fixed-size row ranges `(offset, len)` covering `rows`; the last morsel
/// holds the remainder. A function of `(rows, morsel_rows)` only.
fn morsel_ranges(rows: usize, morsel_rows: usize) -> Vec<(usize, usize)> {
    let step = morsel_rows.max(1);
    (0..rows)
        .step_by(step)
        .map(|off| (off, step.min(rows - off)))
        .collect()
}

/// Collapse per-morsel outcomes to the **first** failure in morsel order
/// — the same error the serial left-to-right pass would raise first — or
/// all results. A caught worker panic surfaces as a `QueryError` so one
/// poisoned morsel fails one query, never the pool or the process.
fn join_morsels<T>(results: Vec<std::result::Result<Result<T>, WorkerPanic>>) -> Result<Vec<T>> {
    results
        .into_iter()
        .map(|r| match r {
            Ok(r) => r,
            Err(p) => Err(QueryError::Execution(p.to_string())),
        })
        .collect()
}

/// Execute a logical plan to a materialized table.
pub fn execute(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> Result<Arc<Table>> {
    match plan {
        LogicalPlan::TableScan { table, .. } => {
            let t = ctx
                .catalog
                .table_arc(table)
                .ok_or_else(|| QueryError::Execution(format!("table {table:?} disappeared")))?;
            ctx.count_scan(t.num_rows());
            Ok(t)
        }
        LogicalPlan::ExternalScan { name, .. } => Err(QueryError::Execution(format!(
            "external table {name:?} reached the executor (lazy rewriter not engaged)"
        ))),
        LogicalPlan::InlineData { table, .. } => {
            ctx.count_scan(table.num_rows());
            Ok(table.clone())
        }
        LogicalPlan::OneRow => {
            let schema = Schema::new(vec![Field::new("__onerow", DataType::Bool)])
                .map_err(QueryError::Store)?;
            let mut t = Table::empty(schema);
            t.append_row(vec![Value::Bool(true)])
                .map_err(QueryError::Store)?;
            Ok(Arc::new(t))
        }
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => execute_pipeline(plan, ctx),
        LogicalPlan::Aggregate {
            input,
            group,
            aggregates,
        } => execute_aggregate(input, group, aggregates, ctx),
        LogicalPlan::Join {
            left,
            right,
            on,
            right_label,
        } => execute_join(left, right, on, right_label, ctx),
        LogicalPlan::Sort { input, keys } => {
            let table = execute(input, ctx)?;
            let indices = sort_indices(&table, keys, &ctx.eval_opts())?;
            Ok(Arc::new(table.take(&indices).map_err(QueryError::Store)?))
        }
        LogicalPlan::Limit { input, n } => {
            let table = execute(input, ctx)?;
            let keep = (*n as usize).min(table.num_rows());
            let indices: Vec<usize> = (0..keep).collect();
            Ok(Arc::new(table.take(&indices).map_err(QueryError::Store)?))
        }
        LogicalPlan::Distinct { input } => {
            let table = execute(input, ctx)?;
            let mut seen: HashSet<Vec<GroupKey>> = HashSet::new();
            let mut keep = Vec::new();
            for row in 0..table.num_rows() {
                let key: Vec<GroupKey> = table
                    .columns
                    .iter()
                    .map(|c| c.get(row).map(|v| v.group_key()))
                    .collect::<lazyetl_store::Result<_>>()
                    .map_err(QueryError::Store)?;
                if seen.insert(key) {
                    keep.push(row);
                }
            }
            Ok(Arc::new(table.take(&keep).map_err(QueryError::Store)?))
        }
    }
}

// ---------------------------------------------------------------------------
// Filter/Project pipelines
// ---------------------------------------------------------------------------

/// One elementwise operator in a Filter/Project chain.
enum PipeOp<'p> {
    Filter(&'p Expr),
    Project(&'p [(Expr, String)]),
}

/// Apply a chain of elementwise ops (innermost first) to one table — a
/// whole input or a single morsel of it. Because every op maps row `i` of
/// its input from row `i` alone, applying the chain per morsel and
/// concatenating in morsel order is exactly the whole-table pass.
fn apply_pipe_ops(
    mut table: Arc<Table>,
    ops: &[PipeOp<'_>],
    ctx: &ExecContext<'_>,
) -> Result<Arc<Table>> {
    for op in ops {
        table = match op {
            PipeOp::Filter(predicate) => {
                let mask = eval_predicate_mask_opts(predicate, &table, &ctx.eval_opts())?;
                Arc::new(table.filter(&mask).map_err(QueryError::Store)?)
            }
            PipeOp::Project(exprs) => {
                let mut fields = Vec::with_capacity(exprs.len());
                let mut columns = Vec::with_capacity(exprs.len());
                for (e, name) in *exprs {
                    let col = eval_expr_opts(e, &table, &ctx.eval_opts())?;
                    fields.push(Field::nullable(name, col.data_type()));
                    columns.push(col);
                }
                let schema = Schema::new(fields).map_err(QueryError::Store)?;
                Arc::new(Table::new(schema, columns).map_err(QueryError::Store)?)
            }
        };
    }
    Ok(table)
}

/// Execute a maximal Filter/Project chain as one pipeline: evaluate the
/// chain's source once, then run the whole op chain over each morsel so
/// intermediate results stay morsel-sized and never materialize whole
/// between chained operators.
fn execute_pipeline(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> Result<Arc<Table>> {
    // Collect the chain outermost-first; `source` is the first non-chain
    // node below it.
    let mut ops: Vec<PipeOp<'_>> = Vec::new();
    let mut source = plan;
    loop {
        match source {
            LogicalPlan::Filter { input, predicate } => {
                ops.push(PipeOp::Filter(predicate));
                source = input;
            }
            LogicalPlan::Project { input, exprs } => {
                ops.push(PipeOp::Project(exprs));
                source = input;
            }
            _ => break,
        }
    }

    // Zone-map pruning: a filter directly above a resident scan — the
    // innermost op of the chain — whose predicate provably excludes the
    // table's [min, max] range short-circuits to an empty scan result;
    // the rows are never touched. `predicate_excludes` is conservative,
    // so results never change, only the work done. The shape check comes
    // first: predicates with no decidable conjunct can never prune, so
    // their tables never pay the zone-map statistics pass.
    let mut pruned_scan: Option<Arc<Table>> = None;
    if let Some(PipeOp::Filter(predicate)) = ops.last() {
        if ctx.zone_map_pruning && crate::prune::has_prunable_conjunct(predicate) {
            if let LogicalPlan::TableScan { table, schema } = source {
                if let Some(stats) = ctx.catalog.zone_map(table) {
                    if crate::prune::predicate_excludes(predicate, &stats) {
                        let pruned: usize = stats.first().map_or(0, |s| s.count);
                        if let Some(m) = ctx.metrics {
                            m.add_rows_pruned(pruned as u64);
                        }
                        ops.pop(); // the pruned filter is already answered
                        pruned_scan = Some(Arc::new(Table::empty(schema.clone())));
                    }
                }
            }
        }
    }
    let table = match pruned_scan {
        Some(t) => t,
        None => execute(source, ctx)?,
    };
    ops.reverse(); // apply innermost first

    let rows = table.num_rows();
    if ctx.parallelism <= 1 || rows <= ctx.morsel_rows {
        return apply_pipe_ops(table, &ops, ctx);
    }
    let ranges = morsel_ranges(rows, ctx.morsel_rows);
    ctx.count_parallel(ranges.len());
    let results = try_parallel_map(&ranges, ctx.parallelism, |&(off, len)| -> Result<Table> {
        let morsel = table.slice(off, len).map_err(QueryError::Store)?;
        let out = apply_pipe_ops(Arc::new(morsel), &ops, ctx)?;
        Ok(Arc::try_unwrap(out).unwrap_or_else(|a| (*a).clone()))
    });
    let parts = join_morsels(results)?;
    let merge_started = Instant::now();
    let mut iter = parts.into_iter();
    let mut out = iter.next().expect("rows > morsel_rows implies >= 1 morsel");
    for p in iter {
        out.append_table(&p).map_err(QueryError::Store)?;
    }
    ctx.count_merge(merge_started);
    Ok(Arc::new(out))
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Accumulator {
    Count {
        n: i64,
    },
    /// Integer SUM accumulates in `i128` and range-checks once at
    /// [`Accumulator::finish`]: overflow is decided by the **true total**,
    /// so serial, morselized and merged runs all agree on whether a sum
    /// overflows (a running `i64` would make it depend on evaluation
    /// order — an intermediate may overflow even when the total fits).
    SumInt {
        sum: i128,
        any: bool,
    },
    SumFloat {
        sum: f64,
        any: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min {
        best: Option<Value>,
    },
    Max {
        best: Option<Value>,
    },
}

impl Accumulator {
    fn new(func: AggFunc, arg_type: Option<DataType>) -> Accumulator {
        match func {
            AggFunc::Count => Accumulator::Count { n: 0 },
            AggFunc::Sum => match arg_type {
                Some(DataType::Float64) => Accumulator::SumFloat {
                    sum: 0.0,
                    any: false,
                },
                _ => Accumulator::SumInt { sum: 0, any: false },
            },
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Accumulator::Min { best: None },
            AggFunc::Max => Accumulator::Max { best: None },
        }
    }

    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Accumulator::Count { n } => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            Accumulator::SumInt { sum, any } => {
                if let Some(x) = v.as_i64() {
                    *sum += x as i128;
                    *any = true;
                }
            }
            Accumulator::SumFloat { sum, any } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *any = true;
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *n += 1;
                }
            }
            Accumulator::Min { best } => {
                if !v.is_null() {
                    let replace = match best {
                        None => true,
                        Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Less),
                    };
                    if replace {
                        *best = Some(v.clone());
                    }
                }
            }
            Accumulator::Max { best } => {
                if !v.is_null() {
                    let replace = match best {
                        None => true,
                        Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Greater),
                    };
                    if replace {
                        *best = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Typed update for a non-NULL integer-family value (`dt` distinguishes
    /// `Int32`/`Int64`/`Timestamp` so MIN/MAX reproduce the input type).
    /// Semantics match [`Accumulator::update`] with the boxed `Value`:
    /// integers feed SUM/AVG both ways; no allocation anywhere.
    #[inline]
    fn update_i64(&mut self, x: i64, dt: DataType) -> Result<()> {
        let make = |x: i64| match dt {
            DataType::Int32 => Value::Int32(x as i32),
            DataType::Timestamp => Value::Timestamp(x),
            _ => Value::Int64(x),
        };
        match self {
            Accumulator::Count { n } => *n += 1,
            Accumulator::SumInt { sum, any } => {
                *sum += x as i128;
                *any = true;
            }
            Accumulator::SumFloat { sum, any } => {
                *sum += x as f64;
                *any = true;
            }
            Accumulator::Avg { sum, n } => {
                *sum += x as f64;
                *n += 1;
            }
            Accumulator::Min { best } => {
                if best.as_ref().and_then(|b| b.as_i64()).is_none_or(|b| x < b) {
                    *best = Some(make(x));
                }
            }
            Accumulator::Max { best } => {
                if best.as_ref().and_then(|b| b.as_i64()).is_none_or(|b| x > b) {
                    *best = Some(make(x));
                }
            }
        }
        Ok(())
    }

    /// Typed update for a non-NULL float. SUM over an integer-typed
    /// accumulator skips floats, exactly like the boxed path
    /// (`Value::as_i64` answers `None` for `Float64`).
    #[inline]
    fn update_f64(&mut self, x: f64) {
        match self {
            Accumulator::Count { n } => *n += 1,
            Accumulator::SumInt { .. } => {}
            Accumulator::SumFloat { sum, any } => {
                *sum += x;
                *any = true;
            }
            Accumulator::Avg { sum, n } => {
                *sum += x;
                *n += 1;
            }
            Accumulator::Min { best } => {
                let replace = match best.as_ref().and_then(|b| b.as_f64()) {
                    None => true,
                    Some(b) => x.total_cmp(&b).is_lt(),
                };
                if replace {
                    *best = Some(Value::Float64(x));
                }
            }
            Accumulator::Max { best } => {
                let replace = match best.as_ref().and_then(|b| b.as_f64()) {
                    None => true,
                    Some(b) => x.total_cmp(&b).is_gt(),
                };
                if replace {
                    *best = Some(Value::Float64(x));
                }
            }
        }
    }

    /// Typed update for a non-NULL string: MIN/MAX compare the **borrowed**
    /// `&str` and clone only when the champion actually changes — the boxed
    /// path had to clone every row's string just to look at it.
    #[inline]
    fn update_str(&mut self, s: &str) {
        match self {
            Accumulator::Count { n } => *n += 1,
            // Strings feed neither SUM nor AVG (as_i64/as_f64 are None).
            Accumulator::SumInt { .. } | Accumulator::SumFloat { .. } | Accumulator::Avg { .. } => {
            }
            Accumulator::Min { best } => {
                if best.as_ref().and_then(|b| b.as_str()).is_none_or(|b| s < b) {
                    *best = Some(Value::Utf8(s.to_string()));
                }
            }
            Accumulator::Max { best } => {
                if best.as_ref().and_then(|b| b.as_str()).is_none_or(|b| s > b) {
                    *best = Some(Value::Utf8(s.to_string()));
                }
            }
        }
    }

    /// The accumulator a finished state-table cell came from: the inverse
    /// of [`Accumulator::finish`] for the aggregate `spec` names. `row` is
    /// the whole state row and `col` the cell's position in it; AVG reads
    /// its hidden SUM/COUNT companions instead of its own cell.
    fn from_state(spec: MergeSpec, row: &[Value], col: usize) -> Result<Accumulator> {
        let cell = &row[col];
        let typed = |what: &str| QueryError::Execution(format!("non-{what} SUM state {cell}"));
        Ok(match spec {
            MergeSpec::Count => Accumulator::Count {
                n: cell.as_i64().unwrap_or(0),
            },
            MergeSpec::SumInt if cell.is_null() => Accumulator::SumInt { sum: 0, any: false },
            MergeSpec::SumInt => Accumulator::SumInt {
                sum: cell.as_i64().ok_or_else(|| typed("integer"))? as i128,
                any: true,
            },
            MergeSpec::SumFloat if cell.is_null() => Accumulator::SumFloat {
                sum: 0.0,
                any: false,
            },
            MergeSpec::SumFloat => Accumulator::SumFloat {
                sum: cell.as_f64().ok_or_else(|| typed("numeric"))?,
                any: true,
            },
            MergeSpec::Min => Accumulator::Min {
                best: (!cell.is_null()).then(|| cell.clone()),
            },
            MergeSpec::Max => Accumulator::Max {
                best: (!cell.is_null()).then(|| cell.clone()),
            },
            MergeSpec::Avg { sum_col, cnt_col } => Accumulator::Avg {
                sum: row.get(sum_col).and_then(Value::as_f64).unwrap_or(0.0),
                n: row.get(cnt_col).and_then(Value::as_i64).unwrap_or(0),
            },
        })
    }

    /// Fold a later partial's state (`other`, same variant) into `self`.
    /// MIN/MAX go through [`Accumulator::update`], whose `Value::sql_cmp`
    /// orders floats totally, exactly like the typed sweeps.
    fn merge(&mut self, other: &Accumulator) -> Result<()> {
        match (self, other) {
            (Accumulator::Count { n }, Accumulator::Count { n: m }) => *n += m,
            (Accumulator::SumInt { sum, any }, Accumulator::SumInt { sum: s, any: a }) => {
                *sum += s;
                *any |= a;
            }
            (Accumulator::SumFloat { sum, any }, Accumulator::SumFloat { sum: s, any: a }) => {
                *sum += s;
                *any |= a;
            }
            (Accumulator::Avg { sum, n }, Accumulator::Avg { sum: s, n: m }) => {
                *sum += s;
                *n += m;
            }
            (me @ Accumulator::Min { .. }, Accumulator::Min { best: Some(v) })
            | (me @ Accumulator::Max { .. }, Accumulator::Max { best: Some(v) }) => me.update(v)?,
            (Accumulator::Min { .. }, Accumulator::Min { best: None })
            | (Accumulator::Max { .. }, Accumulator::Max { best: None }) => {}
            _ => {
                return Err(QueryError::Execution(
                    "accumulator variant mismatch in merge".into(),
                ))
            }
        }
        Ok(())
    }

    fn finish(&self) -> Result<Value> {
        Ok(match self {
            Accumulator::Count { n } => Value::Int64(*n),
            Accumulator::SumInt { sum, any } => {
                if *any {
                    let total = i64::try_from(*sum)
                        .map_err(|_| QueryError::Execution("SUM overflow".into()))?;
                    Value::Int64(total)
                } else {
                    Value::Null
                }
            }
            Accumulator::SumFloat { sum, any } => {
                if *any {
                    Value::Float64(*sum)
                } else {
                    Value::Null
                }
            }
            Accumulator::Avg { sum, n } => {
                if *n > 0 {
                    Value::Float64(*sum / *n as f64)
                } else {
                    Value::Null
                }
            }
            Accumulator::Min { best } | Accumulator::Max { best } => {
                best.clone().unwrap_or(Value::Null)
            }
        })
    }
}

/// One aggregate call, decomposed.
struct AggSpec {
    func: AggFunc,
    arg: Option<Expr>,
    distinct: bool,
    arg_type: Option<DataType>,
}

/// Group states in first-appearance order: per group, its group-by values
/// and one accumulator per aggregate.
struct Groups {
    gvals: Vec<Vec<Value>>,
    accs: Vec<Vec<Accumulator>>,
}

/// What [`accumulate`] makes of one row range: its local groups and, per
/// DISTINCT aggregate (`None` for the others), the values each group saw
/// first in this range, in encounter order. A DISTINCT aggregate's
/// accumulators stay untouched until [`merge_partials`] replays those
/// values through a seen-set that spans all ranges.
struct Partial {
    groups: Groups,
    distinct_firsts: Vec<Option<Vec<Vec<Value>>>>,
}

/// Aggregation is one mechanism: [`accumulate`] each row range into a
/// [`Partial`], [`merge_partials`] in range order, [`finish_groups`].
/// Serial execution is the case "one range covering the input" (run
/// inline by `try_parallel_map`), so the answer of a query — group order,
/// float rounding, overflow — depends on `(rows, morsel_rows)` alone.
fn execute_aggregate(
    input: &LogicalPlan,
    group: &[(Expr, String)],
    aggregates: &[(Expr, String)],
    ctx: &ExecContext<'_>,
) -> Result<Arc<Table>> {
    let table = execute(input, ctx)?;
    let in_schema = &table.schema;

    // Decompose aggregate expressions.
    let specs: Vec<AggSpec> = aggregates
        .iter()
        .map(|(e, _)| match e {
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                let arg_type = match arg {
                    Some(a) => Some(infer_type(a, in_schema)?),
                    None => None,
                };
                Ok(AggSpec {
                    func: *func,
                    arg: arg.as_deref().cloned(),
                    distinct: *distinct,
                    arg_type,
                })
            }
            other => Err(QueryError::Execution(format!(
                "non-aggregate expression {other} in aggregate node"
            ))),
        })
        .collect::<Result<_>>()?;

    // Column-at-a-time: evaluate group keys and aggregate arguments as
    // whole columns once, then fold rows over the materialized columns.
    let group_cols: Vec<Column> = group
        .iter()
        .map(|(ge, _)| eval_expr_opts(ge, &table, &ctx.eval_opts()))
        .collect::<Result<_>>()?;
    let arg_cols: Vec<Option<Column>> = specs
        .iter()
        .map(|s| {
            s.arg
                .as_ref()
                .map(|a| eval_expr_opts(a, &table, &ctx.eval_opts()))
                .transpose()
        })
        .collect::<Result<_>>()?;

    let n_rows = table.num_rows();
    let ranges = if ctx.parallelism <= 1 || n_rows <= ctx.morsel_rows {
        vec![(0, n_rows)]
    } else {
        morsel_ranges(n_rows, ctx.morsel_rows)
    };
    let parallel = ranges.len() > 1;
    if parallel {
        ctx.count_parallel(ranges.len());
    }
    let results = try_parallel_map(&ranges, ctx.parallelism, |&(off, len)| {
        accumulate(
            off..off + len,
            &group_cols,
            &arg_cols,
            &specs,
            ctx.vectorized,
        )
    });
    let partials = join_morsels(results)?;
    let merge_started = Instant::now();
    let groups = merge_partials(partials)?;
    if parallel {
        ctx.count_merge(merge_started);
    }

    let mut fields = Vec::with_capacity(group.len() + aggregates.len());
    for (e, name) in group.iter().chain(aggregates) {
        fields.push(Field::nullable(name, infer_type(e, in_schema)?));
    }
    let schema = Schema::new(fields).map_err(QueryError::Store)?;
    Ok(Arc::new(finish_groups(schema, &groups)?))
}

/// Give every row of `rows` the id of its local group under a single
/// group-by column, read through the typed, allocation-free `key`; the
/// key is boxed into a `Value` once per **new group**. NULLs form one
/// group. Pushes the new groups' values onto `gvals` in first-appearance
/// order.
fn group_by_typed_key<K: Hash + Eq>(
    rows: std::ops::Range<usize>,
    col: &Column,
    key: impl Fn(usize) -> K,
    gvals: &mut Vec<Vec<Value>>,
) -> Result<Vec<u32>> {
    let mut gid_of: HashMap<K, u32> = HashMap::new();
    let mut null_group: Option<u32> = None;
    let mut group_of_row = Vec::with_capacity(rows.len());
    for row in rows {
        let next = gvals.len() as u32;
        let gid = if col.is_null(row) {
            *null_group.get_or_insert(next)
        } else {
            *gid_of.entry(key(row)).or_insert(next)
        };
        if gid == next {
            gvals.push(vec![col.get(row).map_err(QueryError::Store)?]);
        }
        group_of_row.push(gid);
    }
    Ok(group_of_row)
}

/// Accumulate the rows of `rows` into fresh local group states, groups in
/// first-appearance order. The keying specializations (global; one `Utf8`
/// column hashed by `&str`; one integer-family column hashed by `i64`)
/// only change how a row finds its group, never which group it finds; the
/// generic path boxes a `Vec<GroupKey>` per row.
fn accumulate(
    rows: std::ops::Range<usize>,
    group_cols: &[Column],
    arg_cols: &[Option<Column>],
    specs: &[AggSpec],
    vectorized: bool,
) -> Result<Partial> {
    use lazyetl_store::ColumnData as CD;
    let off = rows.start;
    let mut gvals: Vec<Vec<Value>> = Vec::new();
    let group_of_row: Vec<u32> = match group_cols {
        // A global aggregate has its one group even over zero rows.
        [] => {
            gvals.push(Vec::new());
            vec![0; rows.len()]
        }
        [col] => match col.data() {
            CD::Utf8(v) => group_by_typed_key(rows.clone(), col, |r| v[r].as_str(), &mut gvals)?,
            CD::Int64(v) | CD::Timestamp(v) => {
                group_by_typed_key(rows.clone(), col, |r| v[r], &mut gvals)?
            }
            CD::Int32(v) => group_by_typed_key(rows.clone(), col, |r| v[r], &mut gvals)?,
            _ => group_by_boxed_key(rows.clone(), group_cols, &mut gvals)?,
        },
        _ => group_by_boxed_key(rows.clone(), group_cols, &mut gvals)?,
    };
    let gid = |row: usize| group_of_row[row - off] as usize;

    let mut accs: Vec<Vec<Accumulator>> = gvals
        .iter()
        .map(|_| {
            specs
                .iter()
                .map(|s| Accumulator::new(s.func, s.arg_type))
                .collect()
        })
        .collect();
    let mut distinct_firsts: Vec<Option<Vec<Vec<Value>>>> = specs
        .iter()
        .map(|s| s.distinct.then(|| vec![Vec::new(); gvals.len()]))
        .collect();

    // One aggregate (= one argument column) at a time. With vectorized
    // execution on, a typed column sweeps through the matching `update_*`
    // method: the accumulator reads raw slice values and never boxes a
    // `Value` per row. DISTINCT aggregates, `Bool` columns and the
    // non-vectorized ablation take the boxed loop.
    for (i, arg_col) in arg_cols.iter().enumerate() {
        if let Some(firsts) = &mut distinct_firsts[i] {
            // Deduplicate within the range; `merge_partials` deduplicates
            // across ranges and does the updates.
            let mut seen: Vec<HashSet<GroupKey>> = vec![HashSet::new(); gvals.len()];
            for row in rows.clone() {
                let v = match arg_col {
                    None => Value::Int64(1),
                    Some(col) => col.get(row).map_err(QueryError::Store)?,
                };
                if !v.is_null() && seen[gid(row)].insert(v.group_key()) {
                    firsts[gid(row)].push(v);
                }
            }
            continue;
        }
        let Some(col) = arg_col else {
            // COUNT(*): every row counts one.
            for row in rows.clone() {
                accs[gid(row)][i].update(&Value::Int64(1))?;
            }
            continue;
        };
        let live = rows.clone().filter(|&row| !col.is_null(row));
        match col.data() {
            CD::Int64(data) | CD::Timestamp(data) if vectorized => {
                let dt = col.data_type();
                for row in live {
                    accs[gid(row)][i].update_i64(data[row], dt)?;
                }
            }
            CD::Int32(data) if vectorized => {
                for row in live {
                    accs[gid(row)][i].update_i64(data[row] as i64, DataType::Int32)?;
                }
            }
            CD::Float64(data) if vectorized => {
                for row in live {
                    accs[gid(row)][i].update_f64(data[row]);
                }
            }
            CD::Utf8(data) if vectorized => {
                for row in live {
                    accs[gid(row)][i].update_str(&data[row]);
                }
            }
            _ => {
                for row in rows.clone() {
                    let v = col.get(row).map_err(QueryError::Store)?;
                    accs[gid(row)][i].update(&v)?;
                }
            }
        }
    }
    Ok(Partial {
        groups: Groups { gvals, accs },
        distinct_firsts,
    })
}

/// [`group_by_typed_key`] for any number and type of group-by columns: the
/// key is the row's boxed `Vec<GroupKey>`.
fn group_by_boxed_key(
    rows: std::ops::Range<usize>,
    group_cols: &[Column],
    gvals: &mut Vec<Vec<Value>>,
) -> Result<Vec<u32>> {
    let mut gid_of: HashMap<Vec<GroupKey>, u32> = HashMap::new();
    let mut group_of_row = Vec::with_capacity(rows.len());
    for row in rows {
        let vals: Vec<Value> = group_cols
            .iter()
            .map(|col| col.get(row))
            .collect::<lazyetl_store::Result<_>>()
            .map_err(QueryError::Store)?;
        let next = gvals.len() as u32;
        let gid = *gid_of
            .entry(vals.iter().map(Value::group_key).collect())
            .or_insert(next);
        if gid == next {
            gvals.push(vals);
        }
        group_of_row.push(gid);
    }
    Ok(group_of_row)
}

/// Merge partials **in order** into global group states.
///
/// The answer depends on how the input was cut into partials only where
/// it must:
/// - a group enters the output with the first partial that has it, and
///   partials list groups in first-appearance order, so global group order
///   is the first-appearance order of one left-to-right scan;
/// - COUNT/MIN/MAX/SUM-over-int merges are associative over ordered
///   partials ([`Accumulator::merge`]); float SUM/AVG add partial sums in
///   partial order, so the cut alone determines rounding;
/// - DISTINCT aggregates replay each partial's first-seen values through
///   one seen-set per group, which is the update order of a single scan.
fn merge_partials(partials: Vec<Partial>) -> Result<Groups> {
    let group_key =
        |gvals: &[Value]| -> Vec<GroupKey> { gvals.iter().map(Value::group_key).collect() };
    let mut out = Groups {
        gvals: Vec::new(),
        accs: Vec::new(),
    };
    // Where each of `out`'s groups is. A partial's own groups are distinct,
    // so the first partial is adopted without lookups, and indexed only
    // once a second partial arrives to look its groups up: merging one
    // partial costs no hashing at all.
    let mut gid_of: HashMap<Vec<GroupKey>, usize> = HashMap::new();
    // Keyed by (global group, aggregate); DISTINCT aggregates only.
    let mut seen: HashMap<(usize, usize), HashSet<GroupKey>> = HashMap::new();
    for (n, p) in partials.into_iter().enumerate() {
        if n == 1 {
            gid_of = (0..out.gvals.len())
                .map(|g| (group_key(&out.gvals[g]), g))
                .collect();
        }
        let distinct = &p.distinct_firsts;
        let local_groups = p.groups.gvals.into_iter().zip(p.groups.accs);
        for (li, (gvals, accs)) in local_groups.enumerate() {
            let g = match (n > 0).then(|| gid_of.entry(group_key(&gvals))) {
                Some(Entry::Occupied(e)) => {
                    let g = *e.get();
                    for (i, (mine, theirs)) in out.accs[g].iter_mut().zip(&accs).enumerate() {
                        if distinct[i].is_none() {
                            mine.merge(theirs)?;
                        }
                    }
                    g
                }
                new => {
                    if let Some(Entry::Vacant(e)) = new {
                        e.insert(out.gvals.len());
                    }
                    out.gvals.push(gvals);
                    out.accs.push(accs);
                    out.gvals.len() - 1
                }
            };
            for (i, firsts) in distinct.iter().enumerate() {
                let Some(firsts) = firsts else { continue };
                let seen = seen.entry((g, i)).or_default();
                for v in &firsts[li] {
                    if seen.insert(v.group_key()) {
                        out.accs[g][i].update(v)?;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Finish every accumulator and build the output table: one single-pass
/// typed constructor per column, group columns first.
fn finish_groups(schema: Schema, groups: &Groups) -> Result<Table> {
    let mut col_vals: Vec<Vec<Value>> = schema
        .fields
        .iter()
        .map(|_| Vec::with_capacity(groups.gvals.len()))
        .collect();
    for (gvals, accs) in groups.gvals.iter().zip(&groups.accs) {
        for (j, v) in gvals.iter().enumerate() {
            col_vals[j].push(v.clone());
        }
        for (j, a) in accs.iter().enumerate() {
            col_vals[gvals.len() + j].push(a.finish()?);
        }
    }
    let columns: Vec<Column> = schema
        .fields
        .iter()
        .zip(&col_vals)
        .map(|(f, vals)| Column::from_values(f.data_type, vals))
        .collect::<lazyetl_store::Result<_>>()
        .map_err(QueryError::Store)?;
    Table::new(schema, columns).map_err(QueryError::Store)
}

/// Fold a delta's aggregate state table into the resident one — the
/// recycler's incremental patch, done with the executor's own accumulators.
///
/// Both tables are outputs of the same augmented aggregate plan
/// ([`crate::maintain::MaintPlan::exec_plan`]): `group_cols` group columns,
/// then one column per entry of `merges`. Each row is lifted back into the
/// accumulators that produced it (AVG from its hidden SUM/COUNT
/// companions), the two tables merge as two partials in old-then-delta
/// order, and the same finish step renders the result. So the patched
/// state is what one aggregate over `old ∪ delta` cut at that boundary
/// yields: groups in first-appearance order, integer overflow decided on
/// the `i128` total, AVG as `sum / n`. Any `Err` means "recompute".
pub fn merge_state_tables(
    old: &Table,
    delta: &Table,
    group_cols: usize,
    merges: &[MergeSpec],
) -> Result<Table> {
    if old.schema != delta.schema || old.schema.fields.len() != group_cols + merges.len() {
        return Err(QueryError::Execution("delta state schema mismatch".into()));
    }
    let lift = |state: &Table| -> Result<Partial> {
        let mut groups = Groups {
            gvals: Vec::with_capacity(state.num_rows()),
            accs: Vec::with_capacity(state.num_rows()),
        };
        for i in 0..state.num_rows() {
            let mut row = state.row(i).map_err(QueryError::Store)?;
            let accs = merges
                .iter()
                .enumerate()
                .map(|(j, spec)| Accumulator::from_state(*spec, &row, group_cols + j))
                .collect::<Result<_>>()?;
            row.truncate(group_cols);
            groups.gvals.push(row);
            groups.accs.push(accs);
        }
        Ok(Partial {
            groups,
            distinct_firsts: vec![None; merges.len()],
        })
    };
    let merged = merge_partials(vec![lift(old)?, lift(delta)?])?;
    finish_groups(old.schema.clone(), &merged)
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

fn execute_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    on: &[(Expr, Expr)],
    right_label: &str,
    ctx: &ExecContext<'_>,
) -> Result<Arc<Table>> {
    let lt = execute(left, ctx)?;
    let rt = execute(right, ctx)?;
    // Column-at-a-time: materialize the key columns of both sides once.
    let right_keys: Vec<Column> = on
        .iter()
        .map(|(_, re)| eval_expr_opts(re, &rt, &ctx.eval_opts()))
        .collect::<Result<_>>()?;
    let left_keys: Vec<Column> = on
        .iter()
        .map(|(le, _)| eval_expr_opts(le, &lt, &ctx.eval_opts()))
        .collect::<Result<_>>()?;

    // Build on the smaller input, probe the larger; emitted index pairs
    // are always (left row, right row) so the output schema is unaffected.
    let build_is_left = lt.num_rows() < rt.num_rows();
    let (bt, bkeys, pt, pkeys) = if build_is_left {
        (&lt, &left_keys, &rt, &right_keys)
    } else {
        (&rt, &right_keys, &lt, &left_keys)
    };
    let packed = if ctx.vectorized {
        pack_int_keys(bkeys, pkeys)
    } else {
        None
    };
    let (probe_idx, build_idx) = match packed {
        // All keys integer-typed (the file_id/seq_no joins of the
        // warehouse schema): hash on packed native integers.
        Some((bk, pk)) => hash_join_pairs(&bk, &pk, ctx)?,
        // Generic path: normalized GroupKey vectors.
        None => {
            let bk = group_key_rows(bkeys, bt.num_rows())?;
            let pk = group_key_rows(pkeys, pt.num_rows())?;
            hash_join_pairs(&bk, &pk, ctx)?
        }
    };
    let (left_idx, right_idx) = if build_is_left {
        (build_idx, probe_idx)
    } else {
        (probe_idx, build_idx)
    };
    let lout = lt.take(&left_idx).map_err(QueryError::Store)?;
    let rout = rt.take(&right_idx).map_err(QueryError::Store)?;
    let schema = lout
        .schema
        .join(&rout.schema, right_label)
        .map_err(QueryError::Store)?;
    let mut columns = lout.columns;
    columns.extend(rout.columns);
    Ok(Arc::new(
        Table::new(schema, columns).map_err(QueryError::Store)?,
    ))
}

/// Per-row normalized join keys for one side; `None` marks a row with a
/// NULL key component (which never joins).
fn group_key_rows(cols: &[Column], rows: usize) -> Result<Vec<Option<Vec<GroupKey>>>> {
    (0..rows)
        .map(|row| {
            let mut key = Vec::with_capacity(cols.len());
            for col in cols {
                let v = col.get(row).map_err(QueryError::Store)?;
                if v.is_null() {
                    return Ok(None);
                }
                key.push(v.group_key());
            }
            Ok(Some(key))
        })
        .collect()
}

/// Hash-join two sides' per-row keys into matched `(probe row, build
/// row)` index vectors, in **probe order** (and build-row order within a
/// probe row) — the canonical serial emission order.
///
/// With parallelism, both sides partition by a deterministic key hash;
/// each worker builds and probes one partition independently (a key
/// lands in exactly one partition, so no matches are lost or
/// duplicated), and the merged pairs are sorted back into the serial
/// emission order — the output is identical to the serial loop for any
/// partition count.
fn hash_join_pairs<K: Hash + Eq + Sync>(
    bk: &[Option<K>],
    pk: &[Option<K>],
    ctx: &ExecContext<'_>,
) -> Result<(Vec<usize>, Vec<usize>)> {
    if ctx.parallelism <= 1 || pk.len().max(bk.len()) <= ctx.morsel_rows {
        // Serial reference path.
        let mut build: HashMap<&K, Vec<usize>> = HashMap::with_capacity(bk.len());
        for (row, key) in bk.iter().enumerate() {
            if let Some(k) = key {
                build.entry(k).or_default().push(row);
            }
        }
        let (mut probe_idx, mut build_idx) = (Vec::new(), Vec::new());
        for (row, key) in pk.iter().enumerate() {
            if let Some(k) = key {
                if let Some(matches) = build.get(k) {
                    for &r in matches {
                        probe_idx.push(row);
                        build_idx.push(r);
                    }
                }
            }
        }
        return Ok((probe_idx, build_idx));
    }

    // `DefaultHasher::new()` hashes with fixed keys, so the partition of
    // a key is stable across threads, runs and machines.
    let parts = ctx.parallelism;
    let part_of = |k: &K| {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        (h.finish() % parts as u64) as usize
    };
    let mut bparts: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (row, key) in bk.iter().enumerate() {
        if let Some(k) = key {
            bparts[part_of(k)].push(row);
        }
    }
    let mut pparts: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (row, key) in pk.iter().enumerate() {
        if let Some(k) = key {
            pparts[part_of(k)].push(row);
        }
    }
    ctx.count_parallel(parts);
    let ids: Vec<usize> = (0..parts).collect();
    let results = try_parallel_map(&ids, ctx.parallelism, |&j| {
        let mut build: HashMap<&K, Vec<usize>> = HashMap::with_capacity(bparts[j].len());
        for &row in &bparts[j] {
            let k = bk[row].as_ref().expect("partitioned rows have keys");
            build.entry(k).or_default().push(row);
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for &row in &pparts[j] {
            let k = pk[row].as_ref().expect("partitioned rows have keys");
            if let Some(matches) = build.get(k) {
                for &r in matches {
                    pairs.push((row, r));
                }
            }
        }
        pairs
    });
    let merge_started = Instant::now();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for r in results {
        match r {
            Ok(p) => pairs.extend(p),
            Err(p) => return Err(QueryError::Execution(p.to_string())),
        }
    }
    // Per partition, pairs are already (probe ascending, build ascending)
    // and a probe row's matches live in exactly one partition, so this
    // sort restores precisely the serial emission order.
    pairs.sort_unstable();
    let (probe_idx, build_idx) = pairs.into_iter().unzip();
    ctx.count_merge(merge_started);
    Ok((probe_idx, build_idx))
}

/// One packed `u128` per row; `None` marks a row with a NULL key.
type PackedKeys = Vec<Option<u128>>;

/// Borrowed-or-widened i64 views of one side's key columns.
type KeySlices<'a> = [std::borrow::Cow<'a, [i64]>];

/// Pack the integer-typed join keys of **both** sides into one `u128` per
/// row (`None` = a row with a NULL key, which never joins).
///
/// One or two keys pack as fixed 64-bit lanes. Three or more keys use a
/// shared range encoding: per key, the min/max across *both* sides fixes
/// an offset and a bit width (`ceil(log2(range + 1))`); the per-row
/// deltas then concatenate into the `u128`. Because build and probe rows
/// encode with the same parameters, the packing is a bijection over the
/// observed key space — equal tuples collide exactly, distinct tuples
/// never do. Returns `None` (→ generic `GroupKey` hashing) when any key
/// column is non-integer or the widths exceed 128 bits.
fn pack_int_keys(build: &[Column], probe: &[Column]) -> Option<(PackedKeys, PackedKeys)> {
    use std::borrow::Cow;
    if build.is_empty() {
        return None;
    }
    let as_i64 = lazyetl_store::kernels::as_i64_slice;
    let bvals: Vec<Cow<'_, [i64]>> = build.iter().map(as_i64).collect::<Option<_>>()?;
    let pvals: Vec<Cow<'_, [i64]>> = probe.iter().map(as_i64).collect::<Option<_>>()?;
    let k = build.len();

    let rows = |cols: &[Column],
                vals: &KeySlices<'_>,
                pack: &dyn Fn(&KeySlices<'_>, usize) -> u128|
     -> Vec<Option<u128>> {
        let n = vals.first().map_or(0, |v| v.len());
        (0..n)
            .map(|row| {
                if cols.iter().any(|c| c.is_null(row)) {
                    None
                } else {
                    Some(pack(vals, row))
                }
            })
            .collect()
    };

    if k <= 2 {
        // Fixed lanes: each i64 keeps its full 64 bits.
        let pack = |vals: &KeySlices<'_>, row: usize| -> u128 {
            let hi = vals[0][row] as u64 as u128;
            let lo = vals.get(1).map_or(0, |v| v[row] as u64 as u128);
            hi << 64 | lo
        };
        return Some((rows(build, &bvals, &pack), rows(probe, &pvals, &pack)));
    }

    // ≥3 keys: range-encode. Min/max per key across both sides; a key's
    // lane is exactly wide enough for (max - min). NULL rows are skipped
    // in the fold — they never pack (and never join), and their padded
    // zero payloads would otherwise drag lanes wide enough to spuriously
    // overflow the 128-bit budget.
    let mut offsets = Vec::with_capacity(k);
    let mut widths = Vec::with_capacity(k);
    let mut total = 0u32;
    for i in 0..k {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        let mut fold = |col: &Column, vals: &[i64]| {
            for (row, &v) in vals.iter().enumerate() {
                if col.is_null(row) {
                    continue;
                }
                lo = lo.min(v);
                hi = hi.max(v);
            }
        };
        fold(&build[i], &bvals[i]);
        fold(&probe[i], &pvals[i]);
        if lo > hi {
            // No non-NULL values on either side: nothing will join.
            (lo, hi) = (0, 0);
        }
        let range = (hi as i128 - lo as i128) as u128;
        let width = 128 - range.leading_zeros(); // bits to hold `range`
        offsets.push(lo);
        widths.push(width);
        total += width;
    }
    if total > 128 {
        return None; // key space too wide for one u128: generic path
    }
    let pack = move |vals: &KeySlices<'_>, row: usize| -> u128 {
        let mut acc = 0u128;
        for i in 0..k {
            let delta = (vals[i][row] as i128 - offsets[i] as i128) as u128;
            acc = (acc << widths[i]) | delta;
        }
        acc
    };
    Some((rows(build, &bvals, &pack), rows(probe, &pvals, &pack)))
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

fn sort_indices(
    table: &Table,
    keys: &[(Expr, bool)],
    opts: &EvalOptions<'_>,
) -> Result<Vec<usize>> {
    let mut key_cols: Vec<Column> = Vec::with_capacity(keys.len());
    for (e, _) in keys {
        key_cols.push(eval_expr_opts(e, table, opts)?);
    }
    let mut indices: Vec<usize> = (0..table.num_rows()).collect();
    let mut fail: Option<QueryError> = None;
    indices.sort_by(|&a, &b| {
        for ((_, desc), col) in keys.iter().zip(&key_cols) {
            let va = col.get(a).unwrap_or(Value::Null);
            let vb = col.get(b).unwrap_or(Value::Null);
            // NULLs sort last regardless of direction.
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => match va.sql_cmp(&vb) {
                    Some(o) => {
                        if *desc {
                            o.reverse()
                        } else {
                            o
                        }
                    }
                    None => {
                        if fail.is_none() {
                            fail = Some(QueryError::Execution(format!(
                                "cannot order {va} against {vb}"
                            )));
                        }
                        std::cmp::Ordering::Equal
                    }
                },
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    match fail {
        Some(e) => Err(e),
        None => Ok(indices),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::planner::{plan_sql, TableSource};

    fn demo_catalog() -> Catalog {
        let mut c = Catalog::new();
        let files_schema = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("uri", DataType::Utf8),
            Field::new("station", DataType::Utf8),
            Field::new("network", DataType::Utf8),
            Field::new("channel", DataType::Utf8),
        ])
        .unwrap();
        let mut files = Table::empty(files_schema);
        let rows = [
            (0i64, "a.mseed", "ISK", "KO", "BHE"),
            (1, "b.mseed", "HGN", "NL", "BHZ"),
            (2, "c.mseed", "WIT", "NL", "BHZ"),
            (3, "d.mseed", "HGN", "NL", "BHE"),
        ];
        for (id, uri, st, net, ch) in rows {
            files
                .append_row(vec![
                    Value::Int64(id),
                    Value::Utf8(uri.into()),
                    Value::Utf8(st.into()),
                    Value::Utf8(net.into()),
                    Value::Utf8(ch.into()),
                ])
                .unwrap();
        }
        let samples_schema = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("sample_time", DataType::Timestamp),
            Field::new("sample_value", DataType::Float64),
        ])
        .unwrap();
        let mut samples = Table::empty(samples_schema);
        for i in 0..40i64 {
            samples
                .append_row(vec![
                    Value::Int64(i % 4),
                    Value::Timestamp(1_000_000 * i),
                    Value::Float64((i % 4) as f64 * 10.0 + (i / 4) as f64),
                ])
                .unwrap();
        }
        c.create_table("files", files).unwrap();
        c.create_table("samples", samples).unwrap();
        c.create_view(
            "fileview",
            "SELECT * FROM files f JOIN samples s ON f.file_id = s.file_id",
        )
        .unwrap();
        c
    }

    fn run(sql: &str, c: &Catalog) -> Arc<Table> {
        let src = TableSource::new(c);
        let plan = plan_sql(sql, &src).unwrap();
        let plan = optimize(&plan).unwrap();
        execute(&plan, &ExecContext::new(c)).unwrap()
    }

    #[test]
    fn scan_filter_project() {
        let c = demo_catalog();
        let t = run(
            "SELECT uri FROM files WHERE network = 'NL' AND channel = 'BHZ'",
            &c,
        );
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0).unwrap()[0], Value::Utf8("b.mseed".into()));
    }

    #[test]
    fn aggregate_group_by() {
        let c = demo_catalog();
        let t = run(
            "SELECT station, COUNT(*) AS cnt FROM files GROUP BY station ORDER BY cnt DESC, station",
            &c,
        );
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(0).unwrap()[0], Value::Utf8("HGN".into()));
        assert_eq!(t.row(0).unwrap()[1], Value::Int64(2));
    }

    #[test]
    fn global_aggregates_over_empty_input() {
        let c = demo_catalog();
        let t = run(
            "SELECT COUNT(*), SUM(file_id), AVG(file_id), MIN(uri) FROM files WHERE station = 'NOPE'",
            &c,
        );
        assert_eq!(t.num_rows(), 1);
        let row = t.row(0).unwrap();
        assert_eq!(row[0], Value::Int64(0));
        assert!(row[1].is_null());
        assert!(row[2].is_null());
        assert!(row[3].is_null());
    }

    #[test]
    fn join_via_view() {
        let c = demo_catalog();
        let t = run(
            "SELECT f.station, AVG(s.sample_value) FROM fileview WHERE f.network = 'NL' GROUP BY f.station ORDER BY f.station",
            &c,
        );
        assert_eq!(t.num_rows(), 2);
        // station HGN covers file_ids 1 and 3.
        assert_eq!(t.row(0).unwrap()[0], Value::Utf8("HGN".into()));
    }

    #[test]
    fn distinct_and_limit() {
        let c = demo_catalog();
        let t = run("SELECT DISTINCT network FROM files ORDER BY network", &c);
        assert_eq!(t.num_rows(), 2);
        let t = run("SELECT uri FROM files ORDER BY uri LIMIT 2", &c);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(1).unwrap()[0], Value::Utf8("b.mseed".into()));
        let t = run("SELECT uri FROM files LIMIT 0", &c);
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn count_distinct() {
        let c = demo_catalog();
        let t = run("SELECT COUNT(DISTINCT station) FROM files", &c);
        assert_eq!(t.row(0).unwrap()[0], Value::Int64(3));
    }

    #[test]
    fn select_without_from() {
        let c = demo_catalog();
        let t = run("SELECT 1 + 1 AS two, 'x' AS tag", &c);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.row(0).unwrap()[0], Value::Int64(2));
        assert_eq!(t.row(0).unwrap()[1], Value::Utf8("x".into()));
    }

    #[test]
    fn order_by_nulls_last() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::nullable("v", DataType::Int32)]).unwrap();
        let mut t = Table::empty(schema);
        for v in [Value::Int32(2), Value::Null, Value::Int32(1)] {
            t.append_row(vec![v]).unwrap();
        }
        c.create_table("t", t).unwrap();
        let asc = run("SELECT v FROM t ORDER BY v", &c);
        assert_eq!(asc.row(0).unwrap()[0], Value::Int32(1));
        assert!(asc.row(2).unwrap()[0].is_null());
        let desc = run("SELECT v FROM t ORDER BY v DESC", &c);
        assert_eq!(desc.row(0).unwrap()[0], Value::Int32(2));
        assert!(desc.row(2).unwrap()[0].is_null());
    }

    #[test]
    fn external_scan_without_provider_fails() {
        let c = demo_catalog();
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let src = TableSource::new(&c).with_external("ext", schema);
        let plan = plan_sql("SELECT x FROM ext", &src).unwrap();
        let res = execute(&plan, &ExecContext::new(&c));
        assert!(matches!(res, Err(QueryError::Execution(_))));
    }

    #[test]
    fn join_null_keys_do_not_match() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::nullable("k", DataType::Int32)]).unwrap();
        let mut a = Table::empty(schema.clone());
        a.append_row(vec![Value::Int32(1)]).unwrap();
        a.append_row(vec![Value::Null]).unwrap();
        let mut b = Table::empty(schema);
        b.append_row(vec![Value::Null]).unwrap();
        b.append_row(vec![Value::Int32(1)]).unwrap();
        c.create_table("a", a).unwrap();
        c.create_table("b", b).unwrap();
        let t = run("SELECT * FROM a JOIN b ON a.k = b.k", &c);
        assert_eq!(t.num_rows(), 1, "only the non-null key pair joins");
    }

    #[test]
    fn string_key_join_uses_generic_path() {
        // Utf8 keys cannot take the packed-integer fast path; results must
        // still match expectations.
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("name", DataType::Utf8),
            Field::new("v", DataType::Int64),
        ])
        .unwrap();
        let mut a = Table::empty(schema.clone());
        let mut b = Table::empty(schema);
        for (n, v) in [("x", 1i64), ("y", 2), ("z", 3)] {
            a.append_row(vec![Value::Utf8(n.into()), Value::Int64(v)])
                .unwrap();
        }
        for (n, v) in [("y", 20i64), ("z", 30), ("w", 40)] {
            b.append_row(vec![Value::Utf8(n.into()), Value::Int64(v)])
                .unwrap();
        }
        c.create_table("a", a).unwrap();
        c.create_table("b", b).unwrap();
        let t = run(
            "SELECT a.name, a.v, b.v FROM a JOIN b ON a.name = b.name ORDER BY a.name",
            &c,
        );
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0).unwrap()[0], Value::Utf8("y".into()));
        assert_eq!(t.row(0).unwrap()[2], Value::Int64(20));
        assert_eq!(t.row(1).unwrap()[0], Value::Utf8("z".into()));
    }

    #[test]
    fn three_key_join_packs_integers() {
        // ≥3 integer keys take the range-encoded u128 packing (the
        // Figure-1 mix must never hit the generic path); results are
        // identical to the generic GroupKey build either way.
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k1", DataType::Int64),
            Field::new("k2", DataType::Int64),
            Field::new("k3", DataType::Int64),
        ])
        .unwrap();
        let mut a = Table::empty(schema.clone());
        let mut b = Table::empty(schema);
        for i in 0..6i64 {
            a.append_row(vec![
                Value::Int64(i % 2),
                Value::Int64(i % 3),
                Value::Int64(i - 1_000_000), // exercise the offset encoding
            ])
            .unwrap();
            b.append_row(vec![
                Value::Int64(i % 2),
                Value::Int64(i % 3),
                Value::Int64(i - 1_000_000),
            ])
            .unwrap();
        }
        c.create_table("a", a).unwrap();
        c.create_table("b", b).unwrap();
        let sql = "SELECT COUNT(*) FROM a JOIN b ON a.k1 = b.k1 AND a.k2 = b.k2 AND a.k3 = b.k3";
        // Exact triple matches only: 6 rows — on both paths.
        let t = run(sql, &c);
        assert_eq!(t.row(0).unwrap()[0], Value::Int64(6));
        let src = TableSource::new(&c);
        let plan = optimize(&plan_sql(sql, &src).unwrap()).unwrap();
        let scalar_ctx = ExecContext {
            vectorized: false,
            ..ExecContext::new(&c)
        };
        let t2 = execute(&plan, &scalar_ctx).unwrap();
        assert_eq!(t2.row(0).unwrap()[0], Value::Int64(6));
    }

    #[test]
    fn pack_int_keys_shapes() {
        let col = |vals: &[i64]| {
            Column::from_values(
                DataType::Int64,
                &vals.iter().map(|&v| Value::Int64(v)).collect::<Vec<_>>(),
            )
            .unwrap()
        };
        // Three keys with extreme-ish ranges still pack (≤128 bits total).
        let b = vec![col(&[1, 2]), col(&[10, 20]), col(&[-5, 5])];
        let p = vec![col(&[2]), col(&[20]), col(&[5])];
        let (bk, pk) = pack_int_keys(&b, &p).unwrap();
        assert_eq!(bk[1], pk[0], "equal tuples collide");
        assert_ne!(bk[0], bk[1], "distinct tuples do not");
        // Three full-range i64 keys exceed 128 bits: generic fallback.
        let wide = vec![
            col(&[i64::MIN, i64::MAX]),
            col(&[i64::MIN, i64::MAX]),
            col(&[i64::MIN, i64::MAX]),
        ];
        assert!(pack_int_keys(&wide, &wide).is_none());
        // NULL keys never pack.
        let withnull =
            Column::from_values(DataType::Int64, &[Value::Int64(1), Value::Null]).unwrap();
        let b = vec![withnull.clone(), col(&[7, 8]), col(&[0, 0])];
        let (bk, _) = pack_int_keys(&b, &b).unwrap();
        assert!(bk[0].is_some());
        assert!(bk[1].is_none());
        // Non-integer key type: no packing.
        let s = Column::from_values(DataType::Utf8, &[Value::Utf8("x".into())]).unwrap();
        assert!(pack_int_keys(&[s.clone(), s.clone(), s], &[]).is_none());
        // NULL rows' zero padding must not widen lanes: three
        // large-magnitude keys still fit the 128-bit budget because the
        // NULL row is skipped when folding min/max.
        let big = 1_200_000_000_000_000i64;
        let nullable_big = |off: i64| {
            Column::from_values(DataType::Int64, &[Value::Int64(big + off), Value::Null]).unwrap()
        };
        let b = vec![nullable_big(0), nullable_big(1), nullable_big(2)];
        let p = vec![nullable_big(0), nullable_big(1), nullable_big(2)];
        let (bk, pk) = pack_int_keys(&b, &p).expect("null padding must not widen lanes");
        assert_eq!(bk[0], pk[0]);
        assert!(bk[1].is_none(), "the NULL row still never packs");
    }

    #[test]
    fn zone_map_pruning_short_circuits_scan() {
        use crate::metrics::ExecMetrics;
        let c = demo_catalog();
        let metrics = ExecMetrics::new();
        let src = TableSource::new(&c);
        // samples.sample_value spans [0, 39]; > 1000 is provably empty.
        let sql = "SELECT sample_value FROM samples WHERE sample_value > 1000.0";
        let plan = optimize(&plan_sql(sql, &src).unwrap()).unwrap();
        let ctx = ExecContext::new(&c).with_metrics(&metrics);
        let t = execute(&plan, &ctx).unwrap();
        assert_eq!(t.num_rows(), 0);
        let snap = metrics.snapshot();
        assert_eq!(snap.rows_pruned, 40, "whole scan skipped");
        assert_eq!(snap.rows_scanned, 0, "pruned scan never produced rows");
        // Pruning off: same rows, but the scan actually runs.
        let metrics2 = ExecMetrics::new();
        let ctx = ExecContext {
            zone_map_pruning: false,
            ..ExecContext::new(&c).with_metrics(&metrics2)
        };
        let t2 = execute(&plan, &ctx).unwrap();
        assert_eq!(t2.num_rows(), 0);
        let snap2 = metrics2.snapshot();
        assert_eq!(snap2.rows_pruned, 0);
        assert_eq!(snap2.rows_scanned, 40);
        // A satisfiable predicate is never pruned.
        let sql = "SELECT sample_value FROM samples WHERE sample_value > 29.0";
        let plan = optimize(&plan_sql(sql, &src).unwrap()).unwrap();
        let t3 = execute(&plan, &ExecContext::new(&c).with_metrics(&metrics)).unwrap();
        assert!(t3.num_rows() > 0);
    }

    #[test]
    fn pruning_never_masks_sibling_errors() {
        // `v > t` (Float64 vs Timestamp) is unorderable and must raise
        // the same execution error whether or not the provably-empty
        // sibling conjunct could have pruned the scan.
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("v", DataType::Float64),
            Field::new("t", DataType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        t.append_row(vec![Value::Float64(1.0), Value::Timestamp(100)])
            .unwrap();
        c.create_table("s", t).unwrap();
        let src = TableSource::new(&c);
        let sql = "SELECT v FROM s WHERE v > t AND t > '2030-01-01T00:00:00.000'";
        let plan = optimize(&plan_sql(sql, &src).unwrap()).unwrap();
        let pruned = execute(&plan, &ExecContext::new(&c));
        let unpruned = execute(
            &plan,
            &ExecContext {
                zone_map_pruning: false,
                ..ExecContext::new(&c)
            },
        );
        assert!(unpruned.is_err(), "unorderable comparison must error");
        assert!(pruned.is_err(), "pruning must not swallow the error");
    }

    #[test]
    fn vectorized_batches_are_counted() {
        use crate::metrics::ExecMetrics;
        let c = demo_catalog();
        let metrics = ExecMetrics::new();
        let src = TableSource::new(&c);
        let sql = "SELECT uri FROM files WHERE network = 'NL' AND channel = 'BHZ'";
        let plan = optimize(&plan_sql(sql, &src).unwrap()).unwrap();
        let t = execute(&plan, &ExecContext::new(&c).with_metrics(&metrics)).unwrap();
        assert_eq!(t.num_rows(), 2);
        let snap = metrics.snapshot();
        assert!(snap.vectorized_batches > 0, "filter ran on the kernels");
        assert_eq!(snap.rows_scanned, 4, "files table scanned once");
    }

    #[test]
    fn having_filters_groups() {
        let c = demo_catalog();
        let t = run(
            "SELECT station, COUNT(*) AS c FROM files GROUP BY station HAVING COUNT(*) > 1",
            &c,
        );
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.row(0).unwrap()[0], Value::Utf8("HGN".into()));
    }

    #[test]
    fn avg_merges_via_companions() {
        // g | AVG(v) | __maint_sum | __maint_cnt   (group_cols = 1)
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::nullable("avg", DataType::Float64),
            Field::nullable("s", DataType::Float64),
            Field::nullable("n", DataType::Int64),
        ])
        .unwrap();
        let mk = |g: i64, avg: f64, s: f64, n: i64| {
            vec![
                Value::Int64(g),
                Value::Float64(avg),
                Value::Float64(s),
                Value::Int64(n),
            ]
        };
        let mut old = Table::empty(schema.clone());
        old.append_row(mk(1, 2.0, 6.0, 3)).unwrap();
        let mut dstate = Table::empty(schema.clone());
        dstate.append_row(mk(1, 6.0, 6.0, 1)).unwrap();
        let merged = merge_state_tables(
            &old,
            &dstate,
            1,
            &[
                MergeSpec::Avg {
                    sum_col: 2,
                    cnt_col: 3,
                },
                MergeSpec::SumFloat,
                MergeSpec::Count,
            ],
        )
        .unwrap();
        assert_eq!(
            merged.row(0).unwrap(),
            vec![
                Value::Int64(1),
                Value::Float64(3.0),
                Value::Float64(12.0),
                Value::Int64(4),
            ]
        );
    }

    #[test]
    fn integer_sum_overflow_falls_back() {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::nullable("s", DataType::Int64),
        ])
        .unwrap();
        let mut old = Table::empty(schema.clone());
        old.append_row(vec![Value::Int64(1), Value::Int64(i64::MAX)])
            .unwrap();
        let mut dstate = Table::empty(schema.clone());
        dstate
            .append_row(vec![Value::Int64(1), Value::Int64(1)])
            .unwrap();
        let err = merge_state_tables(&old, &dstate, 1, &[MergeSpec::SumInt])
            .unwrap_err()
            .to_string();
        assert!(err.contains("overflow"), "{err}");
    }
}
