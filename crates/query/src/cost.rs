//! Cardinality and cost estimation over persisted column statistics.
//!
//! The planner's join reordering (see [`crate::optimizer::optimize_with_cost`])
//! needs relative sizes, not exact counts: which relation is smallest after
//! its filters, and how large each intermediate join result will be. The
//! estimates here follow the classic System-R recipe, upgraded with the
//! store's per-column statistics where they exist:
//!
//! * **scan** — the table's row count from [`ColumnStats::count`];
//! * **filter** — per-conjunct selectivity: `1/distinct` for equality (from
//!   the hash-sketch estimate), histogram interpolation for ranges
//!   ([`lazyetl_store::Histogram::fraction_le`]), `nulls/count` for `IS NULL`, and textbook
//!   defaults when statistics are missing or the range is NaN-tainted
//!   ([`ColumnStats::range_trusted`]);
//! * **join** — `|L|·|R| / max(V(L,a), V(R,b))` per equi-key pair;
//! * **source cost** — a per-table access-cost multiplier (federated remote
//!   mounts are slower than local ones; the warehouse's per-source latency
//!   stats know by how much), so the greedy join order defers expensive
//!   sources until the accumulated selectivity is largest.
//!
//! Every estimator returns `Option<f64>`: `None` means the model has no
//! entry for a relation the plan reads. The warehouse's catalog computes
//! zone maps on demand, so that happens only for a relation outside the
//! model (an external scan nobody synthesized an entry for); the
//! optimizer then keeps that chain's as-written order.

use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::plan::LogicalPlan;
use lazyetl_store::{Catalog, ColumnStats, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default selectivity of an equality predicate without statistics.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Default selectivity of a range predicate without statistics.
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Default selectivity of a predicate the model cannot analyze.
pub const DEFAULT_UNKNOWN_SELECTIVITY: f64 = 0.25;

/// Statistics and access cost for one base table.
#[derive(Debug, Clone)]
pub struct TableCost {
    /// Per-column statistics (shared with the catalog's zone-map cache).
    pub stats: Arc<Vec<ColumnStats>>,
    /// Access-cost multiplier relative to a local scan (1.0 = local;
    /// latency-injected remote mounts report larger values).
    pub multiplier: f64,
}

/// A cost model: per-table statistics plus per-source cost multipliers.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    tables: BTreeMap<String, TableCost>,
}

impl CostModel {
    /// An empty model (every estimate is `None`; the optimizer falls back
    /// to as-written plans).
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// Build a model from a catalog's zone maps, all sources local.
    pub fn from_catalog(catalog: &Catalog) -> CostModel {
        let mut m = CostModel::new();
        for name in catalog.table_names() {
            if let Some(stats) = catalog.zone_map(&name) {
                m.tables.insert(
                    name,
                    TableCost {
                        stats,
                        multiplier: 1.0,
                    },
                );
            }
        }
        m
    }

    /// Register (or replace) statistics for a table.
    pub fn set_table(&mut self, name: &str, stats: Arc<Vec<ColumnStats>>) {
        let multiplier = self.tables.get(name).map(|t| t.multiplier).unwrap_or(1.0);
        self.tables
            .insert(name.to_string(), TableCost { stats, multiplier });
    }

    /// Set the access-cost multiplier for a table (no-op scaffolding if the
    /// table has no statistics yet: an entry with empty stats is created).
    pub fn set_multiplier(&mut self, name: &str, multiplier: f64) {
        let multiplier = if multiplier.is_finite() && multiplier > 0.0 {
            multiplier
        } else {
            1.0
        };
        self.tables
            .entry(name.to_string())
            .and_modify(|t| t.multiplier = multiplier)
            .or_insert_with(|| TableCost {
                stats: Arc::new(Vec::new()),
                multiplier,
            });
    }

    /// Statistics entry for a table, if known.
    pub fn table(&self, name: &str) -> Option<&TableCost> {
        self.tables.get(name)
    }

    /// Row count of a base table (max over its columns' counts).
    pub fn table_rows(&self, name: &str) -> Option<f64> {
        let t = self.tables.get(name)?;
        if t.stats.is_empty() {
            return None;
        }
        Some(t.stats.iter().map(|s| s.count).max().unwrap_or(0) as f64)
    }

    /// Largest access-cost multiplier among base tables under `plan`
    /// (1.0 when none are known — unknown tables are assumed local).
    pub fn access_multiplier(&self, plan: &LogicalPlan) -> f64 {
        let mut names = Vec::new();
        base_tables(plan, &mut names);
        names
            .iter()
            .filter_map(|n| self.tables.get(n.as_str()))
            .map(|t| t.multiplier)
            .fold(1.0, f64::max)
    }

    /// Find statistics for a (possibly alias-qualified) column referenced
    /// under `plan`: the qualifier is stripped and the base tables beneath
    /// the node are searched in order. Post-pushdown filters sit directly
    /// above their single scan, so the first match is the right one.
    pub fn column_stats_under<'a>(
        &'a self,
        plan: &LogicalPlan,
        column: &str,
    ) -> Option<&'a ColumnStats> {
        let leaf = column.rsplit('.').next().unwrap_or(column);
        let mut names = Vec::new();
        base_tables(plan, &mut names);
        names
            .iter()
            .filter_map(|n| self.tables.get(n.as_str()))
            .find_map(|t| t.stats.iter().find(|s| s.name == leaf))
    }

    /// Estimated output rows of a plan node. `None` when the model has no
    /// entry for some relation under the node: the caller keeps the
    /// as-written order rather than reorder on a guess.
    pub fn estimate_rows(&self, plan: &LogicalPlan) -> Option<f64> {
        match plan {
            LogicalPlan::TableScan { table, .. } => self.table_rows(table),
            // External data is not loaded yet; it is only estimable when
            // the caller registered a synthesized entry under its name
            // (the warehouse derives one from the R table's per-record
            // sample counts). Otherwise: no estimate.
            LogicalPlan::ExternalScan { name, .. } => self.table_rows(name),
            LogicalPlan::InlineData { table, .. } => Some(table.num_rows() as f64),
            LogicalPlan::OneRow => Some(1.0),
            LogicalPlan::Filter { input, predicate } => {
                let rows = self.estimate_rows(input)?;
                Some(rows * self.selectivity(predicate, input))
            }
            LogicalPlan::Project { input, .. } | LogicalPlan::Sort { input, .. } => {
                self.estimate_rows(input)
            }
            // Duplicate elimination without column stats on the projected
            // expressions: keep the (sound) upper bound.
            LogicalPlan::Distinct { input } => self.estimate_rows(input),
            LogicalPlan::Limit { input, n } => Some(self.estimate_rows(input)?.min(*n as f64)),
            LogicalPlan::Aggregate { input, group, .. } => {
                let rows = self.estimate_rows(input)?;
                if group.is_empty() {
                    return Some(1.0);
                }
                // One output row per distinct group key: the product of the
                // keys' distinct counts, capped by the input size.
                let mut groups = 1.0f64;
                for (e, _) in group {
                    let d = match e {
                        Expr::Column(c) => self
                            .column_stats_under(input, c)
                            .and_then(|s| s.distinct)
                            .map(|d| d as f64),
                        _ => None,
                    };
                    groups *= d.unwrap_or_else(|| rows.sqrt().max(1.0));
                }
                Some(groups.min(rows).max(1.0))
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                let l = self.estimate_rows(left)?;
                let r = self.estimate_rows(right)?;
                Some(self.join_rows(l, r, left, right, on))
            }
        }
    }

    /// Estimated cost of materializing a plan node: its row estimate scaled
    /// by the most expensive source beneath it.
    pub fn estimate_cost(&self, plan: &LogicalPlan) -> Option<f64> {
        Some(self.estimate_rows(plan)? * self.access_multiplier(plan))
    }

    /// `|L ⋈ R|` for an equi-join: `|L|·|R|` divided, per key pair, by the
    /// larger of the two sides' distinct counts (the standard containment
    /// assumption). Unknown distinct counts fall back to the larger input,
    /// which prices the join as a key/foreign-key match.
    pub fn join_rows(
        &self,
        left_rows: f64,
        right_rows: f64,
        left: &LogicalPlan,
        right: &LogicalPlan,
        on: &[(Expr, Expr)],
    ) -> f64 {
        let mut rows = left_rows * right_rows;
        for (le, re) in on {
            let dl = self.key_distinct(left, le);
            let dr = self.key_distinct(right, re);
            let v = match (dl, dr) {
                (Some(a), Some(b)) => a.max(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => left_rows.max(right_rows).max(1.0),
            };
            rows /= v.max(1.0);
        }
        rows.max(0.0)
    }

    fn key_distinct(&self, side: &LogicalPlan, key: &Expr) -> Option<f64> {
        match key {
            Expr::Column(c) => self
                .column_stats_under(side, c)
                .and_then(|s| s.distinct)
                .map(|d| (d as f64).max(1.0)),
            _ => None,
        }
    }

    /// Estimated fraction of `context`'s rows satisfying `predicate`.
    /// Always in `[0, 1]`; missing statistics degrade to textbook defaults
    /// rather than `None` (a wrong selectivity only mis-ranks plans; all
    /// candidate orders are still correct).
    pub fn selectivity(&self, predicate: &Expr, context: &LogicalPlan) -> f64 {
        let s = match predicate {
            Expr::Literal(Value::Bool(true)) => 1.0,
            Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => 0.0,
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => self.selectivity(left, context) * self.selectivity(right, context),
            Expr::Binary {
                left,
                op: BinaryOp::Or,
                right,
            } => {
                let a = self.selectivity(left, context);
                let b = self.selectivity(right, context);
                a + b - a * b
            }
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => 1.0 - self.selectivity(expr, context),
            Expr::Binary { left, op, right } if op.is_comparison() => {
                self.comparison_selectivity(left, *op, right, context)
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let s = self.range_selectivity(expr, low, high, context);
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let eq = self.eq_selectivity(expr, context);
                let s = (eq * list.len() as f64).min(1.0);
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            Expr::IsNull { expr, negated } => {
                let s = match &**expr {
                    Expr::Column(c) => self
                        .column_stats_under(context, c)
                        .filter(|st| st.count > 0)
                        .map(|st| st.nulls as f64 / st.count as f64)
                        .unwrap_or(DEFAULT_EQ_SELECTIVITY),
                    _ => DEFAULT_EQ_SELECTIVITY,
                };
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            _ => DEFAULT_UNKNOWN_SELECTIVITY,
        };
        s.clamp(0.0, 1.0)
    }

    fn comparison_selectivity(
        &self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        context: &LogicalPlan,
    ) -> f64 {
        // Orient to column-vs-literal; a flipped comparison flips the op.
        let (col, lit, op) = match (left, right) {
            (Expr::Column(c), Expr::Literal(v)) => (c, v, op),
            (Expr::Literal(v), Expr::Column(c)) => {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => other,
                };
                (c, v, flipped)
            }
            _ => return DEFAULT_UNKNOWN_SELECTIVITY,
        };
        match op {
            BinaryOp::Eq => self.eq_selectivity(&Expr::Column(col.clone()), context),
            BinaryOp::NotEq => 1.0 - self.eq_selectivity(&Expr::Column(col.clone()), context),
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                let stats = match self.column_stats_under(context, col) {
                    Some(s) => s,
                    None => return DEFAULT_RANGE_SELECTIVITY,
                };
                let probe = match value_as_f64(lit) {
                    Some(p) => p,
                    None => return DEFAULT_RANGE_SELECTIVITY,
                };
                // A NaN-tainted range covers only part of the column; the
                // histogram fractions would silently drop the NaN rows.
                if !stats.range_trusted() {
                    return DEFAULT_RANGE_SELECTIVITY;
                }
                let frac_le = if let Some(h) = &stats.histogram {
                    h.fraction_le(probe)
                } else if let (Some(min), Some(max)) =
                    (value_as_f64_opt(&stats.min), value_as_f64_opt(&stats.max))
                {
                    interpolate(min, max, probe)
                } else {
                    return DEFAULT_RANGE_SELECTIVITY;
                };
                let not_null = non_null_fraction(stats);
                let s = match op {
                    BinaryOp::Lt | BinaryOp::LtEq => frac_le,
                    _ => 1.0 - frac_le,
                };
                s * not_null
            }
            _ => DEFAULT_UNKNOWN_SELECTIVITY,
        }
    }

    fn range_selectivity(
        &self,
        expr: &Expr,
        low: &Expr,
        high: &Expr,
        context: &LogicalPlan,
    ) -> f64 {
        let col = match expr {
            Expr::Column(c) => c,
            _ => return DEFAULT_RANGE_SELECTIVITY,
        };
        let stats = match self.column_stats_under(context, col) {
            Some(s) if s.range_trusted() => s,
            _ => return DEFAULT_RANGE_SELECTIVITY,
        };
        let lo = lit_f64(low);
        let hi = lit_f64(high);
        if let Some(h) = &stats.histogram {
            h.fraction_between(lo, hi) * non_null_fraction(stats)
        } else if let (Some(min), Some(max), Some(lo), Some(hi)) = (
            value_as_f64_opt(&stats.min),
            value_as_f64_opt(&stats.max),
            lo,
            hi,
        ) {
            (interpolate(min, max, hi) - interpolate(min, max, lo)).max(0.0)
                * non_null_fraction(stats)
        } else {
            DEFAULT_RANGE_SELECTIVITY
        }
    }

    fn eq_selectivity(&self, expr: &Expr, context: &LogicalPlan) -> f64 {
        let col = match expr {
            Expr::Column(c) => c,
            _ => return DEFAULT_EQ_SELECTIVITY,
        };
        match self.column_stats_under(context, col) {
            Some(s) => {
                if s.count == 0 {
                    return 0.0;
                }
                match s.distinct {
                    Some(d) if d > 0 => (1.0 / d as f64) * non_null_fraction(s),
                    _ => DEFAULT_EQ_SELECTIVITY,
                }
            }
            None => DEFAULT_EQ_SELECTIVITY,
        }
    }
}

fn non_null_fraction(s: &ColumnStats) -> f64 {
    if s.count == 0 {
        0.0
    } else {
        (s.count - s.nulls) as f64 / s.count as f64
    }
}

/// Linear interpolation of `P(x <= probe)` over a `[min, max]` range.
fn interpolate(min: f64, max: f64, probe: f64) -> f64 {
    if !probe.is_finite() || !min.is_finite() || !max.is_finite() {
        return 0.5;
    }
    if probe < min {
        0.0
    } else if probe >= max {
        1.0
    } else if max > min {
        (probe - min) / (max - min)
    } else {
        1.0
    }
}

fn lit_f64(e: &Expr) -> Option<f64> {
    match e {
        Expr::Literal(v) => value_as_f64(v),
        _ => None,
    }
}

fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int32(x) => Some(*x as f64),
        Value::Int64(x) => Some(*x as f64),
        Value::Float64(x) => Some(*x),
        Value::Timestamp(x) => Some(*x as f64),
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

fn value_as_f64_opt(v: &Option<Value>) -> Option<f64> {
    v.as_ref().and_then(value_as_f64)
}

/// Collect the names of catalog tables (and named external scans)
/// beneath `plan`, in plan order.
pub fn base_tables(plan: &LogicalPlan, out: &mut Vec<String>) {
    match plan {
        LogicalPlan::TableScan { table, .. } => out.push(table.clone()),
        LogicalPlan::ExternalScan { name, .. } => out.push(name.clone()),
        _ => {}
    }
    for c in plan.children() {
        base_tables(c, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_store::{column_stats, Column, DataType, Field, Schema};

    fn table_with(names_vals: &[(&str, Vec<i64>)]) -> (Schema, Vec<ColumnStats>) {
        let fields: Vec<Field> = names_vals
            .iter()
            .map(|(n, _)| Field::new(n, DataType::Int64))
            .collect();
        let schema = Schema::new(fields).unwrap();
        let stats = names_vals
            .iter()
            .map(|(n, vals)| {
                let values: Vec<Value> = vals.iter().map(|v| Value::Int64(*v)).collect();
                column_stats(n, &Column::from_values(DataType::Int64, &values).unwrap())
            })
            .collect();
        (schema, stats)
    }

    fn scan(table: &str, schema: &Schema) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: table.to_string(),
            schema: schema.clone(),
        }
    }

    #[test]
    fn scan_rows_from_stats() {
        let (schema, stats) = table_with(&[("a", (0..100).collect())]);
        let mut m = CostModel::new();
        m.set_table("t", Arc::new(stats));
        assert_eq!(m.estimate_rows(&scan("t", &schema)), Some(100.0));
        // Unknown table: no estimate.
        assert_eq!(m.estimate_rows(&scan("u", &schema)), None);
    }

    #[test]
    fn filter_selectivity_uses_histogram() {
        let (schema, stats) = table_with(&[("a", (0..1000).collect())]);
        let mut m = CostModel::new();
        m.set_table("t", Arc::new(stats));
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t", &schema)),
            predicate: Expr::col("a").binary(BinaryOp::Lt, Expr::lit(Value::Int64(100))),
        };
        let est = m.estimate_rows(&plan).unwrap();
        assert!(
            (est - 100.0).abs() < 40.0,
            "a < 100 over uniform 0..1000 ≈ 100 rows, got {est}"
        );
    }

    #[test]
    fn equality_uses_distinct_estimate() {
        // 1000 rows, 10 distinct values.
        let vals: Vec<i64> = (0..1000).map(|i| i % 10).collect();
        let (schema, stats) = table_with(&[("a", vals)]);
        let mut m = CostModel::new();
        m.set_table("t", Arc::new(stats));
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t", &schema)),
            predicate: Expr::col("a").binary(BinaryOp::Eq, Expr::lit(Value::Int64(3))),
        };
        let est = m.estimate_rows(&plan).unwrap();
        assert!(
            (est - 100.0).abs() < 30.0,
            "a = 3 over 10 distinct values ≈ 100 rows, got {est}"
        );
    }

    #[test]
    fn join_rows_divide_by_key_distinct() {
        let (fs, fstats) = table_with(&[("id", (0..50).collect())]);
        let rvals: Vec<i64> = (0..500).map(|i| i % 50).collect();
        let (rs, rstats) = table_with(&[("id", rvals)]);
        let mut m = CostModel::new();
        m.set_table("f", Arc::new(fstats));
        m.set_table("r", Arc::new(rstats));
        let plan = LogicalPlan::Join {
            left: Box::new(scan("f", &fs)),
            right: Box::new(scan("r", &rs)),
            on: vec![(Expr::col("id"), Expr::col("id"))],
            right_label: "r".into(),
        };
        let est = m.estimate_rows(&plan).unwrap();
        // 50 × 500 / ~50 distinct ≈ 500.
        assert!((est - 500.0).abs() < 150.0, "FK join ≈ 500 rows, got {est}");
    }

    #[test]
    fn qualified_columns_strip_alias() {
        let (schema, stats) = table_with(&[("a", (0..100).collect())]);
        let mut m = CostModel::new();
        m.set_table("t", Arc::new(stats));
        // Alias projection as the planner emits it.
        let aliased = LogicalPlan::Project {
            input: Box::new(scan("t", &schema)),
            exprs: vec![(Expr::col("a"), "x.a".to_string())],
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(aliased),
            predicate: Expr::col("x.a").binary(BinaryOp::Lt, Expr::lit(Value::Int64(50))),
        };
        let est = m.estimate_rows(&plan).unwrap();
        assert!(est > 10.0 && est < 90.0, "qualified lookup worked: {est}");
    }

    #[test]
    fn multipliers_scale_cost_not_rows() {
        let (schema, stats) = table_with(&[("a", (0..100).collect())]);
        let mut m = CostModel::new();
        m.set_table("t", Arc::new(stats));
        m.set_multiplier("t", 8.0);
        let plan = scan("t", &schema);
        assert_eq!(m.estimate_rows(&plan), Some(100.0));
        assert_eq!(m.estimate_cost(&plan), Some(800.0));
        // Bogus multipliers are ignored.
        m.set_multiplier("t", f64::NAN);
        assert_eq!(m.estimate_cost(&plan), Some(100.0));
    }

    #[test]
    fn nan_tainted_range_degrades_to_default() {
        let mut s = ColumnStats::empty("a");
        s.count = 100;
        s.nans = 1;
        s.min = Some(Value::Float64(0.0));
        s.max = Some(Value::Float64(1.0));
        let schema = Schema::new(vec![Field::new("a", DataType::Float64)]).unwrap();
        let mut m = CostModel::new();
        m.set_table("t", Arc::new(vec![s]));
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t", &schema)),
            predicate: Expr::col("a").binary(BinaryOp::Gt, Expr::lit(Value::Float64(2.0))),
        };
        // Trusted range would say ~0; NaN taint must keep the default.
        let est = m.estimate_rows(&plan).unwrap();
        assert!(
            (est - 100.0 * DEFAULT_RANGE_SELECTIVITY).abs() < 1.0,
            "NaN-tainted range uses default selectivity, got {est}"
        );
    }

    #[test]
    fn limit_and_aggregate_estimates() {
        let vals: Vec<i64> = (0..1000).map(|i| i % 20).collect();
        let (schema, stats) = table_with(&[("a", vals)]);
        let mut m = CostModel::new();
        m.set_table("t", Arc::new(stats));
        let lim = LogicalPlan::Limit {
            input: Box::new(scan("t", &schema)),
            n: 7,
        };
        assert_eq!(m.estimate_rows(&lim), Some(7.0));
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan("t", &schema)),
            group: vec![(Expr::col("a"), "a".into())],
            aggregates: vec![],
        };
        let est = m.estimate_rows(&agg).unwrap();
        assert!(
            (15.0..=30.0).contains(&est),
            "group by 20-distinct key ≈ 20 groups, got {est}"
        );
    }
}
