//! Translation of parsed SQL into logical plans.
//!
//! This is also where **view expansion** happens: a `FROM` reference that
//! names a non-materialized view is replaced by the view's own plan — the
//! paper's lazy-transformation mechanism ("view definitions are simply
//! expanded into the query", §3.2).

use crate::ast::{JoinClause, SelectItem, SelectStmt, TableRef};
use crate::error::{QueryError, Result};
use crate::expr::{resolve_column, BinaryOp, Expr, UnaryOp};
use crate::parser::parse_select;
use crate::plan::LogicalPlan;
use lazyetl_store::{Catalog, Schema, Value};
use std::collections::BTreeMap;

/// How a table name resolves.
#[derive(Debug, Clone)]
pub enum Resolved {
    /// A catalog-resident table.
    Table {
        /// Canonical catalog name.
        name: String,
        /// Its schema.
        schema: Schema,
    },
    /// An external table served by the ETL layer at query time.
    External {
        /// Logical name.
        name: String,
        /// Its schema.
        schema: Schema,
    },
    /// A non-materialized view to expand.
    View {
        /// Canonical name.
        name: String,
        /// `SELECT ...` definition.
        sql: String,
    },
}

/// Name resolution for the planner: catalog tables and views plus
/// registered external tables.
pub struct TableSource<'a> {
    catalog: &'a Catalog,
    externals: BTreeMap<String, Schema>,
}

impl<'a> TableSource<'a> {
    /// Source over a catalog with no external tables.
    pub fn new(catalog: &'a Catalog) -> TableSource<'a> {
        TableSource {
            catalog,
            externals: BTreeMap::new(),
        }
    }

    /// Register an external table (e.g. the lazy `data` table).
    pub fn with_external(mut self, name: &str, schema: Schema) -> TableSource<'a> {
        self.externals.insert(name.to_ascii_lowercase(), schema);
        self
    }

    /// Resolve `name`, trying the full name first, then stripping a schema
    /// prefix (`mseed.dataview` -> `dataview`).
    pub fn resolve(&self, name: &str) -> Option<Resolved> {
        let lower = name.to_ascii_lowercase();
        let candidates: Vec<&str> = match lower.split_once('.') {
            Some((_, rest)) => vec![lower.as_str(), rest],
            None => vec![lower.as_str()],
        };
        for cand in candidates {
            if let Some(schema) = self.externals.get(cand) {
                return Some(Resolved::External {
                    name: cand.to_string(),
                    schema: schema.clone(),
                });
            }
            if let Some(t) = self.catalog.table(cand) {
                return Some(Resolved::Table {
                    name: cand.to_string(),
                    schema: t.schema.clone(),
                });
            }
            if let Some(v) = self.catalog.view(cand) {
                return Some(Resolved::View {
                    name: cand.to_string(),
                    sql: v.sql.clone(),
                });
            }
        }
        None
    }
}

const MAX_VIEW_DEPTH: usize = 8;

/// Plan a parsed SELECT against a table source.
pub fn plan_select(stmt: &SelectStmt, source: &TableSource<'_>) -> Result<LogicalPlan> {
    plan_select_depth(stmt, source, 0)
}

/// Parse and plan a SQL string.
pub fn plan_sql(sql: &str, source: &TableSource<'_>) -> Result<LogicalPlan> {
    let stmt = parse_select(sql)?;
    plan_select(&stmt, source)
}

fn plan_table_ref(tref: &TableRef, source: &TableSource<'_>, depth: usize) -> Result<LogicalPlan> {
    if depth > MAX_VIEW_DEPTH {
        return Err(QueryError::Plan(format!(
            "view nesting deeper than {MAX_VIEW_DEPTH} (cycle?)"
        )));
    }
    let resolved = source
        .resolve(&tref.name)
        .ok_or_else(|| QueryError::Plan(format!("unknown table or view {:?}", tref.name)))?;
    let base = match resolved {
        Resolved::Table { name, schema } => LogicalPlan::TableScan {
            table: name,
            schema,
        },
        Resolved::External { name, schema } => LogicalPlan::ExternalScan { name, schema },
        Resolved::View { sql, .. } => {
            let inner = parse_select(&sql)?;
            plan_select_depth(&inner, source, depth + 1)?
        }
    };
    // Alias-qualify every output column so `f.station` resolves exactly and
    // duplicate names across join sides stay distinguishable.
    match &tref.alias {
        Some(alias) => {
            let schema = base.schema()?;
            let exprs = schema
                .fields
                .iter()
                .map(|f| {
                    (
                        Expr::Column(f.name.clone()),
                        format!("{alias}.{}", f.name.rsplit('.').next().unwrap_or(&f.name)),
                    )
                })
                .collect();
            Ok(LogicalPlan::Project {
                input: Box::new(base),
                exprs,
            })
        }
        None => Ok(base),
    }
}

/// Split a conjunction into its factors.
pub fn split_conjunction(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            split_conjunction(left, out);
            split_conjunction(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Rebuild a conjunction from factors (`true` when empty).
pub fn conjoin(mut factors: Vec<Expr>) -> Option<Expr> {
    let first = if factors.is_empty() {
        return None;
    } else {
        factors.remove(0)
    };
    Some(factors.into_iter().fold(first, |acc, e| acc.and(e)))
}

fn expr_resolves(expr: &Expr, schema: &Schema) -> bool {
    let mut cols = Vec::new();
    expr.columns_used(&mut cols);
    !cols.is_empty() && cols.iter().all(|c| resolve_column(schema, c).is_some())
}

/// Normalize one ON-clause conjunct toward a recognizable equi-join:
/// constant-fold, strip double negation, unwrap boolean-literal
/// comparisons (`(a = b) = TRUE`, `FALSE <> (a = b)`), and rewrite
/// `NOT (a <> b)` to `a = b`. All rewrites preserve SQL three-valued
/// semantics under ON (NULL and FALSE both reject the row pair).
fn normalize_on_conjunct(c: &Expr) -> Expr {
    let mut e = crate::optimizer::fold_expr(c);
    loop {
        let next = match &e {
            // (expr = TRUE) / (TRUE = expr) / (expr <> FALSE) / (FALSE <> expr)
            Expr::Binary { left, op, right }
                if matches!(
                    (op, &**right),
                    (BinaryOp::Eq, Expr::Literal(Value::Bool(true)))
                        | (BinaryOp::NotEq, Expr::Literal(Value::Bool(false)))
                ) =>
            {
                (**left).clone()
            }
            Expr::Binary { left, op, right }
                if matches!(
                    (op, &**left),
                    (BinaryOp::Eq, Expr::Literal(Value::Bool(true)))
                        | (BinaryOp::NotEq, Expr::Literal(Value::Bool(false)))
                ) =>
            {
                (**right).clone()
            }
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => match &**expr {
                // NOT NOT e
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: inner,
                } => (**inner).clone(),
                // NOT (a <> b)  →  a = b
                Expr::Binary {
                    left,
                    op: BinaryOp::NotEq,
                    right,
                } => Expr::Binary {
                    left: left.clone(),
                    op: BinaryOp::Eq,
                    right: right.clone(),
                },
                _ => break,
            },
            _ => break,
        };
        e = next;
    }
    e
}

fn plan_joins(
    mut plan: LogicalPlan,
    joins: &[JoinClause],
    source: &TableSource<'_>,
    depth: usize,
) -> Result<LogicalPlan> {
    for j in joins {
        let right = plan_table_ref(&j.table, source, depth)?;
        let left_schema = plan.schema()?;
        let right_schema = right.schema()?;
        let mut conjuncts = Vec::new();
        split_conjunction(&normalize_on_conjunct(&j.on), &mut conjuncts);
        let mut on_pairs = Vec::new();
        let mut residual = Vec::new();
        for c in conjuncts {
            let c = normalize_on_conjunct(&c);
            // A conjunct folded to literal TRUE filters nothing: drop it.
            if matches!(c, Expr::Literal(Value::Bool(true))) {
                continue;
            }
            if let Expr::Binary {
                left: a,
                op: BinaryOp::Eq,
                right: b,
            } = &c
            {
                if expr_resolves(a, &left_schema) && expr_resolves(b, &right_schema) {
                    on_pairs.push(((**a).clone(), (**b).clone()));
                    continue;
                }
                if expr_resolves(b, &left_schema) && expr_resolves(a, &right_schema) {
                    on_pairs.push(((**b).clone(), (**a).clone()));
                    continue;
                }
            }
            residual.push(c);
        }
        if on_pairs.is_empty() {
            return Err(QueryError::Plan(format!(
                "JOIN ON {:?} has no equi-join condition",
                j.on.to_string()
            )));
        }
        let right_label = j.table.alias.clone().unwrap_or_else(|| {
            j.table
                .name
                .rsplit('.')
                .next()
                .unwrap_or(&j.table.name)
                .to_string()
        });
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            on: on_pairs,
            right_label,
        };
        if let Some(pred) = conjoin(residual) {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }
    }
    Ok(plan)
}

/// Collect every distinct aggregate call in an expression tree, in first
/// appearance order (an aggregate's own argument is not searched).
fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    if matches!(expr, Expr::Aggregate { .. }) {
        if !out.contains(expr) {
            out.push(expr.clone());
        }
    } else {
        expr.for_each_child(|c| collect_aggregates(c, out));
    }
}

/// Replace group-by expressions and aggregate calls with references to the
/// aggregate node's output columns.
fn rewrite_post_aggregate(
    expr: &Expr,
    group: &[(Expr, String)],
    aggregates: &[(Expr, String)],
) -> Expr {
    expr.transform(&mut |node| {
        for (g, name) in group {
            if &node == g {
                return Expr::Column(name.clone());
            }
        }
        for (a, name) in aggregates {
            if &node == a {
                return Expr::Column(name.clone());
            }
        }
        node
    })
}

fn unique_name(base: String, used: &mut Vec<String>) -> String {
    let name = if used.contains(&base) {
        let mut i = 2;
        loop {
            let cand = format!("{base}_{i}");
            if !used.contains(&cand) {
                break cand;
            }
            i += 1;
        }
    } else {
        base
    };
    used.push(name.clone());
    name
}

fn plan_select_depth(
    stmt: &SelectStmt,
    source: &TableSource<'_>,
    depth: usize,
) -> Result<LogicalPlan> {
    // FROM and JOINs.
    let mut plan = match &stmt.from {
        Some(tref) => plan_table_ref(tref, source, depth)?,
        None => LogicalPlan::OneRow,
    };
    plan = plan_joins(plan, &stmt.joins, source, depth)?;

    // WHERE.
    if let Some(pred) = &stmt.where_clause {
        if pred.contains_aggregate() {
            return Err(QueryError::Plan(
                "aggregate functions are not allowed in WHERE (use HAVING)".into(),
            ));
        }
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred.clone(),
        };
    }

    // Expand wildcard and collect projection expressions.
    let input_schema = plan.schema()?;
    let mut items: Vec<(Expr, Option<String>)> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                // Keep input names verbatim (including `alias.` qualifiers):
                // stripping them would collapse `f.start_time` and
                // `r.start_time` into one ambiguous-looking name and break
                // qualified references against views defined with `*`.
                for f in &input_schema.fields {
                    items.push((Expr::Column(f.name.clone()), Some(f.name.clone())));
                }
            }
            SelectItem::Expr { expr, alias } => items.push((expr.clone(), alias.clone())),
        }
    }
    if items.is_empty() {
        return Err(QueryError::Plan("empty SELECT list".into()));
    }

    // GROUP BY may reference select-list aliases.
    let group_exprs: Vec<Expr> = stmt
        .group_by
        .iter()
        .map(|g| match g {
            Expr::Column(name) => items
                .iter()
                .find(|(_, alias)| alias.as_deref() == Some(name.as_str()))
                .map(|(e, _)| e.clone())
                .unwrap_or_else(|| g.clone()),
            other => other.clone(),
        })
        .collect();

    let needs_aggregate = !group_exprs.is_empty()
        || items.iter().any(|(e, _)| e.contains_aggregate())
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate());

    let mut having = stmt.having.clone();
    let mut order_keys: Vec<(Expr, bool)> = stmt
        .order_by
        .iter()
        .map(|k| (k.expr.clone(), k.desc))
        .collect();

    if needs_aggregate {
        // Gather all aggregate calls appearing anywhere downstream.
        let mut aggs: Vec<Expr> = Vec::new();
        for (e, _) in &items {
            collect_aggregates(e, &mut aggs);
        }
        if let Some(h) = &having {
            collect_aggregates(h, &mut aggs);
        }
        for (e, _) in &order_keys {
            collect_aggregates(e, &mut aggs);
        }
        let mut used = Vec::new();
        let group: Vec<(Expr, String)> = group_exprs
            .iter()
            .map(|e| (e.clone(), unique_name(e.default_name(), &mut used)))
            .collect();
        let aggregates: Vec<(Expr, String)> = aggs
            .iter()
            .map(|e| (e.clone(), unique_name(e.default_name(), &mut used)))
            .collect();
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group: group.clone(),
            aggregates: aggregates.clone(),
        };
        // Rewrite downstream expressions onto aggregate output columns.
        for (e, _) in &mut items {
            *e = rewrite_post_aggregate(e, &group, &aggregates);
        }
        if let Some(h) = having.take() {
            having = Some(rewrite_post_aggregate(&h, &group, &aggregates));
        }
        for (e, _) in &mut order_keys {
            *e = rewrite_post_aggregate(e, &group, &aggregates);
        }
    } else if stmt.having.is_some() {
        return Err(QueryError::Plan(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    }

    // HAVING.
    if let Some(h) = having {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: h,
        };
    }

    // Projection with unique output names.
    let mut used = Vec::new();
    let exprs: Vec<(Expr, String)> = items
        .into_iter()
        .map(|(e, alias)| {
            let name = alias.unwrap_or_else(|| e.default_name());
            let name = unique_name(name, &mut used);
            (e, name)
        })
        .collect();
    let pre_project_schema = plan.schema()?;
    let project = LogicalPlan::Project {
        input: Box::new(plan),
        exprs: exprs.clone(),
    };
    let project_schema = project.schema()?;

    // ORDER BY: prefer sorting over projected output (aliases visible);
    // fall back to sorting the pre-projection rows.
    let mut plan = if order_keys.is_empty() {
        project
    } else {
        let all_over_output = order_keys
            .iter()
            .all(|(e, _)| crate::expr::infer_type(e, &project_schema).is_ok());
        if all_over_output {
            LogicalPlan::Sort {
                input: Box::new(project),
                keys: order_keys,
            }
        } else {
            let all_over_input = order_keys
                .iter()
                .all(|(e, _)| crate::expr::infer_type(e, &pre_project_schema).is_ok());
            if !all_over_input {
                return Err(QueryError::Plan(
                    "ORDER BY expression references unknown columns".into(),
                ));
            }
            // Sort beneath the projection.
            match project {
                LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                    input: Box::new(LogicalPlan::Sort {
                        input,
                        keys: order_keys,
                    }),
                    exprs,
                },
                _ => unreachable!("constructed above"),
            }
        }
    };

    if stmt.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_store::{DataType, Field, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let files = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("uri", DataType::Utf8),
            Field::new("station", DataType::Utf8),
            Field::new("network", DataType::Utf8),
            Field::new("channel", DataType::Utf8),
        ])
        .unwrap();
        let records = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("seq_no", DataType::Int64),
            Field::new("start_time", DataType::Timestamp),
        ])
        .unwrap();
        let data = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("seq_no", DataType::Int64),
            Field::new("sample_time", DataType::Timestamp),
            Field::new("sample_value", DataType::Float64),
        ])
        .unwrap();
        c.create_table("files", Table::empty(files)).unwrap();
        c.create_table("records", Table::empty(records)).unwrap();
        c.create_table("data", Table::empty(data)).unwrap();
        c.create_view(
            "dataview",
            "SELECT * FROM files f JOIN records r ON f.file_id = r.file_id \
             JOIN data d ON r.file_id = d.file_id AND r.seq_no = d.seq_no",
        )
        .unwrap();
        c
    }

    #[test]
    fn plans_simple_scan_filter_project() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql("SELECT uri FROM files WHERE station = 'ISK'", &src).unwrap();
        let d = plan.display();
        assert!(d.contains("Project: uri"));
        assert!(d.contains("Filter: (station = 'ISK')"));
        assert!(d.contains("TableScan: files"));
    }

    #[test]
    fn strips_schema_prefix() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql("SELECT uri FROM mseed.files", &src).unwrap();
        assert!(plan.display().contains("TableScan: files"));
    }

    #[test]
    fn expands_view_with_joins() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT AVG(D.sample_value) FROM mseed.dataview WHERE F.station = 'ISK'",
            &src,
        )
        .unwrap();
        let d = plan.display();
        assert!(d.contains("Join(inner)"), "view joins expanded:\n{d}");
        assert!(d.contains("TableScan: files"));
        assert!(d.contains("TableScan: data"));
        assert!(d.contains("Aggregate"));
    }

    #[test]
    fn external_table_resolution() {
        let c = catalog();
        let data_schema = c.table("data").unwrap().schema.clone();
        let src = TableSource::new(&c).with_external("extdata", data_schema);
        let plan = plan_sql("SELECT sample_value FROM extdata", &src).unwrap();
        assert!(plan.display().contains("ExternalScan: extdata"));
    }

    #[test]
    fn group_by_alias_and_having() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT station AS s, COUNT(*) AS cnt FROM files GROUP BY s HAVING COUNT(*) > 1 ORDER BY cnt DESC LIMIT 3",
            &src,
        )
        .unwrap();
        let d = plan.display();
        assert!(d.contains("Aggregate: groupBy=[station]"));
        assert!(d.contains("Limit: 3"));
        assert!(d.contains("Sort: cnt DESC"));
    }

    #[test]
    fn wildcard_expands() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql("SELECT * FROM records", &src).unwrap();
        let s = plan.schema().unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let c = catalog();
        let src = TableSource::new(&c);
        assert!(plan_sql("SELECT * FROM nothere", &src).is_err());
        let plan = plan_sql("SELECT missing_col FROM files", &src);
        // planning succeeds structurally; schema computation flags it
        if let Ok(p) = plan {
            assert!(p.schema().is_err());
        }
    }

    #[test]
    fn aggregates_in_where_rejected() {
        let c = catalog();
        let src = TableSource::new(&c);
        assert!(plan_sql("SELECT station FROM files WHERE COUNT(*) > 1", &src).is_err());
        assert!(plan_sql("SELECT station FROM files HAVING station <> ''", &src).is_err());
    }

    #[test]
    fn order_by_unprojected_column_sorts_below_project() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql("SELECT uri FROM files ORDER BY station", &src).unwrap();
        let d = plan.display();
        // Sort must be under the Project.
        let sort_pos = d.find("Sort").unwrap();
        let proj_pos = d.find("Project").unwrap();
        assert!(proj_pos < sort_pos, "plan:\n{d}");
    }

    #[test]
    fn equi_join_accepted_reversed_and_wrapped() {
        let c = catalog();
        let src = TableSource::new(&c);
        // Reversed: right-side column written first.
        let plan = plan_sql(
            "SELECT f.uri FROM files f JOIN records r ON r.file_id = f.file_id",
            &src,
        )
        .unwrap();
        assert!(plan.display().contains("Join(inner)"));
        // Wrapped in double negation: NOT (a <> b) is the same equi-join.
        let plan = plan_sql(
            "SELECT f.uri FROM files f JOIN records r ON NOT (f.file_id <> r.file_id)",
            &src,
        )
        .unwrap();
        let d = plan.display();
        assert!(
            d.contains("Join(inner): f.file_id = r.file_id"),
            "NOT(<>) normalized to equality:\n{d}"
        );
        // Wrapped in a constant-foldable boolean comparison.
        let plan = plan_sql(
            "SELECT f.uri FROM files f JOIN records r ON (f.file_id = r.file_id) = (1 = 1)",
            &src,
        )
        .unwrap();
        assert!(plan
            .display()
            .contains("Join(inner): f.file_id = r.file_id"));
    }

    #[test]
    fn tautological_on_conjunct_dropped() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT f.uri FROM files f JOIN records r ON f.file_id = r.file_id AND 1 = 1",
            &src,
        )
        .unwrap();
        let d = plan.display();
        assert!(d.contains("Join(inner): f.file_id = r.file_id"));
        // The 1 = 1 must neither survive as a residual filter nor as an
        // extra join condition.
        assert!(!d.contains("Filter: true"), "plan:\n{d}");
        // An ON clause that is nothing but tautology is still rejected —
        // there is no equi-join condition in it.
        assert!(plan_sql("SELECT f.uri FROM files f JOIN records r ON 1 = 1", &src).is_err());
    }

    #[test]
    fn join_residual_becomes_filter() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT f.uri FROM files f JOIN records r ON f.file_id = r.file_id AND r.seq_no > 5",
            &src,
        )
        .unwrap();
        let d = plan.display();
        assert!(d.contains("Filter: (r.seq_no > 5)"), "plan:\n{d}");
        assert!(
            plan_sql(
                "SELECT f.uri FROM files f JOIN records r ON r.seq_no > 5",
                &src
            )
            .is_err(),
            "join without equi-condition rejected"
        );
    }
}
