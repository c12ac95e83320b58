//! Compile-time plan optimization.
//!
//! Three rewrites run before execution, in order:
//!
//! 1. **Timestamp-literal coercion** — string literals compared against
//!    TIMESTAMP columns become microsecond timestamps, so the paper's
//!    Figure-1 queries (`R.start_time > '2010-01-12T00:00:00.000'`) compare
//!    numerically.
//! 2. **Constant folding** — literal-only subexpressions collapse.
//! 3. **Predicate pushdown** — conjunctions split and sink toward their
//!    scans: through projections (with substitution), sorts, distinct, and
//!    into join inputs. This is the compile-time half of the paper's lazy
//!    extraction (§3.1): after pushdown, "the selection predicates on the
//!    metadata are applied first", leaving data-side predicates sitting
//!    directly on the external scan where the runtime rewriter collects
//!    them.

use crate::cost::CostModel;
use crate::error::Result;
use crate::expr::{eval_binary_values, eval_neg_value, infer_type, resolve_column, Expr, UnaryOp};
use crate::plan::LogicalPlan;
use crate::planner::{conjoin, split_conjunction};
use crate::time::parse_iso_micros;
use lazyetl_store::{DataType, Schema, Value};

/// Run all optimizer passes (heuristic join order: as written).
pub fn optimize(plan: &LogicalPlan) -> Result<LogicalPlan> {
    let plan = coerce_timestamp_literals(plan)?;
    let plan = fold_constants(&plan);
    let plan = push_down_filters(&plan)?;
    let plan = prune_columns(&plan, None)?;
    Ok(plan)
}

/// Run all optimizer passes including cost-based join reordering.
///
/// Reordering only fires where the model can estimate every join input
/// (statless pre-upgrade snapshots produce no estimates, so their plans
/// keep the as-written order — the old heuristics).
pub fn optimize_with_cost(plan: &LogicalPlan, model: &CostModel) -> Result<LogicalPlan> {
    let plan = coerce_timestamp_literals(plan)?;
    let plan = fold_constants(&plan);
    let plan = push_down_filters(&plan)?;
    let plan = reorder_joins(&plan, model)?;
    let plan = prune_columns(&plan, None)?;
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Pass 1: timestamp literal coercion
// ---------------------------------------------------------------------------

fn is_timestamp_expr(e: &Expr, schema: &Schema) -> bool {
    matches!(infer_type(e, schema), Ok(DataType::Timestamp))
}

fn coerce_literal(e: &Expr) -> Option<Expr> {
    if let Expr::Literal(Value::Utf8(s)) = e {
        parse_iso_micros(s).map(|us| Expr::Literal(Value::Timestamp(us)))
    } else {
        None
    }
}

fn coerce_in_expr(expr: &Expr, schema: &Schema) -> Expr {
    expr.transform(&mut |node| match &node {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            if is_timestamp_expr(left, schema) {
                if let Some(lit) = coerce_literal(right) {
                    return Expr::Binary {
                        left: left.clone(),
                        op: *op,
                        right: Box::new(lit),
                    };
                }
            }
            if is_timestamp_expr(right, schema) {
                if let Some(lit) = coerce_literal(left) {
                    return Expr::Binary {
                        left: Box::new(lit),
                        op: *op,
                        right: right.clone(),
                    };
                }
            }
            node
        }
        Expr::Between {
            expr: tested,
            low,
            high,
            negated,
        } if is_timestamp_expr(tested, schema) => {
            let low2 = coerce_literal(low).unwrap_or_else(|| (**low).clone());
            let high2 = coerce_literal(high).unwrap_or_else(|| (**high).clone());
            Expr::Between {
                expr: tested.clone(),
                low: Box::new(low2),
                high: Box::new(high2),
                negated: *negated,
            }
        }
        Expr::InList {
            expr: tested,
            list,
            negated,
        } if is_timestamp_expr(tested, schema) => Expr::InList {
            expr: tested.clone(),
            list: list
                .iter()
                .map(|e| coerce_literal(e).unwrap_or_else(|| e.clone()))
                .collect(),
            negated: *negated,
        },
        _ => node,
    })
}

/// Coerce ISO-8601 string literals compared against timestamp expressions.
pub fn coerce_timestamp_literals(plan: &LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            let new_input = coerce_timestamp_literals(input)?;
            let schema = new_input.schema()?;
            LogicalPlan::Filter {
                predicate: coerce_in_expr(predicate, &schema),
                input: Box::new(new_input),
            }
        }
        LogicalPlan::Project { input, exprs } => {
            let new_input = coerce_timestamp_literals(input)?;
            let schema = new_input.schema()?;
            LogicalPlan::Project {
                exprs: exprs
                    .iter()
                    .map(|(e, n)| (coerce_in_expr(e, &schema), n.clone()))
                    .collect(),
                input: Box::new(new_input),
            }
        }
        other => other.try_map_children(coerce_timestamp_literals)?,
    })
}

// ---------------------------------------------------------------------------
// Pass 2: constant folding
// ---------------------------------------------------------------------------

/// Try to evaluate an expression that references no columns. `None`
/// leaves the expression unfolded, so an evaluation error (integer
/// overflow, say) surfaces at run time rather than at plan time.
pub fn try_eval_const(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Binary { left, op, right } => {
            // Both sides must be constant, AND/OR included: `x AND FALSE`
            // is not folded even though its value is known.
            let l = try_eval_const(left)?;
            let r = try_eval_const(right)?;
            eval_binary_values(*op, &l, &r).ok()
        }
        Expr::Unary { op, expr } => {
            let v = try_eval_const(expr)?;
            match op {
                UnaryOp::Not => v.as_bool().map(|b| Value::Bool(!b)).or(if v.is_null() {
                    Some(Value::Null)
                } else {
                    None
                }),
                UnaryOp::Neg => eval_neg_value(&v).ok(),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = try_eval_const(expr)?;
            Some(Value::Bool(v.is_null() != *negated))
        }
        _ => None,
    }
}

/// Fold constant subexpressions of a single expression.
pub fn fold_expr(expr: &Expr) -> Expr {
    expr.transform(&mut |node| {
        if matches!(node, Expr::Literal(_)) {
            return node;
        }
        match try_eval_const(&node) {
            Some(v) => Expr::Literal(v),
            None => node,
        }
    })
}

/// Fold constant subexpressions throughout the plan.
pub fn fold_constants(plan: &LogicalPlan) -> LogicalPlan {
    plan.transform_up(&mut |node| match node {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input,
            predicate: fold_expr(&predicate),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input,
            exprs: exprs.into_iter().map(|(e, n)| (fold_expr(&e), n)).collect(),
        },
        other => other,
    })
}

// ---------------------------------------------------------------------------
// Pass 3: predicate pushdown
// ---------------------------------------------------------------------------

fn columns_of(expr: &Expr) -> Vec<String> {
    let mut cols = Vec::new();
    expr.columns_used(&mut cols);
    cols
}

fn all_resolve(expr: &Expr, schema: &Schema) -> bool {
    columns_of(expr)
        .iter()
        .all(|c| resolve_column(schema, c).is_some())
}

/// Substitute projection outputs back into a predicate so it can move
/// below the projection, using the same qualifier-aware resolution rules
/// as column lookup (see [`crate::expr::resolve_name`]).
fn substitute_project(pred: &Expr, exprs: &[(Expr, String)]) -> Expr {
    pred.transform(&mut |node| {
        if let Expr::Column(name) = &node {
            if let Some(i) = crate::expr::resolve_name(exprs.iter().map(|(_, n)| n.as_str()), name)
            {
                return exprs[i].0.clone();
            }
        }
        node
    })
}

/// Push filter conjunctions toward their scans.
pub fn push_down_filters(plan: &LogicalPlan) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let mut conjuncts = Vec::new();
            split_conjunction(predicate, &mut conjuncts);
            push_conjuncts(input, conjuncts)
        }
        other => other.try_map_children(push_down_filters),
    }
}

/// Push a set of conjuncts into `plan`, wrapping what cannot sink.
fn push_conjuncts(plan: &LogicalPlan, mut conjuncts: Vec<Expr>) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            // Merge and continue downward.
            let mut all = conjuncts;
            split_conjunction(predicate, &mut all);
            push_conjuncts(input, all)
        }
        LogicalPlan::Project { input, exprs } => {
            let input_schema = input.schema()?;
            let mut sinkable = Vec::new();
            let mut stuck = Vec::new();
            for c in conjuncts {
                let substituted = substitute_project(&c, exprs);
                if all_resolve(&substituted, &input_schema) {
                    sinkable.push(substituted);
                } else {
                    stuck.push(c);
                }
            }
            let new_input = push_conjuncts(input, sinkable)?;
            let node = LogicalPlan::Project {
                input: Box::new(new_input),
                exprs: exprs.clone(),
            };
            Ok(wrap_filter(node, stuck))
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            right_label,
        } => {
            let left_schema = left.schema()?;
            let right_schema = right.schema()?;
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut stuck = Vec::new();
            for c in conjuncts {
                if all_resolve(&c, &left_schema) {
                    to_left.push(c);
                } else if all_resolve(&c, &right_schema) {
                    to_right.push(c);
                } else {
                    stuck.push(c);
                }
            }
            let node = LogicalPlan::Join {
                left: Box::new(push_conjuncts(left, to_left)?),
                right: Box::new(push_conjuncts(right, to_right)?),
                on: on.clone(),
                right_label: right_label.clone(),
            };
            Ok(wrap_filter(node, stuck))
        }
        // Row-preserving single-input nodes: everything passes through.
        LogicalPlan::Sort { .. } | LogicalPlan::Distinct { .. } => {
            plan.try_map_children(|input| push_conjuncts(input, std::mem::take(&mut conjuncts)))
        }
        // Not safe to push through Limit or Aggregate; optimize below and
        // leave the filter here.
        other => {
            let below = push_down_filters(other)?;
            Ok(wrap_filter(below, conjuncts))
        }
    }
}

fn wrap_filter(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    match conjoin(conjuncts) {
        Some(pred) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred,
        },
        None => plan,
    }
}

// ---------------------------------------------------------------------------
// Pass 3b: cost-based join reordering
// ---------------------------------------------------------------------------

/// One relation of a flattened join chain.
struct JoinLeaf {
    plan: LogicalPlan,
    schema: Schema,
    label: String,
}

/// An equi-join edge between two leaves; `a_expr` resolves against
/// `leaves[a]`, `b_expr` against `leaves[b]`.
struct JoinEdge {
    a: usize,
    b: usize,
    a_expr: Expr,
    b_expr: Expr,
}

/// Reorder contiguous chains of inner equi-joins by estimated cost:
/// start from the cheapest relation (estimated rows × source access
/// multiplier), then greedily add the connected relation minimizing the
/// intermediate result, again weighted by the candidate's multiplier.
/// Expensive federated mounts therefore enter the chain as late as
/// possible — by the time their rows are touched, the accumulated
/// selectivity of every earlier join and filter applies to them in one
/// step. The rewritten chain is wrapped in a projection restoring the
/// original output schema, so the rewrite is transparent to everything
/// above it.
///
/// The pass is deliberately conservative — a chain keeps its as-written
/// order whenever any of these hold:
/// * fewer than three relations (two-way joins already pick the smaller
///   build side at run time);
/// * output column names are not globally unique (reordering would change
///   the join's duplicate-renaming);
/// * an ON-condition side spans more than one relation;
/// * the model cannot estimate every relation (statless snapshots).
pub fn reorder_joins(plan: &LogicalPlan, model: &CostModel) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Join { .. } => reorder_chain(plan, model),
        other => other.try_map_children(|c| reorder_joins(c, model)),
    }
}

/// Flatten a maximal tree of Join nodes into its non-join leaves and raw
/// equi-edges. Leaves keep the `right_label` they carried where known.
fn flatten_chain(
    plan: &LogicalPlan,
    leaves: &mut Vec<(LogicalPlan, String)>,
    raw_edges: &mut Vec<(Expr, Expr)>,
) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            on,
            right_label,
        } => {
            flatten_chain(left, leaves, raw_edges);
            match &**right {
                LogicalPlan::Join { .. } => flatten_chain(right, leaves, raw_edges),
                other => leaves.push((other.clone(), right_label.clone())),
            }
            raw_edges.extend(on.iter().cloned());
        }
        other => leaves.push((other.clone(), String::new())),
    }
}

/// Keep a join chain's structure, recursing into its non-join subtrees.
fn keep_order(plan: &LogicalPlan, model: &CostModel) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Join { .. } => plan.try_map_children(|c| keep_order(c, model)),
        other => reorder_joins(other, model),
    }
}

fn reorder_chain(plan: &LogicalPlan, model: &CostModel) -> Result<LogicalPlan> {
    let original_schema = plan.schema()?;
    let mut raw_leaves = Vec::new();
    let mut raw_edges = Vec::new();
    flatten_chain(plan, &mut raw_leaves, &mut raw_edges);
    let n = raw_leaves.len();
    if n < 3 {
        return keep_order(plan, model);
    }

    let mut leaves = Vec::with_capacity(n);
    for (lp, label) in &raw_leaves {
        let schema = lp.schema()?;
        leaves.push(JoinLeaf {
            plan: lp.clone(),
            schema,
            label: label.clone(),
        });
    }

    // Output names must be globally unique, or reordering would change the
    // join's duplicate-renaming and break references above.
    let mut all_names = std::collections::BTreeSet::new();
    for l in &leaves {
        for f in &l.schema.fields {
            if !all_names.insert(f.name.clone()) {
                return keep_order(plan, model);
            }
        }
    }

    // Attribute each edge side to exactly one leaf.
    let mut edges = Vec::with_capacity(raw_edges.len());
    for (le, re) in &raw_edges {
        let owner = |e: &Expr| -> Option<usize> {
            let mut found = None;
            for (i, l) in leaves.iter().enumerate() {
                if all_resolve(e, &l.schema) {
                    if found.is_some() {
                        return None; // ambiguous (can't happen with unique names)
                    }
                    found = Some(i);
                }
            }
            found
        };
        match (owner(le), owner(re)) {
            (Some(a), Some(b)) if a != b => edges.push(JoinEdge {
                a,
                b,
                a_expr: le.clone(),
                b_expr: re.clone(),
            }),
            _ => return keep_order(plan, model),
        }
    }

    // Every relation must have an estimate and at least one edge.
    let mut rows = Vec::with_capacity(n);
    for l in &leaves {
        match model.estimate_rows(&l.plan) {
            Some(r) => rows.push(r),
            None => return keep_order(plan, model),
        }
    }
    for i in 0..n {
        if !edges.iter().any(|e| e.a == i || e.b == i) {
            return keep_order(plan, model);
        }
    }

    // Greedy: cheapest relation first (rows × access multiplier), then
    // repeatedly join the connected relation whose result — weighted by
    // its own multiplier — is cheapest.
    let cost = |i: usize| rows[i] * model.access_multiplier(&leaves[i].plan);
    let start = (0..n)
        .min_by(|&i, &j| cost(i).total_cmp(&cost(j)))
        .expect("n >= 3");
    let mut used = vec![false; n];
    used[start] = true;
    let mut order = vec![start];
    let mut cur = reorder_joins(&leaves[start].plan, model)?;
    for _ in 1..n {
        let mut best: Option<(f64, usize, LogicalPlan)> = None;
        for j in 0..n {
            if used[j] {
                continue;
            }
            // Orient every edge between the accumulated set and leaf j.
            let mut on = Vec::new();
            for e in &edges {
                if e.b == j && used[e.a] {
                    on.push((e.a_expr.clone(), e.b_expr.clone()));
                } else if e.a == j && used[e.b] {
                    on.push((e.b_expr.clone(), e.a_expr.clone()));
                }
            }
            if on.is_empty() {
                continue; // not yet connected
            }
            let label = if leaves[j].label.is_empty() {
                format!("j{j}")
            } else {
                leaves[j].label.clone()
            };
            let candidate = LogicalPlan::Join {
                left: Box::new(cur.clone()),
                right: Box::new(reorder_joins(&leaves[j].plan, model)?),
                on,
                right_label: label,
            };
            let est = match model.estimate_rows(&candidate) {
                Some(e) => e,
                None => return keep_order(plan, model),
            };
            let score = est * model.access_multiplier(&leaves[j].plan);
            let better = match &best {
                None => true,
                Some((s, bj, _)) => score < *s || (score == *s && j < *bj),
            };
            if better {
                best = Some((score, j, candidate));
            }
        }
        let (_, j, candidate) = match best {
            Some(b) => b,
            None => return keep_order(plan, model), // disconnected graph
        };
        used[j] = true;
        order.push(j);
        cur = candidate;
    }

    if order == (0..n).collect::<Vec<_>>() {
        // Chosen order is the as-written order: keep the original tree
        // (and its schema) untouched.
        return keep_order(plan, model);
    }

    // Restore the original column order so the rewrite is invisible above.
    let exprs: Vec<(Expr, String)> = original_schema
        .fields
        .iter()
        .map(|f| (Expr::Column(f.name.clone()), f.name.clone()))
        .collect();
    Ok(LogicalPlan::Project {
        input: Box::new(cur),
        exprs,
    })
}

// ---------------------------------------------------------------------------
// Pass 4: projection pruning
// ---------------------------------------------------------------------------

/// Names a node's parent actually consumes; `None` = everything.
type Required = Option<std::collections::BTreeSet<String>>;

fn require_all() -> Required {
    None
}

fn add_expr_columns(req: &mut std::collections::BTreeSet<String>, e: &Expr) {
    let mut cols = Vec::new();
    e.columns_used(&mut cols);
    req.extend(cols);
}

/// Is output name `name` needed by the requirement set?
fn is_required(req: &Required, name: &str, all_names: &[String]) -> bool {
    match req {
        None => true,
        Some(set) => set.iter().any(|want| {
            // A required reference matches this output if resolution over
            // the full output list picks exactly this column.
            crate::expr::resolve_name(all_names.iter().map(|s| s.as_str()), want)
                .map(|i| all_names[i] == name)
                .unwrap_or(false)
        }),
    }
}

/// Drop unused columns: narrow projections to what their consumers need and
/// insert narrowing projections on join inputs. Wide scans (the
/// de-normalized dataview exposes ~30 columns) otherwise drag every column
/// through joins and gathers.
pub fn prune_columns(plan: &LogicalPlan, required: Required) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Project { input, exprs } => {
            let all_names: Vec<String> = exprs.iter().map(|(_, n)| n.clone()).collect();
            let kept: Vec<(Expr, String)> = exprs
                .iter()
                .filter(|(_, n)| is_required(&required, n, &all_names))
                .cloned()
                .collect();
            // Never prune to zero columns.
            let kept = if kept.is_empty() { exprs.clone() } else { kept };
            let mut child_req = std::collections::BTreeSet::new();
            for (e, _) in &kept {
                add_expr_columns(&mut child_req, e);
            }
            LogicalPlan::Project {
                input: Box::new(prune_columns(input, Some(child_req))?),
                exprs: kept,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let required = match required {
                None => None,
                Some(mut set) => {
                    add_expr_columns(&mut set, predicate);
                    Some(set)
                }
            };
            LogicalPlan::Filter {
                input: Box::new(prune_columns(input, required)?),
                predicate: predicate.clone(),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group,
            aggregates,
        } => {
            let mut child_req = std::collections::BTreeSet::new();
            for (e, _) in group.iter().chain(aggregates) {
                add_expr_columns(&mut child_req, e);
            }
            LogicalPlan::Aggregate {
                input: Box::new(prune_columns(input, Some(child_req))?),
                group: group.clone(),
                aggregates: aggregates.clone(),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            right_label,
        } => {
            let left_schema = left.schema()?;
            let right_schema = right.schema()?;
            // Pruning may only proceed when the join performs no duplicate
            // renaming (all output names already distinct); otherwise
            // dropping a column could change downstream names.
            let has_dup = right_schema
                .fields
                .iter()
                .any(|f| left_schema.index_of(&f.name).is_some());
            let mut req = match (&required, has_dup) {
                (Some(set), false) => set.clone(),
                _ => {
                    // Keep everything below; still recurse for nested joins.
                    return Ok(LogicalPlan::Join {
                        left: Box::new(prune_columns(left, require_all())?),
                        right: Box::new(prune_columns(right, require_all())?),
                        on: on.clone(),
                        right_label: right_label.clone(),
                    });
                }
            };
            for (l, r) in on {
                add_expr_columns(&mut req, l);
                add_expr_columns(&mut req, r);
            }
            let side_req = |schema: &Schema| -> std::collections::BTreeSet<String> {
                req.iter()
                    .filter(|name| crate::expr::resolve_column(schema, name).is_some())
                    .cloned()
                    .collect()
            };
            LogicalPlan::Join {
                left: Box::new(prune_columns(left, Some(side_req(&left_schema)))?),
                right: Box::new(prune_columns(right, Some(side_req(&right_schema)))?),
                on: on.clone(),
                right_label: right_label.clone(),
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let required = match required {
                None => None,
                Some(mut set) => {
                    for (e, _) in keys {
                        add_expr_columns(&mut set, e);
                    }
                    Some(set)
                }
            };
            LogicalPlan::Sort {
                input: Box::new(prune_columns(input, required)?),
                keys: keys.clone(),
            }
        }
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(prune_columns(input, required)?),
            n: *n,
        },
        // DISTINCT semantics depend on every column: keep all below.
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(prune_columns(input, require_all())?),
        },
        leaf => leaf.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinaryOp;
    use crate::planner::{plan_sql, TableSource};
    use lazyetl_store::{Catalog, Field, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let files = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("station", DataType::Utf8),
            Field::new("mtime", DataType::Timestamp),
        ])
        .unwrap();
        let records = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("start_time", DataType::Timestamp),
        ])
        .unwrap();
        c.create_table("files", Table::empty(files)).unwrap();
        c.create_table("records", Table::empty(records)).unwrap();
        c
    }

    #[test]
    fn timestamp_literals_coerced() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT file_id FROM records WHERE start_time > '2010-01-12T00:00:00.000'",
            &src,
        )
        .unwrap();
        let opt = optimize(&plan).unwrap();
        let d = opt.display();
        assert!(
            d.contains("2010-01-12T00:00:00.000000"),
            "coerced literal shown as timestamp:\n{d}"
        );
        // The predicate value is a Timestamp literal, not a string.
        assert!(
            opt.any_node(&mut |n| matches!(
                n,
                LogicalPlan::Filter { input, predicate: Expr::Binary { right, .. } }
                    if matches!(**input, LogicalPlan::TableScan { .. })
                        && matches!(**right, Expr::Literal(Value::Timestamp(_)))
            )),
            "timestamp literal in the scan's filter:\n{d}"
        );
    }

    #[test]
    fn constants_fold() {
        let e = Expr::lit(Value::Int64(2)).binary(BinaryOp::Mul, Expr::lit(Value::Int64(21)));
        assert_eq!(fold_expr(&e), Expr::Literal(Value::Int64(42)));
        let e = Expr::col("x").binary(
            BinaryOp::Gt,
            Expr::lit(Value::Int64(1)).binary(BinaryOp::Add, Expr::lit(Value::Int64(1))),
        );
        let folded = fold_expr(&e);
        assert_eq!(folded.to_string(), "(x > 2)");
    }

    #[test]
    fn filters_sink_into_join_sides() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT f.station FROM files f JOIN records r ON f.file_id = r.file_id \
             WHERE f.station = 'ISK' AND r.start_time > '2010-01-01'",
            &src,
        )
        .unwrap();
        let opt = optimize(&plan).unwrap();
        let d = opt.display();
        // Both predicates must sit below the Join.
        let join_line = d.lines().position(|l| l.contains("Join")).unwrap();
        let f1 = d
            .lines()
            .position(|l| l.contains("station = 'ISK'"))
            .unwrap();
        let f2 = d.lines().position(|l| l.contains("start_time >")).unwrap();
        assert!(f1 > join_line, "station predicate below join:\n{d}");
        assert!(f2 > join_line, "time predicate below join:\n{d}");
    }

    #[test]
    fn pushdown_through_alias_projection() {
        let c = catalog();
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT f.station FROM files f WHERE f.station = 'ISK'",
            &src,
        )
        .unwrap();
        let opt = optimize(&plan).unwrap();
        let d = opt.display();
        // Filter must sit directly on the scan (below the alias projection).
        let scan_line = d.lines().position(|l| l.contains("TableScan")).unwrap();
        let filter_line = d.lines().position(|l| l.contains("Filter")).unwrap();
        assert_eq!(
            filter_line + 1,
            scan_line,
            "filter directly above scan:\n{d}"
        );
    }

    #[test]
    fn cost_based_reorder_puts_smallest_first() {
        // Three tables with skewed sizes, written largest-first. The greedy
        // reorder must start from the smallest relation.
        let mut c = Catalog::new();
        let mk = |cols: Vec<(&str, Vec<i64>)>| -> Table {
            let schema = Schema::new(
                cols.iter()
                    .map(|(n, _)| Field::new(n, DataType::Int64))
                    .collect(),
            )
            .unwrap();
            let columns = cols
                .iter()
                .map(|(_, vals)| {
                    let values: Vec<Value> = vals.iter().map(|v| Value::Int64(*v)).collect();
                    lazyetl_store::Column::from_values(DataType::Int64, &values).unwrap()
                })
                .collect();
            Table::new(schema, columns).unwrap()
        };
        let big: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let mid: Vec<i64> = (0..100).collect();
        c.create_table("big", mk(vec![("k", big)])).unwrap();
        c.create_table("mid", mk(vec![("k", mid.clone()), ("k2", mid.clone())]))
            .unwrap();
        c.create_table("small", mk(vec![("k2", (0..10).collect())]))
            .unwrap();
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT b.k FROM big b JOIN mid m ON b.k = m.k JOIN small s ON m.k2 = s.k2",
            &src,
        )
        .unwrap();
        let model = crate::cost::CostModel::from_catalog(&c);
        let opt = optimize_with_cost(&plan, &model).unwrap();
        let d = opt.display();
        let scans: Vec<&str> = d
            .lines()
            .filter(|l| l.contains("TableScan"))
            .map(|l| l.trim())
            .collect();
        assert_eq!(
            scans,
            vec!["TableScan: small", "TableScan: mid", "TableScan: big"],
            "smallest relation leads the join chain:\n{d}"
        );
        // The rewrite must not change the output schema.
        let base = optimize(&plan).unwrap();
        assert_eq!(opt.schema().unwrap(), base.schema().unwrap(), "plan:\n{d}");
    }

    #[test]
    fn statless_model_keeps_as_written_order() {
        let c = catalog(); // empty tables, but present stats
        let src = TableSource::new(&c);
        let plan = plan_sql(
            "SELECT f.station FROM files f JOIN records r ON f.file_id = r.file_id",
            &src,
        )
        .unwrap();
        // Empty model: no estimates at all — identical to plain optimize().
        let model = crate::cost::CostModel::new();
        let opt = optimize_with_cost(&plan, &model).unwrap();
        assert_eq!(opt, optimize(&plan).unwrap());
    }

    #[test]
    fn remote_multiplier_biases_join_order() {
        // Two candidate joins of identical estimated size; the one over the
        // expensive (remote) mount must enter the chain last, so the full
        // accumulated selectivity applies to its rows at first touch.
        let mut c = Catalog::new();
        let mk_keyed = |n: usize, key: &str| -> Table {
            let schema = Schema::new(vec![Field::new(key, DataType::Int64)]).unwrap();
            let values: Vec<Value> = (0..n).map(|v| Value::Int64(v as i64 % 50)).collect();
            Table::new(
                schema,
                vec![lazyetl_store::Column::from_values(DataType::Int64, &values).unwrap()],
            )
            .unwrap()
        };
        let hub = Table::new(
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ])
            .unwrap(),
            vec![
                lazyetl_store::Column::from_values(
                    DataType::Int64,
                    &(0..50).map(Value::Int64).collect::<Vec<_>>(),
                )
                .unwrap(),
                lazyetl_store::Column::from_values(
                    DataType::Int64,
                    &(0..50).map(Value::Int64).collect::<Vec<_>>(),
                )
                .unwrap(),
            ],
        )
        .unwrap();
        c.create_table("hub", hub).unwrap();
        c.create_table("local_t", mk_keyed(400, "a")).unwrap();
        c.create_table("remote_t", mk_keyed(400, "b")).unwrap();
        let src = TableSource::new(&c);
        // Written remote-first, so keeping the as-written order would fail.
        let plan = plan_sql(
            "SELECT h.a FROM hub h JOIN remote_t r ON h.b = r.b JOIN local_t l ON h.a = l.a",
            &src,
        )
        .unwrap();
        let mut model = crate::cost::CostModel::from_catalog(&c);
        model.set_multiplier("remote_t", 10.0);
        let opt = optimize_with_cost(&plan, &model).unwrap();
        let d = opt.display();
        let pos = |t: &str| {
            d.lines()
                .position(|l| l.trim() == format!("TableScan: {t}"))
                .unwrap()
        };
        assert!(
            pos("local_t") < pos("remote_t"),
            "local relation joined before the equally-priced remote one:\n{d}"
        );
    }

    #[test]
    fn filter_not_pushed_through_limit() {
        let c = catalog();
        let src = TableSource::new(&c);
        // Build Filter over Limit manually (SQL can't express it directly).
        let inner = plan_sql("SELECT station FROM files LIMIT 5", &src).unwrap();
        let plan = LogicalPlan::Filter {
            input: Box::new(inner),
            predicate: Expr::col("station")
                .binary(BinaryOp::Eq, Expr::lit(Value::Utf8("ISK".into()))),
        };
        let opt = optimize(&plan).unwrap();
        let d = opt.display();
        let filter_line = d.lines().position(|l| l.contains("Filter")).unwrap();
        let limit_line = d.lines().position(|l| l.contains("Limit")).unwrap();
        assert!(filter_line < limit_line, "filter stays above limit:\n{d}");
    }
}
