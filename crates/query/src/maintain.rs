//! Maintainability classification for incremental result maintenance.
//!
//! The result recycler keeps final query results keyed by optimized-plan
//! fingerprint. When a refresh folds **insert-only** repository changes
//! into the warehouse (new files appear; nothing modified or removed),
//! many resident results can be *patched* from the delta instead of being
//! recomputed — the incremental-view-maintenance move that turns K
//! pollers into K subscribers paying O(delta).
//!
//! The soundness argument rides on the warehouse's file-id partitioning:
//! newly added files get **fresh** `file_id`s, so for any plan whose joins
//! all carry a `file_id` equi-key, `Q(old ∪ Δ) = Q(old) ∪ Q(Δ)` — the
//! cross terms (old rows joined against delta rows) vanish because the old
//! and new `file_id` sets are disjoint. This module decides, per optimized
//! plan, which of three classes it falls into:
//!
//! * [`Maintainability::Maintainable`] — filter/project/join cores
//!   (append the delta's result rows) and single root aggregations over
//!   such cores (merge SUM/COUNT/MIN/MAX/AVG group states);
//! * [`Maintainability::TimeScoped`] — not patchable, but structurally
//!   sound for *scoped invalidation*: if the plan's sample-time window is
//!   disjoint from the delta's record coverage, the delta provably
//!   contributes no rows and the cached result stays valid as-is;
//! * [`Maintainability::Opaque`] — anything else falls back to the
//!   pre-existing behaviour (drop on refresh, recompute on next query).

use crate::expr::{infer_type, AggFunc, Expr};
use crate::plan::LogicalPlan;
use lazyetl_store::DataType;

/// How one aggregate output column merges with its delta counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeSpec {
    /// `COUNT(...)`: add the two counts.
    Count,
    /// Integer `SUM`: checked i64 addition (overflow ⇒ recompute).
    SumInt,
    /// Float `SUM`: f64 addition.
    SumFloat,
    /// `MIN`: keep the SQL-smaller value.
    Min,
    /// `MAX`: keep the SQL-larger value.
    Max,
    /// `AVG`: recomputed from hidden SUM/COUNT companion columns the
    /// augmented plan carries at these absolute column positions.
    Avg {
        /// Absolute column index of the companion SUM in the state table.
        sum_col: usize,
        /// Absolute column index of the companion COUNT.
        cnt_col: usize,
    },
}

/// How a maintainable plan's cached state absorbs a delta result.
#[derive(Debug, Clone)]
pub enum MaintKind {
    /// Filter/project/join core: delta result rows are appended verbatim.
    Append,
    /// Root aggregation: group states merge column-wise.
    Aggregate {
        /// Leading group-by columns of the state table.
        group_cols: usize,
        /// One merge rule per aggregate column (visible + hidden), in
        /// state-table column order starting at `group_cols`.
        merges: Vec<MergeSpec>,
        /// The projection the planner put above the aggregate, re-applied
        /// to the merged state to produce the user-visible table. `None`
        /// when the aggregate itself is the plan root.
        post_project: Option<Vec<(Expr, String)>>,
    },
}

/// A plan the recycler can patch incrementally.
#[derive(Debug, Clone)]
pub struct MaintPlan {
    /// The plan to execute instead of the original: identical except that
    /// every `AVG` gains hidden `SUM`/`COUNT` companions and the planner's
    /// top projection is peeled off (the state table keeps raw group
    /// columns so delta groups can be matched). Running it over the delta
    /// tables yields exactly the rows/states to fold in.
    pub exec_plan: LogicalPlan,
    /// How the cached state absorbs a delta result.
    pub kind: MaintKind,
    /// Base tables the plan reads (scan leaf names, sorted, deduplicated).
    pub tables: Vec<String>,
}

/// Outcome of [`classify`].
#[derive(Debug, Clone)]
pub enum Maintainability {
    /// Patchable from insert-only deltas.
    Maintainable(MaintPlan),
    /// Not patchable, but safe to keep when the plan's sample-time window
    /// is disjoint from the delta's record time coverage.
    TimeScoped {
        /// Base tables the plan reads.
        tables: Vec<String>,
    },
    /// No incremental guarantees: invalidate on any intersecting refresh.
    Opaque,
}

/// Scan leaf names of `plan`, sorted and deduplicated.
pub fn referenced_tables(plan: &LogicalPlan) -> Vec<String> {
    let mut names = Vec::new();
    crate::cost::base_tables(plan, &mut names);
    names.sort();
    names.dedup();
    names
}

/// Is one ON pair a `file_id = file_id` equi-key (possibly qualified)?
fn is_file_id_pair(l: &Expr, r: &Expr) -> bool {
    let suffix_is =
        |e: &Expr| matches!(e, Expr::Column(name) if name.rsplit('.').next() == Some("file_id"));
    suffix_is(l) && suffix_is(r)
}

/// Does every join in the tree carry a `file_id` equi-key? (The delta
/// partition property: old and delta rows can never pair up.)
fn joins_partition_by_file_id(plan: &LogicalPlan) -> bool {
    !plan.any_node(&mut |n| {
        matches!(n, LogicalPlan::Join { on, .. }
            if !on.iter().any(|(l, r)| is_file_id_pair(l, r)))
    })
}

/// Structural check for the appendable core: scans, filters, projections
/// and `file_id`-keyed joins only. Anything else (aggregates, sorts,
/// limits, distinct, inline data) disqualifies the subtree.
fn core_ok(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::TableScan { .. } | LogicalPlan::ExternalScan { .. } | LogicalPlan::OneRow => {
            true
        }
        LogicalPlan::Filter { input, .. } => core_ok(input),
        LogicalPlan::Project { input, .. } => core_ok(input),
        LogicalPlan::Join {
            left, right, on, ..
        } => on.iter().any(|(l, r)| is_file_id_pair(l, r)) && core_ok(left) && core_ok(right),
        _ => false,
    }
}

/// Does any scan leaf expose a `sample_time` column? (Witnesses that the
/// data table participates in the join tree, so every delta-derived output
/// row carries a delta data row — the premise of time-scoped keeps.)
fn has_sample_time_leaf(plan: &LogicalPlan) -> bool {
    plan.any_node(&mut |n| {
        matches!(n, LogicalPlan::TableScan { schema, .. } | LogicalPlan::ExternalScan { schema, .. }
            if schema.index_of("sample_time").is_some())
    })
}

/// Classify an optimized plan for incremental maintenance.
///
/// Accepted maintainable shapes (everything else degrades gracefully):
///
/// * `core` — filters/projections over `file_id`-keyed joins of scans:
///   **append** the delta's rows;
/// * `Aggregate(core)` or `Project(Aggregate(core))` with non-DISTINCT
///   `COUNT`/`SUM`/`MIN`/`MAX`/`AVG` calls: **merge** group states; new
///   groups append in delta first-appearance order, matching what a full
///   recompute over `old ∪ Δ` would produce.
pub fn classify(plan: &LogicalPlan) -> Maintainability {
    let tables = referenced_tables(plan);
    if core_ok(plan) {
        return Maintainability::Maintainable(MaintPlan {
            exec_plan: plan.clone(),
            kind: MaintKind::Append,
            tables,
        });
    }
    // Peel the planner's top projection off a root aggregation.
    let (agg, post_project) = match plan {
        LogicalPlan::Project { input, exprs } => (input.as_ref(), Some(exprs.clone())),
        other => (other, None),
    };
    if let LogicalPlan::Aggregate {
        input,
        group,
        aggregates,
    } = agg
    {
        if core_ok(input) {
            if let Some(m) = aggregate_maint(input, group, aggregates, post_project, tables.clone())
            {
                return Maintainability::Maintainable(m);
            }
        }
    }
    if joins_partition_by_file_id(plan) && has_sample_time_leaf(plan) {
        return Maintainability::TimeScoped { tables };
    }
    Maintainability::Opaque
}

/// Build the augmented aggregate plan and its merge rules, or `None` when
/// an aggregate call is outside the mergeable set (DISTINCT, name clash).
fn aggregate_maint(
    input: &LogicalPlan,
    group: &[(Expr, String)],
    aggregates: &[(Expr, String)],
    post_project: Option<Vec<(Expr, String)>>,
    tables: Vec<String>,
) -> Option<MaintPlan> {
    let in_schema = input.schema().ok()?;
    let mut merges: Vec<MergeSpec> = Vec::with_capacity(aggregates.len());
    // Hidden SUM/COUNT companions for every AVG, appended after the
    // visible aggregates so existing column positions are untouched.
    let mut aux: Vec<(Expr, String)> = Vec::new();
    let existing: Vec<&str> = group
        .iter()
        .chain(aggregates.iter())
        .map(|(_, n)| n.as_str())
        .collect();
    let sum_spec = |arg: &Expr| -> Option<MergeSpec> {
        let sum_expr = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(arg.clone())),
            distinct: false,
        };
        match infer_type(&sum_expr, &in_schema).ok()? {
            DataType::Float64 => Some(MergeSpec::SumFloat),
            _ => Some(MergeSpec::SumInt),
        }
    };
    for (i, (e, _)) in aggregates.iter().enumerate() {
        let Expr::Aggregate {
            func,
            arg,
            distinct: false,
        } = e
        else {
            return None; // DISTINCT or non-aggregate expression
        };
        let spec = match func {
            AggFunc::Count => MergeSpec::Count,
            AggFunc::Min => MergeSpec::Min,
            AggFunc::Max => MergeSpec::Max,
            AggFunc::Sum => sum_spec(arg.as_deref()?)?,
            AggFunc::Avg => {
                let arg = arg.as_deref()?;
                let sum_name = format!("__maint_sum{i}");
                let cnt_name = format!("__maint_cnt{i}");
                if existing.contains(&sum_name.as_str()) || existing.contains(&cnt_name.as_str()) {
                    return None;
                }
                // Positions of the companions once appended: after group
                // columns, visible aggregates and previously queued aux.
                let base = group.len() + aggregates.len() + aux.len();
                aux.push((
                    Expr::Aggregate {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(arg.clone())),
                        distinct: false,
                    },
                    sum_name,
                ));
                aux.push((
                    Expr::Aggregate {
                        func: AggFunc::Count,
                        arg: Some(Box::new(arg.clone())),
                        distinct: false,
                    },
                    cnt_name,
                ));
                MergeSpec::Avg {
                    sum_col: base,
                    cnt_col: base + 1,
                }
            }
        };
        merges.push(spec);
    }
    // Merge rules for the companions themselves (they are plain SUM/COUNT
    // columns of the state table).
    let mut aux_specs = Vec::with_capacity(aux.len());
    for (e, _) in &aux {
        let Expr::Aggregate { func, arg, .. } = e else {
            unreachable!("aux entries are built as aggregates above");
        };
        aux_specs.push(match func {
            AggFunc::Count => MergeSpec::Count,
            _ => sum_spec(arg.as_deref()?)?,
        });
    }
    merges.extend(aux_specs);
    if post_project.is_none() && !aux.is_empty() {
        // No projection to hide the companions behind: the visible table
        // would leak them. The planner always wraps aggregates in a
        // projection, so this only guards hand-built plans.
        return None;
    }
    let mut all_aggs = aggregates.to_vec();
    all_aggs.extend(aux);
    Some(MaintPlan {
        exec_plan: LogicalPlan::Aggregate {
            input: Box::new(input.clone()),
            group: group.to_vec(),
            aggregates: all_aggs,
        },
        kind: MaintKind::Aggregate {
            group_cols: group.len(),
            merges,
            post_project,
        },
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_select, TableSource};
    use crate::{optimize, parse_select};
    use lazyetl_store::{Catalog, DataType, Field, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let files = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("station", DataType::Utf8),
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
        c
    }

    fn plan(sql: &str) -> LogicalPlan {
        let c = catalog();
        let stmt = parse_select(sql).unwrap();
        let p = plan_select(&stmt, &TableSource::new(&c)).unwrap();
        optimize(&p).unwrap()
    }

    #[test]
    fn filter_project_core_is_appendable() {
        let p = plan("SELECT station FROM files WHERE station = 'ISK'");
        match classify(&p) {
            Maintainability::Maintainable(m) => {
                assert!(matches!(m.kind, MaintKind::Append));
                assert_eq!(m.tables, vec!["files"]);
            }
            other => panic!("expected maintainable, got {other:?}"),
        }
    }

    #[test]
    fn file_id_join_core_is_appendable() {
        let p = plan(
            "SELECT f.station, d.sample_value FROM files f \
             JOIN data d ON f.file_id = d.file_id WHERE d.sample_value > 1.0",
        );
        match classify(&p) {
            Maintainability::Maintainable(m) => {
                assert!(matches!(m.kind, MaintKind::Append));
                assert_eq!(m.tables, vec!["data", "files"]);
            }
            other => panic!("expected maintainable, got {other:?}"),
        }
    }

    #[test]
    fn root_aggregate_merges_and_avg_gains_companions() {
        let p = plan(
            "SELECT f.station, COUNT(*), SUM(d.sample_value), AVG(d.sample_value) \
             FROM files f JOIN data d ON f.file_id = d.file_id GROUP BY f.station",
        );
        let Maintainability::Maintainable(m) = classify(&p) else {
            panic!("expected maintainable");
        };
        let MaintKind::Aggregate {
            group_cols,
            merges,
            post_project,
        } = &m.kind
        else {
            panic!("expected aggregate kind");
        };
        assert_eq!(*group_cols, 1);
        // COUNT, SUM(float), AVG + hidden SUM/COUNT companions.
        assert_eq!(
            merges.as_slice(),
            &[
                MergeSpec::Count,
                MergeSpec::SumFloat,
                MergeSpec::Avg {
                    sum_col: 4,
                    cnt_col: 5
                },
                MergeSpec::SumFloat,
                MergeSpec::Count,
            ]
        );
        assert!(post_project.is_some(), "planner's top projection is peeled");
        let LogicalPlan::Aggregate { aggregates, .. } = &m.exec_plan else {
            panic!("exec plan root is the aggregate");
        };
        assert_eq!(aggregates.len(), 5, "3 visible + 2 companions");
    }

    #[test]
    fn sort_over_data_join_is_time_scoped() {
        let p = plan(
            "SELECT d.sample_value FROM files f JOIN data d ON f.file_id = d.file_id \
             WHERE d.sample_time > '2010-01-01T00:00:00.000' ORDER BY d.sample_value",
        );
        assert!(matches!(classify(&p), Maintainability::TimeScoped { .. }));
    }

    #[test]
    fn non_file_id_join_and_distinct_are_opaque() {
        let p = plan("SELECT f.station FROM files f JOIN records r ON f.station = r.seq_no");
        assert!(matches!(classify(&p), Maintainability::Opaque));
        let p = plan("SELECT COUNT(DISTINCT station) FROM files");
        assert!(matches!(classify(&p), Maintainability::Opaque));
        // Metadata-only ORDER BY: no sample_time leaf, so not even
        // time-scoped.
        let p = plan("SELECT station FROM files ORDER BY station");
        assert!(matches!(classify(&p), Maintainability::Opaque));
    }
}
