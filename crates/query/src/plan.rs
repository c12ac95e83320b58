//! Logical query plans.
//!
//! Plans are ordinary immutable trees. The lazy rewriter in the core crate
//! inspects and rewrites them (the paper's "plan introspection … and plan
//! modification at run time"), so the type exposes structural helpers
//! ([`LogicalPlan::children`], [`LogicalPlan::transform_up`]) and a stable
//! textual rendering used by `EXPLAIN` and the demo (items 4 and 6 of the
//! demonstration scenario).
//!
//! Every plan pass — the optimizer's rewrites and the core crate's run-time
//! lazy rewrite alike — handles only the nodes it changes and hands every
//! other node to the one child map, [`LogicalPlan::try_map_children`].

use crate::error::{QueryError, Result};
use crate::expr::{infer_type, Expr};
use lazyetl_store::{Field, Schema, Table};
use std::convert::Infallible;
use std::sync::Arc;

/// A node of a logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a catalog-resident table.
    TableScan {
        /// Catalog table name.
        table: String,
        /// Output schema (resolved at plan time).
        schema: Schema,
    },
    /// Scan of an external (not-yet-loaded) table — the hook Lazy ETL
    /// replaces at run time with extracted data.
    ExternalScan {
        /// Logical name (e.g. `mseed.data`).
        name: String,
        /// Output schema.
        schema: Schema,
    },
    /// Data injected by a runtime plan rewrite (cache hits / fresh
    /// extraction results).
    InlineData {
        /// Display label, e.g. `lazy-extract(mseed.data, 3 files)`.
        label: String,
        /// The materialized rows.
        table: Arc<Table>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Column projection / computation.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by (expression, output name) pairs.
        group: Vec<(Expr, String)>,
        /// Aggregate (expression, output name) pairs; each expression is an
        /// [`Expr::Aggregate`].
        aggregates: Vec<(Expr, String)>,
    },
    /// Inner equi-join.
    Join {
        /// Left input (probe side).
        left: Box<LogicalPlan>,
        /// Right input (build side).
        right: Box<LogicalPlan>,
        /// Equi-join key pairs (left expression, right expression).
        on: Vec<(Expr, Expr)>,
        /// Label used to qualify duplicate right-side column names.
        right_label: String,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// (key expression, descending) pairs.
        keys: Vec<(Expr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: u64,
    },
    /// Duplicate elimination over all columns.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// A single empty row (enables `SELECT 1+1`).
    OneRow,
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> Result<Schema> {
        match self {
            LogicalPlan::TableScan { schema, .. } | LogicalPlan::ExternalScan { schema, .. } => {
                Ok(schema.clone())
            }
            LogicalPlan::InlineData { table, .. } => Ok(table.schema.clone()),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema()?;
                let fields = exprs
                    .iter()
                    .map(|(e, name)| Ok(Field::nullable(name, infer_type(e, &in_schema)?)))
                    .collect::<Result<Vec<_>>>()?;
                Schema::new(fields).map_err(QueryError::Store)
            }
            LogicalPlan::Aggregate {
                input,
                group,
                aggregates,
            } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::with_capacity(group.len() + aggregates.len());
                for (e, name) in group {
                    fields.push(Field::nullable(name, infer_type(e, &in_schema)?));
                }
                for (e, name) in aggregates {
                    fields.push(Field::nullable(name, infer_type(e, &in_schema)?));
                }
                Schema::new(fields).map_err(QueryError::Store)
            }
            LogicalPlan::Join {
                left,
                right,
                right_label,
                ..
            } => {
                let l = left.schema()?;
                let r = right.schema()?;
                l.join(&r, right_label).map_err(QueryError::Store)
            }
            LogicalPlan::OneRow => Ok(Schema::default()),
        }
    }

    /// Immediate child plans.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::ExternalScan { .. }
            | LogicalPlan::InlineData { .. }
            | LogicalPlan::OneRow => Vec::new(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Rebuild this node with every child replaced by `f(child)`; the
    /// node's own fields are cloned, and so are leaves.
    ///
    /// Children are visited left before right, and the first `Err` is
    /// returned without visiting a later sibling — the run-time rewriter
    /// relies on both (fetch order; no second fetch after a failed one).
    pub fn try_map_children<E>(
        &self,
        mut f: impl FnMut(&LogicalPlan) -> std::result::Result<LogicalPlan, E>,
    ) -> std::result::Result<LogicalPlan, E> {
        let mut child = |input: &LogicalPlan| f(input).map(Box::new);
        Ok(match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::ExternalScan { .. }
            | LogicalPlan::InlineData { .. }
            | LogicalPlan::OneRow => self.clone(),
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: child(input)?,
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                input: child(input)?,
                exprs: exprs.clone(),
            },
            LogicalPlan::Aggregate {
                input,
                group,
                aggregates,
            } => LogicalPlan::Aggregate {
                input: child(input)?,
                group: group.clone(),
                aggregates: aggregates.clone(),
            },
            LogicalPlan::Join {
                left,
                right,
                on,
                right_label,
            } => LogicalPlan::Join {
                left: child(left)?,
                right: child(right)?,
                on: on.clone(),
                right_label: right_label.clone(),
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: child(input)?,
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: child(input)?,
                n: *n,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: child(input)?,
            },
        })
    }

    /// Rebuild this tree bottom-up, applying `f` to every node.
    pub fn transform_up(&self, f: &mut impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let Ok(rebuilt) = self.try_map_children(|c| Ok::<_, Infallible>(c.transform_up(f)));
        f(rebuilt)
    }

    /// True if any node in the tree satisfies the predicate.
    pub fn any_node(&self, pred: &mut impl FnMut(&LogicalPlan) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        self.children().iter().any(|c| c.any_node(pred))
    }

    /// Render the plan as an indented tree.
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_node(&mut out, 0);
        out
    }

    fn fmt_node(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let line = match self {
            LogicalPlan::TableScan { table, .. } => format!("TableScan: {table}"),
            LogicalPlan::ExternalScan { name, .. } => {
                format!("ExternalScan: {name} (actual data, not loaded)")
            }
            LogicalPlan::InlineData { label, table } => {
                format!("InlineData: {label} [{} rows]", table.num_rows())
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let parts: Vec<String> = exprs
                    .iter()
                    .map(|(e, n)| {
                        if e.default_name() == *n {
                            e.to_string()
                        } else {
                            format!("{e} AS {n}")
                        }
                    })
                    .collect();
                format!("Project: {}", parts.join(", "))
            }
            LogicalPlan::Aggregate {
                group, aggregates, ..
            } => {
                let g: Vec<String> = group.iter().map(|(e, _)| e.to_string()).collect();
                let a: Vec<String> = aggregates.iter().map(|(e, _)| e.to_string()).collect();
                format!(
                    "Aggregate: groupBy=[{}], aggregates=[{}]",
                    g.join(", "),
                    a.join(", ")
                )
            }
            LogicalPlan::Join { on, .. } => {
                let conds: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                format!("Join(inner): {}", conds.join(" AND "))
            }
            LogicalPlan::Sort { keys, .. } => {
                let parts: Vec<String> = keys
                    .iter()
                    .map(|(e, desc)| format!("{e} {}", if *desc { "DESC" } else { "ASC" }))
                    .collect();
                format!("Sort: {}", parts.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit: {n}"),
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::OneRow => "OneRow".to_string(),
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        for c in self.children() {
            c.fmt_node(out, indent + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_store::DataType;

    fn scan(name: &str, fields: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: name.to_string(),
            schema: Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect()).unwrap(),
        }
    }

    #[test]
    fn schema_through_project_and_filter() {
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(
                    "t",
                    &[("a", DataType::Int64), ("b", DataType::Float64)],
                )),
                predicate: Expr::col("a").binary(
                    crate::expr::BinaryOp::Gt,
                    Expr::lit(lazyetl_store::Value::Int64(0)),
                ),
            }),
            exprs: vec![
                (Expr::col("b"), "b".to_string()),
                (
                    Expr::col("a").binary(
                        crate::expr::BinaryOp::Div,
                        Expr::lit(lazyetl_store::Value::Int64(2)),
                    ),
                    "half".to_string(),
                ),
            ],
        };
        let s = plan.schema().unwrap();
        assert_eq!(s.fields[0].data_type, DataType::Float64);
        assert_eq!(s.fields[1].name, "half");
        assert_eq!(s.fields[1].data_type, DataType::Float64);
    }

    #[test]
    fn join_schema_qualifies_duplicates() {
        let plan = LogicalPlan::Join {
            left: Box::new(scan("f", &[("file_id", DataType::Int64)])),
            right: Box::new(scan(
                "r",
                &[("file_id", DataType::Int64), ("seq", DataType::Int64)],
            )),
            on: vec![(Expr::col("file_id"), Expr::col("file_id"))],
            right_label: "r".to_string(),
        };
        let s = plan.schema().unwrap();
        let names: Vec<_> = s.fields.iter().map(|f| f.name.clone()).collect();
        assert_eq!(names, vec!["file_id", "r.file_id", "seq"]);
    }

    #[test]
    fn display_is_indented() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan("t", &[("a", DataType::Int64)])),
                predicate: Expr::col("a").binary(
                    crate::expr::BinaryOp::Eq,
                    Expr::lit(lazyetl_store::Value::Int64(1)),
                ),
            }),
            n: 5,
        };
        let d = plan.display();
        assert!(d.starts_with("Limit: 5\n"));
        assert!(d.contains("\n  Filter:"));
        assert!(d.contains("\n    TableScan: t"));
    }

    #[test]
    fn transform_up_replaces_scans() {
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::ExternalScan {
                name: "d".to_string(),
                schema: Schema::default(),
            }),
            predicate: Expr::lit(lazyetl_store::Value::Bool(true)),
        };
        let rewritten = plan.transform_up(&mut |node| match node {
            LogicalPlan::ExternalScan { .. } => LogicalPlan::OneRow,
            other => other,
        });
        assert!(rewritten.any_node(&mut |n| matches!(n, LogicalPlan::OneRow)));
        assert!(!rewritten.any_node(&mut |n| matches!(n, LogicalPlan::ExternalScan { .. })));
    }

    /// One plan holding every variant (schemas need not line up: nothing
    /// here asks for one).
    fn every_variant() -> LogicalPlan {
        let one = || Expr::lit(lazyetl_store::Value::Int64(1));
        let join = |left, right, label: &str| LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            on: vec![(Expr::col("a"), Expr::col("b"))],
            right_label: label.to_string(),
        };
        let data = join(
            scan("t", &[("a", DataType::Int64)]),
            LogicalPlan::ExternalScan {
                name: "d".to_string(),
                schema: Schema::default(),
            },
            "d",
        );
        let meta = join(
            LogicalPlan::InlineData {
                label: "rows".to_string(),
                table: Arc::new(Table::empty(Schema::default())),
            },
            LogicalPlan::OneRow,
            "o",
        );
        LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Sort {
                    input: Box::new(LogicalPlan::Project {
                        input: Box::new(LogicalPlan::Aggregate {
                            input: Box::new(LogicalPlan::Filter {
                                input: Box::new(join(data, meta, "m")),
                                predicate: Expr::col("a").binary(crate::expr::BinaryOp::Eq, one()),
                            }),
                            group: vec![(Expr::col("a"), "a".to_string())],
                            aggregates: vec![(
                                Expr::Aggregate {
                                    func: crate::expr::AggFunc::Count,
                                    arg: None,
                                    distinct: false,
                                },
                                "n".to_string(),
                            )],
                        }),
                        exprs: vec![(one(), "one".to_string())],
                    }),
                    keys: vec![(Expr::col("a"), true)],
                }),
                n: 3,
            }),
        }
    }

    /// The first line of a node's rendering, e.g. `TableScan: t`.
    fn head(p: &LogicalPlan) -> String {
        p.display().lines().next().unwrap().to_string()
    }

    #[test]
    fn child_map_identity_rebuilds_an_equal_plan() {
        fn id(p: &LogicalPlan) -> std::result::Result<LogicalPlan, Infallible> {
            p.try_map_children(id)
        }
        let plan = every_variant();
        let Ok(shallow) = plan.try_map_children(|c| Ok::<_, Infallible>(c.clone()));
        assert_eq!(shallow, plan);
        let Ok(deep) = id(&plan);
        assert_eq!(deep, plan);
        assert_eq!(plan.transform_up(&mut |n| n), plan);
    }

    #[test]
    fn child_map_visits_left_before_right() {
        fn visit(
            p: &LogicalPlan,
            seen: &mut Vec<String>,
        ) -> std::result::Result<LogicalPlan, Infallible> {
            seen.push(head(p));
            p.try_map_children(|c| visit(c, seen))
        }
        let mut seen = Vec::new();
        let Ok(_) = visit(&every_variant(), &mut seen);
        let leaves: Vec<&str> = seen
            .iter()
            .map(String::as_str)
            .filter(|l| l.contains("Scan") || l.starts_with("InlineData") || *l == "OneRow")
            .collect();
        assert_eq!(
            leaves,
            vec![
                "TableScan: t",
                "ExternalScan: d (actual data, not loaded)",
                "InlineData: rows [0 rows]",
                "OneRow"
            ]
        );
    }

    #[test]
    fn child_map_stops_at_the_first_err() {
        let plan = LogicalPlan::Join {
            left: Box::new(scan("a", &[])),
            right: Box::new(scan("b", &[])),
            on: vec![],
            right_label: "b".to_string(),
        };
        let mut seen = Vec::new();
        let out = plan.try_map_children(|c| {
            seen.push(head(c));
            Err::<LogicalPlan, _>(head(c))
        });
        assert_eq!(out, Err("TableScan: a".to_string()));
        assert_eq!(seen, vec!["TableScan: a"], "no sibling after the error");
    }
}
