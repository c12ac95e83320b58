//! Query substrate for the Lazy ETL reproduction.
//!
//! A self-contained relational query engine in the style the paper's host
//! system (MonetDB) exposes to its SQL front end:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — a SQL subset large enough to run
//!   the paper's Figure-1 queries verbatim (SELECT with joins, WHERE,
//!   GROUP BY, HAVING, ORDER BY, LIMIT, DISTINCT, aggregates);
//! * [`expr`] — expression trees, SQL three-valued evaluation semantics;
//! * [`plan`] — logical plans with structural helpers for *plan
//!   introspection and rewriting*, the mechanism §3.1 of the paper builds
//!   lazy extraction on; every plan pass is a per-node function over the
//!   one child map, [`LogicalPlan::try_map_children`];
//! * [`planner`] — AST→plan translation including **view expansion** (the
//!   lazy-transformation vehicle of §3.2);
//! * [`optimizer`] — timestamp-literal coercion, constant folding and
//!   predicate pushdown (the compile-time plan reorganization that puts
//!   metadata predicates first), plus cost-based join reordering when
//!   statistics are available;
//! * [`cost`] — cardinality/cost estimation over the store's persisted
//!   column statistics (histograms, distinct sketches, per-source
//!   access-cost multipliers);
//! * [`exec`] — column-at-a-time execution with full materialization
//!   (MonetDB's model, which makes intermediate-result recycling natural),
//!   running on the store's typed kernels with a scalar-interpreter
//!   fallback, plus zone-map pruning of scans;
//! * [`prune`] — the interval logic behind zone-map and record-level
//!   pruning (shared with the core rewriter);
//! * [`metrics`] — executor counters (rows scanned/pruned, vectorized
//!   batches) surfaced through warehouse stats.

#![warn(missing_docs)]

pub mod ast;
pub mod cost;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod maintain;
pub mod metrics;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod prune;
pub mod time;

pub use ast::{SelectItem, SelectStmt, Statement};
pub use cost::{CostModel, TableCost};
pub use error::{QueryError, Result};
pub use exec::{execute, ExecContext};
pub use expr::{AggFunc, BinaryOp, Expr, UnaryOp};
pub use maintain::{classify, MaintKind, MaintPlan, Maintainability, MergeSpec};
pub use metrics::{ExecCounters, ExecMetrics};
pub use optimizer::{optimize, optimize_with_cost};
pub use parser::{parse, parse_select};
pub use plan::LogicalPlan;
pub use planner::{plan_select, plan_sql, Resolved, TableSource};
pub use prune::{predicate_excludes, TimeInterval};
